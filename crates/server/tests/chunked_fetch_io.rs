//! Fetching a done job's output in chunks reads each byte of it about
//! once: `fetch_output_chunk` seeks to its offset rather than reading the
//! file up to it. Over an output of at least 4 MiB fetched in 64 KiB
//! chunks, the bytes this process reads (`rchar` in `/proc/self/io`) stay
//! below twice the output size; reading up to each chunk's offset would
//! read about 32 times it.
//!
//! `rchar` counts the whole process, so this is the only test in its file.
#![cfg(target_os = "linux")]

use std::path::PathBuf;
use std::time::Duration;

use nexsort_server::{JobInput, JobSpec, JobState, Server, ServerConfig};

const CHUNK: u64 = 64 * 1024;
const MIN_OUTPUT: u64 = 4 << 20;

/// Bytes this process has read so far, through any read call.
fn rchar() -> u64 {
    let io = std::fs::read_to_string("/proc/self/io").expect("read /proc/self/io");
    let line = io.lines().find(|l| l.starts_with("rchar:")).expect("rchar line");
    line.split_whitespace().nth(1).and_then(|n| n.parse().ok()).expect("rchar value")
}

/// A scratch directory removed when the test ends, passing or not.
struct ScratchDir(PathBuf);

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// About 4.4 MB of XML: 64 groups of 768 keyed items, each group small
/// enough to sort in memory.
fn doc() -> Vec<u8> {
    let mut xml = String::from("<r>");
    for g in 0..64 {
        xml.push_str(&format!("<g k=\"{}\">", (g * 37) % 64));
        for i in 0..768 {
            let text = "v".repeat(64 + i % 16);
            xml.push_str(&format!("<x k=\"{:05}\">{text}</x>", (i * 7919 + g) % 10_000));
        }
        xml.push_str("</g>");
    }
    xml.push_str("</r>");
    xml.into_bytes()
}

#[test]
fn chunked_fetch_reads_each_output_byte_about_once() {
    let dir = ScratchDir(
        std::env::temp_dir().join(format!("nexsort-chunked-fetch-io-{}", std::process::id())),
    );
    let server = Server::start(ServerConfig::new(1, &dir.0)).expect("start the daemon");
    let spec = JobSpec {
        input: JobInput::Inline(doc()),
        default_rule: Some("@k".into()),
        mem_frames: 256,
        ..JobSpec::default()
    };
    let id = server.submit(spec).expect("job accepted");
    let st = server.wait(id, Duration::from_secs(600)).expect("job exists");
    assert_eq!(st.state, JobState::Done, "{:?}", st.error);

    let before = rchar();
    let mut fetched = Vec::new();
    let total = loop {
        let (chunk, total, eof) =
            server.fetch_output_chunk(id, fetched.len() as u64, CHUNK).expect("fetch a chunk");
        fetched.extend(chunk);
        if eof {
            break total;
        }
    };
    let read = rchar() - before;

    assert!(total >= MIN_OUTPUT, "output is only {total} bytes");
    assert_eq!(fetched, std::fs::read(&st.output).expect("read the output"));
    eprintln!("chunked fetch: read {read} bytes for a {total}-byte output");
    assert!(read < 2 * total, "fetching {total} bytes read {read}");
    server.shutdown();
}
