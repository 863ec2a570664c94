//! End-to-end fault injection, recovery, and determinism.
//!
//! The contract under test (ISSUE: robustness):
//!
//! 1. same fault seed -> byte-identical sorted output AND identical
//!    `IoStats` snapshots, retries included (deterministic replay);
//! 2. a moderate transient-fault rate (>= 1%) heals entirely through the
//!    retry layer: the output is *exactly* the fault-free output and the
//!    logical transfer counts do not change -- the cost shows up only in
//!    the separate retry/backoff counters;
//! 3. persistent corruption (bit flips surviving re-reads) is detected by
//!    the checksum layer, never silently, and reported as a structured
//!    `SortFailure` naming the phase.

use std::rc::Rc;

use nexsort::{Nexsort, NexsortOptions, SortFailure, SortedDoc};
use nexsort_baseline::stage_input;
use nexsort_extmem::{
    Disk, ExtError, FaultKind, FaultPlan, IoPhase, IoSnapshot, MemDevice, RetryPolicy,
};
use nexsort_xml::{SortSpec, XmlError};

const BLOCK: usize = 256;

fn doc() -> String {
    let mut d = String::from("<catalog>");
    for g in 0..8 {
        d.push_str(&format!("<group k=\"{:02}\">", 7 - g));
        for i in 0..60 {
            d.push_str(&format!(
                "<item k=\"{:03}\"><sub k=\"z\">text-{i:03}</sub><sub k=\"a\"/></item>",
                59 - i
            ));
        }
        d.push_str("</group>");
    }
    d.push_str("</catalog>");
    d
}

fn sort_under(plan: FaultPlan, retries: u32) -> Result<(Vec<u8>, IoSnapshot), Box<SortFailure>> {
    let (disk, _injector) = Disk::new_faulty(Box::new(MemDevice::new(BLOCK)), plan);
    if retries > 0 {
        disk.set_retry_policy(RetryPolicy::retries(retries));
    }
    let before = disk.stats().snapshot();
    let doc = sort_on(&disk)?;
    let xml = doc.to_xml(false).expect("serialization after a successful sort");
    Ok((xml, disk.stats().snapshot().since(&before)))
}

fn sort_on(disk: &Rc<Disk>) -> Result<SortedDoc, Box<SortFailure>> {
    let input = stage_input(disk, doc().as_bytes())
        .map_err(|e| SortFailure::classify(disk, XmlError::Ext(e), &disk.stats().snapshot()))
        .map_err(Box::new)?;
    let spec = SortSpec::by_attribute("k");
    let opts = NexsortOptions { mem_frames: 12, ..Default::default() };
    let sorter = Nexsort::new(disk.clone(), opts, spec)
        .map_err(|e| SortFailure::classify(disk, e, &disk.stats().snapshot()))
        .map_err(Box::new)?;
    sorter.try_sort_xml_extent(&input)
}

#[test]
fn same_fault_seed_replays_byte_identically() {
    let plan = || FaultPlan::transient(0xDEAD_BEEF, 0.02);
    let (xml_a, io_a) = sort_under(plan(), 4).expect("seeded transient faults must heal");
    let (xml_b, io_b) = sort_under(plan(), 4).expect("replay");
    assert_eq!(xml_a, xml_b, "same seed must give byte-identical output");
    assert_eq!(io_a, io_b, "same seed must give identical IoStats, retries included");
    assert!(io_a.total_retries() > 0, "a 2% rate over this workload must retry");
}

#[test]
fn different_seeds_change_retries_but_never_the_output() {
    let (clean, clean_io) = sort_under(FaultPlan::new(1), 0).expect("fault-free");
    assert_eq!(clean_io.total_retries(), 0);
    for seed in [3u64, 99, 12345] {
        let (xml, io) = sort_under(FaultPlan::transient(seed, 0.02), 4)
            .unwrap_or_else(|f| panic!("seed {seed} must heal: {f}"));
        assert_eq!(xml, clean, "seed {seed}: retries must be invisible in the output");
        assert_eq!(
            io.grand_total(),
            clean_io.grand_total(),
            "seed {seed}: logical transfers must match the fault-free run"
        );
    }
}

#[test]
fn one_percent_transient_faults_heal_to_the_fault_free_output() {
    // The ISSUE's acceptance bar: >= 1% transient fault rate end to end.
    let (clean, _) = sort_under(FaultPlan::new(0), 0).expect("fault-free");
    let (xml, io) = sort_under(FaultPlan::transient(42, 0.01), 4).expect("1% must heal");
    assert_eq!(xml, clean);
    assert!(io.total_retries() > 0, "retries must be visible in IoStats");
    assert!(io.backoff_units() > 0, "backoff must be accounted");
}

#[test]
fn read_path_corruption_is_caught_by_checksums_and_healed() {
    // Bit flips on the read path corrupt the buffer, not the stored block:
    // the checksum rejects the read and the retry re-reads intact data.
    let plan = FaultPlan::new(77).with_read_flip_rate(0.01);
    let (clean, _) = sort_under(FaultPlan::new(77), 0).expect("fault-free");
    let (xml, io) = sort_under(plan, 4).expect("read flips must heal via checksum+retry");
    assert_eq!(xml, clean);
    assert!(io.total_retries() > 0);
}

#[test]
fn persistent_corruption_is_a_structured_failure_naming_the_phase() {
    // Bit flips on the *write* path persist: every re-read fails the
    // checksum and the retry budget runs out.
    let mut plan = FaultPlan::new(5);
    for w in 30..50_000 {
        plan = plan.at_write(w, FaultKind::BitFlip);
    }
    let failure = match sort_under(plan, 3) {
        Err(f) => f,
        Ok(_) => panic!("persistent corruption must not sort successfully"),
    };
    assert!(!matches!(failure.phase, IoPhase::Setup), "phase must be named: {failure}");
    assert!(failure.cat.is_some(), "failing category must be recorded: {failure}");
    assert!(failure.block.is_some());
    assert_eq!(failure.attempts, 4, "1 try + 3 retries");
    match &failure.error {
        XmlError::Ext(ExtError::RetriesExhausted { attempts, last }) => {
            assert_eq!(*attempts, 4);
            assert!(
                matches!(**last, ExtError::ChecksumMismatch { .. }),
                "checksum must be what detects the corruption: {last}"
            );
        }
        other => panic!("expected RetriesExhausted, got {other}"),
    }
    let msg = failure.to_string();
    assert!(msg.contains("sort failed during"), "{msg}");
    assert!(!msg.contains("setup"), "{msg}");
}

#[test]
fn zero_retry_policy_fails_fast_on_any_injected_fault() {
    let plan = FaultPlan::new(8).at_write(25, FaultKind::TransientError);
    let failure = match sort_under(plan, 0) {
        Err(f) => f,
        Ok(_) => panic!("a scripted fault with no retries must surface"),
    };
    assert_eq!(failure.attempts, 1);
    assert!(
        matches!(failure.error, XmlError::Ext(ExtError::Io(..))),
        "without retries the raw transient error escapes: {}",
        failure.error
    );
}

#[test]
fn faulty_device_composes_with_the_output_phase() {
    // Exercise the full pipeline -- sort AND the external output writer --
    // under transient faults, checking the streamed output too.
    let plan = FaultPlan::transient(21, 0.015);
    let (disk, _inj) = Disk::new_faulty(Box::new(MemDevice::new(BLOCK)), plan);
    disk.set_retry_policy(RetryPolicy::retries(4));
    let sorted = sort_on(&disk).expect("must heal");
    let (_run, report) = sorted.write_output_run().expect("output phase heals too");
    assert!(report.records > 0);
    let clean_disk = Disk::new_mem(BLOCK);
    let clean = sort_on(&clean_disk).expect("fault-free");
    for pretty in [false, true] {
        let mut ext = Vec::new();
        let n = sorted.write_xml(&mut ext, pretty).expect("external serialization heals");
        assert_eq!(n, sorted.report.n_records);
        let reference = nexsort_xml::events_to_xml(&clean.to_events().unwrap(), pretty);
        assert_eq!(ext, reference, "pretty={pretty}");
    }
}
