//! The `xsort sort` path, call for call, with a span around each call into
//! a layer: `fs::read`, `stage_input`, `Nexsort::sort_xml_extent`,
//! `SortedDoc::to_xml` and `fs::write`. The traced CLI child runs it on a
//! file device, and the daemon workload runs it in memory to make the
//! reference outputs the daemon must match byte for byte.

use std::rc::Rc;

use nexsort::{Nexsort, NexsortOptions, SortReport, SortedDoc};
use nexsort_cli::app::{disk_spec, parse_args, Cli, Command};
use nexsort_extmem::{Disk, IoCat, IoSnapshot, SliceReader};
use nexsort_xml::{EventSource, XmlParser};

use crate::stats::{median, Report};
use crate::trace::Tracer;

/// A finished one-shot sort, kept open for the side spans.
pub struct OneShot {
    cli: Cli,
    disk: Rc<Disk>,
    input: Vec<u8>,
    doc: SortedDoc,
    /// The sorted XML text.
    pub output: Vec<u8>,
}

/// Sort as `xsort` would with these arguments (`sort INPUT -o OUT ...`),
/// recording one span per layer call under a root span `cli.sort`.
pub fn sort(args: &[String], tr: &mut Tracer, job: u64) -> Result<OneShot, String> {
    let root = tr.enter("cli.sort", job, None);
    let cli = parse_args(args)?;
    let Command::Sort { input } = &cli.command else {
        return Err(format!("expected a sort command line, got {args:?}"));
    };
    let input = input.clone();
    let bytes = tr
        .time("cli.read", job, Some(root), || std::fs::read(&input))
        .map_err(|e| format!("cannot read {input:?}: {e}"))?;
    let disk = disk_spec(&cli)?.build().map_err(|e| e.to_string())?.disk;
    let ext = tr
        .time("baseline.stage", job, Some(root), || nexsort_baseline::stage_input(&disk, &bytes))
        .map_err(|e| e.to_string())?;
    let opts = NexsortOptions {
        mem_frames: ((cli.mem_bytes / cli.block_size).max(NexsortOptions::MIN_MEM_FRAMES as u64))
            as usize,
        threshold: cli.threshold,
        depth_limit: cli.depth_limit,
        ..Default::default()
    };
    let sorter = Nexsort::new(disk.clone(), opts, cli.spec.clone()).map_err(|e| e.to_string())?;
    let doc = tr
        .time("core.sort", job, Some(root), || sorter.sort_xml_extent(&ext))
        .map_err(|e| e.to_string())?;
    let output = tr
        .time("core.emit", job, Some(root), || doc.to_xml(cli.pretty))
        .map_err(|e| e.to_string())?;
    if let Some(path) = &cli.output {
        tr.time("cli.write", job, Some(root), || std::fs::write(path, &output))
            .map_err(|e| format!("cannot write {path:?}: {e}"))?;
    }
    tr.exit(root);
    Ok(OneShot { cli, disk, input: bytes, doc, output })
}

impl OneShot {
    /// Spans off the user path: one `XmlParser` pass over the input (the
    /// parse share of `core.sort`) and `SortedDoc::verify_sorted`.
    pub fn side_spans(&self, tr: &mut Tracer, job: u64) -> Result<(), String> {
        tr.time("xml.parse", job, None, || {
            let mut parser = XmlParser::new(SliceReader::new(&self.input));
            while parser.next_event()?.is_some() {}
            Ok::<(), nexsort_xml::XmlError>(())
        })
        .map_err(|e| e.to_string())?;
        let checked = tr
            .time("core.verify", job, None, || {
                self.doc.verify_sorted(&self.cli.spec, self.cli.depth_limit)
            })
            .map_err(|e| e.to_string())?;
        if checked < self.doc.report.n_records {
            return Err(format!(
                "verify_sorted checked {checked} of {} records",
                self.doc.report.n_records
            ));
        }
        Ok(())
    }

    /// The sort's logical block transfers, as `xsort sort --stats` reports
    /// them.
    pub fn logical_io(&self) -> u64 {
        self.doc.report.io.grand_total()
    }

    /// Per-layer counters: the sort report plus the device's whole-run I/O
    /// snapshot.
    pub fn counters(&self) -> Vec<(String, f64)> {
        counters(&self.doc.report, &self.disk.stats().snapshot())
    }
}

/// Per-layer times of the one-shot sorts traced in `tr`: each layer span's
/// median duration, and the median self time of the root span `cli.sort`.
pub fn layer_metrics(tr: &Tracer, report: &mut Report) {
    for (metric, span) in [
        ("cli.read_s", "cli.read"),
        ("baseline.stage_s", "baseline.stage"),
        ("core.sort_s", "core.sort"),
        ("core.emit_s", "core.emit"),
        ("cli.write_s", "cli.write"),
        ("xml.parse_s", "xml.parse"),
        ("core.verify_s", "core.verify"),
    ] {
        report.set(metric, median(&tr.durations(span)));
    }
    let roots: Vec<f64> = (0..tr.spans.len())
        .filter(|&k| tr.spans[k].name == "cli.sort")
        .map(|k| tr.self_secs(k))
        .collect();
    report.set("cli.self_s", median(&roots));
}

/// Per-layer counters from a sort report and an I/O snapshot.
pub fn counters(report: &SortReport, io: &IoSnapshot) -> Vec<(String, f64)> {
    let mut out = vec![
        ("core.records".to_string(), report.n_records as f64),
        ("core.subtree_sorts_internal".into(), f64::from(report.internal_sorts)),
        ("core.subtree_sorts_external".into(), f64::from(report.external_sorts)),
        ("core.merges".into(), f64::from(report.degenerate_merges)),
    ];
    for cat in IoCat::ALL {
        out.push((format!("extmem.io.{}.reads", cat.label()), io.reads(cat) as f64));
        out.push((format!("extmem.io.{}.writes", cat.label()), io.writes(cat) as f64));
    }
    let lookups = io.total_cache_hits() + io.total_cache_misses();
    out.extend([
        ("extmem.phys_reads".to_string(), io.total_phys_reads() as f64),
        ("extmem.phys_writes".into(), io.total_phys_writes() as f64),
        ("extmem.retries".into(), io.total_retries() as f64),
        ("extmem.pool.lookups".into(), lookups as f64),
        ("extmem.pool.hit_ratio".into(), io.cache_hit_ratio().unwrap_or(0.0)),
        ("extmem.pool.evictions".into(), io.total_cache_evictions() as f64),
        ("extmem.pool.writebacks".into(), io.total_cache_writebacks() as f64),
    ]);
    out
}
