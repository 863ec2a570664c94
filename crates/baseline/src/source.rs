//! Record sources: uniform streaming input for the sorters, and the one
//! staging path ([`stage_reader`]) and one output path ([`write_xml`],
//! [`write_output_file`]) every front end moves a document through.
//!
//! Both sorters consume a document as a stream of records. The stream can
//! come from parsing XML text resident on the device (charging `input-read`
//! I/Os, the paper's "Reading the input") or from an already-encoded record
//! extent (used by the benchmarks to factor out parse CPU, and internally
//! after the deferred-key resolution pre-pass).

use nexsort_extmem::{
    ByteReader, ByteSink, Disk, ExtError, ExtStack, Extent, ExtentReader, ExtentWriter, IoCat,
    IoPhase, IoSink, MemoryBudget,
};
use nexsort_xml::{
    Event, EventSource, KeyValue, PathComp, PathedRec, Rec, RecBuilder, RecDecoder, Result,
    SortSpec, TagDict, XmlError, XmlParser, XmlWriter,
};
use std::fs::File;
use std::io::{BufWriter, Read, Write};
use std::path::Path;
use std::rc::Rc;

/// A stream of records in document order.
pub trait RecSource {
    /// The next record, or `None` at end of stream.
    fn next_rec(&mut self) -> Result<Option<Rec>>;

    /// Drain the rest of the stream into memory (tests, small outputs).
    fn collect_recs(&mut self) -> Result<Vec<Rec>> {
        let mut out = Vec::new();
        while let Some(rec) = self.next_rec()? {
            out.push(rec);
        }
        Ok(out)
    }
}

/// Records decoded from an extent of encoded records.
pub struct ExtentRecSource {
    dec: RecDecoder<ExtentReader>,
}

impl ExtentRecSource {
    /// Stream all records of `extent`, charging reads to `cat`.
    pub fn new(
        disk: Rc<Disk>,
        budget: &MemoryBudget,
        extent: &Extent,
        cat: IoCat,
    ) -> nexsort_extmem::Result<Self> {
        let reader = ExtentReader::new(disk, budget, extent, cat)?;
        Ok(Self { dec: RecDecoder::new(reader) })
    }

    /// Stream `len` bytes of records starting at `start` within `extent`
    /// (used to stream a subtree range off the data stack).
    pub fn range(
        disk: Rc<Disk>,
        budget: &MemoryBudget,
        extent: &Extent,
        start: u64,
        len: u64,
        cat: IoCat,
    ) -> nexsort_extmem::Result<Self> {
        let mut reader = ExtentReader::new(disk, budget, extent, cat)?;
        reader.seek(start);
        Ok(Self { dec: RecDecoder::with_limit(reader, len) })
    }
}

/// A decoder over any byte stream of encoded records (e.g. a sorted run).
impl<R: ByteReader> RecSource for RecDecoder<R> {
    fn next_rec(&mut self) -> Result<Option<Rec>> {
        RecDecoder::next_rec(self)
    }
}

impl RecSource for ExtentRecSource {
    fn next_rec(&mut self) -> Result<Option<Rec>> {
        self.dec.next_rec()
    }
}

/// Records produced by parsing XML text from an extent through the
/// event-to-record builder (keys evaluated on the fly).
pub struct ParsedRecSource {
    parser: XmlParser<ExtentReader>,
    builder: RecBuilder,
    dict: TagDict,
    queue: std::collections::VecDeque<Rec>,
    scratch: Vec<Rec>,
}

impl ParsedRecSource {
    /// Parse `extent` as XML text (reads charged to [`IoCat::InputRead`]).
    pub fn new(
        disk: Rc<Disk>,
        budget: &MemoryBudget,
        extent: &Extent,
        spec: &SortSpec,
        compaction: bool,
    ) -> nexsort_extmem::Result<Self> {
        let reader = ExtentReader::new(disk, budget, extent, IoCat::InputRead)?;
        Ok(Self {
            parser: XmlParser::new(reader),
            builder: RecBuilder::new(spec.clone(), compaction),
            dict: TagDict::new(),
            queue: std::collections::VecDeque::new(),
            scratch: Vec::new(),
        })
    }

    /// The tag dictionary accumulated while parsing (needed to emit output).
    pub fn into_dict(self) -> TagDict {
        self.dict
    }

    /// Borrow the dictionary built so far.
    pub fn dict(&self) -> &TagDict {
        &self.dict
    }
}

impl RecSource for ParsedRecSource {
    fn next_rec(&mut self) -> Result<Option<Rec>> {
        loop {
            if let Some(rec) = self.queue.pop_front() {
                return Ok(Some(rec));
            }
            match self.parser.next_event()? {
                None => return Ok(None),
                Some(ev) => {
                    self.scratch.clear();
                    self.builder.push_event(&ev, &mut self.dict, &mut self.scratch)?;
                    self.queue.extend(self.scratch.drain(..));
                }
            }
        }
    }
}

/// An in-memory record source (tests, generators).
pub struct VecRecSource {
    recs: std::vec::IntoIter<Rec>,
}

impl VecRecSource {
    /// Stream the given records.
    pub fn new(recs: Vec<Rec>) -> Self {
        Self { recs: recs.into_iter() }
    }
}

impl RecSource for VecRecSource {
    fn next_rec(&mut self) -> Result<Option<Rec>> {
        Ok(self.recs.next())
    }
}

/// A stream of key-path-annotated records.
pub trait PathedSource {
    /// The next annotated record, or `None` at end of stream.
    fn next_pathed(&mut self) -> Result<Option<PathedRec>>;
}

/// Adapts a [`RecSource`] (deferred keys already resolved) into a
/// [`PathedSource`] by tracking the root-to-here path over level
/// transitions. `depth_limit` implements depth-limited sorting: with
/// `Some(d)`, only elements at level <= `d` have their children reordered,
/// so path components at levels > `d + 1` are masked to `Missing` and those
/// siblings keep document order (the sequence tiebreak).
pub struct PathedAdapter<S: RecSource> {
    src: S,
    path: Vec<PathComp>,
    base: u32,
    depth_limit: Option<u32>,
    started: bool,
}

impl<S: RecSource> PathedAdapter<S> {
    /// Adapt `src`; the first record's level defines the path base (so
    /// subtree streams with absolute levels work unchanged).
    pub fn new(src: S, depth_limit: Option<u32>) -> Self {
        Self { src, path: Vec::new(), base: 0, depth_limit, started: false }
    }

    /// Recover the wrapped source.
    pub fn into_inner(self) -> S {
        self.src
    }
}

impl<S: RecSource> PathedSource for PathedAdapter<S> {
    fn next_pathed(&mut self) -> Result<Option<PathedRec>> {
        let Some(rec) = self.src.next_rec()? else {
            return Ok(None);
        };
        if matches!(rec, Rec::KeyPatch(_)) {
            return Err(XmlError::Record(
                "deferred keys must be resolved before key-path sorting".into(),
            ));
        }
        if !self.started {
            self.base = rec.level().saturating_sub(1);
            self.started = true;
        }
        if rec.level() <= self.base {
            return Err(XmlError::Record(format!(
                "record level {} at or below stream base {}",
                rec.level(),
                self.base
            )));
        }
        let rel = (rec.level() - self.base) as usize;
        if rel > self.path.len() + 1 {
            return Err(XmlError::Record(format!(
                "level jump to {} (relative {rel}) in pathed stream",
                rec.level()
            )));
        }
        self.path.truncate(rel - 1);
        let masked = self.depth_limit.is_some_and(|d| rec.level() > d + 1);
        let key = if masked { KeyValue::Missing } else { rec.key().clone() };
        self.path.push(PathComp { key, seq: rec.seq() });
        Ok(Some(PathedRec { path: nexsort_xml::KeyPath { comps: self.path.clone() }, rec }))
    }
}

/// Store a byte buffer on the disk as a fresh extent (see [`stage_reader`]).
pub fn stage_input(disk: &Rc<Disk>, data: &[u8]) -> nexsort_extmem::Result<Extent> {
    stage_reader(disk, data)
}

/// Copy a document from `input` onto the disk as a fresh extent, one block
/// at a time, *uncharged*: staging the input is not part of the sort.
pub fn stage_reader(disk: &Rc<Disk>, mut input: impl Read) -> nexsort_extmem::Result<Extent> {
    // A private budget so staging never competes with the sort's frames.
    let staging_budget = MemoryBudget::new(1);
    let stats = disk.stats();
    let before = stats.snapshot();
    let mut w = ExtentWriter::new(disk.clone(), &staging_budget, IoCat::SortScratch)?;
    let mut block = vec![0u8; disk.block_size()];
    loop {
        let n = input.read(&mut block).map_err(ExtError::Io)?;
        if n == 0 {
            break;
        }
        w.write_all(&block[..n])?;
    }
    let ext = w.finish()?;
    // Roll back the accounting (logical and physical): staging is setup,
    // not algorithm cost.
    let delta = stats.snapshot().since(&before);
    // xlint::allow(R7): staging is deliberately invisible to measurements.
    stats.sub_writes(IoCat::SortScratch, delta.writes(IoCat::SortScratch));
    stats.sub_phys_writes(IoCat::SortScratch, delta.phys_writes(IoCat::SortScratch)); // xlint::allow(R7)
    Ok(ext)
}

/// Serialize sorted records as XML text into `out` (Section 3.2): end tags
/// are regenerated from level transitions, from an *external* stack of the
/// unclosed names, so O(block) bytes of the document are held however large
/// or deep it is. As in [`nexsort_xml::RecEmitter`], a record may descend at
/// most one level, key patches are skipped, and a run pointer is an error.
/// Returns the records emitted.
pub fn write_xml(
    disk: &Rc<Disk>,
    src: &mut dyn RecSource,
    dict: &TagDict,
    out: &mut dyn Write,
    pretty: bool,
) -> Result<u64> {
    // On an error the phase stays set for failure classification.
    let entry_phase = disk.phase();
    disk.set_phase(IoPhase::OutputEmit);
    let writer = &mut XmlWriter::new(IoSink(out)).pretty(pretty);
    let budget = MemoryBudget::new(2);
    let mut tags = ExtStack::new(disk.clone(), &budget, IoCat::OutTagStack, 1)?;
    let mut open = 0u32;
    let close_to = |target: u32, open: &mut u32, tags: &mut ExtStack, w: &mut XmlWriter<_>| {
        while *open > target {
            let len = tags.pop_u32()? as usize;
            w.write(&Event::End { name: tags.pop(len)? })?;
            *open -= 1;
        }
        Ok::<(), XmlError>(())
    };
    let mut records = 0u64;
    while let Some(rec) = src.next_rec()? {
        match rec {
            Rec::Elem(e) => {
                if e.level > open + 1 {
                    return Err(XmlError::Record(format!(
                        "level jump: element at level {} under {open} open elements",
                        e.level
                    )));
                }
                close_to(e.level.saturating_sub(1), &mut open, &mut tags, writer)?;
                let name = e.name.resolve(dict)?.to_vec();
                let attrs = e
                    .attrs
                    .iter()
                    .map(|(k, v)| Ok((k.resolve(dict)?.to_vec(), v.clone())))
                    .collect::<Result<Vec<_>>>()?;
                tags.push(&name)?;
                tags.push_u32(name.len() as u32)?;
                writer.write(&Event::Start { name, attrs })?;
                open += 1;
            }
            Rec::Text(t) => {
                if t.level < 2 || t.level > open + 1 {
                    return Err(XmlError::Record(format!(
                        "level jump: text at level {} under {open} open elements",
                        t.level
                    )));
                }
                close_to(t.level - 1, &mut open, &mut tags, writer)?;
                writer.write(&Event::Text { content: t.content })?;
            }
            Rec::KeyPatch(_) => continue,
            Rec::RunPtr(p) => {
                return Err(XmlError::Record(format!(
                    "run pointer (run {}) cannot be emitted as events; resolve runs first",
                    p.run
                )))
            }
        }
        records += 1;
    }
    close_to(0, &mut open, &mut tags, writer)?;
    disk.set_phase(entry_phase);
    Ok(records)
}

/// Create or replace the file `path`: `fill` streams the content into
/// `<path>.tmp`, renamed over `path` once `fill` and the flush succeed, so a
/// failed `fill` leaves no output file. An existing `path` that is no
/// regular file (a symlink, `/dev/null`, a FIFO) is written in place. The
/// outer error is the file's own, the inner result `fill`'s.
pub fn write_output_file<T, E>(
    path: &Path,
    fill: impl FnOnce(&mut BufWriter<File>) -> std::result::Result<T, E>,
) -> std::io::Result<std::result::Result<T, E>> {
    let in_place = std::fs::symlink_metadata(path).is_ok_and(|m| !m.is_file());
    let mut tmp = path.as_os_str().to_owned();
    tmp.push(if in_place { "" } else { ".tmp" });
    let tmp = Path::new(&tmp);
    let mut w = BufWriter::new(File::create(tmp)?);
    let done = match fill(&mut w) {
        Ok(v) => w
            .flush()
            .and_then(|()| if in_place { Ok(()) } else { std::fs::rename(tmp, path) })
            .map(|()| Ok(v)),
        Err(e) => Ok(Err(e)),
    };
    drop(w);
    if !in_place && !matches!(done, Ok(Ok(_))) {
        let _ = std::fs::remove_file(tmp);
    }
    done
}

/// Encode records into a staged extent (bench helper; uncharged like
/// [`stage_input`]).
pub fn stage_recs(disk: &Rc<Disk>, recs: &[Rec]) -> Result<Extent> {
    let mut buf = Vec::new();
    for r in recs {
        r.encode(&mut buf)?;
    }
    Ok(stage_input(disk, &buf)?)
}

/// Read back an extent into a byte vector (test helper, uncharged the same
/// way as staging).
pub fn unstage(disk: &Rc<Disk>, extent: &Extent) -> nexsort_extmem::Result<Vec<u8>> {
    let budget = MemoryBudget::new(1);
    let stats = disk.stats();
    let before = stats.snapshot();
    let mut r = ExtentReader::new(disk.clone(), &budget, extent, IoCat::SortScratch)?;
    let mut out = vec![0u8; extent.len() as usize];
    r.read_exact(&mut out)?;
    let delta = stats.snapshot().since(&before);
    // xlint::allow(R7): unstaging is deliberately invisible to measurements.
    stats.sub_reads(IoCat::SortScratch, delta.reads(IoCat::SortScratch));
    stats.sub_phys_reads(IoCat::SortScratch, delta.phys_reads(IoCat::SortScratch)); // xlint::allow(R7)
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use nexsort_xml::{events_to_recs, parse_events};

    fn setup() -> (Rc<Disk>, MemoryBudget) {
        (Disk::new_mem(64), MemoryBudget::new(16))
    }

    #[test]
    fn parsed_source_streams_records_and_charges_input_reads() {
        let (disk, budget) = setup();
        let doc = b"<r><a name=\"z\"/><a name=\"y\"/></r>";
        let ext = stage_input(&disk, doc).unwrap();
        assert_eq!(disk.stats().grand_total(), 0, "staging is uncharged");
        let spec = SortSpec::by_attribute("name");
        let mut src = ParsedRecSource::new(disk.clone(), &budget, &ext, &spec, true).unwrap();
        let mut n = 0;
        while src.next_rec().unwrap().is_some() {
            n += 1;
        }
        assert_eq!(n, 3);
        assert!(disk.stats().reads(IoCat::InputRead) >= 1);
        assert_eq!(src.into_dict().len(), 3); // r, a, name
    }

    #[test]
    fn extent_source_roundtrips_encoded_records() {
        let (disk, budget) = setup();
        let events = parse_events(b"<r><b name=\"x\">t</b></r>").unwrap();
        let spec = SortSpec::by_attribute("name");
        let mut dict = TagDict::new();
        let recs = events_to_recs(&events, &spec, &mut dict, true).unwrap();
        let ext = stage_recs(&disk, &recs).unwrap();
        let mut src = ExtentRecSource::new(disk, &budget, &ext, IoCat::SortScratch).unwrap();
        let mut out = Vec::new();
        while let Some(r) = src.next_rec().unwrap() {
            out.push(r);
        }
        assert_eq!(out, recs);
    }

    #[test]
    fn pathed_adapter_builds_paths_with_subtree_base() {
        use nexsort_xml::{ElemRec, NameRef};
        // A subtree stream starting at absolute level 3.
        let recs = vec![
            Rec::Elem(ElemRec {
                level: 3,
                name: NameRef::Sym(0),
                attrs: vec![],
                key: KeyValue::Num(1),
                seq: 0,
            }),
            Rec::Elem(ElemRec {
                level: 4,
                name: NameRef::Sym(0),
                attrs: vec![],
                key: KeyValue::Num(2),
                seq: 1,
            }),
        ];
        let mut a = PathedAdapter::new(VecRecSource::new(recs), None);
        let p1 = a.next_pathed().unwrap().unwrap();
        assert_eq!(p1.path.len(), 1);
        let p2 = a.next_pathed().unwrap().unwrap();
        assert_eq!(p2.path.len(), 2);
        assert_eq!(p2.path.comps[0].key, KeyValue::Num(1));
    }

    #[test]
    fn pathed_adapter_masks_above_depth_limit() {
        let events = parse_events(b"<r><a name=\"z\"><c name=\"2\"/></a></r>").unwrap();
        let spec = SortSpec::by_attribute("name");
        let mut dict = TagDict::new();
        let recs = events_to_recs(&events, &spec, &mut dict, true).unwrap();
        // d = 1: only the root's children get sorted, so level-3 components
        // (children of level-2 elements) are masked.
        let mut a = PathedAdapter::new(VecRecSource::new(recs), Some(1));
        let _r = a.next_pathed().unwrap().unwrap();
        let _a = a.next_pathed().unwrap().unwrap();
        let c = a.next_pathed().unwrap().unwrap();
        assert_eq!(c.path.comps[2].key, KeyValue::Missing, "level-3 key masked");
        assert_ne!(c.path.comps[1].key, KeyValue::Missing, "level-2 key kept");
    }

    #[test]
    fn pathed_adapter_rejects_unresolved_patches() {
        use nexsort_xml::PatchRec;
        let recs = vec![Rec::KeyPatch(PatchRec { level: 1, key: KeyValue::Num(1) })];
        let mut a = PathedAdapter::new(VecRecSource::new(recs), None);
        assert!(a.next_pathed().is_err());
    }

    #[test]
    fn write_xml_pages_deep_tag_stacks_and_keeps_the_emitter_checks() {
        // 300 nested elements: the open names outgrow a 64-byte block.
        let mut doc = String::new();
        for i in 0..300 {
            doc.push_str(&format!("<e{i}>"));
        }
        for i in (0..300).rev() {
            doc.push_str(&format!("</e{i}>"));
        }
        let mut dict = TagDict::new();
        let spec = SortSpec::by_attribute("name");
        let recs =
            events_to_recs(&parse_events(doc.as_bytes()).unwrap(), &spec, &mut dict, true).unwrap();
        let disk = Disk::new_mem(64);
        for pretty in [false, true] {
            let want = nexsort_xml::events_to_xml(
                &nexsort_xml::recs_to_events(&recs, &dict).unwrap(),
                pretty,
            );
            let mut got = Vec::new();
            let mut src = VecRecSource::new(recs.clone());
            assert_eq!(write_xml(&disk, &mut src, &dict, &mut got, pretty).unwrap(), 300);
            assert_eq!(got, want, "pretty={pretty}");
        }
        let io = disk.stats().snapshot();
        assert!(io.writes(IoCat::OutTagStack) > 0 && io.reads(IoCat::OutTagStack) > 0);

        // Key patches are skipped; a record below its parent's level is not.
        let mut recs = recs[..2].to_vec();
        recs.insert(1, Rec::KeyPatch(nexsort_xml::PatchRec { level: 1, key: KeyValue::Num(7) }));
        let mut got = Vec::new();
        write_xml(&disk, &mut VecRecSource::new(recs.clone()), &dict, &mut got, false).unwrap();
        assert_eq!(got, b"<e0><e1></e1></e0>");
        let err =
            write_xml(&disk, &mut VecRecSource::new(recs[1..].to_vec()), &dict, &mut got, false)
                .unwrap_err();
        assert!(err.to_string().contains("level jump: element at level 2"), "{err}");
    }

    #[test]
    fn output_file_appears_only_when_fill_succeeds() {
        let dir = std::env::temp_dir().join(format!("nexsort-outfile-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("out.txt");
        std::fs::write(&path, b"old").unwrap();
        let failed = write_output_file(&path, |w| {
            w.write_all(b"partial")?;
            Err::<(), _>(std::io::Error::other("producer failed"))
        });
        assert!(failed.unwrap().is_err());
        assert_eq!(std::fs::read(&path).unwrap(), b"old", "a failed fill keeps the old file");
        assert_eq!(std::fs::read_dir(&dir).unwrap().count(), 1, "and leaves no temporary");
        write_output_file(&path, |w| w.write_all(b"new")).unwrap().unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), b"new");
        // A symlink is written through, not replaced by a regular file.
        #[cfg(unix)]
        {
            let link = dir.join("link.txt");
            std::os::unix::fs::symlink(&path, &link).unwrap();
            write_output_file(&link, |w| w.write_all(b"via link")).unwrap().unwrap();
            assert_eq!(std::fs::read(&path).unwrap(), b"via link");
            assert!(std::fs::symlink_metadata(&link).unwrap().file_type().is_symlink());
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn stage_and_unstage_are_inverse_and_uncharged() {
        let (disk, _) = setup();
        let data: Vec<u8> = (0..500u32).map(|i| (i % 251) as u8).collect();
        let ext = stage_input(&disk, &data).unwrap();
        let back = unstage(&disk, &ext).unwrap();
        assert_eq!(back, data);
        assert_eq!(disk.stats().grand_total(), 0);
    }
}
