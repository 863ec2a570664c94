//! Generic k-way merge over sorted streams.
//!
//! The key-path external merge sort (the paper's baseline, also used by
//! NEXSORT for subtrees too large to sort in memory, and by the graceful-
//! degeneration optimization to combine incomplete runs) merges up to
//! `m - 1` sorted runs per pass. This module provides the merging engine: a
//! binary heap of stream heads driven by a caller-supplied comparator.
//!
//! The merger is device-agnostic; when its streams read runs through a
//! [`Disk`](crate::Disk) with a buffer pool enabled, fan-in block fetches
//! that hit resident frames cost no physical I/O and the merged output is
//! identical (the pool changes *where* bytes come from, never *what* they
//! are).

use std::cmp::Ordering;

use crate::error::Result;

/// A stream of items in nondecreasing order (by the merge's comparator).
pub trait MergeStream {
    /// The item type produced by the stream.
    type Item;
    /// Produce the next item, or `None` at end of stream.
    fn next_item(&mut self) -> Result<Option<Self::Item>>;
}

/// A [`MergeStream`] over an in-memory vector (used in tests and for the
/// sorted in-memory buffer that joins a merge of on-disk runs).
pub struct VecStream<T> {
    items: std::vec::IntoIter<T>,
}

impl<T> VecStream<T> {
    /// Stream the items of `v` in order.
    pub fn new(v: Vec<T>) -> Self {
        Self { items: v.into_iter() }
    }
}

impl<T> MergeStream for VecStream<T> {
    type Item = T;

    fn next_item(&mut self) -> Result<Option<T>> {
        Ok(self.items.next())
    }
}

struct Head<T> {
    item: T,
    stream: usize,
}

/// Merges `k` sorted streams into one sorted sequence.
///
/// Ties are broken by stream index (earlier streams win), which makes the
/// merge *stable* with respect to stream order -- important when incomplete
/// runs must preserve document order among equal keys.
pub struct KWayMerger<S: MergeStream, F> {
    streams: Vec<S>,
    heap: Vec<Head<S::Item>>,
    cmp: F,
}

impl<S, F> KWayMerger<S, F>
where
    S: MergeStream,
    F: Fn(&S::Item, &S::Item) -> Ordering,
{
    /// Build a merger over `streams` with comparator `cmp`. Pulls the first
    /// item of every stream (one buffered item per stream -- the caller is
    /// responsible for reserving the per-stream block frames).
    pub fn new(mut streams: Vec<S>, cmp: F) -> Result<Self> {
        let mut heap = Vec::with_capacity(streams.len());
        for (i, s) in streams.iter_mut().enumerate() {
            if let Some(item) = s.next_item()? {
                heap.push(Head { item, stream: i });
            }
        }
        let mut m = Self { streams, heap, cmp };
        // Heapify.
        for i in (0..m.heap.len() / 2).rev() {
            m.sift_down(i);
        }
        Ok(m)
    }

    fn less(&self, a: &Head<S::Item>, b: &Head<S::Item>) -> bool {
        match (self.cmp)(&a.item, &b.item) {
            Ordering::Less => true,
            Ordering::Greater => false,
            Ordering::Equal => a.stream < b.stream,
        }
    }

    fn sift_down(&mut self, mut i: usize) {
        loop {
            let l = 2 * i + 1;
            let r = 2 * i + 2;
            let mut smallest = i;
            if l < self.heap.len() && self.less(&self.heap[l], &self.heap[smallest]) {
                smallest = l;
            }
            if r < self.heap.len() && self.less(&self.heap[r], &self.heap[smallest]) {
                smallest = r;
            }
            if smallest == i {
                return;
            }
            self.heap.swap(i, smallest);
            i = smallest;
        }
    }

    /// Produce the next smallest item across all streams, with the index of
    /// the stream it came from.
    pub fn next_merged(&mut self) -> Result<Option<(S::Item, usize)>> {
        if self.heap.is_empty() {
            return Ok(None);
        }
        let stream = self.heap[0].stream;
        let replacement = self.streams[stream].next_item()?;
        let out = match replacement {
            Some(item) => std::mem::replace(&mut self.heap[0], Head { item, stream }),
            None => {
                // The heap was checked non-empty above; an empty pop would
                // mean the merge is (vacuously) finished.
                let Some(last) = self.heap.pop() else { return Ok(None) };
                if self.heap.is_empty() {
                    last
                } else {
                    std::mem::replace(&mut self.heap[0], last)
                }
            }
        };
        if !self.heap.is_empty() {
            self.sift_down(0);
        }
        Ok(Some((out.item, out.stream)))
    }

    /// Drain the merge into a vector (convenience for tests and small merges).
    pub fn collect_all(mut self) -> Result<Vec<S::Item>> {
        let mut out = Vec::new();
        while let Some((item, _)) = self.next_merged()? {
            out.push(item);
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn merge_vecs(vs: Vec<Vec<i64>>) -> Vec<i64> {
        let streams: Vec<_> = vs.into_iter().map(VecStream::new).collect();
        KWayMerger::new(streams, |a: &i64, b: &i64| a.cmp(b)).unwrap().collect_all().unwrap()
    }

    #[test]
    fn merges_three_streams() {
        let out = merge_vecs(vec![vec![1, 4, 7], vec![2, 5, 8], vec![3, 6, 9]]);
        assert_eq!(out, (1..=9).collect::<Vec<_>>());
    }

    #[test]
    fn handles_empty_streams_and_no_streams() {
        assert_eq!(merge_vecs(vec![]), Vec::<i64>::new());
        assert_eq!(merge_vecs(vec![vec![], vec![1, 2], vec![]]), vec![1, 2]);
    }

    #[test]
    fn single_stream_passthrough() {
        assert_eq!(merge_vecs(vec![vec![5, 6, 7]]), vec![5, 6, 7]);
    }

    #[test]
    fn ties_favor_earlier_streams_making_the_merge_stable() {
        let streams = vec![
            VecStream::new(vec![(1, 'a'), (2, 'a')]),
            VecStream::new(vec![(1, 'b'), (2, 'b')]),
        ];
        let mut m =
            KWayMerger::new(streams, |x: &(i32, char), y: &(i32, char)| x.0.cmp(&y.0)).unwrap();
        let mut out = Vec::new();
        while let Some((item, src)) = m.next_merged().unwrap() {
            out.push((item, src));
        }
        assert_eq!(out, vec![((1, 'a'), 0), ((1, 'b'), 1), ((2, 'a'), 0), ((2, 'b'), 1)]);
    }

    #[test]
    fn randomized_merge_agrees_with_sort() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(7);
        for _ in 0..50 {
            let k = rng.gen_range(1..8);
            let mut all = Vec::new();
            let mut streams = Vec::new();
            for _ in 0..k {
                let n = rng.gen_range(0..40);
                let mut v: Vec<i64> = (0..n).map(|_| rng.gen_range(-100..100)).collect();
                v.sort_unstable();
                all.extend_from_slice(&v);
                streams.push(v);
            }
            all.sort_unstable();
            assert_eq!(merge_vecs(streams), all);
        }
    }

    #[test]
    fn reports_source_stream_indices() {
        let streams = vec![VecStream::new(vec![10]), VecStream::new(vec![5, 20])];
        let mut m = KWayMerger::new(streams, |a: &i64, b: &i64| a.cmp(b)).unwrap();
        assert_eq!(m.next_merged().unwrap(), Some((5, 1)));
        assert_eq!(m.next_merged().unwrap(), Some((10, 0)));
        assert_eq!(m.next_merged().unwrap(), Some((20, 1)));
        assert_eq!(m.next_merged().unwrap(), None);
        assert_eq!(m.next_merged().unwrap(), None, "exhausted merger stays exhausted");
    }
}

#[cfg(test)]
mod pooled_tests {
    use super::*;
    use crate::budget::MemoryBudget;
    use crate::device::Disk;
    use crate::error::ExtError;
    use crate::extent::{ByteReader, ByteSink, ExtentReader, ExtentWriter};
    use crate::pool::WriteMode;
    use crate::stats::IoCat;
    use std::rc::Rc;

    /// A sorted run of little-endian u32s streamed from an extent.
    struct U32RunStream {
        r: ExtentReader,
    }

    impl MergeStream for U32RunStream {
        type Item = u32;

        fn next_item(&mut self) -> Result<Option<u32>> {
            let mut b = [0u8; 4];
            match self.r.read_exact(&mut b) {
                Ok(()) => Ok(Some(u32::from_le_bytes(b))),
                Err(ExtError::UnexpectedEof { .. }) => Ok(None),
                Err(e) => Err(e),
            }
        }
    }

    fn merge_on(disk: &Rc<Disk>) -> Vec<u32> {
        let budget = MemoryBudget::new(8);
        let runs: [Vec<u32>; 2] =
            [(0..64).map(|i| 2 * i).collect(), (0..64).map(|i| 2 * i + 1).collect()];
        let mut streams = Vec::new();
        for run in &runs {
            let mut w = ExtentWriter::new(disk.clone(), &budget, IoCat::RunWrite).unwrap();
            for v in run {
                w.write_all(&v.to_le_bytes()).unwrap();
            }
            let ext = w.finish().unwrap();
            let r = ExtentReader::new(disk.clone(), &budget, &ext, IoCat::RunRead).unwrap();
            streams.push(U32RunStream { r });
        }
        KWayMerger::new(streams, |a: &u32, b: &u32| a.cmp(b)).unwrap().collect_all().unwrap()
    }

    #[test]
    fn pooled_merge_is_bitwise_identical_and_cheaper_physically() {
        let plain = Disk::new_mem(32);
        let expect = merge_on(&plain);
        assert_eq!(expect, (0..128).collect::<Vec<u32>>());
        let cached = Disk::new_mem(32);
        let cache_budget = MemoryBudget::new(16);
        cached.enable_cache(&cache_budget, 16, WriteMode::Back).unwrap();
        let got = merge_on(&cached);
        assert_eq!(got, expect, "the pool must not change merge output");
        let p = plain.stats().snapshot();
        let c = cached.stats().snapshot();
        assert_eq!(p.reads(IoCat::RunRead), c.reads(IoCat::RunRead));
        assert_eq!(p.writes(IoCat::RunWrite), c.writes(IoCat::RunWrite));
        assert!(
            c.phys_reads(IoCat::RunRead) < c.reads(IoCat::RunRead),
            "fan-in reads must hit frames still warm from the run build"
        );
    }
}

#[cfg(test)]
mod error_tests {
    use super::*;
    use crate::error::ExtError;

    struct FailingStream {
        yields: u32,
    }

    impl MergeStream for FailingStream {
        type Item = i64;

        fn next_item(&mut self) -> Result<Option<i64>> {
            if self.yields == 0 {
                Err(ExtError::Corrupt("stream broke".into()))
            } else {
                self.yields -= 1;
                Ok(Some(i64::from(self.yields)))
            }
        }
    }

    #[test]
    fn stream_errors_propagate_from_construction() {
        let streams = vec![FailingStream { yields: 0 }];
        assert!(KWayMerger::new(streams, |a: &i64, b: &i64| a.cmp(b)).is_err());
    }

    /// Errors exactly once, at the `fail_at`-th pull, then keeps yielding --
    /// models a transient device fault healing under retry at a higher layer.
    struct RecoveringStream {
        items: Vec<i64>,
        next: usize,
        fail_at: usize,
        pulls: usize,
    }

    impl MergeStream for RecoveringStream {
        type Item = i64;

        fn next_item(&mut self) -> Result<Option<i64>> {
            let pull = self.pulls;
            self.pulls += 1;
            if pull == self.fail_at {
                return Err(ExtError::Corrupt("transient".into()));
            }
            let item = self.items.get(self.next).copied();
            self.next += item.is_some() as usize;
            Ok(item)
        }
    }

    #[test]
    fn error_mid_merge_preserves_buffered_items() {
        // Stream 0's third pull (the replacement for its buffered 20) fails.
        // The merge must surface the error WITHOUT losing 20 -- the heads
        // already buffered stay in place and the merge resumes cleanly.
        let streams = vec![
            RecoveringStream { items: vec![10, 20, 30], next: 0, fail_at: 2, pulls: 0 },
            RecoveringStream { items: vec![15, 25], next: 0, fail_at: usize::MAX, pulls: 0 },
        ];
        let mut m = KWayMerger::new(streams, |a: &i64, b: &i64| a.cmp(b)).unwrap();
        assert_eq!(m.next_merged().unwrap(), Some((10, 0)));
        assert_eq!(m.next_merged().unwrap(), Some((15, 1)));
        // Yielding 20 requires pulling stream 0's replacement: that errors.
        assert!(m.next_merged().is_err(), "the transient fault must surface");
        // Nothing was dropped: 20 is still buffered, and the merge continues
        // in full sorted order once the stream recovers.
        let mut rest = Vec::new();
        while let Some((item, _)) = m.next_merged().unwrap() {
            rest.push(item);
        }
        assert_eq!(rest, vec![20, 25, 30], "buffered heads survive a mid-merge error");
    }

    #[test]
    fn equal_keys_stay_stable_across_wide_fan_in() {
        // Five streams, every key equal on the comparator: output must cycle
        // the streams in index order, key after key -- document order among
        // equal keys, exactly what graceful degeneration relies on.
        let streams: Vec<VecStream<(u8, usize)>> =
            (0..5).map(|s| VecStream::new((0..4u8).map(|k| (k, s)).collect())).collect();
        let mut m =
            KWayMerger::new(streams, |a: &(u8, usize), b: &(u8, usize)| a.0.cmp(&b.0)).unwrap();
        let mut out = Vec::new();
        while let Some(((key, origin), src)) = m.next_merged().unwrap() {
            assert_eq!(origin, src, "payload tags its source stream");
            out.push((key, src));
        }
        let expected: Vec<(u8, usize)> =
            (0..4u8).flat_map(|k| (0..5).map(move |s| (k, s))).collect();
        assert_eq!(out, expected, "ties resolve by stream index at every fan-in width");
    }

    #[test]
    fn stream_errors_propagate_mid_merge() {
        let streams = vec![FailingStream { yields: 2 }];
        let mut m = KWayMerger::new(streams, |a: &i64, b: &i64| a.cmp(b)).unwrap();
        assert!(m.next_merged().unwrap().is_some());
        // The replacement pull for the second item hits the failure.
        let mut saw_err = false;
        for _ in 0..3 {
            match m.next_merged() {
                Err(_) => {
                    saw_err = true;
                    break;
                }
                Ok(Some(_)) => continue,
                Ok(None) => break,
            }
        }
        assert!(saw_err, "the broken stream must surface its error");
    }
}
