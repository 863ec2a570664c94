//! The buffer pool (page cache) between [`Disk`] and its device.
//!
//! The paper's analysis gives the algorithm `M` blocks of internal memory and
//! counts every block transfer; our substrate routes all of those transfers
//! through [`Disk`](crate::Disk). This module adds the layer a production
//! engine puts exactly there: a pool of block frames that absorbs re-reads of
//! hot blocks (stack tops, run directory pages, merge fan-in frames) so that
//! *physical* device transfers can drop below the *logical* transfer count
//! the paper analyses -- without changing the logical count at all.
//!
//! Structure:
//!
//! * [`PoolCore`] owns the frames (reserved from a
//!   [`MemoryBudget`](crate::MemoryBudget) via a RAII
//!   [`FrameGuard`](crate::FrameGuard)) and the block -> frame index;
//! * eviction is exact LRU: every install and hit stamps the frame with a
//!   monotone tick, and the victim is the occupied frame with the smallest
//!   stamp;
//! * writes follow a [`WriteMode`]: write-through keeps the device current on
//!   every logical write, write-back defers dirty frames to eviction or an
//!   explicit flush.
//!
//! Determinism matters as much as performance here: the fault layer under
//! the pool injects faults by physical operation index, so victim selection
//! and flush order must be reproducible. The index is a `BTreeMap`, all
//! bulk operations iterate in block order, and LRU stamps are unique.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::fmt;
use std::rc::Rc;

use crate::budget::FrameGuard;
use crate::stats::IoCat;

/// When a logical write reaches the device.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum WriteMode {
    /// Every logical write is written to the device immediately; frames only
    /// serve re-reads. The device (and its checksum layer) is always current.
    #[default]
    Through,
    /// Logical writes land in the frame and are marked dirty; the device
    /// sees them at eviction or at an explicit
    /// [`Disk::cache_flush_all`](crate::Disk::cache_flush_all). Coalesces
    /// repeated writes to the same block into one physical transfer.
    Back,
}

impl WriteMode {
    /// Short name used in flags and reports.
    pub fn name(self) -> &'static str {
        match self {
            WriteMode::Through => "write-through",
            WriteMode::Back => "write-back",
        }
    }
}

impl fmt::Display for WriteMode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

struct Frame {
    block: u64,
    data: Rc<RefCell<Vec<u8>>>,
    /// `Some(len)`: the first `len` bytes diverge from the device and must be
    /// written back. Length tracking preserves the device contract that a
    /// write covers a prefix of the block (the checksum layer records
    /// exactly the written prefix).
    dirty_len: Option<usize>,
    /// Category the eventual writeback is charged to (the category of the
    /// logical write that dirtied the frame).
    cat: IoCat,
    /// Tick of the last install or hit: the frame's place in the LRU order.
    stamp: u64,
}

/// How the pool hands out a slot for a new block (see
/// [`PoolCore::acquire_plan`]). On `Evict`, the caller performs any dirty
/// writeback *before* detaching the victim, so a failed writeback leaves the
/// pool unchanged and the error reports the victim block.
pub(crate) enum SlotAcquire {
    /// An unoccupied slot, already detached from the free list.
    Free(usize),
    /// Evict the frame in `slot` (currently holding `block`); `dirty` is the
    /// writeback obligation, `data` the frame contents.
    Evict { slot: usize, block: u64, dirty: Option<(usize, IoCat)>, data: Rc<RefCell<Vec<u8>>> },
}

/// The frame table of a buffer pool. Owned by [`Disk`](crate::Disk); all
/// physical I/O and stats accounting stay in the disk layer, keeping this
/// type purely about residency, dirtiness, and LRU victim choice.
pub(crate) struct PoolCore {
    frames: Vec<Frame>,
    index: BTreeMap<u64, usize>,
    free: Vec<usize>,
    /// Next LRU stamp; bumped on every install and hit.
    tick: u64,
    mode: WriteMode,
    _reservation: FrameGuard,
}

impl PoolCore {
    pub(crate) fn new(reservation: FrameGuard, block_size: usize, mode: WriteMode) -> Self {
        let capacity = reservation.frames();
        assert!(capacity > 0, "a buffer pool needs at least one frame");
        let frames = (0..capacity)
            .map(|_| Frame {
                block: u64::MAX,
                data: Rc::new(RefCell::new(vec![0u8; block_size])),
                dirty_len: None,
                cat: IoCat::SortScratch,
                stamp: 0,
            })
            .collect();
        // Free slots are popped from the back; keep ascending order of use.
        let free = (0..capacity).rev().collect();
        Self { frames, index: BTreeMap::new(), free, tick: 0, mode, _reservation: reservation }
    }

    pub(crate) fn capacity(&self) -> usize {
        self.frames.len()
    }

    pub(crate) fn mode(&self) -> WriteMode {
        self.mode
    }

    /// Mark `slot` as the most recently used frame.
    fn touch(&mut self, slot: usize) {
        self.frames[slot].stamp = self.tick;
        self.tick += 1;
    }

    /// Find `block`'s slot and record the access in the LRU order.
    pub(crate) fn lookup(&mut self, block: u64) -> Option<usize> {
        let slot = *self.index.get(&block)?;
        self.touch(slot);
        Some(slot)
    }

    /// Find `block`'s slot without counting an access.
    pub(crate) fn peek(&self, block: u64) -> Option<usize> {
        self.index.get(&block).copied()
    }

    pub(crate) fn slot_data(&self, slot: usize) -> Rc<RefCell<Vec<u8>>> {
        Rc::clone(&self.frames[slot].data)
    }

    pub(crate) fn slot_block(&self, slot: usize) -> u64 {
        self.frames[slot].block
    }

    pub(crate) fn dirty_of(&self, slot: usize) -> Option<(usize, IoCat)> {
        let f = &self.frames[slot];
        f.dirty_len.map(|len| (len, f.cat))
    }

    /// Mark the first `len` bytes of `slot` dirty, to be written back under
    /// `cat`. Widens (never shrinks) an existing dirty prefix so coalesced
    /// writes lose no data.
    pub(crate) fn mark_dirty(&mut self, slot: usize, len: usize, cat: IoCat) {
        let f = &mut self.frames[slot];
        f.dirty_len = Some(f.dirty_len.map_or(len, |old| old.max(len)));
        f.cat = cat;
    }

    pub(crate) fn clean(&mut self, slot: usize) {
        self.frames[slot].dirty_len = None;
    }

    /// Plan how to obtain a slot for a new block: a free slot if one exists,
    /// otherwise the least recently used frame. Nothing is detached yet for
    /// the `Evict` case; the caller completes (or abandons) the plan.
    pub(crate) fn acquire_plan(&mut self) -> SlotAcquire {
        if let Some(slot) = self.free.pop() {
            return SlotAcquire::Free(slot);
        }
        // With no free slot every frame is occupied (and there is at least
        // one frame), so the smallest stamp is the LRU victim.
        let slot = (0..self.frames.len()).min_by_key(|&s| self.frames[s].stamp).unwrap_or_default();
        let f = &self.frames[slot];
        SlotAcquire::Evict {
            slot,
            block: f.block,
            dirty: f.dirty_len.map(|len| (len, f.cat)),
            data: Rc::clone(&f.data),
        }
    }

    /// Remove the mapping of `slot` (after any writeback), leaving the slot
    /// loose for `install` or `release_slot`.
    pub(crate) fn detach(&mut self, slot: usize) {
        let f = &mut self.frames[slot];
        self.index.remove(&f.block);
        f.block = u64::MAX;
        f.dirty_len = None;
    }

    /// Return a loose slot to the free list (e.g. after a failed load).
    pub(crate) fn release_slot(&mut self, slot: usize) {
        self.free.push(slot);
    }

    /// Map `block` into the loose `slot` (clean, most recently used).
    pub(crate) fn install(&mut self, slot: usize, block: u64) {
        let f = &mut self.frames[slot];
        f.block = block;
        f.dirty_len = None;
        self.index.insert(block, slot);
        self.touch(slot);
    }

    /// Drop `block`'s frame, if resident, without writing it back (the
    /// block is dead, e.g. freed).
    pub(crate) fn invalidate(&mut self, block: u64) {
        if let Some(&slot) = self.index.get(&block) {
            self.detach(slot);
            self.release_slot(slot);
        }
    }

    /// Slots holding dirty frames, in ascending block order (deterministic
    /// flush order for the fault layer's operation indexing).
    pub(crate) fn dirty_slots_in_block_order(&self) -> Vec<usize> {
        self.index.values().copied().filter(|&slot| self.frames[slot].dirty_len.is_some()).collect()
    }

    /// Drop every resident frame without writing anything back. Crash
    /// recovery only: after a simulated crash the device image is the
    /// authoritative state, so frame contents (dirty or not) are dead.
    pub(crate) fn purge_all(&mut self) {
        let slots: Vec<usize> = self.index.values().copied().collect();
        for slot in slots {
            self.detach(slot);
            self.release_slot(slot);
        }
    }

    /// Number of resident (mapped) frames.
    pub(crate) fn resident(&self) -> usize {
        self.index.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pool(frames: usize, mode: WriteMode) -> (crate::MemoryBudget, PoolCore) {
        let budget = crate::MemoryBudget::new(4);
        let reservation = budget.reserve(frames).unwrap();
        (budget, PoolCore::new(reservation, 64, mode))
    }

    /// Take a free slot and map `block` into it.
    fn fill(pc: &mut PoolCore, block: u64) -> usize {
        let SlotAcquire::Free(slot) = pc.acquire_plan() else { panic!("pool has a free slot") };
        pc.install(slot, block);
        slot
    }

    fn victim(pc: &mut PoolCore) -> u64 {
        match pc.acquire_plan() {
            SlotAcquire::Evict { block, .. } => block,
            SlotAcquire::Free(_) => panic!("pool is full"),
        }
    }

    #[test]
    fn pool_core_tracks_residency_and_dirt() {
        assert_eq!(WriteMode::Through.to_string(), "write-through");
        assert_eq!(WriteMode::Back.to_string(), "write-back");
        assert_eq!(WriteMode::default(), WriteMode::Through);

        let (budget, mut pc) = pool(2, WriteMode::Back);
        assert_eq!(pc.capacity(), 2);
        assert_eq!(pc.mode(), WriteMode::Back);
        assert_eq!(pc.resident(), 0);
        assert_eq!(budget.used_frames(), 2, "pool frames stay reserved");

        let s0 = fill(&mut pc, 10);
        let s1 = fill(&mut pc, 20);
        assert_eq!(pc.resident(), 2);
        assert_eq!(pc.lookup(10), Some(s0));
        assert_eq!(pc.peek(99), None);

        pc.mark_dirty(s1, 16, IoCat::RunWrite);
        pc.mark_dirty(s1, 8, IoCat::RunWrite); // narrower write: prefix widens only
        assert_eq!(pc.dirty_of(s1), Some((16, IoCat::RunWrite)));
        assert_eq!(pc.dirty_slots_in_block_order(), vec![s1]);

        // Full pool: the next acquire plans an eviction of the dirty frame,
        // reporting its writeback obligation.
        match pc.acquire_plan() {
            SlotAcquire::Evict { slot, block, dirty, .. } => {
                assert_eq!((slot, block, dirty), (s1, 20, Some((16, IoCat::RunWrite))));
            }
            SlotAcquire::Free(_) => panic!("pool is full"),
        }

        // Invalidation drops the frame unwritten and frees its slot.
        pc.invalidate(20);
        pc.invalidate(99); // not resident: a no-op
        assert_eq!(pc.resident(), 1);
        assert!(pc.dirty_slots_in_block_order().is_empty());
        assert_eq!(fill(&mut pc, 30), s1);

        pc.purge_all();
        assert_eq!(pc.resident(), 0);
        drop(pc);
        assert_eq!(budget.used_frames(), 0, "frames return to the budget");
    }

    #[test]
    fn lru_evicts_the_least_recently_used_frame() {
        let (_budget, mut pc) = pool(3, WriteMode::Through);
        fill(&mut pc, 0);
        fill(&mut pc, 1);
        fill(&mut pc, 2);
        pc.lookup(0); // order now: 1, 2, 0
        assert_eq!(victim(&mut pc), 1);
        // `peek` is not an access: the order is unchanged.
        pc.peek(1);
        assert_eq!(victim(&mut pc), 1);
        // Evicting 1 and installing 3 makes 3 the newest; 2 is next out.
        let SlotAcquire::Evict { slot, .. } = pc.acquire_plan() else { panic!("pool is full") };
        pc.detach(slot);
        pc.install(slot, 3);
        assert_eq!(victim(&mut pc), 2);
        pc.lookup(2);
        assert_eq!(victim(&mut pc), 0);
    }
}
