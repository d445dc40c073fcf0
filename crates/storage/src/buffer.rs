//! An LRU buffer pool over a [`Pager`].
//!
//! Caches whole pages, tracks logical vs physical traffic, and writes
//! dirty pages back on eviction and on [`BufferPool::flush`]. Frames
//! hold their page behind an [`Arc`]: a hit hands out a pointer copy,
//! and callers decode it after the pool's mutex is released, so readers
//! on several threads contend only for the bookkeeping. Recency is an
//! intrusive doubly linked list over the frame slots, which makes a
//! touch and an eviction O(1) while choosing exactly the victims a
//! timestamp scan would (the least recently read or written page).

use crate::page::{Page, PageId};
use crate::pager::{Pager, PagerError};
use crate::stats::IoStats;
use parking_lot::Mutex;
use std::collections::HashMap;
use std::sync::Arc;

/// The null link of the recency list.
const NIL: usize = usize::MAX;

/// One resident page.
struct Frame {
    id: PageId,
    page: Arc<Page>,
    dirty: bool,
    /// Neighbour towards the most recently used end, or [`NIL`].
    newer: usize,
    /// Neighbour towards the least recently used end, or [`NIL`].
    older: usize,
}

struct PoolState {
    slot_of: HashMap<PageId, usize>,
    /// Frame slots; never more than the pool's capacity.
    frames: Vec<Frame>,
    /// Most recently used slot, or [`NIL`] when empty.
    newest: usize,
    /// Least recently used slot (the next victim), or [`NIL`].
    oldest: usize,
    /// Bumped by every [`BufferPool::write`]: a miss that saw it move
    /// while the lock was released does not install what it read.
    writes: u64,
}

impl PoolState {
    fn unlink(&mut self, slot: usize) {
        let (newer, older) = (self.frames[slot].newer, self.frames[slot].older);
        match newer {
            NIL => self.newest = older,
            n => self.frames[n].older = older,
        }
        match older {
            NIL => self.oldest = newer,
            o => self.frames[o].newer = newer,
        }
    }

    fn push_newest(&mut self, slot: usize) {
        self.frames[slot].newer = NIL;
        self.frames[slot].older = self.newest;
        match self.newest {
            NIL => self.oldest = slot,
            n => self.frames[n].newer = slot,
        }
        self.newest = slot;
    }

    /// Marks `slot` most recently used.
    fn touch(&mut self, slot: usize) {
        if self.newest != slot {
            self.unlink(slot);
            self.push_newest(slot);
        }
    }

    /// Makes `page` resident as the most recently used frame, evicting
    /// the least recently used one (written back first if dirty) when
    /// the pool is full. A failed write-back leaves the victim resident.
    fn install<P: Pager>(
        &mut self,
        id: PageId,
        page: Arc<Page>,
        dirty: bool,
        capacity: usize,
        pager: &P,
        stats: &IoStats,
    ) -> Result<(), PagerError> {
        let slot = if self.frames.len() < capacity {
            self.frames.push(Frame {
                id,
                page,
                dirty,
                newer: NIL,
                older: NIL,
            });
            self.frames.len() - 1
        } else {
            let victim = self.oldest;
            let frame = &self.frames[victim];
            if frame.dirty {
                stats.record_physical_write();
                pager.write_page(frame.id, &frame.page)?;
            }
            self.slot_of.remove(&frame.id);
            self.unlink(victim);
            let frame = &mut self.frames[victim];
            frame.id = id;
            frame.page = page;
            frame.dirty = dirty;
            victim
        };
        self.slot_of.insert(id, slot);
        self.push_newest(slot);
        Ok(())
    }

    fn flush<P: Pager>(&mut self, pager: &P, stats: &IoStats) -> Result<(), PagerError> {
        for frame in self.frames.iter_mut().filter(|f| f.dirty) {
            stats.record_physical_write();
            pager.write_page(frame.id, &frame.page)?;
            frame.dirty = false;
        }
        Ok(())
    }
}

/// A fixed-capacity LRU buffer pool.
pub struct BufferPool<P: Pager> {
    pager: Arc<P>,
    capacity: usize,
    state: Mutex<PoolState>,
    stats: IoStats,
}

impl<P: Pager> BufferPool<P> {
    /// A pool caching up to `capacity` pages of `pager`.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    #[must_use]
    pub fn new(pager: Arc<P>, capacity: usize) -> Self {
        assert!(capacity > 0, "buffer pool capacity must be positive");
        Self {
            pager,
            capacity,
            state: Mutex::new(PoolState {
                slot_of: HashMap::new(),
                frames: Vec::new(),
                newest: NIL,
                oldest: NIL,
                writes: 0,
            }),
            stats: IoStats::new(),
        }
    }

    /// The underlying pager.
    pub fn pager(&self) -> &Arc<P> {
        &self.pager
    }

    /// Pool capacity in pages.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Number of currently resident pages.
    pub fn resident(&self) -> usize {
        self.state.lock().slot_of.len()
    }

    /// Logical/physical counters for this pool.
    pub fn stats(&self) -> &IoStats {
        &self.stats
    }

    /// Allocates a fresh page on the underlying pager (not yet resident).
    pub fn allocate(&self) -> PageId {
        self.pager.allocate()
    }

    /// Reads a page through the pool. The page is shared with the pool:
    /// a later [`BufferPool::write`] installs a new page and leaves the
    /// returned one as it was.
    pub fn read(&self, id: PageId) -> Result<Arc<Page>, PagerError> {
        self.stats.record_logical_read();
        wnrs_obs::record(wnrs_obs::Counter::PagesReadLogical);
        let mut st = self.state.lock();
        if let Some(&slot) = st.slot_of.get(&id) {
            st.touch(slot);
            wnrs_obs::record(wnrs_obs::Counter::PoolHits);
            return Ok(Arc::clone(&st.frames[slot].page));
        }
        let writes = st.writes;
        drop(st);
        // Miss: fetch without holding the lock, then install.
        wnrs_obs::record(wnrs_obs::Counter::PoolMisses);
        self.stats.record_physical_read();
        let page = Arc::new(self.pager.read_page(id)?);
        let mut st = self.state.lock();
        // Another reader may have installed the page meanwhile, or a
        // write may have replaced it: the resident copy wins. A write
        // that has already been evicted again leaves no resident copy,
        // so any write in the gap keeps what was read out of the pool.
        if let Some(&slot) = st.slot_of.get(&id) {
            st.touch(slot);
            return Ok(Arc::clone(&st.frames[slot].page));
        }
        if st.writes == writes {
            st.install(
                id,
                Arc::clone(&page),
                false,
                self.capacity,
                &*self.pager,
                &self.stats,
            )?;
        }
        Ok(page)
    }

    /// Writes a page through the pool (write-back: the pager is updated on
    /// eviction or flush).
    pub fn write(&self, id: PageId, page: Page) -> Result<(), PagerError> {
        if page.size() != self.pager.page_size() {
            return Err(PagerError::SizeMismatch {
                expected: self.pager.page_size(),
                got: page.size(),
            });
        }
        self.stats.record_logical_write();
        let page = Arc::new(page);
        let mut st = self.state.lock();
        st.writes += 1;
        if let Some(&slot) = st.slot_of.get(&id) {
            let frame = &mut st.frames[slot];
            frame.page = page;
            frame.dirty = true;
            st.touch(slot);
            return Ok(());
        }
        st.install(id, page, true, self.capacity, &*self.pager, &self.stats)
    }

    /// Writes every dirty page back to the pager.
    pub fn flush(&self) -> Result<(), PagerError> {
        self.state.lock().flush(&*self.pager, &self.stats)
    }

    /// Flushes and drops every resident page.
    pub fn clear(&self) -> Result<(), PagerError> {
        let mut st = self.state.lock();
        st.flush(&*self.pager, &self.stats)?;
        st.slot_of.clear();
        st.frames.clear();
        st.newest = NIL;
        st.oldest = NIL;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pager::MemPager;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Barrier;

    fn pool(cap: usize) -> BufferPool<MemPager> {
        BufferPool::new(Arc::new(MemPager::new(64)), cap)
    }

    fn page_with(byte: u8) -> Page {
        let mut p = Page::zeroed(64);
        p.bytes_mut()[0] = byte;
        p
    }

    impl<P: Pager> BufferPool<P> {
        /// Resident page ids, ascending.
        fn resident_ids(&self) -> Vec<PageId> {
            let mut ids: Vec<PageId> = self.state.lock().slot_of.keys().copied().collect();
            ids.sort_unstable();
            ids
        }
    }
    #[test]
    fn read_through_caches() {
        let pool = pool(4);
        let id = pool.allocate();
        pool.pager().write_page(id, &page_with(9)).unwrap();
        let before = pool.pager().stats().physical_reads();
        assert_eq!(pool.read(id).unwrap().bytes()[0], 9);
        assert_eq!(pool.read(id).unwrap().bytes()[0], 9);
        assert_eq!(pool.read(id).unwrap().bytes()[0], 9);
        // Only the first read reached the pager.
        assert_eq!(pool.pager().stats().physical_reads() - before, 1);
        assert_eq!(pool.stats().logical_reads(), 3);
        assert_eq!(pool.stats().physical_reads(), 1);
        let hit_rate = pool.stats().hit_rate().expect("reads happened");
        assert!((hit_rate - 2.0 / 3.0).abs() < 1e-12);
    }

    /// The pool reports page traffic into the global observability
    /// registry. Counters are process-wide and other tests read pages
    /// concurrently, so only monotonic growth is asserted.
    #[cfg(feature = "obs")]
    #[test]
    fn reads_record_global_pool_counters() {
        use wnrs_obs::Counter;
        wnrs_obs::set_enabled(true);
        let pool = pool(4);
        let id = pool.allocate();
        pool.pager().write_page(id, &page_with(3)).unwrap();
        let hits = wnrs_obs::counter_value(Counter::PoolHits);
        let misses = wnrs_obs::counter_value(Counter::PoolMisses);
        pool.read(id).unwrap();
        pool.read(id).unwrap();
        assert!(
            wnrs_obs::counter_value(Counter::PoolMisses) > misses,
            "first read must record a pool miss"
        );
        assert!(
            wnrs_obs::counter_value(Counter::PoolHits) > hits,
            "second read must record a pool hit"
        );
    }

    #[test]
    fn write_back_on_flush() {
        let pool = pool(4);
        let id = pool.allocate();
        pool.write(id, page_with(7)).unwrap();
        // Not yet on the pager.
        assert_eq!(pool.pager().read_page(id).unwrap().bytes()[0], 0);
        pool.flush().unwrap();
        assert_eq!(pool.pager().read_page(id).unwrap().bytes()[0], 7);
        // Second flush writes nothing (page now clean).
        let w = pool.stats().physical_writes();
        pool.flush().unwrap();
        assert_eq!(pool.stats().physical_writes(), w);
    }

    #[test]
    fn lru_evicts_least_recently_used() {
        let pool = pool(2);
        let a = pool.allocate();
        let b = pool.allocate();
        let c = pool.allocate();
        pool.write(a, page_with(1)).unwrap();
        pool.write(b, page_with(2)).unwrap();
        pool.read(a).unwrap(); // a now more recent than b
        pool.write(c, page_with(3)).unwrap(); // evicts b (dirty → written back)
        assert_eq!(pool.pager().read_page(b).unwrap().bytes()[0], 2);
        assert_eq!(pool.resident(), 2);
        // a still resident: reading it is a hit.
        let misses = pool.stats().physical_reads();
        pool.read(a).unwrap();
        assert_eq!(pool.stats().physical_reads(), misses);
    }

    #[test]
    fn capacity_never_exceeded() {
        let pool = pool(3);
        for i in 0..20 {
            let id = pool.allocate();
            pool.write(id, page_with(i as u8)).unwrap();
            assert!(pool.resident() <= 3);
        }
    }

    #[test]
    fn eviction_round_trip_preserves_data() {
        let pool = pool(2);
        let ids: Vec<_> = (0..10).map(|_| pool.allocate()).collect();
        for (i, &id) in ids.iter().enumerate() {
            pool.write(id, page_with(i as u8)).unwrap();
        }
        for (i, &id) in ids.iter().enumerate() {
            assert_eq!(pool.read(id).unwrap().bytes()[0], i as u8);
        }
    }

    #[test]
    fn clear_flushes_and_empties() {
        let pool = pool(4);
        let id = pool.allocate();
        pool.write(id, page_with(5)).unwrap();
        pool.clear().unwrap();
        assert_eq!(pool.resident(), 0);
        assert_eq!(pool.pager().read_page(id).unwrap().bytes()[0], 5);
    }

    #[test]
    fn concurrent_readers_and_writers() {
        use std::sync::Arc;
        let pool = Arc::new(BufferPool::new(Arc::new(MemPager::new(64)), 8));
        let ids: Vec<_> = (0..32).map(|_| pool.allocate()).collect();
        for (i, &id) in ids.iter().enumerate() {
            pool.write(id, page_with(i as u8)).unwrap();
        }
        pool.flush().unwrap();
        let handles: Vec<_> = (0..4)
            .map(|t| {
                let pool = Arc::clone(&pool);
                let ids = ids.clone();
                std::thread::spawn(move || {
                    for round in 0..200 {
                        let i = (t * 7 + round * 13) % ids.len();
                        let p = pool.read(ids[i]).expect("read");
                        assert_eq!(p.bytes()[0], i as u8, "thread {t} round {round}");
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().expect("reader thread");
        }
        assert!(pool.resident() <= 8);
    }

    #[test]
    fn wrong_size_write_rejected() {
        let pool = pool(4);
        let id = pool.allocate();
        let err = pool.write(id, Page::zeroed(32)).unwrap_err();
        assert!(matches!(
            err,
            PagerError::SizeMismatch {
                expected: 64,
                got: 32
            }
        ));
    }

    /// A pager that logs every page it reads or writes, as
    /// `(write?, page, first byte)`.
    struct RecordingPager {
        inner: MemPager,
        log: Mutex<Vec<(bool, PageId, u8)>>,
    }

    impl RecordingPager {
        /// `pages` pages, page `i` holding byte `i`, with an empty log.
        fn new(pages: u8) -> Self {
            let inner = MemPager::new(64);
            for i in 0..pages {
                let id = inner.allocate();
                inner.write_page(id, &page_with(i)).expect("seed page");
            }
            RecordingPager {
                inner,
                log: Mutex::new(Vec::new()),
            }
        }

        /// The traffic since the last call, sorted (a flush writes back
        /// in no particular order).
        fn take_log(&self) -> Vec<(bool, PageId, u8)> {
            let mut log = std::mem::take(&mut *self.log.lock());
            log.sort_unstable();
            log
        }
    }

    impl Pager for RecordingPager {
        fn page_size(&self) -> usize {
            self.inner.page_size()
        }
        fn page_count(&self) -> u64 {
            self.inner.page_count()
        }
        fn allocate(&self) -> PageId {
            self.inner.allocate()
        }
        fn read_page(&self, id: PageId) -> Result<Page, PagerError> {
            let page = self.inner.read_page(id)?;
            self.log.lock().push((false, id, page.bytes()[0]));
            Ok(page)
        }
        fn write_page(&self, id: PageId, page: &Page) -> Result<(), PagerError> {
            self.log.lock().push((true, id, page.bytes()[0]));
            self.inner.write_page(id, page)
        }
        fn stats(&self) -> &IoStats {
            self.inner.stats()
        }
    }

    /// The pool's former policy, kept as the oracle for the recency
    /// list: every touch stamps a logical clock, and the victim is the
    /// frame with the smallest stamp, found by a scan.
    struct ScanLru {
        pager: RecordingPager,
        capacity: usize,
        /// `(page, dirty, last touch)`.
        frames: HashMap<PageId, (Page, bool, u64)>,
        clock: u64,
    }

    impl ScanLru {
        fn read(&mut self, id: PageId) -> Page {
            self.clock += 1;
            if let Some(frame) = self.frames.get_mut(&id) {
                frame.2 = self.clock;
                return frame.0.clone();
            }
            let page = self.pager.read_page(id).expect("oracle read");
            self.evict_if_full();
            self.frames.insert(id, (page.clone(), false, self.clock));
            page
        }

        fn write(&mut self, id: PageId, page: Page) {
            self.clock += 1;
            if let Some(frame) = self.frames.get_mut(&id) {
                *frame = (page, true, self.clock);
                return;
            }
            self.evict_if_full();
            self.frames.insert(id, (page, true, self.clock));
        }

        fn flush(&mut self) {
            for (id, frame) in self.frames.iter_mut().filter(|(_, f)| f.1) {
                self.pager.write_page(*id, &frame.0).expect("oracle flush");
                frame.1 = false;
            }
        }

        fn clear(&mut self) {
            self.flush();
            self.frames.clear();
        }

        fn evict_if_full(&mut self) {
            while self.frames.len() >= self.capacity {
                let victim = *self
                    .frames
                    .iter()
                    .min_by_key(|(_, f)| f.2)
                    .map(|(id, _)| id)
                    .expect("a full pool has a frame");
                let (page, dirty, _) = self.frames.remove(&victim).expect("victim");
                if dirty {
                    self.pager
                        .write_page(victim, &page)
                        .expect("oracle write-back");
                }
            }
        }

        fn resident_ids(&self) -> Vec<PageId> {
            let mut ids: Vec<PageId> = self.frames.keys().copied().collect();
            ids.sort_unstable();
            ids
        }
    }

    /// Random read/write/flush/clear sequences give the same hits,
    /// misses, victims, write-backs and resident set as the scan LRU.
    #[test]
    fn recency_list_matches_scan_lru_model() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        const PAGES: u8 = 12;
        for capacity in 1..=8usize {
            for seed in 0..4u64 {
                let mut rng = StdRng::seed_from_u64(seed * 16 + capacity as u64);
                let pool = BufferPool::new(Arc::new(RecordingPager::new(PAGES)), capacity);
                let mut oracle = ScanLru {
                    pager: RecordingPager::new(PAGES),
                    capacity,
                    frames: HashMap::new(),
                    clock: 0,
                };
                pool.pager().take_log();
                oracle.pager.take_log();
                for step in 0..400 {
                    let what = format!("capacity {capacity} seed {seed} step {step}");
                    let id = PageId(rng.gen_range(0..u64::from(PAGES)));
                    match rng.gen_range(0..20u32) {
                        0 => {
                            pool.flush().expect("flush");
                            oracle.flush();
                        }
                        1 => {
                            pool.clear().expect("clear");
                            oracle.clear();
                        }
                        2..=7 => {
                            let byte = rng.gen_range(0..=u8::MAX);
                            pool.write(id, page_with(byte)).expect("write");
                            oracle.write(id, page_with(byte));
                        }
                        _ => {
                            let got = pool.read(id).expect("read");
                            assert_eq!(got.bytes(), oracle.read(id).bytes(), "{what}");
                        }
                    }
                    assert_eq!(pool.pager().take_log(), oracle.pager.take_log(), "{what}");
                    assert_eq!(pool.resident_ids(), oracle.resident_ids(), "{what}");
                }
                assert_eq!(
                    pool.stats().physical_reads(),
                    oracle.pager.inner.stats().physical_reads(),
                    "capacity {capacity} seed {seed}: misses"
                );
                assert_eq!(
                    pool.stats().physical_writes(),
                    oracle.pager.inner.stats().physical_writes() - u64::from(PAGES),
                    "capacity {capacity} seed {seed}: write-backs"
                );
            }
        }
    }

    /// A pager whose reads of one page meet a barrier `waits` times
    /// before reading, so a test can hold a pool miss in its gap.
    struct GatedPager {
        inner: MemPager,
        gated: PageId,
        gate: Barrier,
        waits: usize,
        reads: AtomicUsize,
    }

    impl Pager for GatedPager {
        fn page_size(&self) -> usize {
            self.inner.page_size()
        }
        fn page_count(&self) -> u64 {
            self.inner.page_count()
        }
        fn allocate(&self) -> PageId {
            self.inner.allocate()
        }
        fn read_page(&self, id: PageId) -> Result<Page, PagerError> {
            self.reads.fetch_add(1, Ordering::Relaxed);
            if id == self.gated {
                for _ in 0..self.waits {
                    self.gate.wait();
                }
            }
            self.inner.read_page(id)
        }
        fn write_page(&self, id: PageId, page: &Page) -> Result<(), PagerError> {
            self.inner.write_page(id, page)
        }
        fn stats(&self) -> &IoStats {
            self.inner.stats()
        }
    }

    fn gated_pool(pages: u8, gated: u64, waits: usize, capacity: usize) -> BufferPool<GatedPager> {
        let inner = MemPager::new(64);
        for i in 0..pages {
            let id = inner.allocate();
            inner.write_page(id, &page_with(i)).expect("seed page");
        }
        let pager = GatedPager {
            inner,
            gated: PageId(gated),
            gate: Barrier::new(2),
            waits,
            reads: AtomicUsize::new(0),
        };
        BufferPool::new(Arc::new(pager), capacity)
    }

    /// A write that lands while a miss on the same page is reading the
    /// pager survives: the miss returns and keeps the written page.
    #[test]
    fn write_during_a_miss_is_not_lost() {
        let pool = gated_pool(2, 0, 2, 4);
        let id = PageId(0);
        std::thread::scope(|s| {
            let reader = s.spawn(|| pool.read(id).expect("read").bytes()[0]);
            // The reader has missed and is inside the pager.
            pool.pager().gate.wait();
            pool.write(id, page_with(42)).expect("write");
            pool.pager().gate.wait();
            assert_eq!(reader.join().expect("reader thread"), 42);
        });
        let reads = pool.pager().reads.load(Ordering::Relaxed);
        assert_eq!(pool.read(id).expect("read").bytes()[0], 42);
        assert_eq!(pool.pager().reads.load(Ordering::Relaxed), reads, "a hit");
        pool.flush().expect("flush");
        assert_eq!(
            pool.pager().inner.read_page(id).expect("read").bytes()[0],
            42
        );
    }

    /// Two readers that miss the same page install it once and evict
    /// one frame, not two.
    #[test]
    fn concurrent_misses_on_one_page_evict_one_frame() {
        let pool = gated_pool(3, 2, 1, 2);
        let (a, b, c) = (PageId(0), PageId(1), PageId(2));
        pool.read(a).expect("read a");
        pool.read(b).expect("read b");
        std::thread::scope(|s| {
            // Both readers wait at the gate, so both have missed before
            // either installs.
            let readers: Vec<_> = (0..2)
                .map(|_| s.spawn(|| pool.read(c).expect("read c").bytes()[0]))
                .collect();
            for r in readers {
                assert_eq!(r.join().expect("reader thread"), 2);
            }
        });
        assert_eq!(pool.resident_ids(), vec![b, c]);
    }
}
