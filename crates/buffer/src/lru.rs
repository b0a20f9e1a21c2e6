//! A fixed-capacity O(1) LRU page table.
//!
//! Implemented as a slab of frames threaded onto an intrusive doubly-linked
//! recency list (head = most recently used) plus a dense page → frame
//! index: a `Vec<u32>` indexed by [`PageId::index`]. All operations —
//! lookup, touch, insert with eviction, and removal — are O(1) and hash
//! nothing.
//!
//! This module knows nothing about disks or I/O accounting; it is the pure
//! replacement-policy data structure that [`crate::pool::BufferPool`] builds
//! on.

use pgc_types::PageId;

const NIL: usize = usize::MAX;

/// Index entry for a page that holds no frame.
const NOT_RESIDENT: u32 = u32::MAX;

#[derive(Debug, Clone)]
struct Frame {
    page: PageId,
    dirty: bool,
    prev: usize,
    next: usize,
}

/// What `insert` did with the incoming page.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Inserted {
    /// There was a free frame; nothing was evicted.
    NoEviction,
    /// The least-recently-used page was evicted to make room. The flag is
    /// its dirty bit (a dirty eviction costs a disk write under write-back).
    Evicted {
        /// The page that was evicted.
        page: PageId,
        /// Whether the evicted page was dirty.
        dirty: bool,
    },
}

/// Fixed-capacity LRU set of pages with dirty bits.
///
/// **Density contract.** Page ids are expected to be dense from zero: the
/// database builds them as `partition × partition_pages + page`, so the
/// highest id is bounded by the partition count. The page → frame index is
/// a flat `Vec<u32>` covering ids up to the highest one ever inserted
/// (grown by doubling, only in [`LruCache::insert`]), so it costs 4 bytes
/// per page id — about 6 KiB for the 1,488 pages of a 31-partition paper
/// database. Queries on ids past the end of the index answer "not
/// resident" without growing it. Sparse, huge ids are correct but waste
/// index memory in proportion to the largest id.
#[derive(Debug, Clone)]
pub struct LruCache {
    frames: Vec<Frame>,
    /// `slot[page.index()]`: the frame holding `page`, or [`NOT_RESIDENT`].
    slot: Vec<u32>,
    /// Number of resident pages (non-[`NOT_RESIDENT`] entries in `slot`).
    len: usize,
    head: usize,
    tail: usize,
    free: Vec<usize>,
    capacity: usize,
}

impl LruCache {
    /// Creates a cache with room for `capacity` pages. `capacity` must be
    /// positive (and below `u32::MAX`, the index's not-resident marker).
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "LRU capacity must be positive");
        assert!(
            capacity < NOT_RESIDENT as usize,
            "LRU capacity must fit the u32 frame index"
        );
        Self {
            frames: Vec::with_capacity(capacity),
            slot: Vec::new(),
            len: 0,
            head: NIL,
            tail: NIL,
            free: Vec::new(),
            capacity,
        }
    }

    /// Number of resident pages.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when no pages are resident.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The configured frame count.
    #[inline]
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// The frame holding `page`, if resident. Ids past the end of the
    /// index are simply not resident.
    #[inline]
    fn frame_of(&self, page: PageId) -> Option<usize> {
        let idx = usize::try_from(page.index()).ok()?;
        match self.slot.get(idx) {
            Some(&frame) if frame != NOT_RESIDENT => Some(frame as usize),
            _ => None,
        }
    }

    /// True if `page` is resident.
    #[inline]
    pub fn contains(&self, page: PageId) -> bool {
        self.frame_of(page).is_some()
    }

    /// If `page` is resident, marks it most-recently-used, ORs in `dirty`,
    /// and returns `true`; otherwise returns `false`.
    #[inline]
    pub fn touch(&mut self, page: PageId, dirty: bool) -> bool {
        let Some(idx) = self.frame_of(page) else {
            return false;
        };
        self.frames[idx].dirty |= dirty;
        self.move_to_front(idx);
        true
    }

    /// Inserts a non-resident page as most-recently-used, evicting the LRU
    /// page if the cache is full.
    ///
    /// # Panics
    ///
    /// Panics (debug builds) if `page` is already resident — callers must
    /// `touch` first.
    pub fn insert(&mut self, page: PageId, dirty: bool) -> Inserted {
        debug_assert!(!self.contains(page), "insert of resident page {page}");
        let key = usize::try_from(page.index()).expect("page id exceeds the address space");
        if key >= self.slot.len() {
            let grown = (key + 1).max(self.slot.len() * 2);
            self.slot.resize(grown, NOT_RESIDENT);
        }

        let evicted = if self.len == self.capacity {
            let victim_idx = self.tail;
            let victim = self.frames[victim_idx].page;
            let was_dirty = self.frames[victim_idx].dirty;
            self.unlink(victim_idx);
            self.slot[victim.index() as usize] = NOT_RESIDENT;
            self.len -= 1;
            self.free.push(victim_idx);
            Some((victim, was_dirty))
        } else {
            None
        };

        let frame = Frame {
            page,
            dirty,
            prev: NIL,
            next: NIL,
        };
        let idx = if let Some(free_idx) = self.free.pop() {
            self.frames[free_idx] = frame;
            free_idx
        } else {
            self.frames.push(frame);
            self.frames.len() - 1
        };
        self.slot[key] = idx as u32;
        self.len += 1;
        self.link_front(idx);

        match evicted {
            Some((page, dirty)) => Inserted::Evicted { page, dirty },
            None => Inserted::NoEviction,
        }
    }

    /// Removes `page` if resident, returning its dirty bit.
    pub fn remove(&mut self, page: PageId) -> Option<bool> {
        let idx = self.frame_of(page)?;
        self.slot[page.index() as usize] = NOT_RESIDENT;
        self.len -= 1;
        let dirty = self.frames[idx].dirty;
        self.unlink(idx);
        self.free.push(idx);
        Some(dirty)
    }

    /// Clears `page`'s dirty bit (after an explicit write-back). Returns
    /// `true` if the page was resident.
    pub fn clean(&mut self, page: PageId) -> bool {
        match self.frame_of(page) {
            Some(idx) => {
                self.frames[idx].dirty = false;
                true
            }
            None => false,
        }
    }

    /// Iterates over resident pages from most- to least-recently-used,
    /// yielding `(page, dirty)`.
    pub fn iter_mru(&self) -> impl Iterator<Item = (PageId, bool)> + '_ {
        MruIter {
            cache: self,
            cursor: self.head,
        }
    }

    /// All resident dirty pages, in MRU order.
    pub fn dirty_pages(&self) -> Vec<PageId> {
        self.iter_mru()
            .filter_map(|(p, d)| d.then_some(p))
            .collect()
    }

    #[inline]
    fn move_to_front(&mut self, idx: usize) {
        if self.head == idx {
            return;
        }
        self.unlink(idx);
        self.link_front(idx);
    }

    #[inline]
    fn link_front(&mut self, idx: usize) {
        self.frames[idx].prev = NIL;
        self.frames[idx].next = self.head;
        if self.head != NIL {
            self.frames[self.head].prev = idx;
        }
        self.head = idx;
        if self.tail == NIL {
            self.tail = idx;
        }
    }

    #[inline]
    fn unlink(&mut self, idx: usize) {
        let (prev, next) = (self.frames[idx].prev, self.frames[idx].next);
        if prev != NIL {
            self.frames[prev].next = next;
        } else {
            self.head = next;
        }
        if next != NIL {
            self.frames[next].prev = prev;
        } else {
            self.tail = prev;
        }
        self.frames[idx].prev = NIL;
        self.frames[idx].next = NIL;
    }

    /// Debug invariant check: list and index agree, list is well-formed.
    /// Used by property tests and `Database::check_invariants`.
    pub fn check_invariants(&self) {
        let mut seen = 0usize;
        let mut cursor = self.head;
        let mut prev = NIL;
        while cursor != NIL {
            let f = &self.frames[cursor];
            assert_eq!(f.prev, prev, "prev link broken at {}", f.page);
            assert_eq!(
                self.frame_of(f.page),
                Some(cursor),
                "index does not point at frame for {}",
                f.page
            );
            prev = cursor;
            cursor = f.next;
            seen += 1;
            assert!(seen <= self.len, "cycle in recency list");
        }
        assert_eq!(seen, self.len, "list length != resident count");
        assert_eq!(self.tail, prev, "tail does not match last node");
        assert!(self.len <= self.capacity, "over capacity");
        let indexed = self.slot.iter().filter(|&&f| f != NOT_RESIDENT).count();
        assert_eq!(indexed, self.len, "index holds stale entries");
    }
}

struct MruIter<'a> {
    cache: &'a LruCache,
    cursor: usize,
}

impl Iterator for MruIter<'_> {
    type Item = (PageId, bool);
    fn next(&mut self) -> Option<Self::Item> {
        if self.cursor == NIL {
            return None;
        }
        let f = &self.cache.frames[self.cursor];
        self.cursor = f.next;
        Some((f.page, f.dirty))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pages(cache: &LruCache) -> Vec<u64> {
        cache.iter_mru().map(|(p, _)| p.index()).collect()
    }

    #[test]
    fn insert_until_full_then_evict_lru() {
        let mut c = LruCache::new(3);
        assert_eq!(c.insert(PageId(1), false), Inserted::NoEviction);
        assert_eq!(c.insert(PageId(2), false), Inserted::NoEviction);
        assert_eq!(c.insert(PageId(3), false), Inserted::NoEviction);
        assert_eq!(pages(&c), vec![3, 2, 1]);
        // Page 1 is LRU and clean.
        assert_eq!(
            c.insert(PageId(4), false),
            Inserted::Evicted {
                page: PageId(1),
                dirty: false
            }
        );
        assert_eq!(pages(&c), vec![4, 3, 2]);
        c.check_invariants();
    }

    #[test]
    fn touch_promotes_and_accumulates_dirty() {
        let mut c = LruCache::new(3);
        c.insert(PageId(1), false);
        c.insert(PageId(2), false);
        c.insert(PageId(3), false);
        assert!(c.touch(PageId(1), true));
        assert_eq!(pages(&c), vec![1, 3, 2]);
        // 2 is now LRU; it is clean, 1 is dirty.
        assert_eq!(
            c.insert(PageId(4), false),
            Inserted::Evicted {
                page: PageId(2),
                dirty: false
            }
        );
        // Dirty bit sticks even after a clean touch.
        assert!(c.touch(PageId(1), false));
        c.insert(PageId(5), false); // evicts 3
        c.insert(PageId(6), false); // evicts 4
        assert_eq!(
            c.insert(PageId(7), false),
            Inserted::Evicted {
                page: PageId(1),
                dirty: true
            }
        );
        c.check_invariants();
    }

    #[test]
    fn touch_missing_returns_false() {
        let mut c = LruCache::new(2);
        assert!(!c.touch(PageId(9), true));
        c.insert(PageId(9), false);
        assert!(c.touch(PageId(9), false));
    }

    #[test]
    fn remove_returns_dirty_bit_and_frees_slot() {
        let mut c = LruCache::new(2);
        c.insert(PageId(1), true);
        c.insert(PageId(2), false);
        assert_eq!(c.remove(PageId(1)), Some(true));
        assert_eq!(c.remove(PageId(1)), None);
        assert_eq!(c.len(), 1);
        // Freed slot is reused without eviction.
        assert_eq!(c.insert(PageId(3), false), Inserted::NoEviction);
        assert_eq!(pages(&c), vec![3, 2]);
        c.check_invariants();
    }

    #[test]
    fn clean_clears_dirty() {
        let mut c = LruCache::new(2);
        c.insert(PageId(1), true);
        assert!(c.clean(PageId(1)));
        assert!(!c.clean(PageId(99)));
        assert!(c.dirty_pages().is_empty());
        c.insert(PageId(2), false);
        assert_eq!(
            c.insert(PageId(3), false),
            Inserted::Evicted {
                page: PageId(1),
                dirty: false
            }
        );
    }

    #[test]
    fn dirty_pages_in_mru_order() {
        let mut c = LruCache::new(4);
        c.insert(PageId(1), true);
        c.insert(PageId(2), false);
        c.insert(PageId(3), true);
        assert_eq!(c.dirty_pages(), vec![PageId(3), PageId(1)]);
    }

    #[test]
    fn capacity_one_works() {
        let mut c = LruCache::new(1);
        c.insert(PageId(1), true);
        assert_eq!(
            c.insert(PageId(2), false),
            Inserted::Evicted {
                page: PageId(1),
                dirty: true
            }
        );
        assert_eq!(c.len(), 1);
        assert!(c.contains(PageId(2)));
        c.check_invariants();
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_capacity_panics() {
        let _ = LruCache::new(0);
    }

    #[test]
    fn queries_past_the_index_are_not_resident_and_allocate_nothing() {
        let mut c = LruCache::new(4);
        c.insert(PageId(3), true);
        let index_len = c.slot.len();
        let far = PageId(1 << 40);
        assert!(!c.contains(far));
        assert!(!c.touch(far, true));
        assert_eq!(c.remove(far), None);
        assert!(!c.clean(far));
        assert_eq!(c.slot.len(), index_len, "a query grew the index");
        assert_eq!(pages(&c), vec![3]);
        c.check_invariants();
    }

    #[test]
    fn long_mixed_sequence_keeps_invariants() {
        let mut c = LruCache::new(8);
        for i in 0..1000u64 {
            let p = PageId(i % 23);
            if !c.touch(p, i % 3 == 0) {
                c.insert(p, i % 3 == 0);
            }
            if i % 7 == 0 {
                c.remove(PageId((i + 5) % 23));
            }
            c.check_invariants();
        }
        assert!(c.len() <= 8);
    }
}
