//! A unified front over the single-tier and client/server page caches.
//!
//! The database takes a [`PageStore`] so a simulation can run either under
//! the paper's cost model (one LRU buffer, disk I/O only) or under the
//! client/server model ([`crate::tiered`]) without the object layer
//! knowing the difference. Statistics are reported uniformly as
//! [`StoreStats`]: disk traffic in the familiar [`IoStats`] shape plus
//! network counters that stay zero in single-tier mode.

use crate::pool::{Access, BufferPool};
use crate::stats::{IoContext, IoStats};
use crate::tiered::TieredPool;
use pgc_types::PageId;

/// Network message counters for the client/server configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct NetStats {
    /// Server → client page fetches in application context.
    pub app_reads: u64,
    /// Client → server dirty-page write-backs in application context.
    pub app_writebacks: u64,
    /// Collector-context fetches.
    pub gc_reads: u64,
    /// Collector-context write-backs.
    pub gc_writebacks: u64,
}

impl NetStats {
    /// Total network messages.
    pub fn total(&self) -> u64 {
        self.app_reads + self.app_writebacks + self.gc_reads + self.gc_writebacks
    }

    /// Messages attributed to one context.
    pub fn ios(&self, ctx: IoContext) -> u64 {
        match ctx {
            IoContext::Application => self.app_reads + self.app_writebacks,
            IoContext::Collector => self.gc_reads + self.gc_writebacks,
        }
    }
}

/// Unified statistics: disk I/O plus (possibly zero) network traffic.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct StoreStats {
    /// Disk page operations (the paper's metric).
    pub disk: IoStats,
    /// Network page messages (zero for the single-tier store).
    pub net: NetStats,
}

/// Either the paper's single buffer or a client/server pair.
#[derive(Debug, Clone)]
pub enum PageStore {
    /// One LRU write-back buffer (the paper's model).
    Single(BufferPool),
    /// Client cache in front of a server buffer.
    Tiered(TieredPool),
}

impl PageStore {
    /// Creates the paper's single-tier store.
    pub fn single(frames: usize) -> Self {
        PageStore::Single(BufferPool::new(frames))
    }

    /// Creates a client/server store.
    pub fn tiered(client_frames: usize, server_frames: usize) -> Self {
        PageStore::Tiered(TieredPool::new(client_frames, server_frames))
    }

    /// The active accounting context.
    pub fn context(&self) -> IoContext {
        match self {
            PageStore::Single(p) => p.context(),
            PageStore::Tiered(p) => p.context(),
        }
    }

    /// Switches the accounting context.
    pub fn set_context(&mut self, ctx: IoContext) {
        match self {
            PageStore::Single(p) => p.set_context(ctx),
            PageStore::Tiered(p) => p.set_context(ctx),
        }
    }

    /// Performs one page access.
    pub fn access(&mut self, page: PageId, kind: Access) {
        match self {
            PageStore::Single(p) => p.access(page, kind),
            PageStore::Tiered(p) => p.access(page, kind),
        }
    }

    /// Accesses every page of a span: one dispatch on the store kind, then
    /// the tier's own loop.
    pub fn access_span(&mut self, pages: impl IntoIterator<Item = PageId>, kind: Access) {
        match self {
            PageStore::Single(p) => p.access_span(pages, kind),
            PageStore::Tiered(p) => p.access_span(pages, kind),
        }
    }

    /// True if `page` is buffered in any tier.
    pub fn is_resident(&self, page: PageId) -> bool {
        match self {
            PageStore::Single(p) => p.is_resident(page),
            PageStore::Tiered(p) => p.client_resident(page) || p.server_resident(page),
        }
    }

    /// Drops frames without write-back.
    pub fn invalidate(&mut self, pages: impl IntoIterator<Item = PageId>) {
        match self {
            PageStore::Single(p) => p.invalidate(pages),
            PageStore::Tiered(p) => p.invalidate(pages),
        }
    }

    /// Unified statistics snapshot.
    pub fn stats(&self) -> StoreStats {
        match self {
            PageStore::Single(p) => StoreStats {
                disk: p.stats(),
                net: NetStats::default(),
            },
            PageStore::Tiered(p) => {
                let s = p.stats();
                StoreStats {
                    disk: IoStats {
                        app_disk_reads: s.disk_reads_app,
                        app_disk_writes: s.disk_writes_app,
                        gc_disk_reads: s.disk_reads_gc,
                        gc_disk_writes: s.disk_writes_gc,
                        hits: s.client_hits,
                        misses: s.net_reads_app + s.net_reads_gc,
                    },
                    net: NetStats {
                        app_reads: s.net_reads_app,
                        app_writebacks: s.net_writebacks_app,
                        gc_reads: s.net_reads_gc,
                        gc_writebacks: s.net_writebacks_gc,
                    },
                }
            }
        }
    }

    /// Debug invariant check.
    pub fn check_invariants(&self) {
        match self {
            PageStore::Single(p) => p.check_invariants(),
            PageStore::Tiered(p) => p.check_invariants(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_store_matches_buffer_pool_exactly() {
        let mut store = PageStore::single(2);
        let mut pool = BufferPool::new(2);
        for i in 0..40u64 {
            let kind = if i % 3 == 0 {
                Access::Write
            } else {
                Access::Read
            };
            store.access(PageId(i % 5), kind);
            pool.access(PageId(i % 5), kind);
        }
        let s = store.stats();
        assert_eq!(s.disk, pool.stats());
        assert_eq!(s.net.total(), 0);
    }

    #[test]
    fn tiered_store_reports_network_traffic() {
        let mut store = PageStore::tiered(1, 4);
        store.access(PageId(1), Access::Write);
        store.access(PageId(2), Access::Read); // evicts dirty 1 over the net
        let s = store.stats();
        assert_eq!(s.net.app_reads, 2);
        assert_eq!(s.net.app_writebacks, 1);
        assert_eq!(s.disk.app_disk_reads, 2);
        assert_eq!(s.disk.app_disk_writes, 0);
        assert_eq!(s.net.ios(IoContext::Application), 3);
    }

    #[test]
    fn context_switching_is_uniform() {
        for mut store in [PageStore::single(4), PageStore::tiered(2, 4)] {
            assert_eq!(store.context(), IoContext::Application);
            store.set_context(IoContext::Collector);
            store.access(PageId(9), Access::Read);
            assert_eq!(store.stats().disk.gc_disk_reads, 1);
            store.check_invariants();
        }
    }

    #[test]
    fn invalidate_works_for_both() {
        for mut store in [PageStore::single(4), PageStore::tiered(2, 4)] {
            store.access(PageId(3), Access::Write);
            store.invalidate([PageId(3)]);
            // No write-back cost appears later.
            for i in 10..20u64 {
                store.access(PageId(i), Access::Read);
            }
            let s = store.stats();
            assert_eq!(s.disk.app_disk_writes + s.net.app_writebacks, 0);
            assert!(!store.is_resident(PageId(3)));
            assert!(store.is_resident(PageId(19)));
        }
    }
}
