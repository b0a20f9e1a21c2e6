//! Micro-benchmarks for the LRU write-back buffer pool: hit path, miss
//! path with dirty eviction, and sequential span scans.

use pgc_bench::microbench::Runner;
use pgc_buffer::{Access, BufferPool};
use pgc_types::PageId;
use std::hint::black_box;

fn main() {
    let r = Runner::new();

    {
        let mut pool = BufferPool::new(64);
        for i in 0..64 {
            pool.access(PageId(i), Access::Read);
        }
        let mut i = 0u64;
        r.bench("buffer/read_hit", || {
            pool.access(PageId(i % 64), Access::Read);
            i += 1;
            black_box(&pool);
        });
    }

    {
        let mut pool = BufferPool::new(64);
        let mut i = 0u64;
        r.bench("buffer/miss_with_dirty_eviction", || {
            // Every access misses and evicts a dirty page (steady state):
            // cycling over 4096 pages against 64 frames never re-touches a
            // resident page, and the fixed window keeps the dense page
            // index from growing, so the bench times eviction, not growth.
            pool.access(PageId(i % 4096), Access::Write);
            i += 1;
            black_box(&pool);
        });
    }

    r.bench_batched(
        "buffer/span_scan_48_pages",
        || BufferPool::new(48),
        |mut pool| {
            pool.access_span((0..48).map(PageId), Access::Read);
            black_box(pool.stats())
        },
    );
}
