//! Proves the window-constrained BBS behind MWP's culprit frontier
//! (`bbs_directed_skyline_scratch`) is allocation-free at steady state:
//! after one warm-up pass over every question (which grows the scratch
//! buffers to their high-water marks), a second identical pass must
//! perform **zero** heap allocations.
//!
//! A counting `#[global_allocator]` wraps the system allocator; the test
//! binary is single-test on purpose so no concurrent test case can bleed
//! allocations into the measured window.

#![allow(unsafe_code)]

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use wnrs_geometry::{dominates_dyn, Point, Rect};
use wnrs_rtree::bulk::bulk_load;
use wnrs_rtree::{ItemId, RTree, RTreeConfig};
use wnrs_skyline::{bbs_directed_skyline_scratch, BbsScratch};

/// System allocator wrapper counting every allocation and reallocation.
struct CountingAlloc;

static ALLOC_CALLS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOC_CALLS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOC_CALLS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static COUNTER: CountingAlloc = CountingAlloc;

fn pseudo_points(n: usize, seed: u64) -> Vec<Point> {
    let mut state = seed;
    let mut next = move || {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        ((state >> 33) as f64) / (f64::from(u32::MAX))
    };
    (0..n)
        .map(|_| Point::xy(next() * 100.0, next() * 100.0))
        .collect()
}

/// An MWP-shaped frontier query: customer `c` (item `own`), query `q`,
/// the window between them as the bound, the culprits as the accepted
/// set, preferring coordinates towards `q`.
struct Question {
    own: ItemId,
    c: Point,
    q: Point,
    window: Rect,
    toward: [f64; 2],
}

/// One pass over `questions`. Returns a checksum of the frontier keys and the number of
/// frontier points found.
fn pass(tree: &RTree, questions: &[Question], scratch: &mut BbsScratch) -> (f64, usize) {
    let mut checksum = 0.0f64;
    let mut found = 0;
    for qn in questions {
        bbs_directed_skyline_scratch(
            tree,
            &qn.toward,
            &qn.window,
            |id, p| id != qn.own && dominates_dyn(p, &qn.q, &qn.c),
            scratch,
        );
        checksum += scratch.dsl_t().coords().iter().sum::<f64>();
        found += scratch.len();
    }
    (checksum, found)
}

#[test]
fn culprit_frontier_bbs_is_allocation_free_after_warmup() {
    let pts = pseudo_points(3000, 20_130_408);
    let tree = bulk_load(&pts, RTreeConfig::paper_default(2));
    let q = Point::xy(52.0, 49.0);
    // Questions are built before anything is measured.
    let questions: Vec<Question> = pts
        .iter()
        .enumerate()
        .step_by(7)
        .map(|(ci, c)| Question {
            own: ItemId(ci as u32),
            c: c.clone(),
            q: q.clone(),
            window: Rect::window(c, &q),
            toward: [0, 1].map(|i| if q[i] >= c[i] { 1.0 } else { -1.0 }),
        })
        .collect();
    let mut scratch = BbsScratch::new();

    // Warm-up: one full pass grows every scratch buffer (heap, key
    // arena, skyline arena, result ids) to its peak size.
    let (warm_checksum, warm_found) = pass(&tree, &questions, &mut scratch);

    // Measured pass: identical queries through the warm scratch. Any
    // allocation here is a regression in the hot path.
    let before = ALLOC_CALLS.load(Ordering::SeqCst);
    let (checksum, found) = pass(&tree, &questions, &mut scratch);
    let delta = ALLOC_CALLS.load(Ordering::SeqCst) - before;

    assert_eq!(
        checksum.to_bits(),
        warm_checksum.to_bits(),
        "passes diverged"
    );
    assert_eq!(found, warm_found, "passes diverged");
    assert!(found > 0, "no question had a culprit");
    assert_eq!(
        delta, 0,
        "frontier BBS allocated {delta} times after warm-up"
    );
}
