//! Reverse-skyline primitives over a page-resident tree.
//!
//! The same four building blocks as the in-memory modules —
//! `window_query`, membership, the global skyline and BBRS — driven
//! through [`PagedRTree`] pages behind a buffer pool, so million-point
//! datasets can be queried with bounded memory. Given a persisted tree
//! of identical structure, every function returns answers bit-identical
//! to its in-memory counterpart: `Λ` is produced in the same canonical
//! ascending-id order, the global skyline replays the best-first
//! traversal's exact pop order (same keys, FIFO tie-breaking), and BBRS
//! filters the same candidates with the same predicate.

use std::cmp::Ordering;
use std::collections::BinaryHeap;
use std::ops::ControlFlow;
use wnrs_geometry::{cmp_f64, kernels, Point, Rect};
use wnrs_rtree::paged::NodeBuf;
use wnrs_rtree::persist::PersistError;
use wnrs_rtree::{ItemId, PagedRTree};
use wnrs_storage::{PageId, Pager};

/// Reusable state for [`paged_is_reverse_skyline_member`]: the page
/// traversal's descent stack and node decode buffer.
pub use wnrs_rtree::paged::PagedWindowScratch as PagedMemberScratch;

/// The culprit set `Λ = window_query(c, q)` through pages, in ascending
/// id order — the same canonical order as
/// [`crate::window::window_query`]. Dominance is tested inside the page
/// traversal, so only accepted culprits are materialised.
///
/// # Errors
///
/// Returns an error when a page read or decode fails.
pub fn paged_window_query<P: Pager>(
    tree: &PagedRTree<P>,
    c: &Point,
    q: &Point,
    exclude: Option<ItemId>,
) -> Result<Vec<(ItemId, Point)>, PersistError> {
    let rect = Rect::window(c, q);
    // lint:allow(hot_path_alloc) reason=one result buffer per window query, not per entry
    let mut out = Vec::new();
    let mut tested = 0u64;
    let scan = tree.window_try_for_each(&rect, &mut PagedMemberScratch::new(), |id, p| {
        if Some(id) != exclude {
            tested += 1;
            if kernels::dominates_dyn_raw(p, q.coords(), c.coords()) {
                out.push((id, Point::new(p)));
            }
        }
        ControlFlow::<()>::Continue(())
    });
    wnrs_geometry::stats::record_dominance_tests(tested);
    scan?;
    out.sort_unstable_by_key(|(id, _)| *id);
    Ok(out)
}

/// Whether `c ∈ RSL(q)`, early-exiting inside the page traversal without
/// materialising `Λ`. Decides exactly what
/// [`crate::window::is_reverse_skyline_member`] decides.
///
/// # Errors
///
/// Returns an error when a page read or decode fails.
pub fn paged_is_reverse_skyline_member<P: Pager>(
    tree: &PagedRTree<P>,
    c: &Point,
    q: &Point,
    exclude: Option<ItemId>,
    scratch: &mut PagedMemberScratch,
) -> Result<bool, PersistError> {
    let rect = Rect::window(c, q);
    // One stats record per call: the tally counts exactly the dominance
    // tests the per-entry path performs (containment-gated,
    // early-exiting), so `query-stats` totals match the in-memory
    // membership primitive test for test.
    let mut tested = 0u64;
    let dominated = tree.window_try_for_each(&rect, scratch, |id, p| {
        if Some(id) != exclude {
            tested += 1;
            if kernels::dominates_dyn_raw(p, q.coords(), c.coords()) {
                return ControlFlow::Break(());
            }
        }
        ControlFlow::Continue(())
    });
    if tested > 0 {
        wnrs_geometry::stats::record_dominance_tests(tested);
        wnrs_geometry::stats::record_kernel_batch(tested);
    }
    Ok(dominated?.is_none())
}

#[derive(Debug)]
enum Payload {
    /// A node page, its MBR and the level its node must have.
    Node(PageId, Rect, u32),
    Item(ItemId, Point),
}

#[derive(Debug)]
struct BfElem {
    key: f64,
    seq: u64,
    payload: Payload,
}

impl PartialEq for BfElem {
    fn eq(&self, other: &Self) -> bool {
        self.key == other.key && self.seq == other.seq
    }
}
impl Eq for BfElem {}
impl PartialOrd for BfElem {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for BfElem {
    fn cmp(&self, other: &Self) -> Ordering {
        // Smallest key pops first, FIFO on ties — `BestFirst`'s order.
        cmp_f64(other.key, self.key).then_with(|| other.seq.cmp(&self.seq))
    }
}

/// The global skyline of `q` over a page-resident tree, in the exact
/// discovery order of [`crate::bbrs::global_skyline`].
///
/// # Errors
///
/// Returns an error when a page read or decode fails, or a node does
/// not sit at the level its parent implies (a cyclic page graph
/// included): [`PagedRTree::read_node_at`].
///
/// # Panics
///
/// Panics when `q`'s dimensionality differs from the tree's.
pub fn paged_global_skyline<P: Pager>(
    tree: &PagedRTree<P>,
    q: &Point,
) -> Result<Vec<(ItemId, Point)>, PersistError> {
    assert_eq!(q.dim(), tree.dim(), "query dimensionality mismatch");
    let _span = wnrs_obs::span!("bbrs_global_skyline_paged");
    // lint:allow(hot_path_alloc) reason=per-query accumulators, not per-entry
    let mut found: Vec<Point> = Vec::new();
    // lint:allow(hot_path_alloc) reason=per-query accumulators, not per-entry
    let mut out: Vec<(ItemId, Point)> = Vec::new();
    if tree.is_empty() {
        return Ok(out);
    }
    let mut heap: BinaryHeap<BfElem> = BinaryHeap::new();
    let mut seq = 0u64;
    let mut node = NodeBuf::new();
    // The root pops first against an empty skyline — expanding it up
    // front replays the reference traversal from the second pop onward.
    let expand = |page: PageId,
                  level: u32,
                  node: &mut NodeBuf,
                  heap: &mut BinaryHeap<BfElem>,
                  seq: &mut u64|
     -> Result<(), PersistError> {
        tree.read_node_at(page, level, node)?;
        for i in 0..node.len() {
            let rect = Rect::new(
                // lint:allow(hot_path_alloc) reason=heap payloads must own their corners; entries outlive the decode buffer
                Point::new(node.lo(i).to_vec()),
                // lint:allow(hot_path_alloc) reason=heap payloads must own their corners; entries outlive the decode buffer
                Point::new(node.hi(i).to_vec()),
            );
            let key = rect.min_l1_coords(q.coords());
            *seq += 1;
            let payload = if node.is_item(i) {
                // lint:allow(hot_path_alloc) reason=heap payloads must own their corners; entries outlive the decode buffer
                Payload::Item(node.item_id(i), Point::new(node.lo(i).to_vec()))
            } else {
                // lint:allow(hot_path_alloc) reason=moves the rect computed above into the heap payload
                Payload::Node(node.child_page(i), rect.clone(), level - 1)
            };
            heap.push(BfElem {
                key,
                seq: *seq,
                payload,
            });
        }
        Ok(())
    };
    expand(
        tree.root_page(),
        tree.root_level(),
        &mut node,
        &mut heap,
        &mut seq,
    )?;
    while let Some(elem) = heap.pop() {
        match elem.payload {
            Payload::Node(page, rect, level) => {
                if !found.iter().any(|s| globally_dominates_rect(s, &rect, q)) {
                    expand(page, level, &mut node, &mut heap, &mut seq)?;
                }
            }
            Payload::Item(id, point) => {
                if !kernels::any_dominates_global_points(&found, &point, q) {
                    // lint:allow(hot_path_alloc) reason=one clone per accepted skyline point
                    found.push(point.clone());
                    out.push((id, point));
                }
            }
        }
    }
    Ok(out)
}

/// Whether `s` globally dominates every point of `rect` w.r.t. `q` —
/// the BBRS subtree-pruning test (shared with [`crate::bbrs`]).
fn globally_dominates_rect(s: &Point, rect: &Rect, q: &Point) -> bool {
    let d = q.dim();
    let mut strict = false;
    for i in 0..d {
        if s[i] >= q[i] {
            if rect.lo()[i] < s[i] {
                return false;
            }
            if rect.lo()[i] > s[i] {
                strict = true;
            }
        } else {
            if rect.hi()[i] > s[i] {
                return false;
            }
            if rect.hi()[i] < s[i] {
                strict = true;
            }
        }
    }
    strict
}

/// The monochromatic reverse skyline of `q` via BBRS over pages, sorted
/// by item id — the same set and order as
/// [`crate::bbrs::bbrs_reverse_skyline`].
///
/// # Errors
///
/// Returns an error when a page read or decode fails.
pub fn paged_bbrs_reverse_skyline<P: Pager>(
    tree: &PagedRTree<P>,
    q: &Point,
) -> Result<Vec<(ItemId, Point)>, PersistError> {
    let _span = wnrs_obs::span!("bbrs_paged");
    let candidates = paged_global_skyline(tree, q)?;
    let mut scratch = PagedMemberScratch::new();
    let mut out: Vec<(ItemId, Point)> = Vec::with_capacity(candidates.len());
    {
        let _verify = wnrs_obs::span!("bbrs_verify_paged");
        for (id, c) in candidates {
            if paged_is_reverse_skyline_member(tree, &c, q, Some(id), &mut scratch)? {
                out.push((id, c));
            }
        }
    }
    out.sort_by_key(|(id, _)| *id);
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bbrs::{bbrs_reverse_skyline, global_skyline};
    use crate::window::{is_reverse_skyline_member, window_query};
    use std::sync::Arc;
    use wnrs_rtree::bulk::bulk_load;
    use wnrs_rtree::persist::save;
    use wnrs_rtree::{RTree, RTreeConfig};
    use wnrs_storage::{BufferPool, MemPager};

    fn pseudo_points(n: usize, seed: u64) -> Vec<Point> {
        let mut state = seed;
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((state >> 33) as f64) / (u32::MAX as f64)
        };
        (0..n)
            .map(|_| Point::xy(next() * 100.0, next() * 100.0))
            .collect()
    }

    fn paged_copy(tree: &RTree, pool_pages: usize) -> PagedRTree<MemPager> {
        let pager = Arc::new(MemPager::paper_default());
        let meta = save(tree, pager.as_ref()).expect("save");
        PagedRTree::open(BufferPool::new(pager, pool_pages), meta).expect("open")
    }

    #[test]
    fn window_query_matches_in_memory() {
        let pts = pseudo_points(500, 21);
        let tree = bulk_load(&pts, RTreeConfig::paper_default(2));
        let paged = paged_copy(&tree, 32);
        let mut scratch = PagedMemberScratch::new();
        for (ci, c) in pts.iter().take(40).enumerate() {
            let q = Point::xy(47.0, 53.0);
            let exclude = Some(ItemId(ci as u32));
            let want = window_query(&tree, c, &q, exclude);
            let got = paged_window_query(&paged, c, &q, exclude).expect("paged");
            assert_eq!(got.len(), want.len(), "customer {ci}");
            for (g, w) in got.iter().zip(want.iter()) {
                assert_eq!(g.0, w.0, "customer {ci}");
                assert_eq!(g.1.coords(), w.1.coords(), "customer {ci}");
            }
            assert_eq!(
                paged_is_reverse_skyline_member(&paged, c, &q, exclude, &mut scratch)
                    .expect("paged"),
                is_reverse_skyline_member(&tree, c, &q, exclude),
                "customer {ci}"
            );
        }
    }

    #[test]
    fn global_skyline_matches_in_memory_order() {
        for seed in [1, 7, 29] {
            let pts = pseudo_points(400, seed);
            let tree = bulk_load(&pts, RTreeConfig::paper_default(2));
            let paged = paged_copy(&tree, 16);
            let q = Point::xy(47.0, 53.0);
            let want = global_skyline(&tree, &q);
            let got = paged_global_skyline(&paged, &q).expect("paged");
            assert_eq!(got.len(), want.len(), "seed {seed}");
            for (i, (g, w)) in got.iter().zip(want.iter()).enumerate() {
                assert_eq!(g.0, w.0, "seed {seed} item {i}: discovery order diverged");
                assert_eq!(g.1.coords(), w.1.coords(), "seed {seed} item {i}");
            }
        }
    }

    #[test]
    fn bbrs_matches_in_memory() {
        for seed in [1, 13, 29] {
            let pts = pseudo_points(400, seed);
            let tree = bulk_load(&pts, RTreeConfig::paper_default(2));
            let paged = paged_copy(&tree, 8);
            let q = Point::xy(47.0, 53.0);
            let want: Vec<u32> = bbrs_reverse_skyline(&tree, &q)
                .iter()
                .map(|(id, _)| id.0)
                .collect();
            let got: Vec<u32> = paged_bbrs_reverse_skyline(&paged, &q)
                .expect("paged")
                .iter()
                .map(|(id, _)| id.0)
                .collect();
            assert_eq!(got, want, "seed {seed}");
        }
    }

    #[test]
    fn paper_example_through_pages() {
        let pts = vec![
            Point::xy(5.0, 30.0),
            Point::xy(7.5, 42.0),
            Point::xy(2.5, 70.0),
            Point::xy(7.5, 90.0),
            Point::xy(24.0, 20.0),
            Point::xy(20.0, 50.0),
            Point::xy(26.0, 70.0),
            Point::xy(16.0, 80.0),
        ];
        let tree = bulk_load(&pts, RTreeConfig::with_max_entries(4));
        let paged = paged_copy(&tree, 4);
        let q = Point::xy(8.5, 55.0);
        let got: Vec<u32> = paged_bbrs_reverse_skyline(&paged, &q)
            .expect("paged")
            .iter()
            .map(|(id, _)| id.0)
            .collect();
        assert_eq!(got, vec![1, 2, 3, 5, 7]);
    }

    /// `n` points on a coarse grid that holds both zeros, plus exact
    /// duplicates of every tenth: ties in every dimension.
    fn grid_points(n: usize, dim: usize, seed: u64) -> Vec<Point> {
        const VALUES: [f64; 7] = [-2.0, -1.0, -0.0, 0.0, 1.0, 1.5, 2.0];
        let mut state = seed;
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            VALUES[(state >> 33) as usize % VALUES.len()]
        };
        let mut pts: Vec<Point> = (0..n)
            .map(|_| Point::new((0..dim).map(|_| next()).collect::<Vec<_>>()))
            .collect();
        for i in (0..n).step_by(10) {
            pts.push(pts[i].clone());
        }
        pts
    }

    /// Ids and coordinate bits, so `-0.0` and `0.0` stay distinct.
    fn bits(culprits: &[(ItemId, Point)]) -> Vec<(u32, Vec<u64>)> {
        culprits
            .iter()
            .map(|(id, p)| (id.0, p.coords().iter().map(|c| c.to_bits()).collect()))
            .collect()
    }

    #[test]
    fn paged_window_and_membership_match_in_memory_d1_to_d6() {
        for dim in 1..=6 {
            let pts = grid_points(300, dim, 40 + dim as u64);
            let tree = bulk_load(&pts, RTreeConfig::with_max_entries(8));
            let queries = grid_points(4, dim, 90 + dim as u64);
            for pool_pages in [1, 4, 64] {
                let paged = paged_copy(&tree, pool_pages);
                let mut scratch = PagedMemberScratch::new();
                for q in &queries {
                    for (ci, c) in pts.iter().enumerate().step_by(7) {
                        for exclude in [None, Some(ItemId(ci as u32))] {
                            let what =
                                format!("d={dim} pool={pool_pages} q={q:?} c={ci} {exclude:?}");
                            let tests0 = wnrs_geometry::stats::snapshot().dominance_tests;
                            let want = window_query(&tree, c, q, exclude);
                            let tests1 = wnrs_geometry::stats::snapshot().dominance_tests;
                            let got = paged_window_query(&paged, c, q, exclude).expect("paged");
                            let tests2 = wnrs_geometry::stats::snapshot().dominance_tests;
                            assert_eq!(bits(&got), bits(&want), "{what}");
                            assert_eq!(tests2 - tests1, tests1 - tests0, "{what}: tallies");
                            assert_eq!(
                                paged_is_reverse_skyline_member(
                                    &paged,
                                    c,
                                    q,
                                    exclude,
                                    &mut scratch
                                )
                                .expect("paged"),
                                is_reverse_skyline_member(&tree, c, q, exclude),
                                "{what}"
                            );
                        }
                    }
                }
            }
        }
    }
}
