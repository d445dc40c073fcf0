//! BBS dynamic skyline over a page-resident tree.
//!
//! [`paged_bbs_dynamic_skyline`] is the [`crate::bbs`] traversal driven
//! through [`PagedRTree`] node pages instead of the in-memory arena.
//! Given a persisted tree with the same structure (which
//! `wnrs_rtree::persist::save` and `wnrs_rtree::bulk_load_stream` both
//! guarantee), it visits entries in the identical order — the heap keys
//! come from the same `min_l1` arithmetic, ties break by the same
//! insertion sequence, push-time pruning uses the same flat-arena bounds
//! — so the discovered skyline matches the in-memory
//! [`crate::bbs::bbs_dynamic_skyline_scratch`] bit for bit, ids and
//! discovery order included.
//!
//! Unlike the in-memory scratch (which addresses accepted points by
//! arena location), pages may be evicted between push and pop, so the
//! original coordinates of pushed leaf entries are stashed in a flat
//! side arena and copied out on acceptance. Steady-state queries through
//! one reused [`PagedBbsScratch`] perform no heap allocations beyond the
//! buffer pool's page cloning.

use std::cmp::Ordering;
use std::collections::BinaryHeap;
use wnrs_geometry::{abs_diff_into, cmp_f64, kernels, PointsView};
use wnrs_rtree::paged::NodeBuf;
use wnrs_rtree::persist::PersistError;
use wnrs_rtree::{ItemId, PagedRTree};
use wnrs_storage::{PageId, Pager};

/// Arena offset marking the root node (no parent entry, hence no
/// precomputed bound; it pops first against an empty skyline).
const ROOT_SENTINEL: u32 = u32::MAX;

#[derive(Debug, Clone, Copy)]
enum Slot {
    /// Node page to maybe-expand, its transformed-lower-bound offset and
    /// the level its node must have.
    Node(PageId, u32, u32),
    /// Leaf item: id, transformed-bound offset, original-coords offset.
    Item(ItemId, u32, u32),
}

#[derive(Debug)]
struct PagedElem {
    key: f64,
    seq: u64,
    slot: Slot,
}

impl PartialEq for PagedElem {
    fn eq(&self, other: &Self) -> bool {
        self.key == other.key && self.seq == other.seq
    }
}
impl Eq for PagedElem {}
impl PartialOrd for PagedElem {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for PagedElem {
    fn cmp(&self, other: &Self) -> Ordering {
        // Max-heap inverted: smallest key first, FIFO on ties — the
        // exact `BbsScratch` ordering.
        cmp_f64(other.key, self.key).then_with(|| other.seq.cmp(&self.seq))
    }
}

/// Reusable state for [`paged_bbs_dynamic_skyline`]; mirrors
/// [`crate::bbs::BbsScratch`] plus a node decode buffer and the
/// original-coordinate arena.
#[derive(Debug, Default)]
pub struct PagedBbsScratch {
    heap: BinaryHeap<PagedElem>,
    seq: u64,
    dim: usize,
    /// Transformed-space skyline, flat (`len * dim` coords).
    sky_t: Vec<f64>,
    /// Accepted item ids, discovery order.
    ids: Vec<ItemId>,
    /// Accepted items' original coordinates, flat, discovery order.
    pts: Vec<f64>,
    /// Per-candidate transform buffer.
    tbuf: Vec<f64>,
    /// Transformed lower bounds of heap residents, flat.
    tarena: Vec<f64>,
    /// Original coordinates of pushed leaf entries, flat.
    parena: Vec<f64>,
    /// Node page decode buffer.
    node: NodeBuf,
}

impl PagedBbsScratch {
    /// An empty scratch; buffers grow on first use and are then reused.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of skyline points found by the last query.
    #[must_use]
    pub fn len(&self) -> usize {
        self.ids.len()
    }

    /// Whether the last query found no skyline points.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.ids.is_empty()
    }

    /// The transformed-space dynamic skyline of the last query, in
    /// discovery order.
    #[must_use]
    pub fn dsl_t(&self) -> PointsView<'_> {
        PointsView::new(self.dim, &self.sky_t)
    }

    /// The accepted items' original coordinates, discovery order.
    #[must_use]
    pub fn points(&self) -> PointsView<'_> {
        PointsView::new(self.dim, &self.pts)
    }

    /// The accepted item ids of the last query, in discovery order.
    #[must_use]
    pub fn ids(&self) -> &[ItemId] {
        &self.ids
    }

    fn reset(&mut self, dim: usize) {
        self.heap.clear();
        self.seq = 0;
        self.dim = dim;
        self.sky_t.clear();
        self.ids.clear();
        self.pts.clear();
        self.tbuf.clear();
        self.tarena.clear();
        self.parena.clear();
    }

    fn push(&mut self, key: f64, slot: Slot) {
        wnrs_geometry::stats::record_heap_push();
        self.seq += 1;
        self.heap.push(PagedElem {
            key,
            seq: self.seq,
            slot,
        });
    }

    fn stash_tbuf(&mut self) -> u32 {
        let off = self.tarena.len() as u32;
        self.tarena.extend_from_slice(&self.tbuf);
        off
    }

    fn stash_point(&mut self, coords: &[f64]) -> u32 {
        let off = self.parena.len() as u32;
        self.parena.extend_from_slice(coords);
        off
    }
}

/// Whether any point of the flat skyline arena dominates `t` — the
/// batched one-vs-many kernel (stats recorded once per arena scan).
fn any_dominates(sky: &[f64], dim: usize, t: &[f64]) -> bool {
    debug_assert!(dim > 0);
    kernels::any_dominates_block(sky, dim, t)
}

/// `Rect::min_l1_coords` over raw corner slices: the dispatched kernel
/// keeps term order and summation identical to the in-memory path.
fn min_l1_slices(lo: &[f64], hi: &[f64], q: &[f64]) -> f64 {
    kernels::min_l1_raw(lo, hi, q)
}

/// `transformed_lo_into` over raw corner slices.
fn transformed_lo_slices(lo: &[f64], hi: &[f64], q: &[f64], out: &mut Vec<f64>) {
    kernels::min_dists_into_raw(lo, hi, q, out);
}

/// BBS dynamic skyline w.r.t. `q` over a page-resident tree, leaving
/// ids, original points and the transformed skyline in `scratch`.
///
/// # Errors
///
/// Returns an error when a page read or decode fails, or a node does
/// not sit at the level its parent implies (a cyclic page graph
/// included): [`PagedRTree::read_node_at`].
///
/// # Panics
///
/// Panics when `q`'s length differs from the tree's dimensionality.
pub fn paged_bbs_dynamic_skyline<P: Pager>(
    tree: &PagedRTree<P>,
    q: &[f64],
    exclude: Option<ItemId>,
    scratch: &mut PagedBbsScratch,
) -> Result<(), PersistError> {
    assert_eq!(q.len(), tree.dim(), "query dimensionality mismatch");
    let _span = wnrs_obs::span!("bbs_dsl_paged");
    scratch.reset(q.len());
    if tree.is_empty() {
        return Ok(());
    }
    scratch.push(
        0.0,
        Slot::Node(tree.root_page(), ROOT_SENTINEL, tree.root_level()),
    );
    while let Some(elem) = scratch.heap.pop() {
        match elem.slot {
            Slot::Node(page, off, level) => {
                if off != ROOT_SENTINEL {
                    let at = off as usize;
                    let t = &scratch.tarena[at..at + scratch.dim];
                    if any_dominates(&scratch.sky_t, scratch.dim, t) {
                        continue;
                    }
                }
                // Decode into a detached buffer so pushes can borrow the
                // scratch mutably; swapped back afterwards for reuse.
                let mut node = std::mem::take(&mut scratch.node);
                tree.read_node_at(page, level, &mut node)?;
                for i in 0..node.len() {
                    let (lo, hi) = (node.lo(i), node.hi(i));
                    let key = min_l1_slices(lo, hi, q);
                    if node.is_item(i) {
                        let id = node.item_id(i);
                        if Some(id) == exclude {
                            continue;
                        }
                        abs_diff_into(lo, q, &mut scratch.tbuf);
                        if any_dominates(&scratch.sky_t, scratch.dim, &scratch.tbuf) {
                            continue;
                        }
                        let t_off = scratch.stash_tbuf();
                        let p_off = scratch.stash_point(lo);
                        scratch.push(key, Slot::Item(id, t_off, p_off));
                    } else {
                        transformed_lo_slices(lo, hi, q, &mut scratch.tbuf);
                        if any_dominates(&scratch.sky_t, scratch.dim, &scratch.tbuf) {
                            continue;
                        }
                        let t_off = scratch.stash_tbuf();
                        scratch.push(key, Slot::Node(node.child_page(i), t_off, level - 1));
                    }
                }
                scratch.node = node;
            }
            Slot::Item(id, t_off, p_off) => {
                let at = t_off as usize;
                let t = &scratch.tarena[at..at + scratch.dim];
                if any_dominates(&scratch.sky_t, scratch.dim, t) {
                    continue;
                }
                scratch.sky_t.extend_from_slice(t);
                scratch.ids.push(id);
                let pat = p_off as usize;
                let coords = &scratch.parena[pat..pat + scratch.dim];
                scratch.pts.extend_from_slice(coords);
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bbs::{bbs_dynamic_skyline_scratch, BbsScratch};
    use std::sync::Arc;
    use wnrs_geometry::Point;
    use wnrs_rtree::bulk::bulk_load;
    use wnrs_rtree::persist::save;
    use wnrs_rtree::RTreeConfig;
    use wnrs_storage::{BufferPool, MemPager};

    fn pseudo_points(n: usize, seed: u64, dim: usize) -> Vec<Point> {
        let mut state = seed;
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((state >> 33) as f64) / (u32::MAX as f64)
        };
        (0..n)
            .map(|_| Point::new((0..dim).map(|_| next() * 100.0).collect::<Vec<_>>()))
            .collect()
    }

    fn paged_copy(tree: &wnrs_rtree::RTree, pool_pages: usize) -> PagedRTree<MemPager> {
        let pager = Arc::new(MemPager::paper_default());
        let meta = save(tree, pager.as_ref()).expect("save");
        PagedRTree::open(BufferPool::new(pager, pool_pages), meta).expect("open")
    }

    #[test]
    fn matches_in_memory_scratch_bit_for_bit() {
        for (seed, dim) in [(7u64, 2usize), (8, 2), (5, 3)] {
            let pts = pseudo_points(600, seed, dim);
            let tree = bulk_load(&pts, RTreeConfig::paper_default(dim));
            let paged = paged_copy(&tree, 64);
            let mut mem = BbsScratch::new();
            let mut pg = PagedBbsScratch::new();
            let queries: Vec<Point> = pts.iter().take(25).cloned().collect();
            for (qi, q) in queries.iter().enumerate() {
                let exclude = Some(ItemId(qi as u32));
                bbs_dynamic_skyline_scratch(&tree, q.coords(), exclude, &mut mem);
                paged_bbs_dynamic_skyline(&paged, q.coords(), exclude, &mut pg).expect("paged");
                assert_eq!(pg.ids(), mem.ids(), "seed {seed} query {qi}");
                assert_eq!(
                    pg.dsl_t().coords(),
                    mem.dsl_t().coords(),
                    "seed {seed} query {qi}: transformed skylines diverge"
                );
                // Original coordinates round-trip through the pages.
                for (i, id) in pg.ids().iter().enumerate() {
                    assert_eq!(
                        pg.points().get(i).coords(),
                        pts[id.0 as usize].coords(),
                        "seed {seed} query {qi} item {i}"
                    );
                }
            }
        }
    }

    #[test]
    fn bounded_pool_still_exact() {
        let pts = pseudo_points(3000, 99, 2);
        let tree = bulk_load(&pts, RTreeConfig::paper_default(2));
        let paged = paged_copy(&tree, 4);
        let mut mem = BbsScratch::new();
        let mut pg = PagedBbsScratch::new();
        let q = Point::xy(41.0, 67.0);
        bbs_dynamic_skyline_scratch(&tree, q.coords(), None, &mut mem);
        paged_bbs_dynamic_skyline(&paged, q.coords(), None, &mut pg).expect("paged");
        assert_eq!(pg.ids(), mem.ids());
        assert!(paged.pool().resident() <= 4);
    }

    #[test]
    fn empty_exclusion_of_everything_is_fine() {
        let pts = vec![Point::xy(1.0, 1.0)];
        let tree = bulk_load(&pts, RTreeConfig::paper_default(2));
        let paged = paged_copy(&tree, 4);
        let mut pg = PagedBbsScratch::new();
        paged_bbs_dynamic_skyline(&paged, &[0.0, 0.0], Some(ItemId(0)), &mut pg).expect("paged");
        assert!(pg.is_empty());
    }
}
