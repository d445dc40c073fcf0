//! Branch-and-bound skyline over the R\*-tree (Papadias et al.,
//! SIGMOD'03), in the static space, in the absolute-distance space
//! centred at a query point (dynamic skyline), and in a directed frame
//! restricted to a window (the culprit window's frontier).
//!
//! BBS pops R-tree entries from a min-heap keyed by `MINDIST` (the
//! coordinate sum of the rectangle's lower corner); an entry whose lower
//! corner is dominated by an already-found skyline point can be pruned
//! wholesale, which makes BBS I/O-optimal for skylines.

use std::cmp::Ordering;
use std::collections::BinaryHeap;
use wnrs_geometry::{abs_diff_into, cmp_f64, dominates, kernels, Point, PointsView, Rect};
use wnrs_rtree::{BestFirst, Child, ItemId, NodeId, RTree, Traversal};

/// The lower corner of `rect`'s image under the absolute-distance
/// transform centred at `q`: per dimension, the minimum of `|x − q_i|`
/// over `x ∈ [lo_i, hi_i]` (zero when `q_i` falls inside the range).
///
/// Every point inside `rect` transforms to a point dominating-or-equal to
/// this corner, which is what lets BBS prune subtrees in the transformed
/// space.
pub fn transformed_lo(rect: &Rect, q: &Point) -> Point {
    debug_assert_eq!(rect.dim(), q.dim());
    Point::new(
        (0..rect.dim())
            .map(|i| {
                if q[i] < rect.lo()[i] {
                    rect.lo()[i] - q[i]
                } else if q[i] > rect.hi()[i] {
                    q[i] - rect.hi()[i]
                } else {
                    0.0
                }
            })
            .collect::<Vec<_>>(),
    )
}

/// The static skyline of the indexed points via BBS, as `(id, point)`
/// pairs in discovery (MINDIST) order.
pub fn bbs_skyline(tree: &RTree) -> Vec<(ItemId, Point)> {
    let _span = wnrs_obs::span!("bbs_skyline");
    // lint:allow(hot_path_alloc) reason=per-query setup, not per-candidate
    let mut skyline: Vec<Point> = Vec::new();
    // lint:allow(hot_path_alloc) reason=per-query setup, not per-candidate
    let mut out: Vec<(ItemId, Point)> = Vec::new();
    let mut bf = BestFirst::new(tree, |r: &Rect| r.lo().coords().iter().sum());
    while let Some(t) = bf.pop() {
        match t {
            Traversal::Node { id, rect, .. } => {
                if !skyline.iter().any(|s| dominates(s, rect.lo())) {
                    bf.expand(id);
                }
            }
            Traversal::Item { id, point, .. } => {
                if !skyline.iter().any(|s| dominates(s, &point)) {
                    // lint:allow(hot_path_alloc) reason=one clone per accepted skyline point
                    skyline.push(point.clone());
                    out.push((id, point));
                }
            }
        }
    }
    out
}

/// The dynamic skyline w.r.t. `q` (Definition 2) via BBS in the
/// transformed space, as `(id, point)` pairs in original coordinates.
///
/// # Examples
///
/// ```
/// use wnrs_geometry::Point;
/// use wnrs_rtree::{bulk::bulk_load, RTreeConfig};
/// use wnrs_skyline::bbs_dynamic_skyline;
///
/// // Paper, Fig. 2(a): DSL(q) = {p2, p6} for q(8.5, 55).
/// let pts = vec![
///     Point::xy(5.0, 30.0),  // p1
///     Point::xy(7.5, 42.0),  // p2
///     Point::xy(2.5, 70.0),  // p3
///     Point::xy(7.5, 90.0),  // p4
///     Point::xy(24.0, 20.0), // p5
///     Point::xy(20.0, 50.0), // p6
///     Point::xy(26.0, 70.0), // p7
///     Point::xy(16.0, 80.0), // p8
/// ];
/// let tree = bulk_load(&pts, RTreeConfig::with_max_entries(4));
/// let mut ids: Vec<u32> = bbs_dynamic_skyline(&tree, &Point::xy(8.5, 55.0))
///     .iter().map(|(id, _)| id.0).collect();
/// ids.sort();
/// assert_eq!(ids, vec![1, 5]);
/// ```
pub fn bbs_dynamic_skyline(tree: &RTree, q: &Point) -> Vec<(ItemId, Point)> {
    bbs_dynamic_skyline_excluding(tree, q, None)
}

/// As [`bbs_dynamic_skyline`], but ignoring the item with id `exclude` —
/// needed in the monochromatic setting, where a customer's own tuple
/// must not appear among its products (it would transform to the origin
/// and dominate everything).
pub fn bbs_dynamic_skyline_excluding(
    tree: &RTree,
    q: &Point,
    exclude: Option<ItemId>,
) -> Vec<(ItemId, Point)> {
    let mut scratch = BbsScratch::new();
    bbs_dynamic_skyline_scratch(tree, q.coords(), exclude, &mut scratch);
    scratch
        .points(tree)
        // lint:allow(hot_path_alloc) reason=compat wrapper materialises one owned point per result
        .map(|(id, p)| (id, p.clone()))
        .collect()
}

/// One heap element of the scratch-based BBS traversal. Mirrors the
/// ordering of `BestFirst`'s internal heap exactly: smallest key pops
/// first, ties broken FIFO by insertion sequence — so the scratch path
/// replays the reference traversal bit for bit.
#[derive(Debug)]
struct ScratchElem {
    key: f64,
    seq: u64,
    slot: Slot,
}

/// Heap payload: node to maybe-expand, or a leaf entry addressed by its
/// position in the arena (no point clone — the coordinates are fetched
/// from the tree when the element pops). Both variants carry the arena
/// offset of their transformed-space lower bound ([`BbsScratch::tarena`])
/// so the pop-time prune re-check never touches the tree.
#[derive(Debug, Clone, Copy)]
enum Slot {
    Node(NodeId, u32),
    Item(ItemId, NodeId, u32, u32),
}

/// Arena offset marking the root node, which has no parent entry (and
/// therefore no precomputed bound — it pops first, against an empty
/// skyline, so no prune check is needed either).
const ROOT_SENTINEL: u32 = u32::MAX;

impl PartialEq for ScratchElem {
    fn eq(&self, other: &Self) -> bool {
        self.key == other.key && self.seq == other.seq
    }
}
impl Eq for ScratchElem {}
impl PartialOrd for ScratchElem {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for ScratchElem {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap: invert so the smallest key pops first;
        // break ties by insertion order for determinism.
        cmp_f64(other.key, self.key).then_with(|| other.seq.cmp(&self.seq))
    }
}

/// Reusable state for [`bbs_dynamic_skyline_scratch`] and
/// [`bbs_directed_skyline_scratch`]: the best-first heap, the flat
/// transformed-space skyline arena, the accepted item ids/locations,
/// and a transform buffer.
///
/// One scratch serves any number of sequential queries; after a warm-up
/// query has grown the buffers, further queries perform **zero** heap
/// allocations. The store build holds one scratch per worker thread.
#[derive(Debug, Default)]
pub struct BbsScratch {
    heap: BinaryHeap<ScratchElem>,
    seq: u64,
    dim: usize,
    /// Transformed-space skyline, flat (`len * dim` coords).
    sky_t: Vec<f64>,
    /// Accepted item ids, discovery order.
    ids: Vec<ItemId>,
    /// Arena address (node, entry index) of each accepted item.
    locs: Vec<(NodeId, u32)>,
    /// Per-candidate transform buffer.
    tbuf: Vec<f64>,
    /// Transformed lower bounds of heap residents, flat (`dim` coords
    /// per pushed element): computed once at push time, reused for the
    /// pop-time prune re-check instead of rescanning tree entries.
    tarena: Vec<f64>,
}

impl BbsScratch {
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
    /// discovery order, as a flat borrowed view.
    #[must_use]
    pub fn dsl_t(&self) -> PointsView<'_> {
        PointsView::new(self.dim, &self.sky_t)
    }

    /// The accepted item ids of the last query, in discovery order.
    #[must_use]
    pub fn ids(&self) -> &[ItemId] {
        &self.ids
    }

    /// The accepted items of the last query, in discovery order, with
    /// their original coordinates borrowed from `tree` — the tree the
    /// query ran on.
    pub fn points<'a>(&'a self, tree: &'a RTree) -> impl Iterator<Item = (ItemId, &'a Point)> + 'a {
        self.ids
            .iter()
            .zip(self.locs.iter())
            .map(|(&id, &(nid, idx))| (id, tree.node(nid).entries()[idx as usize].point()))
    }

    fn reset(&mut self, dim: usize) {
        self.heap.clear();
        self.seq = 0;
        self.dim = dim;
        self.sky_t.clear();
        self.ids.clear();
        self.locs.clear();
        self.tbuf.clear();
        self.tarena.clear();
    }

    fn push(&mut self, key: f64, slot: Slot) {
        wnrs_geometry::stats::record_heap_push();
        self.seq += 1;
        self.heap.push(ScratchElem {
            key,
            seq: self.seq,
            slot,
        });
    }

    /// Appends the current transform buffer to the arena and returns
    /// its offset for a heap slot.
    fn stash_tbuf(&mut self) -> u32 {
        let off = self.tarena.len() as u32;
        self.tarena.extend_from_slice(&self.tbuf);
        off
    }
}

/// Whether any point of the flat skyline arena dominates `t` — the
/// batched one-vs-many kernel (stats recorded once per arena scan).
fn any_dominates(sky: &[f64], dim: usize, t: &[f64]) -> bool {
    debug_assert!(dim > 0);
    kernels::any_dominates_block(sky, dim, t)
}

/// Writes the lower corner of `rect`'s image under the absolute-distance
/// transform centred at `q` into `out` — [`transformed_lo`] without the
/// `Point` allocation. The parent entry's rectangle *is* the child's
/// MBR (the R\*-tree keeps entry rectangles tight), so pruning against
/// it decides exactly what recomputing the MBR from the child's own
/// entries used to decide, at `O(dim)` instead of `O(fanout · dim)`.
fn transformed_lo_into(rect: &Rect, q: &[f64], out: &mut Vec<f64>) {
    rect.min_dists_into(q, out);
}

/// Allocation-free core of [`bbs_dynamic_skyline_excluding`]: runs the
/// BBS traversal in the transformed space centred at `q`, leaving the
/// results in `scratch` ([`BbsScratch::ids`], [`BbsScratch::dsl_t`]).
///
/// Results are identical to the allocating wrapper — the heap keys are
/// computed with the bit-identical [`Rect::min_l1_coords`] kernel and
/// ties break by the same insertion sequence. Entries already dominated
/// by the skyline are pruned *at push time* (the skyline only grows, so
/// anything dominated at push would be dominated at pop too); survivors
/// carry their transformed lower bound in a flat arena, so the pop-time
/// re-check costs `O(|skyline| · dim)` with no tree access and expanded
/// nodes are scanned exactly once. After a warm-up query on the same
/// tree shape the steady state performs zero heap allocations.
pub fn bbs_dynamic_skyline_scratch(
    tree: &RTree,
    q: &[f64],
    exclude: Option<ItemId>,
    scratch: &mut BbsScratch,
) {
    assert_eq!(q.len(), tree.dim(), "query dimensionality mismatch");
    let _span = wnrs_obs::span!("bbs_dsl");
    bbs_in_frame(tree, &mut DynamicFrame { q, exclude }, scratch);
}

/// The skyline, under the per-dimension preferences `toward`, of the
/// indexed points inside `bound` that `accept` keeps: where `toward[i]`
/// is positive a larger coordinate is better, elsewhere a smaller one.
/// Results land in `scratch` as with [`bbs_dynamic_skyline_scratch`]:
/// [`BbsScratch::ids`] and [`BbsScratch::points`] in discovery order,
/// [`BbsScratch::dsl_t`] holding each point's keys `∓x_i`.
///
/// This is the window-constrained dynamic skyline w.r.t. an origin `o`
/// at a corner of `bound`, with `toward` pointing from the bound's
/// centre to `o`: on that side of `o`, `|x_i − o_i| = toward_i·(o_i −
/// x_i)`, and dominance is shift-invariant, so comparing the exact keys
/// `−toward_i·x_i` decides what comparing distances to `o` would. The
/// keys involve no subtraction, so no rounding can merge two distinct
/// coordinates into one distance, and a point slightly past `o` (a
/// padded window reaches beyond its corner) still ranks as closest.
///
/// `accept` filters items at leaf level, before they can prune
/// anything: a rejected item never enters the skyline. Subtrees
/// disjoint from `bound` are skipped, and subtrees whose best corner is
/// dominated by a found point are pruned. Every item left out is
/// dominated by an item kept. After a warm-up query the steady state
/// performs zero heap allocations.
///
/// # Panics
///
/// Panics when `toward` or `bound` differs from the tree in
/// dimensionality.
pub fn bbs_directed_skyline_scratch(
    tree: &RTree,
    toward: &[f64],
    bound: &Rect,
    accept: impl FnMut(ItemId, &Point) -> bool,
    scratch: &mut BbsScratch,
) {
    assert_eq!(
        toward.len(),
        tree.dim(),
        "direction dimensionality mismatch"
    );
    assert_eq!(bound.dim(), tree.dim(), "bound dimensionality mismatch");
    let _span = wnrs_obs::span!("bbs_directed");
    let mut frame = DirectedFrame {
        toward,
        bound,
        accept,
    };
    bbs_in_frame(tree, &mut frame, scratch);
}

/// The space a BBS traversal takes its skyline in: how an entry maps to
/// a heap key plus the coordinates dominance compares, and which
/// entries it skips outright.
trait Frame {
    /// Writes the best coordinates any point under `rect` can reach
    /// into `out` and returns the subtree's heap key, or `None` to skip
    /// the subtree.
    fn node(&mut self, rect: &Rect, out: &mut Vec<f64>) -> Option<f64>;

    /// Writes item `id`'s coordinates into `out` and returns its heap
    /// key, or `None` to skip the item. `rect` is its degenerate entry
    /// rectangle.
    fn item(&mut self, id: ItemId, rect: &Rect, p: &Point, out: &mut Vec<f64>) -> Option<f64>;
}

/// The absolute-distance space centred at `q` (dynamic skyline).
struct DynamicFrame<'a> {
    q: &'a [f64],
    exclude: Option<ItemId>,
}

impl Frame for DynamicFrame<'_> {
    fn node(&mut self, rect: &Rect, out: &mut Vec<f64>) -> Option<f64> {
        let key = rect.min_l1_coords(self.q);
        transformed_lo_into(rect, self.q, out);
        Some(key)
    }

    fn item(&mut self, id: ItemId, rect: &Rect, p: &Point, out: &mut Vec<f64>) -> Option<f64> {
        let key = rect.min_l1_coords(self.q);
        if Some(id) == self.exclude {
            return None;
        }
        abs_diff_into(p.coords(), self.q, out);
        Some(key)
    }
}

/// The keys `−toward_i·x_i` of [`bbs_directed_skyline_scratch`],
/// restricted to `bound` and to the items `accept` keeps.
struct DirectedFrame<'a, A> {
    toward: &'a [f64],
    bound: &'a Rect,
    accept: A,
}

impl<A: FnMut(ItemId, &Point) -> bool> DirectedFrame<'_, A> {
    /// Writes the keys of `best` (the rectangle's best corner) into
    /// `out`: exact negation where a larger coordinate is preferred.
    fn keys_into(&self, best: impl Iterator<Item = f64>, out: &mut Vec<f64>) -> f64 {
        out.clear();
        out.extend(
            best.zip(self.toward)
                .map(|(x, &t)| if t > 0.0 { -x } else { x }),
        );
        out.iter().sum()
    }
}

impl<A: FnMut(ItemId, &Point) -> bool> Frame for DirectedFrame<'_, A> {
    fn node(&mut self, rect: &Rect, out: &mut Vec<f64>) -> Option<f64> {
        if !self.bound.intersects(rect) {
            return None;
        }
        let best = (0..rect.dim()).map(|i| {
            if self.toward[i] > 0.0 {
                rect.hi()[i]
            } else {
                rect.lo()[i]
            }
        });
        Some(self.keys_into(best, out))
    }

    fn item(&mut self, id: ItemId, _rect: &Rect, p: &Point, out: &mut Vec<f64>) -> Option<f64> {
        if !self.bound.contains_point(p) || !(self.accept)(id, p) {
            return None;
        }
        Some(self.keys_into(p.coords().iter().copied(), out))
    }
}

/// The BBS traversal shared by every frame: best-first by heap key,
/// FIFO on ties, pruning at push time and re-checking at pop time
/// against the flat skyline arena.
fn bbs_in_frame(tree: &RTree, frame: &mut impl Frame, scratch: &mut BbsScratch) {
    scratch.reset(tree.dim());
    if tree.is_empty() {
        return;
    }
    // The root is the heap's only element at this point, so its key is
    // never compared against anything and it pops against an empty
    // skyline: push 0.0 with the sentinel offset instead of computing a
    // real bound.
    scratch.push(0.0, Slot::Node(tree.root(), ROOT_SENTINEL));
    while let Some(elem) = scratch.heap.pop() {
        match elem.slot {
            Slot::Node(nid, off) => {
                if off != ROOT_SENTINEL {
                    let at = off as usize;
                    let t = &scratch.tarena[at..at + scratch.dim];
                    if any_dominates(&scratch.sky_t, scratch.dim, t) {
                        continue;
                    }
                }
                let node = tree.node(nid);
                tree.record_visit();
                for (idx, e) in node.entries().iter().enumerate() {
                    match e.child() {
                        Child::Node(child) => {
                            let Some(key) = frame.node(e.rect(), &mut scratch.tbuf) else {
                                continue;
                            };
                            if any_dominates(&scratch.sky_t, scratch.dim, &scratch.tbuf) {
                                continue;
                            }
                            let t_off = scratch.stash_tbuf();
                            scratch.push(key, Slot::Node(child, t_off));
                        }
                        Child::Item(id) => {
                            let Some(key) = frame.item(id, e.rect(), e.point(), &mut scratch.tbuf)
                            else {
                                continue;
                            };
                            if any_dominates(&scratch.sky_t, scratch.dim, &scratch.tbuf) {
                                continue;
                            }
                            let t_off = scratch.stash_tbuf();
                            scratch.push(key, Slot::Item(id, nid, idx as u32, t_off));
                        }
                    }
                }
            }
            Slot::Item(id, nid, idx, off) => {
                let at = off as usize;
                let t = &scratch.tarena[at..at + scratch.dim];
                if any_dominates(&scratch.sky_t, scratch.dim, t) {
                    continue;
                }
                scratch.sky_t.extend_from_slice(t);
                scratch.ids.push(id);
                scratch.locs.push((nid, idx));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bnl::bnl_skyline;
    use wnrs_rtree::bulk::bulk_load;
    use wnrs_rtree::RTreeConfig;

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

    #[test]
    fn static_bbs_matches_bnl() {
        for seed in [11, 22, 33] {
            let pts = pseudo_points(500, seed, 2);
            let tree = bulk_load(&pts, RTreeConfig::with_max_entries(8));
            let mut got: Vec<u32> = bbs_skyline(&tree).iter().map(|(id, _)| id.0).collect();
            got.sort_unstable();
            let want: Vec<u32> = bnl_skyline(&pts).iter().map(|&i| i as u32).collect();
            assert_eq!(got, want, "seed {seed}");
        }
    }

    #[test]
    fn static_bbs_3d() {
        let pts = pseudo_points(400, 5, 3);
        let tree = bulk_load(&pts, RTreeConfig::with_max_entries(10));
        let mut got: Vec<u32> = bbs_skyline(&tree).iter().map(|(id, _)| id.0).collect();
        got.sort_unstable();
        let want: Vec<u32> = bnl_skyline(&pts).iter().map(|&i| i as u32).collect();
        assert_eq!(got, want);
    }

    #[test]
    fn dynamic_bbs_matches_scan() {
        for seed in [7, 8, 9] {
            let pts = pseudo_points(500, seed, 2);
            let tree = bulk_load(&pts, RTreeConfig::with_max_entries(8));
            let q = Point::xy(41.0, 67.0);
            let mut got: Vec<u32> = bbs_dynamic_skyline(&tree, &q)
                .iter()
                .map(|(id, _)| id.0)
                .collect();
            got.sort_unstable();
            let want: Vec<u32> = crate::dynamic::dynamic_skyline_scan(&pts, &q)
                .iter()
                .map(|&i| i as u32)
                .collect();
            assert_eq!(got, want, "seed {seed}");
        }
    }

    #[test]
    fn dynamic_bbs_prunes_nodes() {
        let pts = pseudo_points(5000, 42, 2);
        let tree = bulk_load(&pts, RTreeConfig::paper_default(2));
        tree.reset_visits();
        let _ = bbs_dynamic_skyline(&tree, &Point::xy(50.0, 50.0));
        assert!(
            (tree.node_visits() as usize) < tree.node_count(),
            "BBS should prune: visited {} of {} nodes",
            tree.node_visits(),
            tree.node_count()
        );
    }

    #[test]
    fn scratch_matches_wrapper_across_reuse() {
        let pts = pseudo_points(400, 13, 2);
        let tree = bulk_load(&pts, RTreeConfig::with_max_entries(8));
        let mut scratch = BbsScratch::new();
        let queries = [
            Point::xy(41.0, 67.0),
            Point::xy(3.0, 3.0),
            Point::xy(90.0, 10.0),
        ];
        for (qi, q) in queries.iter().enumerate() {
            let want = bbs_dynamic_skyline_excluding(&tree, q, Some(ItemId(7)));
            bbs_dynamic_skyline_scratch(&tree, q.coords(), Some(ItemId(7)), &mut scratch);
            assert_eq!(scratch.len(), want.len(), "query {qi}");
            for (i, (id, p)) in want.iter().enumerate() {
                assert_eq!(scratch.ids()[i], *id, "query {qi} item {i}");
                let t = p.abs_diff(q);
                assert!(
                    scratch
                        .dsl_t()
                        .get(i)
                        .same_location(wnrs_geometry::PointRef::new(t.coords())),
                    "query {qi} item {i}"
                );
            }
        }
    }

    /// An item filter of the directed-skyline tests.
    type Accept<'a> = &'a dyn Fn(ItemId, &Point) -> bool;

    /// A tie-heavy grid with duplicates and both zeros.
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
        for i in (0..n).step_by(9) {
            pts.push(pts[i].clone());
        }
        pts
    }

    /// The directed skyline by definition: every filtered point no other
    /// filtered point dominates on the keys `∓x_i`.
    fn directed_bruteforce(
        pts: &[Point],
        toward: &[f64],
        bound: &Rect,
        accept: impl Fn(ItemId, &Point) -> bool,
    ) -> Vec<u32> {
        let keys = |p: &Point| -> Vec<f64> {
            p.coords()
                .iter()
                .zip(toward)
                .map(|(&x, &t)| if t > 0.0 { -x } else { x })
                .collect()
        };
        let kept: Vec<(u32, Vec<f64>)> = pts
            .iter()
            .enumerate()
            .filter(|(i, p)| bound.contains_point(p) && accept(ItemId(*i as u32), p))
            .map(|(i, p)| (i as u32, keys(p)))
            .collect();
        let mut out: Vec<u32> = kept
            .iter()
            .filter(|(_, k)| !kept.iter().any(|(_, o)| kernels::dominates_scalar(o, k)))
            .map(|(i, _)| *i)
            .collect();
        out.sort_unstable();
        out
    }

    #[test]
    fn directed_skyline_matches_bruteforce_d1_to_d6() {
        let mut scratch = BbsScratch::new();
        for dim in 1..=6 {
            let pts = grid_points(300, dim, 40 + dim as u64);
            let tree = bulk_load(&pts, RTreeConfig::with_max_entries(6));
            for (qi, c) in pts.iter().enumerate().step_by(23) {
                let q = &pts[(qi * 7 + 3) % pts.len()];
                let bound = Rect::window(c, q);
                let toward: Vec<f64> = (0..dim)
                    .map(|i| if q[i] >= c[i] { 1.0 } else { -1.0 })
                    .collect();
                let everything =
                    Rect::new(Point::new(vec![-10.0; dim]), Point::new(vec![10.0; dim]));
                let odd = |id: ItemId, _: &Point| id.0 % 2 == 1;
                let culprit = |_: ItemId, p: &Point| wnrs_geometry::dominates_dyn(p, q, c);
                let cases: [(&Rect, Accept); 3] = [
                    (&bound, &culprit),
                    (&bound, &odd),
                    (&everything, &|_, _| true),
                ];
                for (ci, (rect, accept)) in cases.iter().enumerate() {
                    bbs_directed_skyline_scratch(&tree, &toward, rect, accept, &mut scratch);
                    let mut got: Vec<u32> = scratch.ids().iter().map(|id| id.0).collect();
                    got.sort_unstable();
                    let want = directed_bruteforce(&pts, &toward, rect, accept);
                    assert_eq!(got, want, "d={dim} c#{qi} case {ci}");
                    for (i, (id, p)) in scratch.points(&tree).enumerate() {
                        assert!(p.same_location(&pts[id.0 as usize]), "d={dim} item {i}");
                        let keys = scratch.dsl_t().get(i);
                        for (k, (&x, &t)) in p.coords().iter().zip(&toward).enumerate() {
                            let want = if t > 0.0 { -x } else { x };
                            assert_eq!(keys.coords()[k].to_bits(), want.to_bits());
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn directed_skyline_prunes_outside_the_bound() {
        let pts = pseudo_points(5000, 42, 2);
        let tree = bulk_load(&pts, RTreeConfig::paper_default(2));
        let mut scratch = BbsScratch::new();
        let bound = Rect::new(Point::xy(40.0, 40.0), Point::xy(45.0, 45.0));
        tree.reset_visits();
        bbs_directed_skyline_scratch(&tree, &[1.0, -1.0], &bound, |_, _| true, &mut scratch);
        assert!(
            (tree.node_visits() as usize) < tree.node_count() / 4,
            "visited {} of {} nodes",
            tree.node_visits(),
            tree.node_count()
        );
        assert!(!scratch.is_empty());
        for (_, p) in scratch.points(&tree) {
            assert!(bound.contains_point(p));
        }
    }

    #[test]
    fn transformed_lo_cases() {
        let r = Rect::new(Point::xy(2.0, 2.0), Point::xy(4.0, 4.0));
        // q inside in x, below in y.
        let lo = transformed_lo(&r, &Point::xy(3.0, 0.0));
        assert!(lo.same_location(&Point::xy(0.0, 2.0)));
        // q beyond the upper corner.
        let lo = transformed_lo(&r, &Point::xy(10.0, 10.0));
        assert!(lo.same_location(&Point::xy(6.0, 6.0)));
        // q inside the rect entirely.
        let lo = transformed_lo(&r, &Point::xy(3.0, 3.0));
        assert!(lo.same_location(&Point::xy(0.0, 0.0)));
    }

    #[test]
    fn query_point_coincides_with_data_point() {
        // A product exactly at q transforms to the origin and dominates
        // every other point: DSL = that point (plus exact duplicates).
        let mut pts = pseudo_points(100, 3, 2);
        pts.push(Point::xy(50.0, 50.0));
        let tree = bulk_load(&pts, RTreeConfig::with_max_entries(8));
        let got = bbs_dynamic_skyline(&tree, &Point::xy(50.0, 50.0));
        assert_eq!(got.len(), 1);
        assert_eq!(got[0].0 .0 as usize, pts.len() - 1);
    }
}
