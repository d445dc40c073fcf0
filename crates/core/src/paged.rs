//! The [`PagedEngine`] façade: the full why-not pipeline over a
//! **page-resident** R\*-tree.
//!
//! [`crate::engine::WhyNotEngine`] assumes the dataset fits in memory
//! twice over (an owned point arena plus the in-memory tree). At
//! million-point scale that assumption breaks, so this module runs every
//! query — reverse skyline, explanation, MWP, MQP, safe region and MWQ —
//! end-to-end through a [`PagedRTree`] whose nodes live in a bounded
//! [`wnrs_storage::BufferPool`]. Peak memory is the pool budget plus
//! per-query scratch, independent of `n`.
//!
//! Answers are **bit-identical** to the uncached in-memory engine over
//! the same tree structure (which both `wnrs_rtree::persist::save` and
//! the streaming STR loader [`wnrs_rtree::bulk_load_stream`] produce):
//! the paged window query and paged BBS visit entries in the identical
//! order, the candidate construction delegates to the same index-free
//! `*_core` functions, and the safe-region intersection performs the
//! same sequential pairing as [`crate::safe_region::exact_safe_region`]
//! under [`Parallelism::sequential`].
//!
//! Unlike the in-memory engine, customers are not held resident: query
//! methods take the why-not customer's point (plus its item id for the
//! monochromatic own-tuple exclusion) instead of looking it up in an
//! owned arena. Logical page traffic is observable through
//! `tree().pool().stats()` and, with the `obs` feature, the
//! `pages_read_logical` counter.

use crate::answer::Candidate;
use crate::explain::Explanation;
use crate::mqp::{modify_query_point_core, MqpAnswer};
use crate::mwp::{modify_why_not_point_core, MwpAnswer};
use crate::mwq::{modify_both_parts, MwqAnswer};
use crate::safe_region::anti_ddr_from_dsl;
use std::cell::RefCell;
use wnrs_geometry::parallel::{intersect_all, Parallelism};
use wnrs_geometry::{dominates_dyn, CostModel, Point, Rect, Region};
use wnrs_reverse_skyline::{
    paged_bbrs_reverse_skyline, paged_is_reverse_skyline_member, paged_window_query,
    PagedMemberScratch,
};
use wnrs_rtree::paged::NodeBuf;
use wnrs_rtree::persist::PersistError;
use wnrs_rtree::{ItemId, PagedRTree};
use wnrs_skyline::{paged_bbs_dynamic_skyline, PagedBbsScratch};
use wnrs_storage::Pager;

/// A why-not reverse-skyline engine over a page-resident tree.
///
/// # Examples
///
/// ```
/// use std::sync::Arc;
/// use wnrs_core::paged::PagedEngine;
/// use wnrs_geometry::{CostModel, Point};
/// use wnrs_rtree::bulk::bulk_load;
/// use wnrs_rtree::{ItemId, PagedRTree, RTreeConfig};
/// use wnrs_storage::{BufferPool, MemPager, PAPER_PAGE_SIZE};
///
/// let pts = vec![
///     Point::xy(5.0, 30.0), Point::xy(7.5, 42.0), Point::xy(2.5, 70.0),
///     Point::xy(7.5, 90.0), Point::xy(24.0, 20.0), Point::xy(20.0, 50.0),
///     Point::xy(26.0, 70.0), Point::xy(16.0, 80.0),
/// ];
/// let tree = bulk_load(&pts, RTreeConfig::with_max_entries(4));
/// let pager = Arc::new(MemPager::new(PAPER_PAGE_SIZE));
/// let meta = wnrs_rtree::persist::save(&tree, pager.as_ref()).unwrap();
/// let paged = PagedRTree::open(BufferPool::new(pager, 8), meta).unwrap();
/// let engine = PagedEngine::from_tree(paged, CostModel::paper_default(&pts)).unwrap();
/// let q = Point::xy(8.5, 55.0);
/// assert_eq!(engine.reverse_skyline(&q).unwrap().len(), 5);
/// let mwp = engine.mwp(&pts[0], Some(ItemId(0)), &q).unwrap();
/// assert!(mwp.best_cost() > 0.0);
/// ```
pub struct PagedEngine<P: Pager> {
    tree: PagedRTree<P>,
    universe: Rect,
    cost: CostModel,
    eps: f64,
}

impl<P: Pager> PagedEngine<P> {
    /// Wraps an open page-resident tree. The universe is recovered from
    /// the root node's entry rectangles (R\*-tree MBRs are tight, so
    /// this equals the bounding box of the indexed points without
    /// touching any leaf page).
    ///
    /// # Errors
    ///
    /// Returns an error when the root page cannot be read or decoded.
    pub fn from_tree(tree: PagedRTree<P>, cost: CostModel) -> Result<Self, PersistError> {
        let dim = tree.dim();
        let universe = if tree.is_empty() {
            Rect::degenerate(Point::new(vec![0.0; dim]))
        } else {
            let mut node = NodeBuf::new();
            tree.read_node_into(tree.root_page(), &mut node)?;
            let mut lo = vec![f64::INFINITY; dim];
            let mut hi = vec![f64::NEG_INFINITY; dim];
            for i in 0..node.len() {
                for d in 0..dim {
                    lo[d] = lo[d].min(node.lo(i)[d]);
                    hi[d] = hi[d].max(node.hi(i)[d]);
                }
            }
            Rect::new(Point::new(lo), Point::new(hi))
        };
        Ok(Self {
            tree,
            universe,
            cost,
            eps: crate::engine::DEFAULT_EPS,
        })
    }

    /// Replaces the verification nudge (default
    /// [`crate::engine::DEFAULT_EPS`]).
    #[must_use]
    pub fn with_eps(mut self, eps: f64) -> Self {
        assert!(eps >= 0.0, "eps must be non-negative");
        self.eps = eps;
        self
    }

    /// Replaces the cost model (e.g. to attach a normaliser fitted to
    /// [`PagedEngine::universe`] once the tree is open).
    #[must_use]
    pub fn with_cost_model(mut self, cost: CostModel) -> Self {
        self.cost = cost;
        self
    }

    /// The underlying page-resident tree (its buffer pool's
    /// [`wnrs_storage::IoStats`] report logical page traffic).
    pub fn tree(&self) -> &PagedRTree<P> {
        &self.tree
    }

    /// The data universe: the bounding box of the indexed points,
    /// recovered from the root node's rectangles.
    pub fn universe(&self) -> &Rect {
        &self.universe
    }

    /// The engine's cost model.
    pub fn cost_model(&self) -> &CostModel {
        &self.cost
    }

    /// The data universe (bounding box), expanded to cover `q` when a
    /// query falls outside it.
    pub fn universe_for(&self, q: &Point) -> Rect {
        self.universe.union_mbr(&Rect::degenerate(q.clone()))
    }

    /// The reverse skyline of `q` (BBRS), sorted by item id.
    ///
    /// # Errors
    ///
    /// Returns an error when a page read or decode fails.
    pub fn reverse_skyline(&self, q: &Point) -> Result<Vec<(ItemId, Point)>, PersistError> {
        paged_bbrs_reverse_skyline(&self.tree, q)
    }

    /// Whether customer `c` (own tuple `exclude`) is in `RSL(q)`.
    ///
    /// # Errors
    ///
    /// Returns an error when a page read or decode fails.
    pub fn is_member(
        &self,
        c: &Point,
        exclude: Option<ItemId>,
        q: &Point,
    ) -> Result<bool, PersistError> {
        let mut scratch = PagedMemberScratch::new();
        paged_is_reverse_skyline_member(&self.tree, c, q, exclude, &mut scratch)
    }

    /// Aspect 1: why is customer `c` missing from `RSL(q)`?
    ///
    /// # Errors
    ///
    /// Returns an error when a page read or decode fails.
    pub fn explain(
        &self,
        c: &Point,
        exclude: Option<ItemId>,
        q: &Point,
    ) -> Result<Explanation, PersistError> {
        let _span = wnrs_obs::span!("explain");
        Ok(Explanation {
            culprits: paged_window_query(&self.tree, c, q, exclude)?,
        })
    }

    /// Algorithm 1 (MWP) for customer `c_t`.
    ///
    /// # Errors
    ///
    /// Returns an error when a page read or decode fails.
    pub fn mwp(
        &self,
        c_t: &Point,
        exclude: Option<ItemId>,
        q: &Point,
    ) -> Result<MwpAnswer, PersistError> {
        let _span = wnrs_obs::span!("mwp");
        let lambda = paged_window_query(&self.tree, c_t, q, exclude)?;
        self.mwp_with_lambda(c_t, q, &lambda, exclude)
    }

    /// Algorithm 1 against a precomputed culprit window `Λ`.
    ///
    /// # Errors
    ///
    /// Returns an error when a page read or decode fails.
    pub fn mwp_with_lambda(
        &self,
        c_t: &Point,
        q: &Point,
        lambda: &[(ItemId, Point)],
        exclude: Option<ItemId>,
    ) -> Result<MwpAnswer, PersistError> {
        let mut scratch = PagedMemberScratch::new();
        let mut io: Option<PersistError> = None;
        let ans = modify_why_not_point_core(c_t, q, lambda, &self.cost, self.eps, &mut |c, at| {
            if io.is_some() {
                return false;
            }
            match paged_is_reverse_skyline_member(&self.tree, c, at, exclude, &mut scratch) {
                Ok(v) => v,
                Err(e) => {
                    io = Some(e);
                    false
                }
            }
        });
        match io {
            Some(e) => Err(e),
            None => Ok(ans),
        }
    }

    /// Algorithm 2 (MQP) for customer `c_t`. Like
    /// [`crate::mqp::modify_query_point`], it reads only
    /// `F = DSL(c_t) ∩ Λ`: the paged dynamic skyline filtered to the
    /// culprits, never the whole window.
    ///
    /// # Errors
    ///
    /// Returns an error when a page read or decode fails.
    pub fn mqp(
        &self,
        c_t: &Point,
        exclude: Option<ItemId>,
        q: &Point,
    ) -> Result<MqpAnswer, PersistError> {
        let _span = wnrs_obs::span!("mqp");
        let mut frontier = self.dynamic_skyline(c_t, exclude)?;
        frontier.retain(|(_, p)| dominates_dyn(p, q, c_t));
        let mut scratch = PagedMemberScratch::new();
        let mut io: Option<PersistError> = None;
        let ans = modify_query_point_core(c_t, q, &frontier, &self.cost, self.eps, &mut |c, at| {
            if io.is_some() {
                return false;
            }
            match paged_is_reverse_skyline_member(&self.tree, c, at, exclude, &mut scratch) {
                Ok(v) => v,
                Err(e) => {
                    io = Some(e);
                    false
                }
            }
        });
        match io {
            Some(e) => Err(e),
            None => Ok(ans),
        }
    }

    /// The dynamic skyline of customer `c` (own tuple `exclude`), in BBS
    /// discovery order — exactly what
    /// [`wnrs_skyline::bbs_dynamic_skyline_excluding`] returns in
    /// memory.
    ///
    /// # Errors
    ///
    /// Returns an error when a page read or decode fails.
    pub fn dynamic_skyline(
        &self,
        c: &Point,
        exclude: Option<ItemId>,
    ) -> Result<Vec<(ItemId, Point)>, PersistError> {
        let mut scratch = PagedBbsScratch::new();
        paged_bbs_dynamic_skyline(&self.tree, c.coords(), exclude, &mut scratch)?;
        let pts = scratch.points();
        Ok(scratch
            .ids()
            .iter()
            .enumerate()
            .map(|(i, id)| (*id, pts.get(i).to_point()))
            .collect())
    }

    /// Algorithm 3: the exact safe region of `q` against a precomputed
    /// reverse skyline, each member's own tuple excluded (the
    /// monochromatic convention). Bit-identical to
    /// [`crate::safe_region::exact_safe_region`] over the same tree.
    ///
    /// # Errors
    ///
    /// Returns an error when a page read or decode fails.
    pub fn safe_region_for(
        &self,
        q: &Point,
        rsl: &[(ItemId, Point)],
    ) -> Result<Region, PersistError> {
        let _span = wnrs_obs::span!("sr_exact");
        let universe = self.universe_for(q);
        let mut regions = Vec::with_capacity(rsl.len());
        for (id, c) in rsl {
            let _span = wnrs_obs::span!("anti_ddr");
            let dsl = self.dynamic_skyline(c, Some(*id))?;
            regions.push(anti_ddr_from_dsl(c, &dsl, &universe, 0.0));
        }
        Ok(intersect_all(regions, &Parallelism::sequential())
            .unwrap_or_else(|| Region::from_rect(universe)))
    }

    /// End-to-end Algorithm 3: reverse skyline plus safe region.
    ///
    /// # Errors
    ///
    /// Returns an error when a page read or decode fails.
    pub fn safe_region(&self, q: &Point) -> Result<Region, PersistError> {
        let rsl = self.reverse_skyline(q)?;
        self.safe_region_for(q, &rsl)
    }

    /// Algorithm 4 (MWQ) for customer `c_t` against a precomputed safe
    /// region.
    ///
    /// # Errors
    ///
    /// Returns an error when a page read or decode fails.
    pub fn mwq(
        &self,
        c_t: &Point,
        exclude: Option<ItemId>,
        q: &Point,
        sr: &Region,
    ) -> Result<MwqAnswer, PersistError> {
        let _span = wnrs_obs::span!("mwq");
        let universe = self.universe_for(q);
        let dsl = self.dynamic_skyline(c_t, exclude)?;
        let addr = anti_ddr_from_dsl(c_t, &dsl, &universe, self.eps);
        // `modify_both_parts` takes a plain `Fn` oracle, so page-read
        // failures inside it park in a slot and surface afterwards; the
        // infinite-cost fallback keeps the corner search moving without
        // ever winning.
        let io: RefCell<Option<PersistError>> = RefCell::new(None);
        let ans = modify_both_parts(sr, c_t, q, &self.cost, &addr, self.eps, |at| {
            if io.borrow().is_none() {
                match self.mwp(c_t, exclude, at) {
                    Ok(a) => return a,
                    Err(e) => *io.borrow_mut() = Some(e),
                }
            }
            MwpAnswer {
                candidates: vec![Candidate {
                    point: at.clone(),
                    cost: f64::INFINITY,
                    verified: false,
                }],
            }
        });
        match io.into_inner() {
            Some(e) => Err(e),
            None => Ok(ans),
        }
    }

    /// End-to-end convenience: reverse skyline, safe region, MWQ.
    ///
    /// # Errors
    ///
    /// Returns an error when a page read or decode fails.
    pub fn mwq_full(
        &self,
        c_t: &Point,
        exclude: Option<ItemId>,
        q: &Point,
    ) -> Result<(Region, MwqAnswer), PersistError> {
        let rsl = self.reverse_skyline(q)?;
        let sr = self.safe_region_for(q, &rsl)?;
        let ans = self.mwq(c_t, exclude, q, &sr)?;
        Ok((sr, ans))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::WhyNotEngine;
    use std::sync::Arc;
    use wnrs_rtree::bulk::bulk_load;
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

    fn paged_engine_over(
        pts: &[Point],
        pool_pages: usize,
        streamed: bool,
    ) -> PagedEngine<MemPager> {
        let config = RTreeConfig::paper_default(pts[0].dim());
        let pager = Arc::new(MemPager::paper_default());
        let meta = if streamed {
            let spill = MemPager::paper_default();
            wnrs_rtree::bulk_load_stream(
                pts.iter().cloned(),
                pts[0].dim(),
                config,
                pager.as_ref(),
                &spill,
                256,
            )
            .expect("stream load")
        } else {
            let tree = bulk_load(pts, config);
            wnrs_rtree::persist::save(&tree, pager.as_ref()).expect("save")
        };
        let paged = PagedRTree::open(BufferPool::new(pager, pool_pages), meta).expect("open");
        PagedEngine::from_tree(paged, CostModel::paper_default(pts)).expect("engine")
    }

    #[test]
    fn universe_matches_in_memory_engine() {
        let pts = pseudo_points(300, 11, 3);
        let mem = WhyNotEngine::try_new(pts.clone()).expect("mem engine");
        let paged = paged_engine_over(&pts, 16, false);
        let q = Point::new(vec![50.0, 50.0, 50.0]);
        assert_eq!(
            format!("{:?}", mem.universe_for(&q)),
            format!("{:?}", paged.universe_for(&q))
        );
    }

    #[test]
    fn all_queries_match_in_memory_engine_bit_for_bit() {
        for streamed in [false, true] {
            let pts = pseudo_points(400, 42, 2);
            let mem = WhyNotEngine::try_new(pts.clone()).expect("mem engine");
            let paged = paged_engine_over(&pts, 24, streamed);
            for qi in [0usize, 17, 91, 233] {
                let q = &pts[qi];
                let rsl_mem = mem.reverse_skyline(q);
                let rsl_pg = paged.reverse_skyline(q).expect("rsl");
                assert_eq!(
                    format!("{rsl_mem:?}"),
                    format!("{rsl_pg:?}"),
                    "streamed={streamed} q#{qi}: reverse skylines diverge"
                );
                let sr_mem = mem.safe_region_for(q, &rsl_mem);
                let sr_pg = paged.safe_region_for(q, &rsl_pg).expect("sr");
                assert_eq!(
                    format!("{sr_mem:?}"),
                    format!("{sr_pg:?}"),
                    "streamed={streamed} q#{qi}: safe regions diverge"
                );
                for ci in [3usize, 57, 199] {
                    let id = ItemId(ci as u32);
                    let c = &pts[ci];
                    assert_eq!(
                        mem.is_member(id, q),
                        paged.is_member(c, Some(id), q).expect("member"),
                        "streamed={streamed} q#{qi} c#{ci}: membership diverges"
                    );
                    assert_eq!(
                        format!("{:?}", mem.explain(id, q)),
                        format!("{:?}", paged.explain(c, Some(id), q).expect("explain")),
                        "streamed={streamed} q#{qi} c#{ci}: explanations diverge"
                    );
                    assert_eq!(
                        format!("{:?}", mem.mwp(id, q)),
                        format!("{:?}", paged.mwp(c, Some(id), q).expect("mwp")),
                        "streamed={streamed} q#{qi} c#{ci}: MWP diverges"
                    );
                    assert_eq!(
                        format!("{:?}", mem.mqp(id, q)),
                        format!("{:?}", paged.mqp(c, Some(id), q).expect("mqp")),
                        "streamed={streamed} q#{qi} c#{ci}: MQP diverges"
                    );
                    assert_eq!(
                        format!("{:?}", mem.mwq(id, q, &sr_mem)),
                        format!("{:?}", paged.mwq(c, Some(id), q, &sr_pg).expect("mwq")),
                        "streamed={streamed} q#{qi} c#{ci}: MWQ diverges"
                    );
                }
            }
        }
    }

    #[test]
    fn dynamic_skyline_matches_in_memory() {
        let pts = pseudo_points(500, 7, 3);
        let tree = bulk_load(&pts, RTreeConfig::paper_default(3));
        let paged = paged_engine_over(&pts, 16, true);
        for ci in [0usize, 123, 456] {
            let id = ItemId(ci as u32);
            let mem = wnrs_skyline::bbs_dynamic_skyline_excluding(&tree, &pts[ci], Some(id));
            let pg = paged.dynamic_skyline(&pts[ci], Some(id)).expect("dsl");
            assert_eq!(format!("{mem:?}"), format!("{pg:?}"), "customer {ci}");
        }
    }

    #[test]
    fn mwq_full_matches_and_pool_stays_bounded() {
        let pts = pseudo_points(800, 5, 2);
        let mem = WhyNotEngine::try_new(pts.clone()).expect("mem engine");
        let paged = paged_engine_over(&pts, 8, true);
        let q = &pts[50];
        let id = ItemId(3);
        let (sr_mem, ans_mem) = mem.mwq_full(id, q);
        let (sr_pg, ans_pg) = paged.mwq_full(&pts[3], Some(id), q).expect("mwq_full");
        assert_eq!(format!("{sr_mem:?}"), format!("{sr_pg:?}"));
        assert_eq!(format!("{ans_mem:?}"), format!("{ans_pg:?}"));
        assert!(paged.tree().pool().resident() <= 8, "pool over budget");
        assert!(
            paged.tree().pool().stats().logical_reads() > 0,
            "paged pipeline did not touch the pool"
        );
    }
}
