//! Algorithm 2 — **M**odify the **Q**uery **P**oint.
//!
//! Move `q` to `q*` with minimum cost so that `q*` enters `DSL(c_t)` —
//! i.e. `c_t ∈ RSL(q*)` — ignoring the effect on existing
//! reverse-skyline points (that is MWQ's job, Algorithm 4).
//!
//! The construction runs in the distance space centred at `c_t`: the
//! blockers `Λ = window_query(c_t, q)` transform to a staircase `F`
//! (the paper computes `F = Λ ∩ DSL(c_t)` with the `≻_{c_t}` pruning of
//! steps 3–5); `q*` must descend below that staircase. The minimal
//! descents are the staircase's outer corners (Eqn (5) max-merge) plus
//! the two single-dimension projections (Eqn (6)). All candidates are
//! limit points, verified with an ε-nudge.
//!
//! [`modify_query_point`] builds `F` directly as the paper writes it,
//! `DSL(c_t) ∩ Λ` — one BBS over the index plus a dominance filter —
//! without materialising `Λ`; the `_with_lambda` and `_core` entry
//! points reduce any `Λ` to the same `F` themselves.

use crate::answer::{finish_candidates, Candidate};
use crate::verify::limit_verified_query_by;
use wnrs_geometry::{cmp_f64, dominates_dyn, CostModel, Point};
use wnrs_reverse_skyline::is_reverse_skyline_member;
use wnrs_rtree::{ItemId, RTree};
use wnrs_skyline::{bbs_dynamic_skyline_excluding, sfs_skyline};

/// The result of Algorithm 2.
#[derive(Debug, Clone)]
pub struct MqpAnswer {
    /// Candidate new locations for the query point, cheapest first.
    /// Contains the unmodified `q` (cost 0) when `c_t ∈ RSL(q)` already.
    pub candidates: Vec<Candidate>,
}

impl MqpAnswer {
    /// The cheapest candidate.
    pub fn best(&self) -> &Candidate {
        &self.candidates[0]
    }

    /// The cheapest cost (0 when no modification is needed).
    pub fn best_cost(&self) -> f64 {
        self.best().cost
    }
}

/// Maps a transformed-space location `t` back to the original space,
/// keeping `q`'s orientation around `c_t` in every dimension.
fn untransform(c_t: &Point, q: &Point, t: &Point) -> Point {
    Point::new(
        (0..c_t.dim())
            .map(|i| {
                let s = if q[i] >= c_t[i] { 1.0 } else { -1.0 };
                c_t[i] + s * t[i]
            })
            .collect::<Vec<_>>(),
    )
}

/// Runs Algorithm 2: all minimal candidate locations for `q*`, cheapest
/// first. `exclude` removes the customer's own tuple from the product
/// set; `eps` is the verification nudge.
///
/// The construction reads only `F = DSL(c_t) ∩ Λ`: the dynamic skyline
/// of `c_t` (BBS), filtered to the products that dominate `q` w.r.t.
/// `c_t`. A product dominating a culprit dominates `q` too, so it is a
/// culprit itself: `F` is exactly the skyline of `Λ` that
/// [`modify_query_point_with_lambda`] computes, duplicates included,
/// and the answer is bit-identical.
pub fn modify_query_point(
    products: &RTree,
    c_t: &Point,
    q: &Point,
    exclude: Option<ItemId>,
    cost: &CostModel,
    eps: f64,
) -> MqpAnswer {
    let _span = wnrs_obs::span!("mqp");
    let mut frontier = bbs_dynamic_skyline_excluding(products, c_t, exclude);
    frontier.retain(|(_, p)| dominates_dyn(p, q, c_t));
    modify_query_point_with_lambda(products, c_t, q, &frontier, exclude, cost, eps)
}

/// As [`modify_query_point`] against a precomputed culprit window
/// `Λ = window_query(c_t, q)` (shared with `explain`/MWP by the
/// cross-query cache). The index is still needed for verification.
pub fn modify_query_point_with_lambda(
    products: &RTree,
    c_t: &Point,
    q: &Point,
    lambda: &[(ItemId, Point)],
    exclude: Option<ItemId>,
    cost: &CostModel,
    eps: f64,
) -> MqpAnswer {
    modify_query_point_core(c_t, q, lambda, cost, eps, &mut |c, at| {
        is_reverse_skyline_member(products, c, at, exclude)
    })
}

/// Index-agnostic core of Algorithm 2: the candidate construction uses
/// only `Λ`; the product store enters solely through `member(c, at)`
/// deciding `c ∈ RSL(at)`.
pub fn modify_query_point_core(
    c_t: &Point,
    q: &Point,
    lambda: &[(ItemId, Point)],
    cost: &CostModel,
    eps: f64,
    member: &mut impl FnMut(&Point, &Point) -> bool,
) -> MqpAnswer {
    assert_eq!(c_t.dim(), q.dim(), "dimensionality mismatch");
    let d = c_t.dim();
    if lambda.is_empty() {
        return MqpAnswer {
            candidates: vec![Candidate {
                point: q.clone(),
                cost: 0.0,
                verified: true,
            }],
        };
    }

    // F = Λ ∩ DSL(c_t): the transformed-space skyline of the blockers
    // (steps 3–5: e1 ≻_{c_t} e2 removes e2). SFS replaces the paper's
    // O(|Λ|²) pairwise pruning — Λ can contain thousands of points when
    // the why-not customer sits deep in a dense region.
    let lambda_t: Vec<Point> = lambda.iter().map(|(_, e)| e.abs_diff(c_t)).collect();
    let f_t: Vec<Point> = sfs_skyline(&lambda_t)
        .into_iter()
        .map(|i| lambda_t[i].clone())
        .collect();
    let t_q = q.abs_diff(c_t);

    let mut raw_t: Vec<Point> = Vec::new();

    // Axis candidates (Eqn (6)): lower a single transformed coordinate
    // of q to the staircase's minimum in that dimension.
    for i in 0..d {
        let min_i = f_t.iter().map(|e| e[i]).fold(f64::INFINITY, f64::min);
        raw_t.push(t_q.with_coord(i, min_i.min(t_q[i])));
    }

    // Staircase outer corners (Eqn (5) max-merge) in 2-d.
    if d == 2 {
        let mut pts: Vec<(f64, f64)> = f_t.iter().map(|e| (e[0], e[1])).collect();
        pts.sort_by(|a, b| cmp_f64(a.0, b.0).then(cmp_f64(b.1, a.1)));
        for l in 0..pts.len().saturating_sub(1) {
            // max-merge of the successive pair: the outer stair corner.
            let corner = Point::xy(pts[l + 1].0.max(pts[l].0), pts[l].1.max(pts[l + 1].1));
            // Only useful when it actually lowers q somewhere and does
            // not raise it anywhere.
            let capped = Point::xy(corner[0].min(t_q[0]), corner[1].min(t_q[1]));
            raw_t.push(capped);
        }
    }

    // Last-resort candidate: q* = c_t (the window degenerates, membership
    // is immediate).
    raw_t.push(Point::new(vec![0.0; d]));

    let candidates = raw_t
        .into_iter()
        .map(|t| untransform(c_t, q, &t))
        .map(|p| {
            let verified = limit_verified_query_by(c_t, q, &p, eps, member);
            let c = cost.query_cost(q, &p);
            Candidate {
                point: p,
                cost: c,
                verified,
            }
        })
        .filter(|c| c.verified)
        .collect::<Vec<_>>();

    let candidates = if candidates.is_empty() {
        vec![Candidate {
            point: c_t.clone(),
            cost: cost.query_cost(q, c_t),
            verified: false,
        }]
    } else {
        finish_candidates(candidates)
    };
    MqpAnswer { candidates }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wnrs_geometry::Weights;
    use wnrs_rtree::bulk::bulk_load;
    use wnrs_rtree::RTreeConfig;

    fn paper_products() -> Vec<Point> {
        vec![
            Point::xy(7.5, 42.0),  // p2
            Point::xy(2.5, 70.0),  // p3
            Point::xy(7.5, 90.0),  // p4
            Point::xy(24.0, 20.0), // p5
            Point::xy(20.0, 50.0), // p6
            Point::xy(26.0, 70.0), // p7
            Point::xy(16.0, 80.0), // p8
        ]
    }

    fn unit_cost() -> CostModel {
        CostModel::new(Weights::equal(2), Weights::equal(2))
    }

    #[test]
    fn paper_worked_example() {
        // Section V-A example: c1 (5, 30), q (8.5, 55) ⇒ candidates
        // {(8.5, 42), (7.5, 55)}.
        let tree = bulk_load(&paper_products(), RTreeConfig::with_max_entries(4));
        let ans = modify_query_point(
            &tree,
            &Point::xy(5.0, 30.0),
            &Point::xy(8.5, 55.0),
            None,
            &unit_cost(),
            1e-9,
        );
        let pts: Vec<&Point> = ans.candidates.iter().map(|c| &c.point).collect();
        assert!(
            pts.iter().any(|p| p.approx_eq(&Point::xy(8.5, 42.0), 1e-9)),
            "missing (8.5, 42): {pts:?}"
        );
        assert!(
            pts.iter().any(|p| p.approx_eq(&Point::xy(7.5, 55.0), 1e-9)),
            "missing (7.5, 55): {pts:?}"
        );
        // Cheapest under equal weights: decrease the price by 1K.
        assert!(ans.best().point.approx_eq(&Point::xy(7.5, 55.0), 1e-9));
        assert!((ans.best_cost() - 0.5).abs() < 1e-9);
    }

    #[test]
    fn member_needs_no_modification() {
        let tree = bulk_load(&paper_products(), RTreeConfig::with_max_entries(4));
        let q = Point::xy(8.5, 55.0);
        // c2 (7.5, 42) has an empty window w.r.t. a product set without
        // p2; use the monochromatic exclusion instead.
        let ans = modify_query_point(
            &tree,
            &Point::xy(7.5, 42.0),
            &q,
            Some(ItemId(0)),
            &unit_cost(),
            1e-9,
        );
        assert_eq!(ans.best_cost(), 0.0);
        assert!(ans.best().point.same_location(&q));
    }

    #[test]
    fn all_candidates_limit_valid_random() {
        let pts: Vec<Point> = (0..400)
            .map(|i| {
                let f = i as f64;
                Point::xy((f * 23.9) % 100.0, (f * 17.1) % 100.0)
            })
            .collect();
        let tree = bulk_load(&pts, RTreeConfig::paper_default(2));
        let cost = unit_cost();
        let q = Point::xy(47.0, 57.0);
        for c_t in pts.iter().step_by(13) {
            let ans = modify_query_point(&tree, c_t, &q, None, &cost, 1e-9);
            for cand in &ans.candidates {
                assert!(cand.verified, "candidate {:?} for c_t {c_t:?}", cand.point);
            }
            for w in ans.candidates.windows(2) {
                assert!(w[0].cost <= w[1].cost + 1e-12);
            }
        }
    }

    #[test]
    fn fallback_to_customer_location_always_exists() {
        // Dense blockers all around: even then q* = c_t works.
        let mut products = Vec::new();
        for i in 0..20 {
            for j in 0..20 {
                products.push(Point::xy(i as f64, j as f64));
            }
        }
        let tree = bulk_load(&products, RTreeConfig::paper_default(2));
        let c_t = Point::xy(5.3, 5.7);
        let q = Point::xy(14.1, 13.2);
        let ans = modify_query_point(&tree, &c_t, &q, None, &unit_cost(), 1e-9);
        assert!(!ans.candidates.is_empty());
        assert!(ans.candidates.iter().any(|c| c.point.approx_eq(&c_t, 1e-6)));
    }

    #[test]
    fn query_below_left_of_customer() {
        // Orientation flip: q below-left of c_t.
        let products = vec![Point::xy(20.0, 25.0)];
        let tree = bulk_load(&products, RTreeConfig::with_max_entries(4));
        let c_t = Point::xy(30.0, 40.0);
        let q = Point::xy(5.0, 10.0);
        let ans = modify_query_point(&tree, &c_t, &q, None, &unit_cost(), 1e-9);
        assert!(ans.candidates.iter().all(|c| c.verified));
        // Blocker transformed: (10, 15); q transformed: (25, 30).
        // Axis candidates: (c_t.x − 10 = 20, 10) and (5, 40 − 15 = 25).
        let pts: Vec<&Point> = ans.candidates.iter().map(|c| &c.point).collect();
        assert!(
            pts.iter()
                .any(|p| p.approx_eq(&Point::xy(20.0, 10.0), 1e-9)),
            "{pts:?}"
        );
        assert!(
            pts.iter().any(|p| p.approx_eq(&Point::xy(5.0, 25.0), 1e-9)),
            "{pts:?}"
        );
    }

    #[test]
    fn three_dimensional() {
        let products = vec![Point::new(vec![40.0, 40.0, 40.0])];
        let tree = bulk_load(&products, RTreeConfig::with_max_entries(4));
        let c_t = Point::new(vec![30.0, 30.0, 30.0]);
        let q = Point::new(vec![55.0, 55.0, 55.0]);
        let ans = modify_query_point(
            &tree,
            &c_t,
            &q,
            None,
            &CostModel::new(Weights::equal(3), Weights::equal(3)),
            1e-9,
        );
        assert!(ans.candidates.iter().all(|c| c.verified));
        // Lower one transformed coordinate from 25 to 10: q* like
        // (40, 55, 55).
        assert!(ans
            .candidates
            .iter()
            .any(|c| c.point.approx_eq(&Point::new(vec![40.0, 55.0, 55.0]), 1e-9)));
        assert!((ans.best_cost() - 15.0 / 3.0).abs() < 1e-9);
    }
}
