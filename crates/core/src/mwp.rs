//! Algorithm 1 — **M**odify the **W**hy-not **P**oint.
//!
//! Move `c_t` to `c_t*` with minimum cost so that `q` enters
//! `DSL(c_t*)`. The construction works in a *directed* coordinate frame:
//! a blocker `e ∈ Λ` stops dominating `q` as soon as `c_t*` crosses, in
//! at least one dimension, the midpoint `m_i(e) = (q^i + e^i)/2` towards
//! `q` (the paper's Eqn (1) corner `u_l` is exactly this midpoint for
//! the canonical below-left configuration of Fig. 5). The feasible set is
//! therefore the complement of a union of boxes in the directed frame,
//! and the minimal-change candidates are the paper's staircase corners
//! (Eqn (2) min-merge) plus the two single-dimension end points
//! (Eqn (3)).
//!
//! Only the culprits nearest `q` shape those candidates: a culprit that
//! another culprit beats in the escape direction has no larger
//! threshold in any dimension (barring a `±0.0` tie at a zero
//! coordinate of `q`). [`modify_why_not_point`] therefore reads just
//! that frontier of `Λ`, found by a window-constrained BBS; the
//! `_with_lambda` and `_core` entry points take all of `Λ` and give the
//! same answer.
//!
//! Every candidate is a limit point (see [`crate::verify`]); candidates
//! are verified against the index with an ε-nudge and costed with the
//! engine's [`CostModel`].

use crate::answer::{finish_candidates, Candidate};
use crate::verify::limit_verified_whynot_by;
use std::cmp::Ordering;
use wnrs_geometry::{cmp_f64, dominates_dyn, CostModel, Point, Rect};
use wnrs_reverse_skyline::is_reverse_skyline_member;
use wnrs_reverse_skyline::window_query;
use wnrs_rtree::{ItemId, RTree};
use wnrs_skyline::{bbs_directed_skyline_scratch, BbsScratch};

/// The result of Algorithm 1.
#[derive(Debug, Clone)]
pub struct MwpAnswer {
    /// Candidate new locations for the why-not point, cheapest first.
    /// Contains the unmodified `c_t` (cost 0) when `c_t ∈ RSL(q)`
    /// already.
    pub candidates: Vec<Candidate>,
}

impl MwpAnswer {
    /// The cheapest candidate.
    pub fn best(&self) -> &Candidate {
        &self.candidates[0]
    }

    /// The cheapest cost (0 when no modification is needed).
    pub fn best_cost(&self) -> f64 {
        self.best().cost
    }
}

/// Appends blocker `e`'s `d` escape thresholds in the directed frame to
/// `out`: crossing `threshold[i]` (in direction `sign[i]`) in any
/// dimension `i` stops the blocker from dominating `q`. `None` marks
/// dimensions that cannot neutralise this blocker in the chosen
/// direction.
fn push_thresholds(e: &Point, q: &Point, sign: &[f64], out: &mut Vec<Option<f64>>) {
    for i in 0..q.dim() {
        // Note `signum` maps a 0.0 difference to 1.0, so the tie case
        // must be decided by comparison, not by sign extraction.
        let dir = match cmp_f64(q[i], e[i]) {
            Ordering::Greater => 1.0,
            Ordering::Less => -1.0,
            Ordering::Equal => {
                // q and e tie in this dimension: no strict win possible.
                out.push(None);
                continue;
            }
        };
        if dir != sign[i] {
            // Escaping would require moving against the canonical
            // direction.
            out.push(None);
        } else {
            out.push(Some(sign[i] * 0.5 * (q[i] + e[i])));
        }
    }
}

/// The canonical escape direction: towards `q` (ties default to +1;
/// such dimensions rarely admit an escape and the axis analysis handles
/// them via the `None` thresholds).
fn escape_sign(c_t: &Point, q: &Point) -> Vec<f64> {
    (0..c_t.dim())
        .map(|i| if q[i] >= c_t[i] { 1.0 } else { -1.0 })
        .collect()
}

/// Runs Algorithm 1: all minimal candidate locations for `c_t*`,
/// cheapest first.
///
/// `exclude` removes the customer's own tuple from the product set
/// (monochromatic setting). The `eps` nudge is used for verification
/// only; reported candidates are the exact limit points.
///
/// The construction reads only the culprits nearest `q`: the skyline
/// of the culprit window `Λ = window_query(c_t, q)` in the escape
/// direction, found by a window-constrained BBS
/// ([`wnrs_skyline::bbs_directed_skyline_scratch`]) without
/// materialising `Λ`. A culprit that another culprit beats in that
/// direction has no larger escape threshold in any dimension, so the
/// answer is bit-identical to [`modify_why_not_point_with_lambda`] over
/// all of `Λ`.
pub fn modify_why_not_point(
    products: &RTree,
    c_t: &Point,
    q: &Point,
    exclude: Option<ItemId>,
    cost: &CostModel,
    eps: f64,
) -> MwpAnswer {
    let _span = wnrs_obs::span!("mwp");
    let frontier = culprit_frontier(products, c_t, q, exclude);
    modify_why_not_point_with_lambda(products, c_t, q, &frontier, exclude, cost, eps)
}

/// The culprits Algorithm 1 needs: the skyline of
/// `Λ = window_query(c_t, q)` in the escape direction, i.e. the culprits
/// nearest `q` (BBS over `Rect::window(c_t, q)`, accepting exactly the
/// window query's culprits).
///
/// A culprit's directed thresholds `sign_i·(q_i + e_i)/2` grow as `e_i`
/// moves towards `q`, and a culprit at or past `q_i` has none (`None`,
/// the strongest value: it blocks the axis escape). So a culprit
/// dominated in the escape direction has thresholds no larger than its
/// dominator's, in every dimension: the per-dimension maxima, the `None`
/// flags and the 2-d staircase of the frontier equal those of `Λ`, and
/// so does every candidate. The one exception is a zero coordinate of
/// `q`: then `+0.0` and `−0.0` culprits tie in the skyline's keys but
/// fall on opposite sides of `q_i` in the thresholds' total order, so
/// such a question reads all of `Λ`.
fn culprit_frontier(
    products: &RTree,
    c_t: &Point,
    q: &Point,
    exclude: Option<ItemId>,
) -> Vec<(ItemId, Point)> {
    if q.coords().iter().any(|&v| cmp_f64(v.abs(), 0.0).is_eq()) {
        return window_query(products, c_t, q, exclude);
    }
    let mut scratch = BbsScratch::new();
    bbs_directed_skyline_scratch(
        products,
        &escape_sign(c_t, q),
        &Rect::window(c_t, q),
        |id, p| Some(id) != exclude && dominates_dyn(p, q, c_t),
        &mut scratch,
    );
    scratch
        .points(products)
        .map(|(id, p)| (id, p.clone()))
        .collect()
}

/// As [`modify_why_not_point`] against a precomputed culprit window
/// `Λ = window_query(c_t, q)` (the cross-query cache shares one window
/// result between `explain`, MWP and MQP). The index is still needed
/// for candidate verification.
pub fn modify_why_not_point_with_lambda(
    products: &RTree,
    c_t: &Point,
    q: &Point,
    lambda: &[(ItemId, Point)],
    exclude: Option<ItemId>,
    cost: &CostModel,
    eps: f64,
) -> MwpAnswer {
    modify_why_not_point_core(c_t, q, lambda, cost, eps, &mut |c, at| {
        is_reverse_skyline_member(products, c, at, exclude)
    })
}

/// Index-agnostic core of Algorithm 1: the candidate construction uses
/// only `Λ`; the product store enters solely through `member(c, at)`
/// deciding `c ∈ RSL(at)` (in-memory arena, page-resident tree, …).
pub fn modify_why_not_point_core(
    c_t: &Point,
    q: &Point,
    lambda: &[(ItemId, Point)],
    cost: &CostModel,
    eps: f64,
    member: &mut impl FnMut(&Point, &Point) -> bool,
) -> MwpAnswer {
    assert_eq!(c_t.dim(), q.dim(), "dimensionality mismatch");
    let d = c_t.dim();
    if lambda.is_empty() {
        return MwpAnswer {
            candidates: vec![Candidate {
                point: c_t.clone(),
                cost: 0.0,
                verified: true,
            }],
        };
    }

    let sign = escape_sign(c_t, q);

    // One flat buffer of |Λ|·d thresholds, blocker-major.
    let mut thr: Vec<Option<f64>> = Vec::with_capacity(lambda.len() * d);
    for (_, e) in lambda {
        push_thresholds(e, q, &sign, &mut thr);
    }

    let mut raw: Vec<Point> = Vec::new();

    // Axis candidates (Eqn (3) endpoints; sole construction for d > 2):
    // move only dimension i far enough to escape every blocker. Only the
    // per-dimension maximum threshold matters, so no frontier pruning is
    // needed here — O(|Λ|·d).
    for (i, s_i) in sign.iter().enumerate() {
        let mut needed = f64::NEG_INFINITY;
        let mut feasible = true;
        for t in thr.iter().skip(i).step_by(d) {
            match *t {
                Some(v) => needed = needed.max(v),
                None => {
                    feasible = false;
                    break;
                }
            }
        }
        if feasible {
            let target = s_i * needed;
            // Only a move *towards* the threshold counts; if c_t is
            // already past it the blocker list would have been empty.
            raw.push(c_t.with_coord(i, target));
        }
    }

    // Staircase corners (Eqn (2) min-merge) — the 2-d construction of
    // Fig. 6(b). The frontier of the threshold set (Algorithm 1 steps
    // 3–5) falls out of a single sort + max-sweep instead of the paper's
    // O(|Λ|²) pairwise pruning: sorting by dim 0 descending, a blocker
    // matters only when its dim-1 threshold exceeds every threshold seen
    // so far.
    if d == 2 {
        let mut pts: Vec<(f64, f64)> = Vec::with_capacity(lambda.len());
        let mut all_finite = true;
        for t in thr.chunks_exact(2) {
            match (t[0], t[1]) {
                (Some(a), Some(b)) => pts.push((a, b)),
                _ => {
                    all_finite = false;
                    break;
                }
            }
        }
        if all_finite && !pts.is_empty() {
            pts.sort_by(|a, b| cmp_f64(b.0, a.0).then(cmp_f64(b.1, a.1)));
            // Max-frontier sweep: descending dim 0, keep strict dim-1
            // record holders. The survivors form the staircase, now
            // ascending in dim 0 after the reverse.
            let mut frontier: Vec<(f64, f64)> = Vec::new();
            let mut best1 = f64::NEG_INFINITY;
            for &(a, b) in &pts {
                if b > best1 {
                    frontier.push((a, b));
                    best1 = b;
                }
            }
            frontier.reverse();
            for l in 0..frontier.len().saturating_sub(1) {
                // Escape blockers ≤ l via dim 0, the rest via dim 1; the
                // frontier is ascending in dim 0 and descending in dim 1,
                // so the suffix maximum in dim 1 is the next element's.
                raw.push(Point::xy(
                    sign[0] * frontier[l].0,
                    sign[1] * frontier[l + 1].1,
                ));
            }
        }
    }

    // Last-resort candidate: moving the customer onto the query point
    // always works.
    raw.push(q.clone());

    let candidates = raw
        .into_iter()
        .map(|p| {
            let verified = limit_verified_whynot_by(c_t, &p, q, eps, member);
            let c = cost.whynot_cost(c_t, &p);
            Candidate {
                point: p,
                cost: c,
                verified,
            }
        })
        .filter(|c| c.verified)
        .collect::<Vec<_>>();

    let candidates = if candidates.is_empty() {
        // Keep the guaranteed fallback even if ε-verification was too
        // strict (degenerate clustered data).
        vec![Candidate {
            point: q.clone(),
            cost: cost.whynot_cost(c_t, q),
            verified: false,
        }]
    } else {
        finish_candidates(candidates)
    };
    MwpAnswer { candidates }
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
        // Section IV example: c1 (5, 30), q (8.5, 55) ⇒ candidates
        // {(5, 48.5), (8, 30)}.
        let tree = bulk_load(&paper_products(), RTreeConfig::with_max_entries(4));
        let ans = modify_why_not_point(
            &tree,
            &Point::xy(5.0, 30.0),
            &Point::xy(8.5, 55.0),
            None,
            &unit_cost(),
            1e-9,
        );
        let pts: Vec<&Point> = ans.candidates.iter().map(|c| &c.point).collect();
        assert!(
            pts.iter().any(|p| p.approx_eq(&Point::xy(5.0, 48.5), 1e-9)),
            "missing (5, 48.5): {pts:?}"
        );
        assert!(
            pts.iter().any(|p| p.approx_eq(&Point::xy(8.0, 30.0), 1e-9)),
            "missing (8, 30): {pts:?}"
        );
        // The cheapest candidate under equal weights is (8, 30): cost
        // 3/2 vs 18.5/2.
        assert!(ans.best().point.approx_eq(&Point::xy(8.0, 30.0), 1e-9));
        assert!((ans.best_cost() - 1.5).abs() < 1e-9);
    }

    #[test]
    fn signed_zero_culprits_keep_the_whole_window_answer() {
        // q_0 = +0.0. The culprits at x = −0.0 and x = +0.0 tie on the
        // frontier's keys, and the first beats the second in y; but only
        // the +0.0 one blocks every escape along x, which rules out the
        // staircase. A frontier without it would add the verified corner
        // (−0.25, 0.75) between the other two culprits.
        let products = vec![
            Point::xy(-0.0, 0.5),
            Point::xy(0.0, 0.0),
            Point::xy(-0.5, 0.8),
        ];
        let tree = bulk_load(&products, RTreeConfig::with_max_entries(4));
        let c_t = Point::xy(-1.0, -1.0);
        let q = Point::xy(0.0, 1.0);
        let lambda = window_query(&tree, &c_t, &q, None);
        assert_eq!(lambda.len(), 3);
        let want =
            modify_why_not_point_with_lambda(&tree, &c_t, &q, &lambda, None, &unit_cost(), 1e-9);
        let got = modify_why_not_point(&tree, &c_t, &q, None, &unit_cost(), 1e-9);
        assert_eq!(
            format!("{:?}", got.candidates),
            format!("{:?}", want.candidates)
        );
        let corner = Point::xy(-0.25, 0.75);
        assert!(!got
            .candidates
            .iter()
            .any(|c| c.point.approx_eq(&corner, 1e-12)));
    }

    #[test]
    fn member_needs_no_modification() {
        let tree = bulk_load(&paper_products(), RTreeConfig::with_max_entries(4));
        // c2 (7.5, 42) is already in RSL(q) (window empty w.r.t. this
        // product set sans p2? p2 is in the set, but p2 == c2's tuple in
        // the bichromatic reading it is a *product*; keep it and pick a
        // clearly-member point instead: q itself).
        let q = Point::xy(8.5, 55.0);
        let ans = modify_why_not_point(&tree, &q, &q, None, &unit_cost(), 1e-9);
        assert_eq!(ans.best_cost(), 0.0);
        assert!(ans.best().point.same_location(&q));
    }

    #[test]
    fn all_candidates_limit_valid_random() {
        let pts: Vec<Point> = (0..400)
            .map(|i| {
                let f = i as f64;
                Point::xy((f * 19.3) % 100.0, (f * 31.7) % 100.0)
            })
            .collect();
        let tree = bulk_load(&pts, RTreeConfig::paper_default(2));
        let cost = unit_cost();
        let q = Point::xy(52.0, 49.0);
        let mut tested = 0;
        for c_t in pts.iter().step_by(17) {
            let ans = modify_why_not_point(&tree, c_t, &q, None, &cost, 1e-9);
            for cand in &ans.candidates {
                assert!(
                    cand.verified,
                    "candidate {:?} for c_t {c_t:?} unverified",
                    cand.point
                );
                assert!(cand.cost.is_finite());
                tested += 1;
            }
            // Costs are sorted ascending.
            for w in ans.candidates.windows(2) {
                assert!(w[0].cost <= w[1].cost + 1e-12);
            }
        }
        assert!(tested > 0);
    }

    #[test]
    fn blockers_on_the_far_side_of_c_t() {
        // A blocker on the opposite side of c_t from q (inside the
        // symmetric window) must still be escaped.
        let products = vec![Point::xy(2.0, 2.0)]; // c_t at (3,3), q at (5,5)
        let tree = bulk_load(&products, RTreeConfig::with_max_entries(4));
        let c_t = Point::xy(3.0, 3.0);
        let q = Point::xy(5.0, 5.0);
        // |c_t − p| = (1,1) ≤ (2,2) = |c_t − q| with strict ⇒ p blocks.
        let ans = modify_why_not_point(&tree, &c_t, &q, None, &unit_cost(), 1e-9);
        assert!(ans.best_cost() > 0.0);
        for cand in &ans.candidates {
            assert!(cand.verified);
        }
    }

    #[test]
    fn query_on_the_other_side() {
        // q below-left of c_t: the directed frame must flip.
        let products = vec![Point::xy(40.0, 45.0)];
        let tree = bulk_load(&products, RTreeConfig::with_max_entries(4));
        let c_t = Point::xy(60.0, 70.0);
        let q = Point::xy(30.0, 30.0);
        let ans = modify_why_not_point(&tree, &c_t, &q, None, &unit_cost(), 1e-9);
        assert!(ans.best_cost() > 0.0);
        assert!(ans.candidates.iter().all(|c| c.verified));
        // The midpoint thresholds: m = ((30+40)/2, (30+45)/2) = (35, 37.5);
        // axis candidates (35, 70) and (60, 37.5) must be present.
        let pts: Vec<&Point> = ans.candidates.iter().map(|c| &c.point).collect();
        assert!(
            pts.iter()
                .any(|p| p.approx_eq(&Point::xy(35.0, 70.0), 1e-9)),
            "{pts:?}"
        );
        assert!(
            pts.iter()
                .any(|p| p.approx_eq(&Point::xy(60.0, 37.5), 1e-9)),
            "{pts:?}"
        );
    }

    #[test]
    fn multi_blocker_staircase() {
        // Three blockers forming a staircase between c_t and q: expect
        // axis candidates plus inner corners, all verified.
        let products = vec![
            Point::xy(40.0, 48.0),
            Point::xy(44.0, 44.0),
            Point::xy(48.0, 40.0),
        ];
        let tree = bulk_load(&products, RTreeConfig::with_max_entries(4));
        let c_t = Point::xy(30.0, 30.0);
        let q = Point::xy(50.0, 50.0);
        let ans = modify_why_not_point(&tree, &c_t, &q, None, &unit_cost(), 1e-9);
        assert!(ans.candidates.len() >= 3, "got {:?}", ans.candidates);
        assert!(ans.candidates.iter().all(|c| c.verified));
        // Inner corners are cheaper than pure axis moves here.
        let axis_y = Point::xy(30.0, 49.0); // escape all via y: max m_y = (50+48)/2
        assert!(ans
            .candidates
            .iter()
            .any(|c| c.point.approx_eq(&axis_y, 1e-9)));
        assert!(ans.best_cost() < unit_cost().whynot_cost(&c_t, &axis_y) + 1e-12);
    }

    #[test]
    fn three_dimensional_axis_candidates() {
        let products = vec![Point::new(vec![40.0, 40.0, 40.0])];
        let tree = bulk_load(&products, RTreeConfig::with_max_entries(4));
        let c_t = Point::new(vec![30.0, 30.0, 30.0]);
        let q = Point::new(vec![50.0, 50.0, 50.0]);
        let ans = modify_why_not_point(
            &tree,
            &c_t,
            &q,
            None,
            &CostModel::new(Weights::equal(3), Weights::equal(3)),
            1e-9,
        );
        assert!(ans.candidates.iter().all(|c| c.verified));
        // Escaping via any one axis at the midpoint 45.
        assert!(ans
            .candidates
            .iter()
            .any(|c| c.point.approx_eq(&Point::new(vec![45.0, 30.0, 30.0]), 1e-9)));
        assert!((ans.best_cost() - 15.0 / 3.0).abs() < 1e-9);
    }
}
