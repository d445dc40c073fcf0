//! MWP, MQP and MWQ read only the frontier of the culprit window
//! `Λ = window_query(c_t, q)`; their answers must equal, bit for bit,
//! the `_with_lambda` constructions over all of `Λ`, which serve as the
//! oracle. Paged MQP, which builds its frontier from the paged dynamic
//! skyline, must equal in-memory MQP the same way.
//!
//! Inputs are tie-heavy grids for d = 1..6: duplicates, `+0.0` and
//! `−0.0`, products at `q` and at its reflection about `c_t`,
//! `q_i == c_i`, zero coordinates in `q`, the customer's own tuple
//! excluded or not, and verification nudges of `1e-9` and `0`.

use std::sync::Arc;

use wnrs_core::mqp::{modify_query_point, modify_query_point_with_lambda};
use wnrs_core::mwp::{modify_why_not_point, modify_why_not_point_with_lambda};
use wnrs_core::mwq::{modify_both, modify_both_parts, MwqAnswer};
use wnrs_core::safe_region::anti_ddr_of;
use wnrs_core::{Candidate, PagedEngine};
use wnrs_geometry::{CostModel, Point, Rect, Region, Weights};
use wnrs_reverse_skyline::window_query;
use wnrs_rtree::bulk::bulk_load;
use wnrs_rtree::persist::save;
use wnrs_rtree::{ItemId, PagedRTree, RTree, RTreeConfig};
use wnrs_storage::{BufferPool, MemPager};

const VALUES: [f64; 8] = [-2.0, -1.0, -0.5, -0.0, 0.0, 1.0, 1.5, 2.0];

/// `n` points drawn from [`VALUES`], plus a duplicate of every 8th.
fn grid_points(n: usize, dim: usize, seed: u64) -> Vec<Point> {
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
    for i in (0..n).step_by(8) {
        pts.push(pts[i].clone());
    }
    pts
}

/// Query points for customer `c`: a product's location, its
/// reflection about `c` (so that product sits at `q`'s reflection), the
/// product's location with `q_0 == c_0`, and `c` itself.
fn queries_for(c: &Point, p: &Point) -> Vec<Point> {
    let d = c.dim();
    let reflected = Point::new((0..d).map(|i| 2.0 * c[i] - p[i]).collect::<Vec<_>>());
    vec![p.clone(), reflected, p.with_coord(0, c[0]), c.clone()]
}

/// Candidates as coordinate bits, cost bits and the verified flag, so
/// `−0.0` and `0.0` stay distinct.
fn bits(cands: &[Candidate]) -> Vec<(Vec<u64>, u64, bool)> {
    cands
        .iter()
        .map(|c| {
            (
                c.point.coords().iter().map(|v| v.to_bits()).collect(),
                c.cost.to_bits(),
                c.verified,
            )
        })
        .collect()
}

fn mwq_bits(a: &MwqAnswer) -> String {
    let q: Vec<u64> = a.q_star.coords().iter().map(|v| v.to_bits()).collect();
    let c = a.c_star.as_ref().map(|c| bits(std::slice::from_ref(c)));
    format!("{:?} {q:?} {c:?} {}", a.case, a.cost.to_bits())
}

/// A two-box region around `q` whose corners land on grid values.
fn region_around(q: &Point) -> Region {
    let d = q.dim();
    let shift = |v: f64| Point::new((0..d).map(|i| q[i] + v).collect::<Vec<_>>());
    let skew = Point::new(
        (0..d)
            .map(|i| q[i] + if i % 2 == 0 { 1.0 } else { -0.5 })
            .collect::<Vec<_>>(),
    );
    Region::from_boxes(vec![
        Rect::new(shift(-0.5), shift(1.0)),
        Rect::new(
            shift(-1.0),
            Point::new((0..d).map(|i| skew[i].max(q[i] - 1.0)).collect::<Vec<_>>()),
        ),
    ])
}

/// Every `(customer, q, exclude)` question of one grid.
fn questions(pts: &[Point]) -> Vec<(usize, Point, Option<ItemId>)> {
    let mut out = Vec::new();
    for ci in (0..pts.len()).step_by(11) {
        let p = &pts[(ci * 7 + 3) % pts.len()];
        for q in queries_for(&pts[ci], p) {
            for exclude in [None, Some(ItemId(ci as u32))] {
                out.push((ci, q.clone(), exclude));
            }
        }
    }
    out
}

fn oracle_mwp(
    tree: &RTree,
    c: &Point,
    q: &Point,
    exclude: Option<ItemId>,
    cost: &CostModel,
    eps: f64,
) -> Vec<(Vec<u64>, u64, bool)> {
    let lambda = window_query(tree, c, q, exclude);
    bits(&modify_why_not_point_with_lambda(tree, c, q, &lambda, exclude, cost, eps).candidates)
}

#[test]
fn frontier_mwp_and_mqp_match_the_whole_window_d1_to_d6() {
    let mut zero_q = [0usize; 2];
    for dim in 1..=6 {
        let pts = grid_points(160, dim, 900 + dim as u64);
        let tree = bulk_load(&pts, RTreeConfig::with_max_entries(6));
        let cost = CostModel::new(Weights::equal(dim), Weights::equal(dim));
        for (ci, q, exclude) in questions(&pts) {
            let c = &pts[ci];
            // A zero coordinate in `q` sends MWP down its whole-window
            // path; both paths must be exercised.
            zero_q[usize::from(q.coords().contains(&0.0))] += 1;
            for eps in [1e-9, 0.0] {
                let what = format!("d={dim} c#{ci} q={q:?} exclude={exclude:?} eps={eps}");
                let got = modify_why_not_point(&tree, c, &q, exclude, &cost, eps);
                assert_eq!(
                    bits(&got.candidates),
                    oracle_mwp(&tree, c, &q, exclude, &cost, eps),
                    "MWP {what}"
                );
                let lambda = window_query(&tree, c, &q, exclude);
                let want =
                    modify_query_point_with_lambda(&tree, c, &q, &lambda, exclude, &cost, eps);
                let got = modify_query_point(&tree, c, &q, exclude, &cost, eps);
                assert_eq!(bits(&got.candidates), bits(&want.candidates), "MQP {what}");
            }
        }
    }
    assert!(
        zero_q[0] > 0 && zero_q[1] > 0,
        "questions by zero in q: {zero_q:?}"
    );
}

#[test]
fn frontier_mwq_matches_the_whole_window_d1_to_d6() {
    for dim in 1..=6 {
        let pts = grid_points(120, dim, 700 + dim as u64);
        let tree = bulk_load(&pts, RTreeConfig::with_max_entries(6));
        let cost = CostModel::new(Weights::equal(dim), Weights::equal(dim));
        let universe = Rect::new(Point::new(vec![-8.0; dim]), Point::new(vec![8.0; dim]));
        for (ci, q, exclude) in questions(&pts).into_iter().step_by(3) {
            let c = &pts[ci];
            let sr = region_around(&q);
            for eps in [1e-9, 0.0] {
                let got = modify_both(&tree, &sr, c, &q, exclude, &cost, &universe, eps);
                let addr = anti_ddr_of(&tree, c, exclude, &universe, eps);
                let want = modify_both_parts(&sr, c, &q, &cost, &addr, eps, |at| {
                    let lambda = window_query(&tree, c, at, exclude);
                    modify_why_not_point_with_lambda(&tree, c, at, &lambda, exclude, &cost, eps)
                });
                assert_eq!(
                    mwq_bits(&got),
                    mwq_bits(&want),
                    "MWQ d={dim} c#{ci} q={q:?} exclude={exclude:?} eps={eps}"
                );
            }
        }
    }
}

#[test]
fn paged_mqp_matches_in_memory_mqp_d1_to_d6() {
    for dim in 1..=6 {
        let pts = grid_points(160, dim, 500 + dim as u64);
        let tree = bulk_load(&pts, RTreeConfig::paper_default(dim));
        let cost = CostModel::new(Weights::equal(dim), Weights::equal(dim));
        for eps in [1e-9, 0.0] {
            let pager = Arc::new(MemPager::paper_default());
            let meta = save(&tree, pager.as_ref()).expect("save");
            let paged = PagedRTree::open(BufferPool::new(pager, 8), meta).expect("open");
            let engine = PagedEngine::from_tree(paged, cost.clone())
                .expect("engine")
                .with_eps(eps);
            for (ci, q, exclude) in questions(&pts) {
                let c = &pts[ci];
                let what = format!("d={dim} c#{ci} q={q:?} exclude={exclude:?} eps={eps}");
                let want = modify_query_point(&tree, c, &q, exclude, &cost, eps);
                let got = engine.mqp(c, exclude, &q).expect("paged mqp");
                assert_eq!(bits(&got.candidates), bits(&want.candidates), "MQP {what}");
                let want = modify_why_not_point(&tree, c, &q, exclude, &cost, eps);
                let got = engine.mwp(c, exclude, &q).expect("paged mwp");
                assert_eq!(bits(&got.candidates), bits(&want.candidates), "MWP {what}");
            }
        }
    }
}
