//! `whynot-mem`: the paper's experiment (§VI) on the in-memory engine
//! with the cache off, so every answer is recomputed and the traversal
//! and region-algebra layers do all the work.
//!
//! Inputs: CarDB, n = 50 000, d = 2. Questions come in sets: one
//! `QueryWorkload` (a query per reverse-skyline size 1–15), each query
//! asked for [`CUSTOMERS_PER_QUERY`] random non-members, each from its
//! own window band (see [`crate::WhyNotBands`]). Every question
//! runs `reverse_skyline`, `explain`, `mwp`, `mqp`, `safe_region` and
//! `mwq_full` once.

use rand::rngs::StdRng;
use rand::SeedableRng;
use wnrs_core::engine::DEFAULT_EPS;
use wnrs_core::explain::Explanation;
use wnrs_core::mqp::modify_query_point_with_lambda;
use wnrs_core::mwp::modify_why_not_point_with_lambda;
use wnrs_core::safe_region::anti_ddr_from_dsl;
use wnrs_core::{modify_both, WhyNotEngine};
use wnrs_data::{cardb, QueryWorkload};
use wnrs_geometry::parallel::{intersect_all, Parallelism};
use wnrs_geometry::{Point, Region};
use wnrs_reverse_skyline::{bbrs_reverse_skyline, is_reverse_skyline_member, window_query};
use wnrs_rtree::ItemId;
use wnrs_skyline::bbs_dynamic_skyline_excluding;

use crate::trace::{engine_layers, MeanCount, Tracer};
use crate::{
    band_order, check_question, digest_of, end_to_end, peak_rss_mb, per_layer, repeat_mismatches,
    reset_peak_rss, Answers, BoxCounter, Clock, Config, CpuTimer, HostSpeed, Latencies, Op,
    Outcome, Progress, SetupTimes, WhyNotBands,
};

const N: usize = 50_000;
const SMOKE_N: usize = 2_000;
/// Why-not customers asked per workload query.
const CUSTOMERS_PER_QUERY: usize = 2;
/// Query sets per second of budget: a set (30 questions, 180
/// operations) takes about 1.5 s a pass at the reference host's full
/// speed, so a 15-second budget is three sets in three passes.
const SETS_PER_SECOND: f64 = 0.2;
/// Probes per `QueryWorkload` build before a size target is skipped.
const MAX_PROBES: usize = 4_000;
/// Questions answered before the measured phase.
const WARMUP: usize = 6;

/// One why-not question: query point, why-not customer and the
/// generator's own `RSL(q)` (ids), which the `rsl` answer must match.
struct Question {
    q: Point,
    id: ItemId,
    rsl_ids: Vec<u32>,
}

/// Runs `whynot-mem`.
///
/// # Errors
///
/// Returns a message when the engine or the question set cannot be
/// built.
pub fn run(cfg: &Config) -> Result<Outcome, String> {
    let n = if cfg.smoke { SMOKE_N } else { N };
    let progress = Progress::start();
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let points = cardb(&mut rng, n);

    let mut host = HostSpeed::new();
    let mut setup = SetupTimes::default();
    let input = points.clone();
    let engine = setup.time(&mut host, Clock::Thread, || set_up(input))?;
    let mut rss = peak_rss_mb();

    let sets = if cfg.smoke {
        1
    } else {
        ((cfg.seconds as f64 * SETS_PER_SECOND).round() as usize).max(1)
    };
    let mut questions = questions(&engine, sets, &mut rng)?;
    if cfg.smoke {
        questions.truncate(4);
    }
    reset_peak_rss();
    progress.note("inputs generated, engine set up");
    for qn in questions.iter().take(WARMUP) {
        answer_direct(&engine, qn, &mut Latencies::default());
    }

    let passes = cfg.passes();
    let mut out = Outcome {
        attempted: (questions.len() * Op::QUESTION.len() * passes) as u64,
        ..Outcome::default()
    };
    let mut tr = Traced::default();
    let dom0 = wnrs_obs::counter_value(wnrs_obs::Counter::DominanceTests);
    let nodes0 = wnrs_obs::counter_value(wnrs_obs::Counter::NodeVisits);
    let mut lat: Option<Latencies> = None;
    let mut answers: Vec<Answers> = Vec::new();
    for pass in 0..passes {
        let mut times = Latencies::default();
        let got: Vec<Answers> = questions
            .iter()
            .map(|qn| {
                times.after_probe(host.probe());
                if cfg.trace {
                    answer_composed(&engine, qn, &mut tr, &mut times)
                } else {
                    answer_direct(&engine, qn, &mut times)
                }
            })
            .collect();
        let times = times.at_full_speed(&host);
        match lat.as_mut() {
            None => lat = Some(times),
            Some(lat) => lat.keep_min(&times),
        }
        if pass == 0 {
            // Set-up and the first pass make the peak: later passes
            // repeat its operations, and the set-up repetitions below
            // leave the memory they free with the allocator.
            rss = rss.max(peak_rss_mb());
            answers = got;
        } else {
            out.failed += repeat_mismatches(&answers, &got);
        }
        if !cfg.trace {
            // A set-up repetition after each pass samples set-up time
            // across the run, as the passes sample the operations.
            let input = points.clone();
            drop(setup.time(&mut host, Clock::Thread, || set_up(input))?);
        }
    }
    let lat = lat.unwrap_or_default();
    progress.note("measured passes done");
    host.report();
    let dom = wnrs_obs::counter_value(wnrs_obs::Counter::DominanceTests) - dom0;
    let nodes = wnrs_obs::counter_value(wnrs_obs::Counter::NodeVisits) - nodes0;

    if cfg.trace {
        // The composed answers must equal the engine's own.
        for (qn, ans) in questions.iter().zip(&answers) {
            let direct = answer_direct(&engine, qn, &mut Latencies::default());
            out.failed += repeat_mismatches(std::slice::from_ref(ans), &[direct]);
        }
    }
    out.failed += check_all(&engine, &questions, &answers);
    out.counts = counts(&questions, &answers);
    if cfg.trace {
        let ops = (lat.count() * passes) as f64;
        let mut measured = engine_layers(&tr.t, [&tr.rsl, &tr.window, &tr.dsl, &tr.boxes]);
        measured.extend([
            ("geometry.dominance_tests_per_op", dom as f64 / ops),
            ("rtree.node_visits_per_op", nodes as f64 / ops),
        ]);
        out.metrics = per_layer(&measured, lat.ops_s(), cfg.untraced_ops_s);
        out.counts.extend([
            ("dsl_size_sum", tr.dsl.sum()),
            ("sr_boxes_sum", tr.boxes.sum()),
            ("dominance_tests", dom),
            ("node_visits", nodes),
        ]);
    } else {
        out.metrics = end_to_end(&setup.at_full_speed(&host), &lat, rss);
    }
    Ok(out)
}

/// The program's set-up: the engine build.
fn set_up(points: Vec<Point>) -> Result<WhyNotEngine, String> {
    WhyNotEngine::try_new(points).map_err(|e| format!("engine build: {e}"))
}

/// `sets` question sets: each set is one `QueryWorkload` (reverse
/// skyline sizes 1–15), each query asked for [`CUSTOMERS_PER_QUERY`]
/// random non-members, each from its own window band
/// ([`WhyNotBands`]).
fn questions(
    engine: &WhyNotEngine,
    sets: usize,
    rng: &mut StdRng,
) -> Result<Vec<Question>, String> {
    let targets: Vec<usize> = (1..=15).collect();
    let mut queries = Vec::new();
    for _ in 0..sets {
        let w = QueryWorkload::build(engine.tree(), engine.points(), &targets, rng, MAX_PROBES);
        if w.is_empty() {
            return Err("no query with a reverse skyline of size 1-15".into());
        }
        queries.extend(w.queries);
    }
    let total = queries.len() * CUSTOMERS_PER_QUERY;
    let order = band_order(total, rng);
    let counter = BoxCounter::new(engine.points());
    let mut out = Vec::with_capacity(total);
    for (k, wq) in queries.iter().enumerate() {
        let rsl_ids: Vec<u32> = wq.rsl.iter().map(|(id, _)| id.0).collect();
        let bands = WhyNotBands::new(&counter, engine.points(), &wq.rsl, &wq.q);
        for band in &order[k * CUSTOMERS_PER_QUERY..(k + 1) * CUSTOMERS_PER_QUERY] {
            let id = bands
                .pick(*band, total, rng)
                .ok_or("too few points outside the reverse skyline")?;
            out.push(Question {
                q: wq.q.clone(),
                id,
                rsl_ids: rsl_ids.clone(),
            });
        }
    }
    Ok(out)
}

/// Answers a question through the engine's own methods, timing each.
fn answer_direct(engine: &WhyNotEngine, qn: &Question, lat: &mut Latencies) -> Answers {
    let q = &qn.q;
    let clock = CpuTimer::thread();
    let rsl = engine.reverse_skyline(q);
    lat.push(Op::Rsl, clock.elapsed());
    let clock = CpuTimer::thread();
    let why = engine.explain(qn.id, q);
    lat.push(Op::Explain, clock.elapsed());
    let clock = CpuTimer::thread();
    let mwp = engine.mwp(qn.id, q);
    lat.push(Op::Mwp, clock.elapsed());
    let clock = CpuTimer::thread();
    let mqp = engine.mqp(qn.id, q);
    lat.push(Op::Mqp, clock.elapsed());
    let clock = CpuTimer::thread();
    let sr = engine.safe_region(q);
    lat.push(Op::Sr, clock.elapsed());
    let clock = CpuTimer::thread();
    let mwq = engine.mwq_full(qn.id, q);
    lat.push(Op::Mwq, clock.elapsed());
    Answers::new(rsl, &why, mwp, mqp, sr, mwq)
}

/// The traced run's spans and per-call sizes.
#[derive(Default)]
struct Traced {
    t: Tracer,
    rsl: MeanCount,
    window: MeanCount,
    dsl: MeanCount,
    boxes: MeanCount,
}

impl Traced {
    fn bbrs(&mut self, engine: &WhyNotEngine, q: &Point) -> Vec<(ItemId, Point)> {
        let rsl = self.t.span("reverse_skyline.bbrs", || {
            bbrs_reverse_skyline(engine.tree(), q)
        });
        self.rsl.add(rsl.len());
        rsl
    }

    fn window(&mut self, engine: &WhyNotEngine, qn: &Question) -> Vec<(ItemId, Point)> {
        let lambda = self.t.span("reverse_skyline.window", || {
            window_query(engine.tree(), engine.point(qn.id), &qn.q, Some(qn.id))
        });
        self.window.add(lambda.len());
        lambda
    }

    /// `safe_region_for` as the uncached engine composes it: one dynamic
    /// skyline and anti-DDR per member, then the sequential balanced
    /// intersection.
    fn safe_region(&mut self, engine: &WhyNotEngine, q: &Point, rsl: &[(ItemId, Point)]) -> Region {
        let universe = engine.universe_for(q);
        self.t.enter();
        let mut regions = Vec::with_capacity(rsl.len());
        for (id, c) in rsl {
            let dsl = self.t.span("skyline.dsl", || {
                bbs_dynamic_skyline_excluding(engine.tree(), c, Some(*id))
            });
            self.dsl.add(dsl.len());
            regions.push(anti_ddr_from_dsl(c, &dsl, &universe, 0.0));
        }
        let sr = self
            .t
            .span("geometry.intersect", || {
                intersect_all(regions, &Parallelism::sequential())
            })
            .unwrap_or_else(|| Region::from_rect(universe.clone()));
        self.t.exit("core.safe_region");
        self.boxes.add(sr.len());
        sr
    }
}

/// Answers a question by calling the public functions the uncached
/// engine composes, each in its own span under one span per operation.
fn answer_composed(
    engine: &WhyNotEngine,
    qn: &Question,
    tr: &mut Traced,
    lat: &mut Latencies,
) -> Answers {
    let (q, id) = (&qn.q, qn.id);
    let c = engine.point(id);
    let cost = engine.cost_model();

    tr.t.enter();
    let rsl = tr.bbrs(engine, q);
    lat.push(Op::Rsl, tr.t.exit("op.rsl"));

    tr.t.enter();
    let why = Explanation {
        culprits: tr.window(engine, qn),
    };
    lat.push(Op::Explain, tr.t.exit("op.explain"));

    tr.t.enter();
    let lambda = tr.window(engine, qn);
    let mwp = tr.t.span("core.mwp", || {
        modify_why_not_point_with_lambda(engine.tree(), c, q, &lambda, Some(id), cost, DEFAULT_EPS)
    });
    lat.push(Op::Mwp, tr.t.exit("op.mwp"));

    tr.t.enter();
    let lambda = tr.window(engine, qn);
    let mqp = tr.t.span("core.mqp", || {
        modify_query_point_with_lambda(engine.tree(), c, q, &lambda, Some(id), cost, DEFAULT_EPS)
    });
    lat.push(Op::Mqp, tr.t.exit("op.mqp"));

    tr.t.enter();
    let members = tr.bbrs(engine, q);
    let sr = tr.safe_region(engine, q, &members);
    lat.push(Op::Sr, tr.t.exit("op.sr"));

    tr.t.enter();
    let members = tr.bbrs(engine, q);
    let region = tr.safe_region(engine, q, &members);
    let universe = engine.universe_for(q);
    let mwq = tr.t.span("core.mwq_given_sr", || {
        modify_both(
            engine.tree(),
            &region,
            c,
            q,
            Some(id),
            cost,
            &universe,
            DEFAULT_EPS,
        )
    });
    lat.push(Op::Mwq, tr.t.exit("op.mwq"));

    Answers::new(rsl, &why, mwp, mqp, sr, (region, mwq))
}

/// Runs every answer check; returns the failed operation count.
fn check_all(engine: &WhyNotEngine, questions: &[Question], answers: &[Answers]) -> u64 {
    questions
        .iter()
        .zip(answers)
        .map(|(qn, ans)| {
            let c = engine.point(qn.id);
            let is_member = engine.is_member(qn.id, &qn.q);
            check_question(
                c,
                &qn.q,
                ans,
                Some(&qn.rsl_ids),
                is_member,
                DEFAULT_EPS,
                &mut |p, at| is_reverse_skyline_member(engine.tree(), p, at, Some(qn.id)),
            )
        })
        .sum()
}

fn counts(questions: &[Question], answers: &[Answers]) -> Vec<(&'static str, u64)> {
    vec![
        ("questions", questions.len() as u64),
        (
            "rsl_size_sum",
            answers.iter().map(|a| a.rsl.len() as u64).sum(),
        ),
        (
            "window_size_sum",
            answers.iter().map(|a| a.culprits as u64).sum(),
        ),
        (
            "answer_digest",
            digest_of(|d| answers.iter().for_each(|a| d.word(a.digest))),
        ),
    ]
}
