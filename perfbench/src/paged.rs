//! `whynot-paged`: the `whynot-mem` op mix on a page-resident engine
//! whose tree is about five times its buffer pool, so the storage layer
//! does most of the work.
//!
//! Inputs: CarDB, n = 100 000, d = 2, streamed by `bulk_load_stream`
//! onto a [`FilePager`] (about 2 700 pages of 1 536 B), opened through a
//! [`POOL_PAGES`]-page buffer pool. Questions: a query per
//! reverse-skyline size 1–15 (probed like `QueryWorkload`, through the
//! paged engine), each asked for [`CUSTOMERS_PER_QUERY`] random
//! non-members, each from its own window band (see
//! [`crate::WhyNotBands`]).

use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use wnrs_core::engine::DEFAULT_EPS;
use wnrs_core::explain::Explanation;
use wnrs_core::mqp::modify_query_point_core;
use wnrs_core::safe_region::anti_ddr_from_dsl;
use wnrs_core::PagedEngine;
use wnrs_data::cardb;
use wnrs_geometry::parallel::{intersect_all, Parallelism};
use wnrs_geometry::{CostModel, MinMaxNormalizer, Point, Rect, Region, Weights};
use wnrs_reverse_skyline::{
    paged_bbrs_reverse_skyline, paged_is_reverse_skyline_member, paged_window_query,
    PagedMemberScratch,
};
use wnrs_rtree::persist::PersistError;
use wnrs_rtree::{bulk_load_stream, ItemId, PagedRTree, RTreeConfig};
use wnrs_storage::{
    BufferPool, FilePager, IoStats, MemPager, Page, PageId, Pager, PagerError, PAPER_PAGE_SIZE,
};

use crate::trace::{engine_layers, MeanCount, Tracer, OP_SPANS};
use crate::{
    band_order, check_question, digest_of, end_to_end, peak_rss_mb, per_layer, reset_peak_rss,
    Answers, BoxCounter, Clock, Config, CpuTimer, HostSpeed, Latencies, Op, Outcome, Progress,
    SetupTimes, WhyNotBands,
};

const N: usize = 100_000;
const SMOKE_N: usize = 3_000;
const DIM: usize = 2;
/// Buffer-pool budget: about 19% of the ~2 700-page tree. Large enough
/// that `BufferPool`'s O(capacity) victim scan shows in the timings.
const POOL_PAGES: usize = 512;
const SMOKE_POOL_PAGES: usize = 16;
/// Points buffered per sorted run of the streaming bulk load.
const RUN_CAPACITY: usize = 65_536;
/// Questions per second of budget: a question (six operations) takes
/// about 0.125 s a pass at the reference host's full speed, so a
/// 15-second budget is 60 questions in two passes.
const QUESTIONS_PER_SECOND: f64 = 4.0;
/// Why-not customers asked per query point.
const CUSTOMERS_PER_QUERY: usize = 2;
/// Perturbed data points probed per question before giving up.
const MAX_PROBES: usize = 4_000;
/// Questions answered before the measured phase (fills the pool).
const WARMUP: usize = 2;

/// One why-not question: query point and why-not customer.
struct Question {
    q: Point,
    id: ItemId,
    c: Point,
}

/// A [`Pager`] that times its page reads: the traced run's view of the
/// file layer under the buffer pool.
pub struct TimedPager {
    inner: FilePager,
    read_ns: AtomicU64,
    reads: AtomicU64,
}

impl TimedPager {
    fn new(inner: FilePager) -> Self {
        TimedPager {
            inner,
            read_ns: AtomicU64::new(0),
            reads: AtomicU64::new(0),
        }
    }

    fn read_totals(&self) -> (u64, u64) {
        (
            self.read_ns.load(Ordering::Relaxed),
            self.reads.load(Ordering::Relaxed),
        )
    }
}

impl Pager for TimedPager {
    fn page_size(&self) -> usize {
        self.inner.page_size()
    }

    fn page_count(&self) -> u64 {
        self.inner.page_count()
    }

    fn allocate(&self) -> PageId {
        self.inner.allocate()
    }

    fn read_page(&self, id: PageId) -> Result<Page, PagerError> {
        let clock = CpuTimer::thread();
        let page = self.inner.read_page(id);
        self.read_ns
            .fetch_add(clock.elapsed().as_nanos() as u64, Ordering::Relaxed);
        self.reads.fetch_add(1, Ordering::Relaxed);
        page
    }

    fn write_page(&self, id: PageId, page: &Page) -> Result<(), PagerError> {
        self.inner.write_page(id, page)
    }

    fn stats(&self) -> &IoStats {
        self.inner.stats()
    }
}

/// Runs `whynot-paged`.
///
/// # Errors
///
/// Returns a message when the page file, the tree or the question set
/// cannot be built.
pub fn run(cfg: &Config) -> Result<Outcome, String> {
    std::fs::create_dir_all(&cfg.work_dir)
        .map_err(|e| format!("create {}: {e}", cfg.work_dir.display()))?;
    let path = cfg
        .work_dir
        .join(format!("whynot-paged-{}.pg", std::process::id()));
    let out = if cfg.trace {
        run_on(cfg, &path, TimedPager::new)
    } else {
        run_on(cfg, &path, |p| p)
    };
    std::fs::remove_file(&path).ok();
    out
}

/// The pager type's hook into the traced metrics.
trait ReadClock {
    /// Summed page-read time (ns) and page reads, when timed.
    fn read_totals(&self) -> Option<(u64, u64)>;
}

impl ReadClock for FilePager {
    fn read_totals(&self) -> Option<(u64, u64)> {
        None
    }
}

impl ReadClock for TimedPager {
    fn read_totals(&self) -> Option<(u64, u64)> {
        Some(TimedPager::read_totals(self))
    }
}

fn run_on<P: Pager + ReadClock>(
    cfg: &Config,
    path: &Path,
    wrap: impl Fn(FilePager) -> P,
) -> Result<Outcome, String> {
    let (n, pool_pages) = if cfg.smoke {
        (SMOKE_N, SMOKE_POOL_PAGES)
    } else {
        (N, POOL_PAGES)
    };
    let progress = Progress::start();
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let points = cardb(&mut rng, n);

    // Set-up repetitions build their own page file, so the measured
    // engine's file stays in place.
    let spare = path.with_extension("setup.pg");
    let mut host = HostSpeed::new();
    let mut setup = SetupTimes::default();
    let engine = setup.time(&mut host, Clock::Thread, || {
        set_up(&points, path, pool_pages, &wrap)
    })?;
    let mut rss = peak_rss_mb();

    let budget = if cfg.smoke {
        3
    } else {
        ((cfg.seconds as f64 * QUESTIONS_PER_SECOND).round() as usize).max(1)
    };
    let questions = questions(&engine, &points, budget, &mut rng)?;
    reset_peak_rss();
    progress.note("inputs generated, engine set up");
    for qn in questions.iter().take(WARMUP) {
        answer_direct(&engine, qn, &mut Latencies::default()).map_err(|e| e.to_string())?;
    }

    let io = engine.tree().pool().stats();
    let passes = cfg.passes();
    let mut out = Outcome {
        attempted: (questions.len() * Op::QUESTION.len() * passes) as u64,
        ..Outcome::default()
    };
    let (logical0, physical0) = (io.logical_reads(), io.physical_reads());
    let pager_read0 = engine.tree().pool().pager().read_totals();
    let mut traced = Traced::default();
    let dom0 = wnrs_obs::counter_value(wnrs_obs::Counter::DominanceTests);
    let nodes0 = wnrs_obs::counter_value(wnrs_obs::Counter::NodeVisits);
    let mut lat: Option<Latencies> = None;
    let mut answers: Vec<Option<Answers>> = Vec::new();
    // Page reads of the first pass: the pool's state when a pass starts
    // depends on the pass before it, so only the first is fixed by the
    // seed alone.
    let (mut logical, mut physical) = (0, 0);
    for pass in 0..passes {
        let mut times = Latencies::default();
        let got: Vec<Option<Answers>> = questions
            .iter()
            .map(|qn| {
                times.after_probe(host.probe());
                if cfg.trace {
                    answer_composed(&engine, qn, &mut traced, &mut times).ok()
                } else {
                    answer_direct(&engine, qn, &mut times).ok()
                }
            })
            .collect();
        let times = times.at_full_speed(&host);
        match lat.as_mut() {
            None => lat = Some(times),
            Some(lat) => lat.keep_min(&times),
        }
        if pass == 0 {
            (logical, physical) = (
                io.logical_reads() - logical0,
                io.physical_reads() - physical0,
            );
            // Set-up and the first pass make the peak: later passes
            // repeat its operations, and the set-up repetitions below
            // leave the memory they free with the allocator.
            rss = rss.max(peak_rss_mb());
            answers = got;
        } else {
            out.failed += answers
                .iter()
                .zip(&got)
                .filter(|(a, b)| a.as_ref().map(|a| a.digest) != b.as_ref().map(|b| b.digest))
                .count() as u64
                * Op::QUESTION.len() as u64;
        }
        if !cfg.trace {
            // A set-up repetition after each pass samples set-up time
            // across the run, as the passes sample the operations.
            let built = setup.time(&mut host, Clock::Thread, || {
                set_up(&points, &spare, pool_pages, &wrap)
            });
            std::fs::remove_file(&spare).ok();
            drop(built?);
        }
    }
    let lat = lat.unwrap_or_default();
    progress.note("measured passes done");
    host.report();
    let dom = wnrs_obs::counter_value(wnrs_obs::Counter::DominanceTests) - dom0;
    let nodes = wnrs_obs::counter_value(wnrs_obs::Counter::NodeVisits) - nodes0;
    let logical_all = io.logical_reads() - logical0;
    let physical_all = io.physical_reads() - physical0;
    let pager_read = engine.tree().pool().pager().read_totals();

    let ok: Vec<(&Question, &Answers)> = questions
        .iter()
        .zip(&answers)
        .filter_map(|(qn, a)| a.as_ref().map(|a| (qn, a)))
        .collect();
    out.failed += ((questions.len() - ok.len()) * Op::QUESTION.len() * passes) as u64;
    if cfg.trace {
        // The composed answers must equal the engine's own.
        for (qn, ans) in &ok {
            let same = answer_direct(&engine, qn, &mut Latencies::default())
                .is_ok_and(|direct| direct.digest == ans.digest);
            out.failed += u64::from(!same) * Op::QUESTION.len() as u64;
        }
    }
    for (qn, ans) in &ok {
        out.failed += check(&engine, qn, ans);
    }

    let ops = (lat.count() * passes) as f64;
    if cfg.trace {
        let (read_ns, reads) = match (pager_read0, pager_read) {
            (Some((ns0, r0)), Some((ns1, r1))) => (ns1 - ns0, r1 - r0),
            _ => (0, 0),
        };
        let mut measured = engine_layers(
            &traced.t,
            [&traced.rsl, &traced.window, &traced.dsl, &traced.boxes],
        );
        measured.extend([
            ("geometry.dominance_tests_per_op", dom as f64 / ops),
            ("rtree.node_visits_per_op", nodes as f64 / ops),
            ("storage.logical_reads_per_op", logical_all as f64 / ops),
            ("storage.physical_reads_per_op", physical_all as f64 / ops),
            (
                "storage.pool_hit_ratio",
                1.0 - physical_all as f64 / logical_all as f64,
            ),
            (
                "storage.pager_read_us",
                read_ns as f64 / reads.max(1) as f64 / 1e3,
            ),
            (
                "storage.pager_read_share",
                read_ns as f64 / 1e6 / traced.t.totals_ms(&OP_SPANS),
            ),
        ]);
        out.metrics = per_layer(&measured, lat.ops_s(), cfg.untraced_ops_s);
    } else {
        out.metrics = end_to_end(&setup.at_full_speed(&host), &lat, rss);
    }
    let answered: Vec<&Answers> = ok.iter().map(|(_, a)| *a).collect();
    out.counts = vec![
        ("questions", questions.len() as u64),
        ("logical_reads", logical),
        ("physical_reads", physical),
        (
            "rsl_size_sum",
            answered.iter().map(|a| a.rsl.len() as u64).sum(),
        ),
        (
            "window_size_sum",
            answered.iter().map(|a| a.culprits as u64).sum(),
        ),
        (
            "answer_digest",
            digest_of(|d| answered.iter().for_each(|a| d.word(a.digest))),
        ),
    ];
    if cfg.trace {
        out.counts.extend([
            ("dsl_size_sum", traced.dsl.sum()),
            ("sr_boxes_sum", traced.boxes.sum()),
            ("dominance_tests", dom),
            ("node_visits", nodes),
        ]);
    }
    Ok(out)
}

/// The program's set-up: stream the points onto a fresh page file,
/// open the tree through the buffer pool, fit the cost model to the
/// tree's universe.
fn set_up<P: Pager>(
    points: &[Point],
    path: &Path,
    pool_pages: usize,
    wrap: &impl Fn(FilePager) -> P,
) -> Result<PagedEngine<P>, String> {
    let file = FilePager::create(path, PAPER_PAGE_SIZE).map_err(|e| format!("page file: {e}"))?;
    let pager = Arc::new(wrap(file));
    let spill = MemPager::new(PAPER_PAGE_SIZE);
    let config = RTreeConfig::paper_default(DIM);
    let meta = bulk_load_stream(
        points.iter().cloned(),
        DIM,
        config,
        pager.as_ref(),
        &spill,
        RUN_CAPACITY,
    )
    .map_err(|e| format!("bulk load: {e}"))?;
    drop(spill);
    let tree = PagedRTree::open(BufferPool::new(pager, pool_pages), meta)
        .map_err(|e| format!("open tree: {e}"))?;
    let equal = CostModel::new(Weights::equal(DIM), Weights::equal(DIM));
    let engine = PagedEngine::from_tree(tree, equal.clone()).map_err(|e| format!("engine: {e}"))?;
    let fitted = equal.with_normalizer(MinMaxNormalizer::from_bounds(engine.universe()));
    Ok(engine.with_cost_model(fitted))
}

/// `count` questions: perturbed copies of random data points (as
/// `QueryWorkload` makes them), kept when their reverse-skyline size is
/// the next unmet target of 1–15 (cycling), each asked for
/// [`CUSTOMERS_PER_QUERY`] random non-members as why-not customers,
/// each from its own window band ([`WhyNotBands`]).
fn questions<P: Pager>(
    engine: &PagedEngine<P>,
    points: &[Point],
    count: usize,
    rng: &mut StdRng,
) -> Result<Vec<Question>, String> {
    let bounds = Rect::bounding(points);
    let scale: Vec<f64> = (0..DIM).map(|i| bounds.extent(i) * 0.05).collect();
    let order = band_order(count, rng);
    let counter = BoxCounter::new(points);
    let mut out = Vec::with_capacity(count);
    let mut remaining: Vec<usize> = Vec::new();
    let mut probes = 0;
    while out.len() < count {
        if remaining.is_empty() {
            remaining = (1..=15).collect();
        }
        probes += 1;
        if probes > MAX_PROBES * count {
            return Err("too few queries with a reverse skyline of size 1-15".into());
        }
        let base = &points[rng.gen_range(0..points.len())];
        let q = Point::new(
            (0..DIM)
                .map(|i| base[i] + (rng.gen::<f64>() - 0.5) * scale[i])
                .collect::<Vec<_>>(),
        );
        let rsl = engine.reverse_skyline(&q).map_err(|e| e.to_string())?;
        let Some(pos) = remaining.iter().position(|&t| t == rsl.len()) else {
            continue;
        };
        remaining.swap_remove(pos);
        let bands = WhyNotBands::new(&counter, points, &rsl, &q);
        for _ in 0..CUSTOMERS_PER_QUERY.min(count - out.len()) {
            let id = bands
                .pick(order[out.len()], count, rng)
                .ok_or("too few points outside the reverse skyline")?;
            out.push(Question {
                q: q.clone(),
                id,
                c: points[id.0 as usize].clone(),
            });
        }
    }
    Ok(out)
}

/// Answers a question through the paged engine's own methods, timing
/// each.
fn answer_direct<P: Pager>(
    engine: &PagedEngine<P>,
    qn: &Question,
    lat: &mut Latencies,
) -> Result<Answers, PersistError> {
    let (q, c, id) = (&qn.q, &qn.c, Some(qn.id));
    let clock = CpuTimer::thread();
    let rsl = engine.reverse_skyline(q)?;
    lat.push(Op::Rsl, clock.elapsed());
    let clock = CpuTimer::thread();
    let why = engine.explain(c, id, q)?;
    lat.push(Op::Explain, clock.elapsed());
    let clock = CpuTimer::thread();
    let mwp = engine.mwp(c, id, q)?;
    lat.push(Op::Mwp, clock.elapsed());
    let clock = CpuTimer::thread();
    let mqp = engine.mqp(c, id, q)?;
    lat.push(Op::Mqp, clock.elapsed());
    let clock = CpuTimer::thread();
    let sr = engine.safe_region(q)?;
    lat.push(Op::Sr, clock.elapsed());
    let clock = CpuTimer::thread();
    let mwq = engine.mwq_full(c, id, q)?;
    lat.push(Op::Mwq, clock.elapsed());
    Ok(Answers::new(rsl, &why, mwp, mqp, sr, mwq))
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
    fn bbrs<P: Pager>(
        &mut self,
        engine: &PagedEngine<P>,
        q: &Point,
    ) -> Result<Vec<(ItemId, Point)>, PersistError> {
        let rsl = self.t.span("reverse_skyline.bbrs", || {
            paged_bbrs_reverse_skyline(engine.tree(), q)
        })?;
        self.rsl.add(rsl.len());
        Ok(rsl)
    }

    fn window<P: Pager>(
        &mut self,
        engine: &PagedEngine<P>,
        qn: &Question,
    ) -> Result<Vec<(ItemId, Point)>, PersistError> {
        let lambda = self.t.span("reverse_skyline.window", || {
            paged_window_query(engine.tree(), &qn.c, &qn.q, Some(qn.id))
        })?;
        self.window.add(lambda.len());
        Ok(lambda)
    }

    /// `PagedEngine::safe_region_for`, composed: one paged dynamic
    /// skyline and anti-DDR per member, then the sequential balanced
    /// intersection.
    fn safe_region<P: Pager>(
        &mut self,
        engine: &PagedEngine<P>,
        q: &Point,
        rsl: &[(ItemId, Point)],
    ) -> Result<Region, PersistError> {
        let universe = engine.universe_for(q);
        self.t.enter();
        let mut regions = Vec::with_capacity(rsl.len());
        for (id, c) in rsl {
            let dsl = self
                .t
                .span("skyline.dsl", || engine.dynamic_skyline(c, Some(*id)));
            let dsl = match dsl {
                Ok(dsl) => dsl,
                Err(e) => {
                    self.t.exit("core.safe_region");
                    return Err(e);
                }
            };
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
        Ok(sr)
    }
}

/// Answers a question by calling the public functions the paged engine
/// composes, each in its own span under one span per operation.
fn answer_composed<P: Pager>(
    engine: &PagedEngine<P>,
    qn: &Question,
    tr: &mut Traced,
    lat: &mut Latencies,
) -> Result<Answers, PersistError> {
    let (q, c, id) = (&qn.q, &qn.c, Some(qn.id));
    let mut op = |tr: &mut Traced,
                  kind: Op,
                  name: &'static str,
                  f: &mut dyn FnMut(&mut Traced) -> Result<(), PersistError>| {
        tr.t.enter();
        let r = f(tr);
        lat.push(kind, tr.t.exit(name));
        r
    };
    let mut rsl = Vec::new();
    op(tr, Op::Rsl, "op.rsl", &mut |tr| {
        rsl = tr.bbrs(engine, q)?;
        Ok(())
    })?;
    let mut why = Explanation { culprits: vec![] };
    op(tr, Op::Explain, "op.explain", &mut |tr| {
        why.culprits = tr.window(engine, qn)?;
        Ok(())
    })?;
    let mut mwp = None;
    op(tr, Op::Mwp, "op.mwp", &mut |tr| {
        let lambda = tr.window(engine, qn)?;
        mwp = Some(tr.t.span("core.mwp", || engine.mwp_with_lambda(c, q, &lambda, id))?);
        Ok(())
    })?;
    let mut mqp = None;
    op(tr, Op::Mqp, "op.mqp", &mut |tr| {
        let lambda = tr.window(engine, qn)?;
        mqp = Some(tr.t.span("core.mqp", || mqp_with_lambda(engine, qn, &lambda))?);
        Ok(())
    })?;
    let mut sr = None;
    op(tr, Op::Sr, "op.sr", &mut |tr| {
        let members = tr.bbrs(engine, q)?;
        sr = Some(tr.safe_region(engine, q, &members)?);
        Ok(())
    })?;
    let mut mwq = None;
    op(tr, Op::Mwq, "op.mwq", &mut |tr| {
        let members = tr.bbrs(engine, q)?;
        let region = tr.safe_region(engine, q, &members)?;
        let ans =
            tr.t.span("core.mwq_given_sr", || engine.mwq(c, id, q, &region))?;
        mwq = Some((region, ans));
        Ok(())
    })?;
    let missing = || PersistError::Format("composed answer missing".into());
    Ok(Answers::new(
        rsl,
        &why,
        mwp.ok_or_else(missing)?,
        mqp.ok_or_else(missing)?,
        sr.ok_or_else(missing)?,
        mwq.ok_or_else(missing)?,
    ))
}

/// Algorithm 2 against a precomputed culprit window, as
/// `PagedEngine::mqp` runs it after its own window query.
fn mqp_with_lambda<P: Pager>(
    engine: &PagedEngine<P>,
    qn: &Question,
    lambda: &[(ItemId, Point)],
) -> Result<wnrs_core::MqpAnswer, PersistError> {
    let mut scratch = PagedMemberScratch::new();
    let mut io: Option<PersistError> = None;
    let ans = modify_query_point_core(
        &qn.c,
        &qn.q,
        lambda,
        engine.cost_model(),
        DEFAULT_EPS,
        &mut |c, at| {
            if io.is_some() {
                return false;
            }
            paged_is_reverse_skyline_member(engine.tree(), c, at, Some(qn.id), &mut scratch)
                .unwrap_or_else(|e| {
                    io = Some(e);
                    false
                })
        },
    );
    io.map_or(Ok(ans), Err)
}

/// Runs the answer checks against the paged membership test; a page
/// error inside a check fails it.
fn check<P: Pager>(engine: &PagedEngine<P>, qn: &Question, ans: &Answers) -> u64 {
    let is_member = engine.is_member(&qn.c, Some(qn.id), &qn.q).unwrap_or(true);
    check_question(
        &qn.c,
        &qn.q,
        ans,
        None,
        is_member,
        DEFAULT_EPS,
        &mut |p, at| engine.is_member(p, Some(qn.id), at).unwrap_or(false),
    )
}
