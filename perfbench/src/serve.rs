//! `serve-writes`: `wnrs-server` on loopback with its default config,
//! fronting a cached in-memory engine, driven by one closed-loop
//! `client::Client` connection. The cache, the wire protocol and the
//! write path (surgical invalidation) carry this workload.
//!
//! Inputs: CarDB, n = 50 000, d = 2. The stream is `RepeatedWorkload`
//! questions, each asked three times in a row and followed by a one-off
//! question, with `WriteMixWorkload` inserts and deletes at 1% of
//! requests. Each question expands
//! into one `Rsl` and one `SafeRegion` request for its query point and
//! `Explain`, `Mwp`, `Mqp` and `Mwq` requests for each of its why-not
//! customers, random non-members each from its own window band (see
//! [`crate::WhyNotBands`]).

use std::collections::HashMap;
use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::SeedableRng;
use wnrs_core::{CacheStats, WhyNotEngine};
use wnrs_data::{cardb, RepeatedWorkload, StreamOp, WriteMixWorkload};
use wnrs_geometry::Point;
use wnrs_rtree::ItemId;
use wnrs_server::client::Client;
use wnrs_server::proto::{
    decode_response, encode_request, encode_response, region_to_wire, Answer, Customer, Request,
    Response, ResponseBody,
};
use wnrs_server::server::{EngineHost, Server, ServerConfig};

use crate::{
    band_order, digest_of, end_to_end, median, peak_rss_mb, per_layer, reset_peak_rss, BoxCounter,
    Clock, Config, CpuTimer, HostSpeed, Latencies, Op, Outcome, Progress, SetupTimes, WhyNotBands,
};

const N: usize = 50_000;
const SMOKE_N: usize = 2_000;
/// Why-not customers per question.
const WHYNOT_PER_QUESTION: usize = 2;
/// Rounds of the repeated questions.
const REPEATS: usize = 3;
/// Distinct repeated questions per second of budget; as many one-off
/// questions are spliced in. A 15-second budget (20 distinct questions
/// asked 3 times, 20 one-off questions: about 800 requests) takes about
/// 5 s a pass at the reference host's full speed, 15 s in three passes.
const DISTINCT_PER_SECOND: f64 = 1.33;
/// Writes per request: a question of `W` customers sends `2 + 4W`
/// requests, and `WriteMixWorkload` counts its rate per customer.
const WRITES_PER_REQUEST: f64 = 0.01;
/// Leading stream steps answered before the measured phase.
const WARMUP_STEPS: usize = 6;

/// One step of the request stream. Deletes name a prior insert by
/// position, since the id comes from the server's answer.
enum Step {
    Query(Request, Op),
    Insert(Point),
    DeleteInserted(usize),
}

/// One answered request. The response is kept as its frame's length
/// and digest, not its bytes: culprit lists run to hundreds of
/// kilobytes, and keeping them would swell the peak memory the run
/// reports.
struct Served {
    req: Request,
    op: Op,
    /// Wall-clock time of the round trip; `None` during warm-up.
    took: Option<Duration>,
    /// The host probe taken before the request's question.
    probe: usize,
    /// The response, or why it failed.
    frame: Result<Frame, String>,
}

/// A response frame as the checks need it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Frame {
    /// Echoed request id.
    id: u64,
    /// Frame length in bytes.
    len: usize,
    /// Digest of every byte of the frame.
    digest: u64,
    /// Items in an `Rsl` or `Explain` answer.
    items: usize,
}

impl Frame {
    fn of(bytes: &[u8], id: u64, items: usize) -> Frame {
        Frame {
            id,
            len: bytes.len(),
            digest: digest_of(|d| d.bytes(bytes)),
            items,
        }
    }
}

/// Wire-layer timings the traced run takes as responses arrive.
#[derive(Default)]
struct WireTimes {
    ping_us: Vec<f64>,
    encode_us: Vec<f64>,
    decode_us: Vec<f64>,
}

/// Runs `serve-writes`.
///
/// # Errors
///
/// Returns a message when the engine or the server cannot be started.
pub fn run(cfg: &Config) -> Result<Outcome, String> {
    let (n, distinct, whynot, fraction) = if cfg.smoke {
        (SMOKE_N, 2, 2, 0.25)
    } else {
        let distinct = ((cfg.seconds as f64 * DISTINCT_PER_SECOND).round() as usize).max(1);
        let w = WHYNOT_PER_QUESTION as f64;
        (
            N,
            distinct,
            WHYNOT_PER_QUESTION,
            WRITES_PER_REQUEST * (2.0 + 4.0 * w) / w,
        )
    };
    let progress = Progress::start();
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let points = cardb(&mut rng, n);
    // An uncached engine generates the questions; a fresh one replays
    // the stream as the oracle after the measured phase.
    let oracle = WhyNotEngine::try_new(points.clone()).map_err(|e| format!("oracle: {e}"))?;
    let repeats = if cfg.smoke { 2 } else { REPEATS };
    // Each repeated question is asked `repeats` times in a row (a busy
    // product page), then a one-off question follows. A repeat comes
    // right after the asking it hits in the cache, so a write that
    // flushes the cache turns at most one question's repeats into
    // misses, wherever in the stream it falls.
    let mut fresh = |count| {
        RepeatedWorkload::repeated(oracle.tree(), oracle.points(), count, 1, whynot, &mut rng)
            .questions
    };
    let (repeated, one_off) = (fresh(distinct), fresh(distinct));
    let mut questions = Vec::with_capacity(distinct * (repeats + 1));
    for (qn, single) in repeated.into_iter().zip(one_off) {
        questions.extend(std::iter::repeat_n(qn, repeats));
        questions.push(single);
    }
    // Each distinct query point keeps its customers across repeats,
    // each customer from its own window band (see `WhyNotBands`).
    let key = |q: &Point| -> Vec<u64> { q.coords().iter().map(|v| v.to_bits()).collect() };
    let total = questions
        .iter()
        .map(|qn| key(&qn.q))
        .collect::<std::collections::HashSet<_>>()
        .len()
        * whynot;
    let order = band_order(total, &mut rng);
    let counter = BoxCounter::new(oracle.points());
    let mut chosen: HashMap<Vec<u64>, Vec<ItemId>> = HashMap::new();
    for qn in &mut questions {
        let k = key(&qn.q);
        if !chosen.contains_key(&k) {
            let slot = chosen.len() * whynot;
            let rsl = oracle.reverse_skyline(&qn.q);
            let bands = WhyNotBands::new(&counter, oracle.points(), &rsl, &qn.q);
            let ids = order[slot..slot + whynot]
                .iter()
                .map(|&band| bands.pick(band, total, &mut rng))
                .collect::<Option<Vec<_>>>()
                .ok_or("too few points outside the reverse skyline")?;
            chosen.insert(k.clone(), ids);
        }
        qn.whynot.clone_from(&chosen[&k]);
    }
    let stream = WriteMixWorkload::from_questions(questions, oracle.points(), fraction, &mut rng);
    let steps = expand(&stream.ops);
    drop((counter, oracle));
    reset_peak_rss();
    progress.note("inputs generated, engine set up");

    // Each pass replays the whole stream on a freshly started server,
    // so every pass runs the same operations from the same state.
    let passes = cfg.passes();
    let mut host = HostSpeed::new();
    let mut setup = SetupTimes::default();
    let mut wire = WireTimes::default();
    let mut lat: Option<Latencies> = None;
    let mut served: Vec<Served> = Vec::new();
    let mut rss = 0.0;
    let mut out = Outcome::default();
    for pass in 0..passes {
        let input = points.clone();
        let (server, mut client) = setup.time(&mut host, Clock::Wall, || start(input))?;
        let got = serve(
            &mut client,
            &steps,
            &mut host,
            cfg.trace.then_some(&mut wire),
        );
        drop(client);
        server.shutdown().map_err(|e| format!("shutdown: {e}"))?;
        let times = latencies(&got).at_full_speed(&host);
        match lat.as_mut() {
            None => lat = Some(times),
            Some(lat) => lat.keep_min(&times),
        }
        out.attempted += got.len() as u64;
        if pass == 0 {
            // Set-up and the first pass make the peak: later passes
            // repeat it on a fresh server, while the allocator keeps
            // the memory the last one freed.
            rss = peak_rss_mb();
            served = got;
        } else {
            out.failed += served
                .iter()
                .zip(&got)
                .filter(|(a, b)| a.frame != b.frame)
                .count() as u64;
        }
    }
    let lat = lat.unwrap_or_default();
    progress.note("measured passes done");
    host.report();

    let mut oracle = WhyNotEngine::try_new(points.clone()).map_err(|e| format!("oracle: {e}"))?;
    out.failed += check(&mut oracle, &served);
    out.counts = counts(&served, stream.writes);
    if !cfg.trace {
        out.metrics = end_to_end(&setup.at_full_speed(&host), &lat, rss);
        return Ok(out);
    }

    // In-process replays of the same stream on a cached engine: the
    // engine's share of each request, the cache's behaviour and the
    // write costs. Their answers must equal the served ones.
    let mut replayed: Option<Vec<f64>> = None;
    let mut stats = (CacheStats::default(), CacheStats::default());
    for _ in 0..passes {
        let mut replica = WhyNotEngine::try_new(points.clone())
            .map_err(|e| format!("replica: {e}"))?
            .with_cache();
        let stats0 = replica.cache_stats().unwrap_or_default();
        let mut took_ms = Vec::with_capacity(served.len());
        let mut probe = 0;
        for s in &served {
            if let Request::Rsl { .. } = s.req {
                probe = host.probe();
            }
            let clock = CpuTimer::thread();
            let answer = answer(&mut replica, &s.req, None);
            took_ms.push((clock.elapsed().as_secs_f64() * 1e3, probe));
            out.failed +=
                u64::from(expected_frame(&s.req, &s.frame, answer) != s.frame.clone().ok());
        }
        // Scaled to full speed, like the served times they are set against.
        let took_ms: Vec<f64> = took_ms.iter().map(|&(t, k)| t * host.scale(k)).collect();
        stats = (stats0, replica.cache_stats().unwrap_or_default());
        replayed = Some(match replayed {
            None => took_ms,
            Some(min) => min.iter().zip(&took_ms).map(|(a, b)| a.min(*b)).collect(),
        });
    }
    let replayed = replayed.unwrap_or_default();
    let served_ms = lat.total_ms();
    let mut engine_ms = 0.0;
    let (mut inserts_ms, mut deletes_ms) = (Vec::new(), Vec::new());
    for (s, took) in served.iter().zip(&replayed) {
        if s.took.is_some() {
            engine_ms += took;
        }
        match s.req {
            Request::Insert { .. } => inserts_ms.push(*took),
            Request::Delete { .. } => deletes_ms.push(*took),
            _ => {}
        }
    }
    let (stats0, stats) = stats;
    let lookups = (stats.hits + stats.misses - stats0.hits - stats0.misses) as f64;
    let evictions = evictions(&stats) - evictions(&stats0);
    let frames: Vec<&Frame> = served
        .iter()
        .filter_map(|s| s.frame.as_ref().ok())
        .collect();
    let bytes = frames.iter().map(|f| f.len).sum::<usize>() as f64 / frames.len().max(1) as f64;
    let measured = vec![
        (
            "cache.hit_ratio",
            (stats.hits - stats0.hits) as f64 / lookups,
        ),
        (
            "cache.misses_per_op",
            (stats.misses - stats0.misses) as f64 / served.len() as f64,
        ),
        (
            "cache.evictions_per_write",
            evictions as f64 / (stream.writes.max(1)) as f64,
        ),
        (
            "cache.full_flushes",
            (stats.full_flushes - stats0.full_flushes) as f64,
        ),
        ("core.insert_ms", median(&inserts_ms)),
        ("core.delete_ms", median(&deletes_ms)),
        ("server.ping_rtt_us", median(&wire.ping_us)),
        ("server.encode_us", median(&wire.encode_us)),
        ("server.decode_us", median(&wire.decode_us)),
        ("server.response_bytes", bytes),
        ("server.overhead_share", (served_ms - engine_ms) / served_ms),
        ("server.write_p50_ms", median(lat.of(Op::Write))),
    ];
    out.metrics = per_layer(&measured, lat.ops_s(), cfg.untraced_ops_s);
    out.counts.extend([
        ("cache_hits", stats.hits - stats0.hits),
        ("cache_misses", stats.misses - stats0.misses),
        ("cache_evictions", evictions),
        (
            "cache_full_flushes",
            stats.full_flushes - stats0.full_flushes,
        ),
    ]);
    Ok(out)
}

/// Entries the cache dropped: capacity flushes plus surgical evictions.
fn evictions(s: &CacheStats) -> u64 {
    s.evictions + s.dsl_evictions + s.addr_evictions + s.sr_evictions + s.mwq_evictions
}

/// The measured (post-warm-up) requests' times.
fn latencies(served: &[Served]) -> Latencies {
    let mut lat = Latencies::default();
    for s in served {
        if let Some(took) = s.took {
            lat.after_probe(s.probe);
            lat.push(s.op, took);
        }
    }
    lat
}

/// The program's set-up: build the cached engine, start the server
/// with its default config and open the client connection (answered
/// `Ping` included, so the server is ready).
fn start(points: Vec<Point>) -> Result<(Server, Client), String> {
    let engine = WhyNotEngine::try_new(points)
        .map_err(|e| format!("engine: {e}"))?
        .with_cache();
    let server = Server::start(ServerConfig::default(), EngineHost::memory(engine))
        .map_err(|e| format!("server start: {e}"))?;
    let mut client = Client::connect(server.local_addr()).map_err(|e| format!("connect: {e}"))?;
    client
        .call(&Request::Ping)
        .map_err(|e| format!("ping: {e}"))?;
    Ok((server, client))
}

/// Expands the write-mix stream into requests: per question one `Rsl`
/// and one `SafeRegion`, then `Explain`, `Mwp`, `Mqp`, `Mwq` per
/// customer.
fn expand(ops: &[StreamOp]) -> Vec<Step> {
    let mut steps = Vec::new();
    for op in ops {
        match op {
            StreamOp::Question(qn) => {
                steps.push(Step::Query(Request::Rsl { q: qn.q.clone() }, Op::Rsl));
                steps.push(Step::Query(Request::SafeRegion { q: qn.q.clone() }, Op::Sr));
                for &id in &qn.whynot {
                    let (customer, q) = (Customer::Id(id), qn.q.clone());
                    steps.push(Step::Query(
                        Request::Explain {
                            customer: customer.clone(),
                            q: q.clone(),
                        },
                        Op::Explain,
                    ));
                    steps.push(Step::Query(
                        Request::Mwp {
                            customer: customer.clone(),
                            q: q.clone(),
                        },
                        Op::Mwp,
                    ));
                    steps.push(Step::Query(
                        Request::Mqp {
                            customer: customer.clone(),
                            q: q.clone(),
                        },
                        Op::Mqp,
                    ));
                    steps.push(Step::Query(Request::Mwq { customer, q }, Op::Mwq));
                }
            }
            StreamOp::Insert(p) => steps.push(Step::Insert(p.clone())),
            StreamOp::DeleteInserted(k) => steps.push(Step::DeleteInserted(*k)),
        }
    }
    steps
}

/// Sends the stream closed-loop over one connection. With `wire`, a
/// `Ping` precedes each question and its wall-clock round trip is
/// recorded (not an operation), and each response's encode and decode
/// are re-run and timed in-process.
fn serve(
    client: &mut Client,
    steps: &[Step],
    host: &mut HostSpeed,
    mut wire: Option<&mut WireTimes>,
) -> Vec<Served> {
    let mut inserted: Vec<ItemId> = Vec::new();
    let mut probe = 0;
    let mut served = Vec::with_capacity(steps.len());
    for (i, step) in steps.iter().enumerate() {
        let (req, op) = match step {
            Step::Query(req, op) => (req.clone(), *op),
            Step::Insert(p) => (Request::Insert { point: p.clone() }, Op::Write),
            Step::DeleteInserted(k) => match inserted.get(*k) {
                Some(&id) => (Request::Delete { id }, Op::Write),
                None => {
                    served.push(Served {
                        req: Request::Ping,
                        op: Op::Write,
                        took: None,
                        probe,
                        frame: Err(format!("delete of insert {k}, which failed")),
                    });
                    continue;
                }
            },
        };
        if let Request::Rsl { .. } = &req {
            // Each question starts with its `Rsl` request.
            probe = host.probe();
        }
        if let (Some(wire), Request::Rsl { .. }) = (wire.as_deref_mut(), &req) {
            let clock = Instant::now();
            if client.call(&Request::Ping).is_ok() {
                wire.ping_us.push(clock.elapsed().as_secs_f64() * 1e6);
            }
        }
        let clock = Instant::now();
        let resp = client.call(&req);
        let took = clock.elapsed();
        let frame = match resp {
            Ok(resp) => match &resp.body {
                ResponseBody::Ok(answer) => {
                    let items = match answer {
                        Answer::Items(items) => items.len(),
                        Answer::Inserted(id) => {
                            inserted.push(*id);
                            0
                        }
                        _ => 0,
                    };
                    let clock = CpuTimer::thread();
                    let bytes = encode_response(&resp).map_err(|e| e.to_string());
                    let encode = clock.elapsed();
                    bytes.map(|bytes| {
                        if let Some(wire) = wire.as_deref_mut() {
                            wire.encode_us.push(encode.as_secs_f64() * 1e6);
                            let clock = CpuTimer::thread();
                            std::hint::black_box(decode_response(&bytes[4..]).ok());
                            wire.decode_us.push(clock.elapsed().as_secs_f64() * 1e6);
                        }
                        Frame::of(&bytes, resp.id, items)
                    })
                }
                ResponseBody::Error(kind, msg) => Err(format!("{kind:?}: {msg}")),
            },
            Err(e) => Err(e.to_string()),
        };
        served.push(Served {
            req,
            op,
            took: (i >= WARMUP_STEPS).then_some(took),
            probe,
            frame,
        });
    }
    served
}

/// The answer the server's handler gives `req`, computed in-process.
/// `memo` (uncached oracle only) reuses answers within a run of
/// requests with no write in between, where they cannot change.
fn answer(
    e: &mut WhyNotEngine,
    req: &Request,
    memo: Option<&mut HashMap<Vec<u8>, Answer>>,
) -> Option<Answer> {
    match req {
        Request::Insert { point } => {
            if let Some(memo) = memo {
                memo.clear();
            }
            return Some(Answer::Inserted(e.insert(point.clone())));
        }
        Request::Delete { id } => {
            if let Some(memo) = memo {
                memo.clear();
            }
            return ((id.0 as usize) < e.len()).then(|| Answer::Deleted(e.delete(*id)));
        }
        _ => {}
    }
    let key = memo.as_ref().and_then(|_| encode_request(0, req).ok());
    if let (Some(memo), Some(key)) = (memo.as_deref(), &key) {
        if let Some(hit) = memo.get(key) {
            return Some(hit.clone());
        }
    }
    let e = &*e;
    let computed = match req {
        Request::Rsl { q } => Answer::Items(e.reverse_skyline(q)),
        Request::SafeRegion { q } => {
            let rsl = e.reverse_skyline(q);
            Answer::Region(region_to_wire(&e.safe_region_for(q, &rsl)))
        }
        Request::Explain {
            customer: Customer::Id(id),
            q,
        } => Answer::Items(e.explain(*id, q).culprits),
        Request::Mwp {
            customer: Customer::Id(id),
            q,
        } => Answer::Candidates(e.mwp(*id, q).candidates),
        Request::Mqp {
            customer: Customer::Id(id),
            q,
        } => Answer::Candidates(e.mqp(*id, q).candidates),
        Request::Mwq {
            customer: Customer::Id(id),
            q,
        } => {
            let rsl = e.reverse_skyline(q);
            let sr = e.safe_region_for(q, &rsl);
            let ans = e.mwq(*id, q, &sr);
            Answer::Mwq {
                case: ans.case,
                q_star: ans.q_star,
                c_star: ans.c_star,
                cost: ans.cost,
            }
        }
        _ => return None,
    };
    if let (Some(memo), Some(key)) = (memo, key) {
        memo.insert(key, computed.clone());
    }
    Some(computed)
}

/// The frame the server should have sent for `req`: `answer` under
/// the id the served response carried.
fn expected_frame(
    req: &Request,
    served: &Result<Frame, String>,
    answer: Option<Answer>,
) -> Option<Frame> {
    let served = served.as_ref().ok()?;
    let answer = answer?;
    let items = match &answer {
        Answer::Items(items) => items.len(),
        _ => 0,
    };
    let bytes = encode_response(&Response {
        id: served.id,
        opcode: req.opcode(),
        body: ResponseBody::Ok(answer),
    })
    .ok()?;
    Some(Frame::of(&bytes, served.id, items))
}

/// Replays every request on the uncached oracle and compares each
/// served frame with the oracle's by length and digest of every byte.
/// Returns the failed request count.
fn check(oracle: &mut WhyNotEngine, served: &[Served]) -> u64 {
    let mut memo = HashMap::new();
    let mut failed = 0;
    for s in served {
        let expected = answer(oracle, &s.req, Some(&mut memo));
        let ok =
            matches!(&s.frame, Ok(f) if expected_frame(&s.req, &s.frame, expected) == Some(*f));
        failed += u64::from(!ok);
    }
    failed
}

fn counts(served: &[Served], writes: usize) -> Vec<(&'static str, u64)> {
    let items = |op: Op| -> u64 {
        served
            .iter()
            .filter(|s| s.op == op)
            .filter_map(|s| s.frame.as_ref().ok())
            .map(|f| f.items as u64)
            .sum()
    };
    vec![
        ("requests", served.len() as u64),
        ("writes", writes as u64),
        ("rsl_size_sum", items(Op::Rsl)),
        ("window_size_sum", items(Op::Explain)),
        (
            "response_digest",
            digest_of(|d| {
                for s in served {
                    d.word(s.frame.as_ref().map_or(u64::MAX, |f| f.digest));
                }
            }),
        ),
    ]
}
