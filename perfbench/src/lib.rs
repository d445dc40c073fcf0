//! The repository benchmark for the why-not reverse-skyline pipeline.
//!
//! Three workloads, each one process driven through the public API by a
//! single closed-loop client (see `README.md` for why each exists):
//!
//! * [`mem`] — `whynot-mem`: the paper's own experiment on the uncached
//!   in-memory [`wnrs_core::WhyNotEngine`];
//! * [`paged`] — `whynot-paged`: the same op mix on a
//!   [`wnrs_core::PagedEngine`] whose tree is five times its buffer pool;
//! * [`serve`] — `serve-writes`: `wnrs-server` fronting a cached engine,
//!   with a trickle of inserts and deletes.
//!
//! An untraced run reports the end-to-end metrics; a traced run answers
//! each operation by calling the public functions the engine composes,
//! each in its own [`trace::Tracer`] span, and reports the per-layer
//! metrics. Every run checks every answer and prints a line of
//! deterministic counts (`counts {...}`) before its result line.

#![deny(unsafe_code)]

use std::path::PathBuf;
use std::time::Duration;

use wnrs_core::{MqpAnswer, MwpAnswer, MwqAnswer};
use wnrs_geometry::{Point, Region};
use wnrs_rtree::ItemId;

pub mod mem;
pub mod paged;
pub mod serve;
pub mod trace;

/// The thread CPU-time clock. In-process operations are timed in the
/// calling thread's CPU time, which leaves out time the vCPU spends on
/// other processes or, where the guest kernel accounts steal, on other
/// guests. `serve-writes` times its requests by wall clock instead: a
/// request's cost there includes waiting on loopback and other threads.
#[allow(unsafe_code)]
mod cpu {
    use std::time::Duration;

    #[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
    compile_error!("the benchmark reads Linux CPU-time clocks through the 64-bit timespec layout");

    /// `struct timespec` on 64-bit Linux.
    #[repr(C)]
    struct Timespec {
        tv_sec: i64,
        tv_nsec: i64,
    }

    extern "C" {
        fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
    }

    /// `CLOCK_THREAD_CPUTIME_ID`: CPU time of the calling thread.
    const THREAD: i32 = 3;

    /// Reads the calling thread's CPU-time clock.
    pub fn read() -> Duration {
        let mut ts = Timespec {
            tv_sec: 0,
            tv_nsec: 0,
        };
        // SAFETY: `ts` is a live, writable `struct timespec` for the
        // duration of the call, and the clock id is valid on Linux,
        // so clock_gettime only writes into `ts`.
        let rc = unsafe { clock_gettime(THREAD, &mut ts) };
        assert_eq!(rc, 0, "clock_gettime(CLOCK_THREAD_CPUTIME_ID) failed");
        Duration::new(ts.tv_sec as u64, ts.tv_nsec as u32)
    }
}

/// A started CPU-time measurement.
#[derive(Debug, Clone, Copy)]
pub struct CpuTimer {
    start: Duration,
}

impl CpuTimer {
    /// Starts measuring the calling thread's CPU time.
    #[must_use]
    pub fn thread() -> Self {
        CpuTimer { start: cpu::read() }
    }

    /// CPU time spent since the start.
    #[must_use]
    pub fn elapsed(&self) -> Duration {
        cpu::read().saturating_sub(self.start)
    }
}

/// Wall-clock progress lines on standard error.
pub struct Progress(std::time::Instant);

impl Progress {
    /// Starts the clock.
    #[must_use]
    pub fn start() -> Self {
        Progress(std::time::Instant::now())
    }

    /// Prints `what` with the time since the start.
    pub fn note(&self, what: &str) {
        eprintln!("{:7.1} s  {what}", self.0.elapsed().as_secs_f64());
    }
}

/// The benchmark's workloads, by their `--workload` names.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// `whynot-mem`.
    WhynotMem,
    /// `whynot-paged`.
    WhynotPaged,
    /// `serve-writes`.
    ServeWrites,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 3] = [
        Workload::WhynotMem,
        Workload::WhynotPaged,
        Workload::ServeWrites,
    ];

    /// The `--workload` name.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Workload::WhynotMem => "whynot-mem",
            Workload::WhynotPaged => "whynot-paged",
            Workload::ServeWrites => "serve-writes",
        }
    }

    /// Parses a `--workload` name.
    #[must_use]
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// One run's settings, straight from the command line.
#[derive(Debug, Clone)]
pub struct Config {
    /// Which workload to run.
    pub workload: Workload,
    /// Seeds every generated input: dataset, questions and writes.
    pub seed: u64,
    /// Sets the run's operation budget: each workload runs a fixed
    /// number of operations per second of budget, calibrated so a run
    /// measures for about this long on the reference host. The count is
    /// fixed, not the duration, so a slower build does the same work.
    pub seconds: u64,
    /// Per-layer (traced) run instead of the end-to-end run.
    pub trace: bool,
    /// Tiny inputs and a handful of operations; same code path.
    pub smoke: bool,
    /// The untraced run's `ops_s`, for `trace.overhead`.
    pub untraced_ops_s: Option<f64>,
    /// Directory for the page files `whynot-paged` creates.
    pub work_dir: PathBuf,
}

impl Config {
    /// Passes over the run's operation list. Each operation's time is
    /// its minimum over the passes, and a set-up repetition follows
    /// every pass. `whynot-paged` makes two: its questions cost the
    /// most, and the seed-to-seed spread of its means shrinks more with
    /// more questions than with a third pass.
    #[must_use]
    pub fn passes(&self) -> usize {
        if self.smoke || self.workload == Workload::WhynotPaged {
            2
        } else {
            3
        }
    }
}

/// One metric as printed.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Name as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// Measured value.
    pub value: f64,
    /// Unit as listed in `BENCHMARK.json`.
    pub unit: &'static str,
}

/// What one run produced.
#[derive(Debug, Clone, Default)]
pub struct Outcome {
    /// Operations attempted in the measured phase (a traced run counts
    /// its composed operations).
    pub attempted: u64,
    /// Attempted operations that failed: an error, or an answer that
    /// failed a check.
    pub failed: u64,
    /// The printed metrics.
    pub metrics: Vec<Metric>,
    /// Deterministic counts: equal on every run with the same seed,
    /// size and mode.
    pub counts: Vec<(&'static str, u64)>,
}

impl Outcome {
    /// The result line: one JSON object with exactly the keys
    /// `correct`, `attempted`, `failed` and `metrics`.
    #[must_use]
    pub fn result_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name,
                    json_number(m.value),
                    m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.failed == 0 && self.attempted > 0,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }

    /// The deterministic counts as one JSON object.
    #[must_use]
    pub fn counts_json(&self) -> String {
        let fields: Vec<String> = self
            .counts
            .iter()
            .map(|(k, v)| format!("\"{k}\": {v}"))
            .collect();
        format!("{{{}}}", fields.join(", "))
    }
}

/// JSON has no NaN or infinity; such a value is a benchmark bug, so it
/// prints as `null`, which no reader takes for a measurement.
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

/// Runs one workload.
///
/// # Errors
///
/// Returns a message when set-up fails (the run then prints no result).
pub fn run(cfg: &Config) -> Result<Outcome, String> {
    match cfg.workload {
        Workload::WhynotMem => mem::run(cfg),
        Workload::WhynotPaged => paged::run(cfg),
        Workload::ServeWrites => serve::run(cfg),
    }
}

// ---------------------------------------------------------------------------
// Host speed
// ---------------------------------------------------------------------------

/// A fixed reference kernel, timed between operations, that scales
/// their times to the reference host's full speed.
///
/// The reference host, a 2-vCPU virtual machine on a shared server,
/// runs the same code at up to two-thirds of its full speed for seconds
/// to minutes at a time, as other tenants load the physical cores; a
/// whole run can fall into such a stretch. The kernel shares no code
/// with the program: it sorts a fixed array of pseudo-random `u64`s
/// (256 KiB, so it stays in a core's own cache), branchy work that
/// slows with the host by about as much as the engine does. An
/// operation's time is multiplied by [`HostSpeed::REFERENCE_MS`] over
/// the median kernel time of the probes around it, so a slower program
/// still reads slower and a slower host does not.
pub struct HostSpeed {
    keys: Vec<u64>,
    buf: Vec<u64>,
    probes: Vec<f64>,
}

impl HostSpeed {
    /// The kernel's time at full speed on the reference host, in ms.
    pub const REFERENCE_MS: f64 = 0.6;
    const KEYS: usize = 32_768;
    /// Probes on either side of an operation's own that its scale
    /// takes the median over.
    const REACH: usize = 2;

    /// The kernel's fixed input.
    #[must_use]
    pub fn new() -> Self {
        let mut x = 0x9E37_79B9_7F4A_7C15_u64;
        let keys = (0..Self::KEYS)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                x
            })
            .collect();
        HostSpeed {
            keys,
            buf: Vec::with_capacity(Self::KEYS),
            probes: Vec::new(),
        }
    }

    /// Runs the kernel twice, records the second (warm) run's CPU time
    /// and returns the probe's index.
    pub fn probe(&mut self) -> usize {
        let mut took = 0.0;
        for _ in 0..2 {
            let clock = CpuTimer::thread();
            self.buf.clear();
            self.buf.extend_from_slice(&self.keys);
            self.buf.sort_unstable();
            std::hint::black_box(&self.buf);
            took = clock.elapsed().as_secs_f64() * 1e3;
        }
        self.probes.push(took);
        self.probes.len() - 1
    }

    /// The factor that scales a time taken after probe `k` to full
    /// speed; 1 when no probe was taken.
    #[must_use]
    pub fn scale(&self, k: usize) -> f64 {
        if self.probes.is_empty() {
            return 1.0;
        }
        let lo = k.saturating_sub(Self::REACH).min(self.probes.len() - 1);
        let hi = (k + Self::REACH + 1).min(self.probes.len());
        Self::REFERENCE_MS / median(&self.probes[lo..hi])
    }

    /// Prints the kernel's times over the run on standard error.
    pub fn report(&self) {
        eprintln!(
            "host speed: reference kernel median {:.4} ms, range {:.4}-{:.4} ms over {} probes",
            median(&self.probes),
            self.probes.iter().copied().fold(f64::INFINITY, f64::min),
            self.probes.iter().copied().fold(0.0, f64::max),
            self.probes.len()
        );
    }
}

impl Default for HostSpeed {
    fn default() -> Self {
        HostSpeed::new()
    }
}

/// The clock that times an operation or a set-up.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Clock {
    /// The calling thread's CPU time: work done in-process on one thread.
    Thread,
    /// Wall-clock time: work shared with other threads or waiting on them.
    Wall,
}

/// Set-up repetitions, each timed between two host probes.
#[derive(Debug, Clone, Default)]
pub struct SetupTimes {
    raw: Vec<(f64, usize)>,
}

impl SetupTimes {
    /// Times one set-up repetition.
    ///
    /// # Errors
    ///
    /// Passes on the set-up's error.
    pub fn time<T>(
        &mut self,
        host: &mut HostSpeed,
        clock: Clock,
        set_up: impl FnOnce() -> Result<T, String>,
    ) -> Result<T, String> {
        let k = host.probe();
        let (cpu, wall) = (CpuTimer::thread(), std::time::Instant::now());
        let built = set_up()?;
        let took = match clock {
            Clock::Thread => cpu.elapsed(),
            Clock::Wall => wall.elapsed(),
        };
        self.raw.push((took.as_secs_f64(), k));
        host.probe();
        Ok(built)
    }

    /// The repetitions' times at full speed, in seconds.
    #[must_use]
    pub fn at_full_speed(&self, host: &HostSpeed) -> Vec<f64> {
        // Probe `k` precedes the set-up and `k + 1` follows it.
        self.raw
            .iter()
            .map(|&(t, k)| t * host.scale(k + 1))
            .collect()
    }
}

// ---------------------------------------------------------------------------
// End-to-end metrics
// ---------------------------------------------------------------------------

/// The operation kinds every workload times.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    /// Reverse skyline of `q`.
    Rsl,
    /// Aspect 1: the culprits keeping a customer out.
    Explain,
    /// Algorithm 1.
    Mwp,
    /// Algorithm 2.
    Mqp,
    /// Algorithm 3 (exact safe region, reverse skyline included).
    Sr,
    /// Algorithm 4 end to end (reverse skyline, safe region, MWQ).
    Mwq,
    /// Insert or delete (`serve-writes` only).
    Write,
}

impl Op {
    /// The six question operations, in the order a question runs them.
    pub const QUESTION: [Op; 6] = [Op::Rsl, Op::Explain, Op::Mwp, Op::Mqp, Op::Sr, Op::Mwq];

    fn index(self) -> usize {
        self as usize
    }
}

/// Per-operation latencies of one measured phase, in milliseconds,
/// each with the [`HostSpeed`] probe taken just before it.
#[derive(Debug, Clone, Default)]
pub struct Latencies {
    by_op: [Vec<f64>; 7],
    probe_of: [Vec<usize>; 7],
    probe: usize,
}

impl Latencies {
    /// Marks the operations recorded from now on as timed after host
    /// probe `probe`.
    pub fn after_probe(&mut self, probe: usize) {
        self.probe = probe;
    }

    /// Records one operation's latency.
    pub fn push(&mut self, op: Op, took: Duration) {
        self.by_op[op.index()].push(took.as_secs_f64() * 1e3);
        self.probe_of[op.index()].push(self.probe);
    }

    /// These latencies at the reference host's full speed (see
    /// [`HostSpeed`]).
    #[must_use]
    pub fn at_full_speed(mut self, host: &HostSpeed) -> Latencies {
        for (times, probes) in self.by_op.iter_mut().zip(&self.probe_of) {
            for (t, &k) in times.iter_mut().zip(probes) {
                *t *= host.scale(k);
            }
        }
        self
    }

    /// The latencies of one kind.
    #[must_use]
    pub fn of(&self, op: Op) -> &[f64] {
        &self.by_op[op.index()]
    }

    /// Operations recorded.
    #[must_use]
    pub fn count(&self) -> usize {
        self.by_op.iter().map(Vec::len).sum()
    }

    /// Summed latency, in milliseconds.
    #[must_use]
    pub fn total_ms(&self) -> f64 {
        self.by_op.iter().flatten().sum()
    }

    /// Operations per second of summed operation time: the closed-loop
    /// client issues the next operation as soon as one returns, so this
    /// is the rate it sees (the benchmark's own bookkeeping between
    /// operations is excluded).
    #[must_use]
    pub fn ops_s(&self) -> f64 {
        self.count() as f64 / (self.total_ms() / 1e3)
    }

    /// Keeps, per operation, the smaller of this pass's time and
    /// `other`'s: the same operations in the same order. A kind whose
    /// count differs (an operation failed in one pass, and is counted
    /// as failed there) keeps this pass's times.
    pub fn keep_min(&mut self, other: &Latencies) {
        for (mine, theirs) in self.by_op.iter_mut().zip(&other.by_op) {
            if mine.len() != theirs.len() {
                continue;
            }
            for (m, t) in mine.iter_mut().zip(theirs) {
                *m = m.min(*t);
            }
        }
    }

    fn all(&self) -> Vec<f64> {
        self.by_op.iter().flatten().copied().collect()
    }
}

/// The nearest-rank `p`-quantile (`0 < p <= 1`) of `values`; 0 for none.
#[must_use]
pub fn quantile(values: &[f64], p: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = (p * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// The median of `values`; 0 for none.
#[must_use]
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// Resets the peak-resident-set mark to the current resident set, so
/// memory the benchmark used to generate its inputs (and has freed)
/// stays out of `peak_rss_mb`.
pub fn reset_peak_rss() {
    // Best effort: without it the mark only stays higher.
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// Peak resident set of this process so far (Linux `VmHWM`), in MB.
#[must_use]
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|v| v.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The end-to-end metrics every workload prints, in `BENCHMARK.json`
/// order. `p90_ms` is the highest percentile with at least ten samples
/// beyond it at the calibrated run lengths. There is no overall median:
/// the six kinds' costs form separate clusters and the median of the
/// mix falls between them, moving by a third from seed to seed. The
/// per-kind times are means: each run draws its why-not customers one
/// per window band ([`WhyNotBands`]), and the mean is the statistic
/// that stratification steadies.
#[must_use]
pub fn end_to_end(setup_s: &[f64], lat: &Latencies, peak_rss_mb: f64) -> Vec<Metric> {
    let metric = |name, value, unit| Metric { name, value, unit };
    let mut out = vec![
        metric("setup_s", median(setup_s), "s"),
        metric("ops_s", lat.ops_s(), "1/s"),
        metric("p90_ms", quantile(&lat.all(), 0.9), "ms"),
        metric("peak_rss_mb", peak_rss_mb, "MB"),
    ];
    for (op, name) in Op::QUESTION.into_iter().zip([
        "rsl_ms",
        "explain_ms",
        "mwp_ms",
        "mqp_ms",
        "sr_ms",
        "mwq_ms",
    ]) {
        let times = lat.of(op);
        out.push(metric(
            name,
            times.iter().sum::<f64>() / times.len().max(1) as f64,
            "ms",
        ));
    }
    out
}

// ---------------------------------------------------------------------------
// Per-layer metrics
// ---------------------------------------------------------------------------

/// Every per-layer metric a traced run prints, with its unit, in
/// `BENCHMARK.json` order. A metric whose layer the workload does not
/// exercise prints 0 (for example the storage metrics on `whynot-mem`).
pub const PER_LAYER: [(&str, &str); 31] = [
    ("reverse_skyline.bbrs_ms", "ms"),
    ("reverse_skyline.rsl_size", "count"),
    ("reverse_skyline.window_ms", "ms"),
    ("reverse_skyline.window_size", "count"),
    ("skyline.dsl_ms", "ms"),
    ("skyline.dsl_size", "count"),
    ("core.safe_region_ms", "ms"),
    ("geometry.intersect_ms", "ms"),
    ("geometry.sr_boxes", "count"),
    ("core.mwq_given_sr_ms", "ms"),
    ("core.mwp_ms", "ms"),
    ("core.mqp_ms", "ms"),
    ("geometry.dominance_tests_per_op", "count"),
    ("rtree.node_visits_per_op", "count"),
    ("storage.logical_reads_per_op", "count"),
    ("storage.physical_reads_per_op", "count"),
    ("storage.pool_hit_ratio", "ratio"),
    ("storage.pager_read_us", "us"),
    ("storage.pager_read_share", "ratio"),
    ("cache.hit_ratio", "ratio"),
    ("cache.misses_per_op", "count"),
    ("cache.evictions_per_write", "count"),
    ("cache.full_flushes", "count"),
    ("core.insert_ms", "ms"),
    ("core.delete_ms", "ms"),
    ("server.ping_rtt_us", "us"),
    ("server.encode_us", "us"),
    ("server.decode_us", "us"),
    ("server.response_bytes", "bytes"),
    ("server.overhead_share", "ratio"),
    ("server.write_p50_ms", "ms"),
];

/// Assembles a traced run's metrics: every [`PER_LAYER`] entry (0 when
/// `measured` lacks it) plus `trace.overhead`, the untraced run's
/// `ops_s` over this run's.
#[must_use]
pub fn per_layer(
    measured: &[(&'static str, f64)],
    traced_ops_s: f64,
    untraced_ops_s: Option<f64>,
) -> Vec<Metric> {
    let mut out: Vec<Metric> = PER_LAYER
        .iter()
        .map(|&(name, unit)| Metric {
            name,
            value: measured
                .iter()
                .find(|(n, _)| *n == name)
                .map_or(0.0, |(_, v)| *v),
            unit,
        })
        .collect();
    out.push(Metric {
        name: "trace.overhead",
        value: untraced_ops_s.map_or(0.0, |u| u / traced_ops_s),
        unit: "x",
    });
    out
}

// ---------------------------------------------------------------------------
// Answer digests
// ---------------------------------------------------------------------------

/// FNV-1a over an answer's exact bits: two answers digest equally only
/// if they are bit-identical (up to 64-bit collisions).
#[derive(Debug, Clone, Copy)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    /// Mixes in one word.
    pub fn word(&mut self, w: u64) {
        for byte in w.to_le_bytes() {
            self.0 ^= u64::from(byte);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// Mixes in a byte string (length first).
    pub fn bytes(&mut self, b: &[u8]) {
        self.word(b.len() as u64);
        for &byte in b {
            self.0 ^= u64::from(byte);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// Mixes in a point's coordinates.
    pub fn point(&mut self, p: &Point) {
        self.word(p.dim() as u64);
        for &v in p.coords() {
            self.word(v.to_bits());
        }
    }

    /// Mixes in an id-tagged point list (RSL, culprits, DSL).
    pub fn items(&mut self, items: &[(ItemId, Point)]) {
        self.word(items.len() as u64);
        for (id, p) in items {
            self.word(u64::from(id.0));
            self.point(p);
        }
    }

    /// Mixes in a region's boxes.
    pub fn region(&mut self, r: &Region) {
        self.word(r.len() as u64);
        for b in r.boxes() {
            self.point(b.lo());
            self.point(b.hi());
        }
    }

    /// Mixes in repair candidates (MWP or MQP).
    pub fn candidates(&mut self, cands: &[wnrs_core::Candidate]) {
        self.word(cands.len() as u64);
        for c in cands {
            self.point(&c.point);
            self.word(c.cost.to_bits());
            self.word(u64::from(c.verified));
        }
    }

    /// Mixes in an MWQ verdict.
    pub fn mwq(&mut self, a: &MwqAnswer) {
        self.word(matches!(a.case, wnrs_core::MwqCase::Overlap) as u64);
        self.point(&a.q_star);
        match &a.c_star {
            Some(c) => self.candidates(std::slice::from_ref(c)),
            None => self.word(u64::MAX),
        }
        self.word(a.cost.to_bits());
    }

    /// The digest so far.
    #[must_use]
    pub fn finish(self) -> u64 {
        self.0
    }
}

/// The digest of one value.
pub fn digest_of(f: impl FnOnce(&mut Digest)) -> u64 {
    let mut d = Digest::default();
    f(&mut d);
    d.finish()
}

// ---------------------------------------------------------------------------
// Why-not customers
// ---------------------------------------------------------------------------

/// Exact counts of 2-d points in axis-aligned boxes: a merge-sort tree
/// over the points sorted by their first coordinate, O(log² n) a box.
pub struct BoxCounter {
    xs: Vec<f64>,
    /// Level `k` holds the second coordinates in blocks of `2^k`
    /// consecutive x-ranks, each block sorted.
    levels: Vec<Vec<f64>>,
}

impl BoxCounter {
    /// Indexes `points`.
    ///
    /// # Panics
    ///
    /// Panics unless every point is 2-d (every workload's dataset is).
    #[must_use]
    pub fn new(points: &[Point]) -> Self {
        assert!(
            points.iter().all(|p| p.dim() == 2),
            "BoxCounter indexes 2-d points"
        );
        let mut by_x: Vec<(f64, f64)> = points.iter().map(|p| (p[0], p[1])).collect();
        by_x.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.total_cmp(&b.1)));
        let xs = by_x.iter().map(|p| p.0).collect();
        let mut levels = vec![by_x.iter().map(|p| p.1).collect::<Vec<f64>>()];
        let mut width = 1;
        while width < by_x.len() {
            let prev = &levels[levels.len() - 1];
            let mut next = Vec::with_capacity(prev.len());
            for block in prev.chunks(2 * width) {
                let (left, right) = block.split_at(width.min(block.len()));
                let (mut i, mut j) = (0, 0);
                while i < left.len() || j < right.len() {
                    if j == right.len() || (i < left.len() && left[i] <= right[j]) {
                        next.push(left[i]);
                        i += 1;
                    } else {
                        next.push(right[j]);
                        j += 1;
                    }
                }
            }
            levels.push(next);
            width *= 2;
        }
        BoxCounter { xs, levels }
    }

    /// Points `p` with `lo[k] <= p[k] <= hi[k]` in both dimensions.
    #[must_use]
    pub fn count(&self, lo: [f64; 2], hi: [f64; 2]) -> usize {
        let mut l = self.xs.partition_point(|&x| x < lo[0]);
        let r = self.xs.partition_point(|&x| x <= hi[0]);
        let mut total = 0;
        while l < r {
            let mut k = 0;
            while k + 1 < self.levels.len() && l % (2 << k) == 0 && l + (2 << k) <= r {
                k += 1;
            }
            let block = &self.levels[k][l..l + (1 << k)];
            total += block.partition_point(|&y| y <= hi[1]) - block.partition_point(|&y| y < lo[1]);
            l += 1 << k;
        }
        total
    }
}

/// The non-members of `RSL(q)`, ordered by the size of their culprit
/// window, for stratified choice of why-not customers.
///
/// The paper's why-not customer is a random non-member. Its culprit
/// window (the products between it and `q`, in the box centred on the
/// customer that reaches `q`) sets the cost of `explain`, MWP, MQP and
/// MWQ, over two orders of magnitude; a run's median of those costs
/// then depends on which customers the seed happened to draw. So a run
/// of `Q` questions cuts each query's non-members into `Q` equal bands
/// by window size, and question `i` draws uniformly from band `π(i)`,
/// `π` a seeded random permutation ([`band_order`]). Every non-member
/// stays equally likely, as in the paper, while each run asks about
/// small and large windows in the same proportions.
pub struct WhyNotBands {
    by_window: Vec<ItemId>,
}

impl WhyNotBands {
    /// Orders the non-members of `rsl` among `points` (indexed by
    /// `counter`) by window size for query `q`.
    #[must_use]
    pub fn new(counter: &BoxCounter, points: &[Point], rsl: &[(ItemId, Point)], q: &Point) -> Self {
        let members: std::collections::HashSet<u32> = rsl.iter().map(|(id, _)| id.0).collect();
        let mut keyed: Vec<(usize, u32)> = points
            .iter()
            .enumerate()
            .filter(|(i, _)| !members.contains(&(*i as u32)))
            .map(|(i, c)| {
                let half = [(q[0] - c[0]).abs(), (q[1] - c[1]).abs()];
                let size = counter.count(
                    [c[0] - half[0], c[1] - half[1]],
                    [c[0] + half[0], c[1] + half[1]],
                );
                (size, i as u32)
            })
            .collect();
        keyed.sort_unstable();
        WhyNotBands {
            by_window: keyed.into_iter().map(|(_, i)| ItemId(i)).collect(),
        }
    }

    /// A customer drawn uniformly from band `band` of `bands` equal
    /// bands (band 0 smallest windows); `None` when there are fewer
    /// non-members than bands.
    pub fn pick<R: rand::Rng + ?Sized>(
        &self,
        band: usize,
        bands: usize,
        rng: &mut R,
    ) -> Option<ItemId> {
        let n = self.by_window.len();
        let (lo, hi) = (band * n / bands, (band + 1) * n / bands);
        (lo < hi).then(|| self.by_window[rng.gen_range(lo..hi)])
    }
}

/// A seeded random permutation of `0..count`: question `i` of a run
/// draws its customer from band `order[i]` of `count`.
pub fn band_order<R: rand::Rng + ?Sized>(count: usize, rng: &mut R) -> Vec<usize> {
    let mut order: Vec<usize> = (0..count).collect();
    for i in (1..count).rev() {
        order.swap(i, rng.gen_range(0..=i));
    }
    order
}

// ---------------------------------------------------------------------------
// Answer checks shared by the two engine workloads
// ---------------------------------------------------------------------------

/// The answers of one question, kept for the checks that run after the
/// measured phase (so they allocate nothing while it runs).
#[derive(Debug, Clone)]
pub struct Answers {
    /// `RSL(q)`.
    pub rsl: Vec<(ItemId, Point)>,
    /// The culprit count of `explain`.
    pub culprits: usize,
    /// Algorithm 1's answer.
    pub mwp: MwpAnswer,
    /// Algorithm 2's answer.
    pub mqp: MqpAnswer,
    /// The safe region returned by the `sr` operation.
    pub sr: Region,
    /// Algorithm 4's answer.
    pub mwq: MwqAnswer,
    /// Digest of all six answers.
    pub digest: u64,
}

impl Answers {
    /// Keeps a question's six answers (`explain` through its culprit
    /// count) and digests them all.
    #[must_use]
    pub fn new(
        rsl: Vec<(ItemId, Point)>,
        why: &wnrs_core::Explanation,
        mwp: MwpAnswer,
        mqp: MqpAnswer,
        sr: Region,
        (region, mwq): (Region, MwqAnswer),
    ) -> Answers {
        let digest = digest_of(|d| {
            d.items(&rsl);
            d.items(&why.culprits);
            d.candidates(&mwp.candidates);
            d.candidates(&mqp.candidates);
            d.region(&sr);
            d.region(&region);
            d.mwq(&mwq);
        });
        Answers {
            rsl,
            culprits: why.culprits.len(),
            mwp,
            mqp,
            sr,
            mwq,
            digest,
        }
    }
}

/// Operations whose answers differ between two runs of the same
/// questions (six per differing question).
#[must_use]
pub fn repeat_mismatches(first: &[Answers], again: &[Answers]) -> u64 {
    first
        .iter()
        .zip(again)
        .filter(|(a, b)| a.digest != b.digest)
        .count() as u64
        * Op::QUESTION.len() as u64
}

/// The checks every question's answers must pass, against a membership
/// oracle `member(c, exclude_self, at)` deciding `c ∈ RSL(at)`. Returns
/// how many of the six operations failed.
pub fn check_question(
    c: &Point,
    q: &Point,
    ans: &Answers,
    expected_rsl: Option<&[u32]>,
    is_member: bool,
    eps: f64,
    member: &mut impl FnMut(&Point, &Point) -> bool,
) -> u64 {
    let mut failed = 0;
    // RSL: matches the workload generator's own reverse skyline.
    if let Some(ids) = expected_rsl {
        let got: Vec<u32> = ans.rsl.iter().map(|(id, _)| id.0).collect();
        failed += u64::from(got != ids);
    }
    // Explain: culprits exist exactly when the customer is missing.
    failed += u64::from((ans.culprits == 0) != is_member);
    // MWP / MQP: some candidate is verified, and every candidate
    // flagged verified is limit-valid.
    let mwp_ok = ans.mwp.candidates.iter().any(|k| k.verified)
        && ans
            .mwp
            .candidates
            .iter()
            .filter(|k| k.verified)
            .all(|k| wnrs_core::verify::limit_verified_whynot_by(c, &k.point, q, eps, member));
    failed += u64::from(!mwp_ok);
    let mqp_ok = ans.mqp.candidates.iter().any(|k| k.verified)
        && ans
            .mqp
            .candidates
            .iter()
            .filter(|k| k.verified)
            .all(|k| wnrs_core::verify::limit_verified_query_by(c, q, &k.point, eps, member));
    failed += u64::from(!mqp_ok);
    // Safe region: contains q.
    failed += u64::from(!ans.sr.contains(q));
    // MWQ: the refined query stays in the safe region, and the answer
    // never costs more than plain MWP.
    let mwq_ok = ans.sr.contains(&ans.mwq.q_star) && ans.mwq.cost <= ans.mwp.best_cost() + 1e-9;
    failed += u64::from(!mwq_ok);
    failed
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    #[test]
    fn box_counter_matches_a_scan() {
        let mut rng = StdRng::seed_from_u64(5);
        let points: Vec<Point> = (0..1_000)
            .map(|_| Point::xy(rng.gen_range(0..50) as f64, rng.gen_range(0..50) as f64))
            .collect();
        let counter = BoxCounter::new(&points);
        for _ in 0..200 {
            let (x0, y0) = (rng.gen_range(-5..55) as f64, rng.gen_range(-5..55) as f64);
            let (w, h) = (rng.gen_range(0..30) as f64, rng.gen_range(0..30) as f64);
            let (lo, hi) = ([x0, y0], [x0 + w, y0 + h]);
            let scan = points
                .iter()
                .filter(|p| (0..2).all(|k| lo[k] <= p[k] && p[k] <= hi[k]))
                .count();
            assert_eq!(counter.count(lo, hi), scan);
        }
    }
}
