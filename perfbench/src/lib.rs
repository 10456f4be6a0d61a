//! The repository benchmark: four workloads over the workspace's
//! public APIs, with end-to-end metrics from an untraced run and a
//! per-layer breakdown from a separate traced run. See `README.md` in
//! this directory for why each workload exists and how to read a
//! traced run.

pub mod infer;
pub mod report;
pub mod rng;
pub mod runtime;
pub mod selfcheck;
pub mod serve;
pub mod stats;
pub mod trace;

use std::panic::{
    catch_unwind,
    AssertUnwindSafe, //
};
use std::path::PathBuf;
use std::time::{
    Duration,
    Instant, //
};

use report::Report;

/// The benchmark's workloads, in the order `BENCHMARK.json` lists them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Regenerate the five paper-platform descriptions.
    Infer,
    /// Regenerate the NoC-ladder descriptions.
    InferMesh,
    /// An in-process daemon under two closed-loop client connections.
    Serve,
    /// A mixed sort / MapReduce / placement / alloc-plan stream on one
    /// persistent executor per paper platform.
    Runtime,
}

impl Workload {
    /// Every workload.
    pub const ALL: [Workload; 4] = [
        Workload::Infer,
        Workload::InferMesh,
        Workload::Serve,
        Workload::Runtime,
    ];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Infer => "infer",
            Workload::InferMesh => "infer-mesh",
            Workload::Serve => "serve",
            Workload::Runtime => "runtime",
        }
    }

    /// Parses a command-line name.
    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Input size: the full benchmark, or a small one for smoke tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    /// The inputs `BENCHMARK.json` is measured on.
    Full,
    /// One small machine per workload, small sorts: seconds, not
    /// minutes, for the test suite.
    Smoke,
}

/// One run's settings.
#[derive(Debug, Clone, Copy)]
pub struct Cfg {
    /// Input seed.
    pub seed: u64,
    /// Length of the measured window.
    pub window: Duration,
    /// Input size.
    pub size: Size,
}

/// What one measured window produced.
#[derive(Debug, Clone, Default)]
pub struct Window {
    /// Ops attempted.
    pub attempted: u64,
    /// Ops with wrong output, an error or a panic.
    pub failed: u64,
    /// Window length, seconds.
    pub elapsed_s: f64,
    /// Latency of every verified op, milliseconds.
    pub latencies_ms: Vec<f64>,
}

impl Window {
    /// Verified ops per second.
    pub fn ops_s(&self) -> f64 {
        (self.attempted - self.failed) as f64 / self.elapsed_s
    }

    /// Median latency of verified ops, ms (0 when there are none).
    pub fn p50_ms(&self) -> f64 {
        stats::percentile(&stats::sorted(self.latencies_ms.clone()), 0.5).unwrap_or(0.0)
    }

    /// Counts one op: `Some(latency)` if its output checked out.
    pub fn record(&mut self, verified: Option<f64>) {
        self.attempted += 1;
        match verified {
            Some(ms) => self.latencies_ms.push(ms),
            None => self.failed += 1,
        }
    }
}

/// Runs `f`, turning a panic into `None`.
pub fn guarded<R>(f: impl FnOnce() -> R) -> Option<R> {
    catch_unwind(AssertUnwindSafe(f)).ok()
}

/// Milliseconds since `t`.
pub fn ms_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

/// The committed description library.
pub fn descs_dir() -> PathBuf {
    PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/../descs"))
}

/// Where traced runs write their spans.
pub fn traces_dir() -> PathBuf {
    PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/traces"))
}

/// Reads `descs/<name>.mct.json`.
pub fn read_desc(name: &str) -> Result<String, String> {
    let path = descs_dir().join(format!("{name}.mct.json"));
    std::fs::read_to_string(&path).map_err(|e| format!("reading {}: {e}", path.display()))
}

/// Worker threads and client connections the load may use: the host's
/// parallelism.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |p| p.get())
}

/// This process's peak resident set, MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Set-up repetitions: at least [`MIN_SETUPS`], more while the total
/// stays under [`SETUP_BUDGET`], so a set-up of a few milliseconds is
/// sampled across seconds of host time and still gives a steady median.
const MIN_SETUPS: usize = 3;
const MAX_SETUPS: usize = 500;
const SETUP_BUDGET: Duration = Duration::from_secs(2);

/// Sets up several times and keeps the last state; returns it with the
/// median set-up time in seconds.
pub fn setup_repeated<T>(mut setup: impl FnMut() -> Result<T, String>) -> Result<(T, f64), String> {
    let started = Instant::now();
    let mut times = Vec::new();
    loop {
        let t = Instant::now();
        let state = setup()?;
        times.push(t.elapsed().as_secs_f64());
        let enough = times.len() >= MAX_SETUPS
            || (times.len() >= MIN_SETUPS && started.elapsed() >= SETUP_BUDGET);
        if enough {
            return Ok((state, stats::median(&times)));
        }
        drop(state);
    }
}

/// The end-to-end metrics of an untraced window.
pub fn end_to_end(setup_s: f64, w: &Window) -> Report {
    let mut r = Report {
        attempted: w.attempted,
        failed: w.failed,
        ..Report::default()
    };
    r.push("setup_s", setup_s, "s");
    r.push("p50_ms", w.p50_ms(), "ms");
    r.push("peak_rss_mb", peak_rss_mb(), "MB");
    let lat = stats::sorted(w.latencies_ms.clone());
    // Throughput is printed but not gated: on a VM whose CPUs are
    // stolen part of the time it is not steady (see README.md).
    r.notes.push(format!(
        "ops_s = {} (1/s): {} verified ops of {} attempted in {:.3} s; {} latency samples",
        w.ops_s(),
        w.attempted - w.failed,
        w.attempted,
        w.elapsed_s,
        lat.len()
    ));
    match stats::tail(&lat) {
        Some((p, v)) => r.notes.push(format!(
            "p{}_ms = {v} (n = {}, {} samples beyond)",
            p * 100.0,
            lat.len(),
            stats::samples_beyond(lat.len(), p)
        )),
        None => r.notes.push(format!(
            "no tail percentile: {} samples leave fewer than {} beyond p90",
            lat.len(),
            stats::MIN_BEYOND
        )),
    }
    r
}

/// The traced window of one workload: its per-layer metrics and spans.
pub struct Traced {
    /// The window's ops, as in an untraced window.
    pub window: Window,
    /// The per-layer metrics this workload measures.
    pub metrics: Vec<report::Metric>,
    /// Recorded spans, one list per tracing thread.
    pub spans: Vec<Vec<trace::Span>>,
}

/// A workload after set-up, ready to measure.
pub trait Measure {
    /// Runs the untraced window.
    fn window(&mut self, window: Duration) -> Window;
    /// Runs the traced window and computes this workload's per-layer
    /// metrics; span times count from `origin`.
    fn traced(&mut self, window: Duration, origin: Instant) -> Traced;
}

/// Sets one workload up.
pub fn setup(workload: Workload, cfg: &Cfg) -> Result<Box<dyn Measure>, String> {
    Ok(match workload {
        Workload::Infer | Workload::InferMesh => {
            Box::new(infer::Bench::setup(infer::Set::of(workload), cfg)?)
        }
        Workload::Serve => Box::new(serve::Bench::setup(cfg)?),
        Workload::Runtime => Box::new(runtime::Bench::setup(cfg)?),
    })
}

/// Runs one workload untraced: repeated set-up, then the measured
/// window; returns the end-to-end report.
pub fn run_untraced(workload: Workload, cfg: &Cfg) -> Result<Report, String> {
    let (mut bench, setup_s) = setup_repeated(|| setup(workload, cfg))?;
    Ok(end_to_end(setup_s, &bench.window(cfg.window)))
}

/// Runs the traced replica of every workload, so one traced run reports
/// every per-layer metric; the named workload also gets an untraced
/// window of the same length, and the difference is its tracing
/// overhead. Spans go to `traces/<workload>-seed<seed>.tsv`.
pub fn run_traced(workload: Workload, cfg: &Cfg) -> Result<Report, String> {
    let origin = Instant::now();
    let mut r = Report::default();
    let mut threads = Vec::new();
    for w in Workload::ALL {
        let own = w == workload;
        let share = Cfg {
            window: if own { cfg.window / 2 } else { cfg.window / 4 },
            ..*cfg
        };
        let mut bench = setup(w, &share)?;
        let untraced = own.then(|| bench.window(share.window));
        let t = bench.traced(share.window, origin);
        r.attempted += t.window.attempted;
        r.failed += t.window.failed;
        r.metrics.extend(t.metrics);
        threads.extend(t.spans);
        if let Some(u) = untraced {
            r.attempted += u.attempted;
            r.failed += u.failed;
            let pct = |traced: f64, plain: f64| (traced - plain) / plain * 100.0;
            r.push(
                "trace.overhead.ops_s_pct",
                pct(t.window.ops_s(), u.ops_s()),
                "%",
            );
            r.push(
                "trace.overhead.p50_ms_pct",
                pct(t.window.p50_ms(), u.p50_ms()),
                "%",
            );
            r.notes.push(format!(
                "{}: untraced {:.4} ops/s p50 {:.6} ms; traced {:.4} ops/s p50 {:.6} ms",
                w.name(),
                u.ops_s(),
                u.p50_ms(),
                t.window.ops_s(),
                t.window.p50_ms()
            ));
        }
    }
    let path = traces_dir().join(format!("{}-seed{}.tsv", workload.name(), cfg.seed));
    let refs: Vec<&[trace::Span]> = threads.iter().map(Vec::as_slice).collect();
    trace::write_tsv(&path, &refs).map_err(|e| format!("writing {}: {e}", path.display()))?;
    r.notes.push(format!(
        "{} spans written to {}",
        threads.iter().map(Vec::len).sum::<usize>(),
        path.display()
    ));
    Ok(r)
}
