//! `runtime`: one load thread feeds a seeded mixed stream through one
//! persistent `Executor` per paper platform: 64k-element sorts with the
//! auto-detected merge kernel, WordCount MapReduce jobs, placements and
//! alloc plans. Outputs are checked against references made in set-up.

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::{
    Duration,
    Instant, //
};

use mctop::registry::Registry;
use mctop::TopoView;
use mctop_alloc::{
    AllocCfg,
    AllocPlan,
    AllocPolicy, //
};
use mctop_mapred::workloads::{
    gen_text,
    WordCount, //
};
use mctop_mapred::EngineCfg;
use mctop_place::{
    PlaceOpts,
    Placement,
    Policy, //
};
use mctop_runtime::{
    ExecCfg,
    Executor,
    Metrics, //
};
use mctop_sort::simd;
use mctop_sort::SortScratch;

use crate::report::Metric;
use crate::rng::Rng;
use crate::stats;
use crate::trace::{
    self,
    Tracer, //
};
use crate::{
    guarded,
    ms_since,
    Cfg,
    Measure,
    Size,
    Traced,
    Window, //
};

/// Pre-generated sort datasets.
const SORT_POOL: usize = 4;
/// Pre-generated MapReduce corpora.
const TEXT_POOL: usize = 2;
/// Words per line and vocabulary of the WordCount corpora.
const WORDS_PER_LINE: usize = 12;
const VOCAB: usize = 500;
/// Upper bound on a placement or alloc-plan request's thread count.
const MAX_THREADS: usize = 16;
/// Pre-generated placement and alloc-plan requests per platform.
const REQUEST_POOL: usize = 32;
/// Empty scopes timed after each traced request.
const DISPATCH_PROBES: usize = 2;
/// Elements per side of the merge-kernel measurement.
const MERGE_ELEMS: usize = 1 << 20;

/// The request kinds of the stream, with their weights. Sorts are the
/// slowest class and carry most of the weight, so the median and the
/// tail both fall inside the sort class, away from any class boundary.
const KINDS: [(Kind, u32); 4] = [
    (Kind::Sort, 70),
    (Kind::MapRed, 10),
    (Kind::Place, 10),
    (Kind::Alloc, 10),
];

const PLACE_POLICIES: [Policy; 4] = [
    Policy::RrCore,
    Policy::ConHwc,
    Policy::BalanceCore,
    Policy::ConCoreHwc,
];
const ALLOC_POLICIES: [&str; 3] = ["local", "interleave", "bw"];

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    Sort,
    MapRed,
    Place,
    Alloc,
}

/// Sizes per input scale: (machines, sort elements, WordCount lines).
fn sizes(size: Size) -> (&'static [&'static str], usize, usize) {
    match size {
        Size::Full => (
            &["ivy", "opteron", "haswell", "westmere", "sparc"],
            1 << 16,
            1_000,
        ),
        Size::Smoke => (&["ivy"], 1 << 12, 200),
    }
}

/// A placement or alloc-plan request with the daemon's render of it.
struct Resolve<P> {
    policy: P,
    threads: usize,
    expected: String,
}

/// One paper platform: its view, its armed executor, sort scratch, and
/// its placement and alloc-plan requests.
struct Platform {
    view: Arc<TopoView>,
    exec: Executor,
    scratch: SortScratch,
    places: Vec<Resolve<Policy>>,
    allocs: Vec<Resolve<AllocPolicy>>,
}

/// Set-up state.
pub struct Bench {
    platforms: Vec<Platform>,
    /// Sort inputs, their `sort_unstable` references, and their two
    /// halves sorted (inputs of the traced merge replica).
    sorts: Vec<Vec<u32>>,
    sorted: Vec<Vec<u32>>,
    halves: Vec<(Vec<u32>, Vec<u32>)>,
    /// WordCount corpora and their sequential counts.
    texts: Vec<Vec<Vec<u32>>>,
    counts: Vec<Vec<(u32, u32)>>,
    metrics: Arc<Metrics>,
    rng: Rng,
    buf: Vec<u32>,
}

/// A sequential word count: the MapReduce reference.
fn word_count(lines: &[Vec<u32>]) -> Vec<(u32, u32)> {
    let mut counts: BTreeMap<u32, u32> = BTreeMap::new();
    for &w in lines.iter().flatten() {
        *counts.entry(w).or_default() += 1;
    }
    counts.into_iter().collect()
}

/// Draws placement and alloc-plan requests for `view`, each with its
/// reference text from `mctopd::eval`.
fn resolve_pools(
    rng: &mut Rng,
    view: &TopoView,
) -> (Vec<Resolve<Policy>>, Vec<Resolve<AllocPolicy>>) {
    let mut threads = || 1 + rng.below(MAX_THREADS.min(view.num_cores()));
    let mut places = Vec::new();
    let mut allocs = Vec::new();
    for i in 0..REQUEST_POOL {
        let policy = PLACE_POLICIES[i % PLACE_POLICIES.len()];
        let n = threads();
        if let Ok(expected) = mctopd::eval::placement_text(view, policy.name(), n) {
            places.push(Resolve {
                policy,
                threads: n,
                expected,
            });
        }
        let name = ALLOC_POLICIES[i % ALLOC_POLICIES.len()];
        let n = threads();
        if let (Ok(policy), Ok(expected)) =
            (name.parse(), mctopd::eval::alloc_plan_text(view, name, n))
        {
            allocs.push(Resolve {
                policy,
                threads: n,
                expected,
            });
        }
    }
    (places, allocs)
}

/// Runs `f` inside a span when tracing.
fn span<R>(tr: &mut Option<&mut Tracer>, name: &'static str, op: u64, f: impl FnOnce() -> R) -> R {
    match tr {
        Some(t) => t.time(name, op, f).0,
        None => f(),
    }
}

impl Bench {
    /// Loads the platforms, arms one executor per platform with `nproc`
    /// workers, and generates the inputs and their references.
    pub fn setup(cfg: &Cfg) -> Result<Bench, String> {
        let (names, elems, lines) = sizes(cfg.size);
        let registry = Registry::with_dir(crate::descs_dir());
        let metrics = Metrics::handle();
        let mut rng = Rng::new(cfg.seed, 5);
        let mut platforms = Vec::new();
        for name in names {
            let view = registry
                .view(name)
                .map_err(|e| format!("loading {name}: {e}"))?;
            let workers = crate::nproc().min(view.num_hwcs());
            let placement =
                Placement::with_view(&view, Policy::RrCore, PlaceOpts::threads(workers))
                    .map_err(|e| format!("placing {name}: {e}"))?;
            let cfg = ExecCfg {
                workers: None,
                os_pin: false,
            };
            let exec = Executor::with_metrics(Some(&view), &placement, cfg, Arc::clone(&metrics));
            // Arm: one task per worker, so every worker has run.
            exec.run(|_| ());
            let (places, allocs) = resolve_pools(&mut rng, &view);
            platforms.push(Platform {
                view,
                exec,
                scratch: SortScratch::new(),
                places,
                allocs,
            });
        }

        let sorts: Vec<Vec<u32>> = (0..SORT_POOL)
            .map(|_| (0..elems).map(|_| rng.next_u64() as u32).collect())
            .collect();
        let sorted = sorts
            .iter()
            .map(|v| {
                let mut s = v.clone();
                s.sort_unstable();
                s
            })
            .collect();
        let halves = sorts
            .iter()
            .map(|v| {
                let (mut a, mut b) = (v[..v.len() / 2].to_vec(), v[v.len() / 2..].to_vec());
                a.sort_unstable();
                b.sort_unstable();
                (a, b)
            })
            .collect();
        let texts: Vec<Vec<Vec<u32>>> = (0..TEXT_POOL)
            .map(|_| gen_text(lines, WORDS_PER_LINE, VOCAB, rng.next_u64()))
            .collect();
        let counts = texts.iter().map(|t| word_count(t)).collect();
        Ok(Bench {
            platforms,
            sorts,
            sorted,
            halves,
            texts,
            counts,
            metrics,
            rng: Rng::new(cfg.seed, 6),
            buf: Vec::with_capacity(elems),
        })
    }

    /// Draws and runs one request. Returns its kind, the input it used
    /// and its latency if its output checked out. With a tracer, the
    /// request runs under a `runtime.op` span with a child span around
    /// the library call.
    fn request(&mut self, op: u64, mut tr: Option<&mut Tracer>) -> (Kind, usize, Option<f64>) {
        let weights: Vec<u32> = KINDS.iter().map(|k| k.1).collect();
        let p = self.rng.below(self.platforms.len());
        let plat = &mut self.platforms[p];
        let kind = KINDS[self.rng.weighted(&weights)].0;
        let root = tr.as_deref_mut().map(|t| t.begin("runtime.op", op));
        let view = &plat.view;
        let (idx, t, ok) = match kind {
            Kind::Sort => {
                let idx = self.rng.below(self.sorts.len());
                let dest = self.rng.below(view.num_sockets());
                self.buf.clear();
                self.buf.extend_from_slice(&self.sorts[idx]);
                let (buf, scratch) = (&mut self.buf, &mut plat.scratch);
                let t = Instant::now();
                let done = guarded(|| {
                    span(&mut tr, "sort.request", op, || {
                        mctop_sort::mctop_sort_kernel_on(
                            &plat.exec,
                            buf,
                            view,
                            dest,
                            scratch,
                            simd::auto(),
                        )
                    })
                });
                (idx, t, done.is_some() && self.buf == self.sorted[idx])
            }
            Kind::MapRed => {
                let idx = self.rng.below(self.texts.len());
                let t = Instant::now();
                let out = guarded(|| {
                    span(&mut tr, "mapred.job", op, || {
                        mctop_mapred::run_job_on(
                            &plat.exec,
                            &WordCount,
                            &self.texts[idx],
                            &EngineCfg::default(),
                        )
                    })
                });
                (idx, t, out.as_ref() == Some(&self.counts[idx]))
            }
            Kind::Place => {
                let idx = self.rng.below(plat.places.len());
                let r = &plat.places[idx];
                let t = Instant::now();
                let text = guarded(|| {
                    span(&mut tr, "place.resolve", op, || {
                        Placement::with_view(view, r.policy, PlaceOpts::threads(r.threads))
                    })
                    .map(|p| p.print())
                });
                (idx, t, matches!(text, Some(Ok(text)) if text == r.expected))
            }
            Kind::Alloc => {
                let idx = self.rng.below(plat.allocs.len());
                let r = &plat.allocs[idx];
                let t = Instant::now();
                let text = guarded(|| {
                    let place =
                        Placement::with_view(view, Policy::RrCore, PlaceOpts::threads(r.threads))
                            .ok()?;
                    let plan = span(&mut tr, "alloc.resolve", op, || {
                        AllocPlan::resolve(view, &place, &r.policy, &AllocCfg::default())
                    });
                    plan.ok().map(|p| p.render())
                });
                (idx, t, text.flatten().as_ref() == Some(&r.expected))
            }
        };
        let ms = ms_since(t);
        if let (Some(tr), Some(root)) = (tr, root) {
            tr.end(root);
        }
        (kind, idx, ok.then_some(ms))
    }

    /// Runs requests until `window` has passed.
    fn stream(&mut self, window: Duration, mut tr: Option<&mut Tracer>) -> (Window, Vec<f64>) {
        let mut w = Window::default();
        let mut dispatch_us = Vec::new();
        let start = Instant::now();
        let mut op = 0u64;
        while start.elapsed() < window {
            op += 1;
            let (kind, idx, verified) = self.request(op, tr.as_deref_mut());
            w.record(verified);
            if let Some(tr) = tr.as_deref_mut() {
                tr.close_all();
                if kind == Kind::Sort {
                    self.sort_replicas(tr, op, idx);
                }
                let plat = &self.platforms[self.rng.below(self.platforms.len())];
                for _ in 0..DISPATCH_PROBES {
                    let (_, ns) = tr.time("exec.dispatch", op, || {
                        plat.exec.scope(|s| {
                            for worker in 0..plat.exec.len() {
                                s.spawn_on(worker, || {});
                            }
                        })
                    });
                    dispatch_us.push(ns as f64 / 1e3);
                }
            }
        }
        w.elapsed_s = start.elapsed().as_secs_f64();
        (w, dispatch_us)
    }

    /// The phases of one sort, replayed alone: `seq::quicksort` on one
    /// worker's chunk, and the merge kernel on the two sorted halves.
    fn sort_replicas(&mut self, tr: &mut Tracer, op: u64, idx: usize) {
        let data = &self.sorts[idx];
        let workers = self.platforms[0].exec.len().max(1);
        self.buf.clear();
        self.buf
            .extend_from_slice(&data[..data.len().div_ceil(workers)]);
        tr.time("sort.chunk", op, || {
            mctop_sort::seq::quicksort(&mut self.buf)
        });
        let (a, b) = &self.halves[idx];
        self.buf.resize(a.len() + b.len(), 0);
        tr.time("sort.merge", op, || {
            (simd::auto().merge)(a, b, &mut self.buf)
        });
        std::hint::black_box(&self.buf);
    }
}

impl Measure for Bench {
    fn window(&mut self, window: Duration) -> Window {
        self.stream(window, None).0
    }

    fn traced(&mut self, window: Duration, origin: Instant) -> Traced {
        let mut tr = Tracer::new(origin);
        let before = self.metrics.snapshot();
        let (w, dispatch_us) = self.stream(window, Some(&mut tr));
        let d = self.metrics.snapshot().delta(&before).executor;
        let totals = trace::totals(tr.spans());
        let mean = |name: &str, scale: f64| {
            totals
                .get(name)
                .map_or(0.0, |t| t.total_ns as f64 / t.count.max(1) as f64 / scale)
        };
        // Medians, so the phase split is not skewed by a few slow sorts.
        let p50_ms = |name: &str| {
            stats::percentile(&stats::sorted(trace::durations(tr.spans(), name)), 0.5)
                .unwrap_or(0.0)
                / 1e6
        };
        let (request, chunk, merge) = (
            p50_ms("sort.request"),
            p50_ms("sort.chunk"),
            p50_ms("sort.merge"),
        );
        let dispatch = stats::sorted(dispatch_us);
        let tasks = d.tasks.max(1) as f64;
        let metrics = vec![
            Metric::new("sort.request_ms", request, "ms"),
            Metric::new("sort.chunk_ms", chunk, "ms"),
            Metric::new("sort.merge_ms", merge, "ms"),
            Metric::new("sort.rest_ms", request - chunk - merge, "ms"),
            Metric::new(
                "sort.merge_ns_per_elem.scalar",
                simd::measure_merge_ns(simd::scalar(), MERGE_ELEMS, 3),
                "ns",
            ),
            Metric::new(
                "sort.merge_ns_per_elem.auto",
                simd::measure_merge_ns(simd::auto(), MERGE_ELEMS, 3),
                "ns",
            ),
            Metric::new(
                "exec.dispatch_us",
                stats::percentile(&dispatch, 0.5).unwrap_or(0.0),
                "us",
            ),
            Metric::new(
                "exec.dispatch_p99_us",
                stats::percentile(&dispatch, 0.99).unwrap_or(0.0),
                "us",
            ),
            Metric::new(
                "exec.steals_per_task",
                d.steals_total as f64 / tasks,
                "ratio",
            ),
            Metric::new("exec.parks_per_task", d.parks as f64 / tasks, "ratio"),
            Metric::new("mapred.job_ms", mean("mapred.job", 1e6), "ms"),
            Metric::new("place.resolve_us", mean("place.resolve", 1e3), "us"),
            Metric::new("alloc.resolve_us", mean("alloc.resolve", 1e3), "us"),
        ];
        Traced {
            window: w,
            metrics,
            spans: vec![tr.spans().to_vec()],
        }
    }
}
