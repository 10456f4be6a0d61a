//! `infer` and `infer-mesh`: regenerate committed descriptions with
//! `desc::canonical_string_jobs(spec, 1)`, pass after pass, and
//! byte-compare each one against `descs/<name>.mct.json`. One op is
//! one description.

use std::time::{
    Duration,
    Instant, //
};

use mcsim::MachineSpec;
use mctop::alg::probe::ProbeStats;
use mctop::alg::{
    build,
    cluster,
    components,
    probe,
    validate,
    Prober as _, //
};
use mctop::backend::SimProber;
use mctop::desc::{
    self,
    Provenance, //
};
use mctop::enrich::{
    enrich_all,
    SimEnricher, //
};
use mctop::McTopError;

use crate::report::Metric;
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
    Window,
    Workload, //
};

/// Which descriptions a pass regenerates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Set {
    /// The five paper platforms.
    Paper,
    /// The NoC ladder.
    Mesh,
}

impl Set {
    /// The set a workload regenerates.
    pub fn of(w: Workload) -> Set {
        if w == Workload::InferMesh {
            Set::Mesh
        } else {
            Set::Paper
        }
    }

    fn names(self, size: Size) -> &'static [&'static str] {
        match (self, size) {
            (Set::Paper, Size::Full) => &["ivy", "opteron", "haswell", "westmere", "sparc"],
            (Set::Mesh, Size::Full) => &[
                "synth-mesh-64",
                "synth-mesh-144",
                "synth-mesh-256",
                "synth-circulant-64",
                "synth-circulant-256",
            ],
            (Set::Paper, Size::Smoke) => &["ivy"],
            (Set::Mesh, Size::Smoke) => &["synth-mesh-64"],
        }
    }

    /// Suffix that keeps the two sets' per-layer metric names apart.
    fn suffix(self) -> &'static str {
        match self {
            Set::Paper => "",
            Set::Mesh => ".mesh",
        }
    }
}

/// The inference stages, as span names, in pipeline order.
pub const STAGES: [&str; 8] = [
    "alg.collect",
    "alg.cluster",
    "alg.smt",
    "alg.components",
    "alg.assemble",
    "alg.validate",
    "enrich.all",
    "desc.serialize",
];

/// Set-up state: the machines and their committed description bytes.
pub struct Bench {
    set: Set,
    machines: Vec<(MachineSpec, String)>,
}

impl Bench {
    /// Reads the committed descriptions (the reference outputs) and
    /// builds the machine specs (the inputs). The inputs are the fixed
    /// library, so the seed does not change them. Every pass visits the
    /// machines in the listed order, so the allocator sees the same
    /// sequence in every run: with a seeded order, `peak_rss_mb` of
    /// `infer-mesh` moved between 67 and 73 MB from seed to seed.
    pub fn setup(set: Set, cfg: &Cfg) -> Result<Bench, String> {
        let machines = set
            .names(cfg.size)
            .iter()
            .map(|&name| {
                let spec = mcsim::presets::by_name(name).ok_or(format!("no preset `{name}`"))?;
                Ok((spec, crate::read_desc(name)?))
            })
            .collect::<Result<Vec<_>, String>>()?;
        Ok(Bench { set, machines })
    }

    /// Runs whole passes for about `window`, so every description is
    /// visited equally often: a new pass starts unless the window would
    /// end before half of a mean pass (at least one pass always runs).
    fn passes(&self, window: Duration, mut op: impl FnMut(&Self, usize, &mut Window)) -> Window {
        let mut w = Window::default();
        let start = Instant::now();
        let mut passes = 0u32;
        loop {
            for i in 0..self.machines.len() {
                op(self, i, &mut w);
            }
            passes += 1;
            let elapsed = start.elapsed();
            if elapsed + elapsed / (2 * passes) > window {
                break;
            }
        }
        w.elapsed_s = start.elapsed().as_secs_f64();
        w
    }

    fn layer_metrics(&self, spans: &[trace::Span], stats: &[Option<ProbeStats>]) -> Vec<Metric> {
        let sfx = self.set.suffix();
        let totals = trace::totals(spans);
        let ops = totals.get("infer.op").map_or(0, |t| t.count).max(1) as f64;
        let op_ns = totals.get("infer.op").map_or(0, |t| t.total_ns).max(1) as f64;
        let mut out = Vec::new();
        for stage in STAGES {
            let own = totals.get(stage).map_or(0, |t| t.self_ns) as f64;
            out.push(Metric::new(
                format!("{stage}_ms{sfx}"),
                own / ops / 1e6,
                "ms",
            ));
            out.push(Metric::new(
                format!("{stage}_share{sfx}"),
                own / op_ns,
                "ratio",
            ));
        }
        // Exact counts for one pass over the set.
        let (mut pairs, mut probes, mut all_pairs, mut modeled) = (0u64, 0u64, 0u64, 0.0);
        for ((spec, _), st) in self.machines.iter().zip(stats) {
            let st = st.unwrap_or_default();
            let n = spec.total_hwcs() as u64;
            pairs += st.pairs;
            probes += st.probes;
            all_pairs += n * (n - 1) / 2;
            modeled += st.modeled_seconds(spec.freq_ghz);
        }
        out.push(Metric::new(
            format!("alg.pairs_probed{sfx}"),
            pairs as f64,
            "count",
        ));
        out.push(Metric::new(
            format!("alg.probes{sfx}"),
            probes as f64,
            "count",
        ));
        out.push(Metric::new(
            format!("alg.probed_fraction{sfx}"),
            pairs as f64 / all_pairs.max(1) as f64,
            "ratio",
        ));
        out.push(Metric::new(
            format!("alg.modeled_collect_s{sfx}"),
            modeled,
            "s",
        ));
        out
    }
}

impl Measure for Bench {
    /// The untraced window: one `canonical_string_jobs` call per op.
    fn window(&mut self, window: Duration) -> Window {
        self.passes(window, |b, i, w| {
            let (spec, golden) = &b.machines[i];
            let t = Instant::now();
            let out = guarded(|| desc::canonical_string_jobs(spec, 1));
            let ms = ms_since(t);
            let ok = matches!(out, Some(Ok(text)) if text == *golden);
            w.record(ok.then_some(ms));
        })
    }

    /// The traced window: the same pipeline, called stage by stage
    /// through the public stage functions, with one span per stage. The
    /// replica's output is checked byte for byte like the untraced one.
    fn traced(&mut self, window: Duration, origin: Instant) -> Traced {
        let mut tr = Tracer::new(origin);
        let mut stats: Vec<Option<ProbeStats>> = vec![None; self.machines.len()];
        let mut op = 0u64;
        let w = self.passes(window, |b, i, w| {
            let (spec, golden) = &b.machines[i];
            op += 1;
            let t = Instant::now();
            let out = guarded(|| replica(spec, &mut tr, op));
            let ms = ms_since(t);
            tr.close_all();
            let ok = match out {
                Some(Ok((text, st))) if text == *golden => {
                    stats[i] = Some(st);
                    true
                }
                _ => false,
            };
            w.record(ok.then_some(ms));
        });
        let metrics = self.layer_metrics(tr.spans(), &stats);
        Traced {
            window: w,
            metrics,
            spans: vec![tr.spans().to_vec()],
        }
    }
}

/// `desc::canonical_string_jobs(spec, 1)`, spelled out through the
/// stage functions `alg::run_full_jobs` and `desc::canonical_jobs`
/// call, under one `infer.op` span with a child span per stage.
fn replica(
    spec: &MachineSpec,
    tr: &mut Tracer,
    op: u64,
) -> Result<(String, ProbeStats), McTopError> {
    let root = tr.begin("infer.op", op);
    let out = stages(spec, tr, op);
    tr.end(root);
    out
}

fn stages(
    spec: &MachineSpec,
    tr: &mut Tracer,
    op: u64,
) -> Result<(String, ProbeStats), McTopError> {
    let cfg = desc::canonical_probe_config_for(spec);
    let mut prober = SimProber::noiseless(spec);
    let (raw, stats) = tr
        .time(STAGES[0], op, || {
            probe::collect_parallel(&mut prober, &cfg, 1)
        })
        .0?;
    let (norm, clusters) = tr
        .time(STAGES[1], op, || {
            cluster::cluster(&raw.upper_triangle(), &cfg.cluster)
                .map(|clusters| (cluster::normalize(&raw, &clusters), clusters))
        })
        .0?;
    let smt = tr
        .time(STAGES[2], op, || probe::detect_smt(&mut prober, &norm))
        .0;
    let hier = tr
        .time(STAGES[3], op, || components::build(&norm, &clusters))
        .0?;
    let mut topo = tr
        .time(STAGES[4], op, || {
            build::assemble(
                prober.machine_name(),
                smt,
                &hier,
                &norm,
                &clusters,
                prober.num_nodes(),
            )
        })
        .0?;
    tr.time(STAGES[5], op, || validate::validate(&topo)).0?;
    tr.time(STAGES[6], op, || {
        let mut mem = SimEnricher::new(spec);
        let mut pow = SimEnricher::new(spec);
        enrich_all(&mut topo, &mut mem, &mut pow)
    })
    .0?;
    topo.freq_ghz = Some(spec.freq_ghz);
    let prov =
        Provenance::new(&spec.name, &cfg, None, true).with_generator(desc::CANONICAL_GENERATOR);
    let text = tr.time(STAGES[7], op, || desc::to_string(&topo, &prov)).0?;
    Ok((text, stats))
}
