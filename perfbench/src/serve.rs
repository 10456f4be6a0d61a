//! `serve`: an in-process `mctopd::Server` over `DescSource::Dir(descs/)`
//! under two closed-loop client connections. Connection A sends one
//! request at a time; connection B sends pipelined batches. Every
//! response is compared with the `mctopd::eval` text computed in
//! set-up.

use std::path::PathBuf;
use std::sync::atomic::{
    AtomicU64,
    Ordering, //
};
use std::sync::Arc;
use std::time::{
    Duration,
    Instant, //
};

use mctop::registry::Registry;
use mctop::TopoView;
use mctop_client::{
    wire,
    Client,
    Request,
    Response, //
};
use mctop_runtime::metrics::ServerSnapshot;
use mctopd::eval::{
    self,
    EvalError, //
};
use mctopd::{
    DescSource,
    Server,
    ServerCfg,
    ServerHandle, //
};

use crate::report::Metric;
use crate::rng::Rng;
use crate::stats;
use crate::trace::{
    self,
    Tracer, //
};
use crate::{
    ms_since,
    Cfg,
    Measure,
    Size,
    Traced,
    Window, //
};

/// Requests per pipelined batch on connection B.
pub const BATCH: usize = 16;
/// Distinct pre-generated requests both connections draw from.
const POOL: usize = 4096;

/// The request kinds of the mix, with their weights. The cheap lookups
/// carry three quarters of the weight, so connection A's median lies
/// inside them rather than on the edge of the placement and
/// alloc-plan classes.
const KINDS: [(Kind, u32); 7] = [
    (Kind::Latency, 25),
    (Kind::Summary, 10),
    (Kind::Walk, 10),
    (Kind::Closest, 15),
    (Kind::SocketOf, 15),
    (Kind::Placement, 15),
    (Kind::AllocPlan, 10),
];

const PLACE_POLICIES: [&str; 4] = ["RR_CORE", "CON_HWC", "BALANCE_CORE", "CON_CORE_HWC"];
const ALLOC_POLICIES: [&str; 3] = ["local", "interleave", "bw"];
/// Upper bound on a request's thread count.
const MAX_WORKERS: usize = 16;
/// The connections take turns: A sends during even phases, B during
/// odd ones, so A's latency is the single-request round trip and not a
/// wait behind B's batch.
const PHASE: Duration = Duration::from_millis(100);

/// The measured window, divided into alternating phases.
#[derive(Debug, Clone, Copy)]
struct Clock {
    start: Instant,
    deadline: Instant,
}

impl Clock {
    /// Waits for connection `turn`'s next phase (0 for A, 1 for B);
    /// false once the window is over.
    fn wait_turn(&self, turn: u128) -> bool {
        loop {
            let now = Instant::now();
            if now >= self.deadline {
                return false;
            }
            let into = (now - self.start).as_nanos();
            let phase = PHASE.as_nanos();
            if (into / phase) % 2 == turn {
                return true;
            }
            let left = Duration::from_nanos((phase - into % phase) as u64);
            std::thread::sleep(left.min(self.deadline - now));
        }
    }
}

/// One request class.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// `latency <ctx> <ctx>`.
    Latency,
    /// `summary`.
    Summary,
    /// `walk`.
    Walk,
    /// `closest <socket>`.
    Closest,
    /// `socket-of <ctx>`.
    SocketOf,
    /// A placement.
    Placement,
    /// An alloc plan.
    AllocPlan,
}

impl Kind {
    /// Span name of this kind's evaluation.
    fn eval_span(self) -> &'static str {
        match self {
            Kind::Latency => "serve.eval.latency",
            Kind::Summary => "serve.eval.summary",
            Kind::Walk => "serve.eval.walk",
            Kind::Closest => "serve.eval.closest",
            Kind::SocketOf => "serve.eval.socket-of",
            Kind::Placement => "serve.eval.placement",
            Kind::AllocPlan => "serve.eval.alloc-plan",
        }
    }
}

/// The served descriptions.
fn served(size: Size) -> &'static [&'static str] {
    match size {
        Size::Full => &[
            "ivy",
            "opteron",
            "haswell",
            "westmere",
            "sparc",
            "synth-mesh-256",
            "synth-circulant-256",
        ],
        Size::Smoke => &["ivy", "synth-mesh-64"],
    }
}

/// The 256-socket descriptions, reported on their own.
const MESH: [&str; 2] = ["synth-mesh-256", "synth-circulant-256"];

/// A pre-generated request with its expected response body.
struct Item {
    req: Request,
    kind: Kind,
    desc: usize,
    expected: Vec<u8>,
}

/// Set-up state: reference views, the request pool and a warm server.
pub struct Bench {
    names: &'static [&'static str],
    views: Vec<Arc<TopoView>>,
    pool: Vec<Item>,
    rng_a: Rng,
    rng_b: Rng,
    socket: PathBuf,
    server: Option<ServerHandle>,
}

/// Evaluates a request on a view exactly as the daemon does.
fn evaluate(view: &TopoView, req: &Request) -> Result<String, EvalError> {
    match req {
        Request::Query { query, args, .. } => eval::query_text(view, query, args),
        Request::Placement {
            policy, workers, ..
        } => eval::placement_text(view, policy, *workers as usize),
        Request::AllocPlan {
            policy, workers, ..
        } => eval::alloc_plan_text(view, policy, *workers as usize),
        other => Err(EvalError::Usage(format!(
            "{} is not in the mix",
            other.kind()
        ))),
    }
}

/// Draws one request of `kind` against machine `name`.
fn draw(rng: &mut Rng, kind: Kind, name: &str, view: &TopoView) -> Request {
    let query = |q: &str, args: Vec<String>| Request::Query {
        desc: name.to_string(),
        query: q.to_string(),
        args,
    };
    let ctx = |rng: &mut Rng| rng.below(view.num_hwcs()).to_string();
    let workers = |rng: &mut Rng| (1 + rng.below(MAX_WORKERS.min(view.num_cores()))) as u32;
    match kind {
        Kind::Latency => query("latency", vec![ctx(rng), ctx(rng)]),
        Kind::Summary => query("summary", vec![]),
        Kind::Walk => query("walk", vec![]),
        Kind::Closest => query("closest", vec![rng.below(view.num_sockets()).to_string()]),
        Kind::SocketOf => query("socket-of", vec![ctx(rng)]),
        Kind::Placement => Request::Placement {
            desc: name.to_string(),
            policy: PLACE_POLICIES[rng.below(PLACE_POLICIES.len())].to_string(),
            workers: workers(rng),
        },
        Kind::AllocPlan => Request::AllocPlan {
            desc: name.to_string(),
            policy: ALLOC_POLICIES[rng.below(ALLOC_POLICIES.len())].to_string(),
            workers: workers(rng),
        },
    }
}

/// A socket path relative to the working directory (short enough for
/// `sun_path` wherever the checkout lives), unique per server.
fn socket_path() -> PathBuf {
    static NEXT: AtomicU64 = AtomicU64::new(0);
    let n = NEXT.fetch_add(1, Ordering::Relaxed);
    PathBuf::from(format!(".perfbench-{}-{n}.sock", std::process::id()))
}

impl Bench {
    /// Parses every served description, generates the request pool and
    /// its expected responses, binds and starts the daemon and warms
    /// every served description in it.
    pub fn setup(cfg: &Cfg) -> Result<Bench, String> {
        let names = served(cfg.size);
        let registry = Registry::with_dir(crate::descs_dir());
        let views = names
            .iter()
            .map(|n| registry.view(n).map_err(|e| format!("loading {n}: {e}")))
            .collect::<Result<Vec<_>, String>>()?;

        let mut rng = Rng::new(cfg.seed, 2);
        let weights: Vec<u32> = KINDS.iter().map(|k| k.1).collect();
        let mut pool = Vec::with_capacity(POOL);
        while pool.len() < POOL {
            let kind = KINDS[rng.weighted(&weights)].0;
            let desc = rng.below(names.len());
            let req = draw(&mut rng, kind, names[desc], &views[desc]);
            // Only requests the library answers go into the mix, so no
            // op is expected to fail.
            if let Ok(text) = evaluate(&views[desc], &req) {
                pool.push(Item {
                    req,
                    kind,
                    desc,
                    expected: text.into_bytes(),
                });
            }
        }

        let socket = socket_path();
        let server = Server::bind(ServerCfg {
            source: DescSource::Dir(crate::descs_dir()),
            // One executor worker parses every description on one
            // thread, so peak RSS does not depend on which worker's
            // malloc arena the two 256-socket parses land in.
            workers: Some(1),
            ..ServerCfg::new(&socket)
        })
        .map_err(|e| format!("binding the daemon: {e}"))?
        .start();
        // Warm the daemon: every pooled request once, in batches, so
        // each served description is loaded and every lazily built
        // index the mix touches exists before the first timed op.
        let mut client = Client::connect(&socket).map_err(|e| format!("connecting: {e}"))?;
        for chunk in pool.chunks(BATCH * 4) {
            let reqs: Vec<Request> = chunk.iter().map(|i| i.req.clone()).collect();
            let resps = client.batch(&reqs).map_err(|e| format!("warming: {e}"))?;
            if chunk
                .iter()
                .zip(&resps)
                .any(|(i, r)| !matches(r, &i.expected))
            {
                return Err("warming: a response differs from the library's".into());
            }
        }
        Ok(Bench {
            names,
            views,
            pool,
            rng_a: Rng::new(cfg.seed, 3),
            rng_b: Rng::new(cfg.seed, 4),
            socket,
            server: Some(server),
        })
    }

    fn server_snapshot(&self) -> ServerSnapshot {
        self.server
            .as_ref()
            .map(|s| s.metrics().server_snapshot())
            .unwrap_or_default()
    }

    /// Runs both connections; with a tracer, connection A also times
    /// the eval and codec replicas of each request.
    fn run(&mut self, window: Duration, tracer: Option<&mut Tracer>) -> (Window, ConnB, Vec<f64>) {
        let start = Instant::now();
        let clock = Clock {
            start,
            deadline: start + window,
        };
        let (pool, socket) = (&self.pool, &self.socket);
        let (rng_a, rng_b) = (&mut self.rng_a, &mut self.rng_b);
        let views = &self.views;
        let traced = tracer.is_some();
        let (mut a, hops, b) = std::thread::scope(|s| {
            let b = s.spawn(move || conn_b(socket, pool, rng_b, clock, traced));
            let (a, hops) = conn_a(socket, pool, views, rng_a, clock, tracer);
            // A panicked connection B counts as one failed op.
            let b = b.join().unwrap_or(ConnB {
                attempted: 1,
                failed: 1,
                batch_us: Vec::new(),
            });
            (a, hops, b)
        });
        a.elapsed_s = start.elapsed().as_secs_f64();
        a.attempted += b.attempted;
        a.failed += b.failed;
        (a, b, hops)
    }
}

impl Measure for Bench {
    /// The untraced window: both connections, taking turns.
    fn window(&mut self, window: Duration) -> Window {
        self.run(window, None).0
    }

    /// The traced window, plus the load-path measurements the daemon
    /// makes in its own set-up: parsing and first view per description.
    fn traced(&mut self, window: Duration, origin: Instant) -> Traced {
        let mut tr = Tracer::new(origin);
        let mut failed = 0;
        // First `Registry::view` per description on a fresh registry.
        let fresh = Registry::with_dir(crate::descs_dir());
        let mut load_ms = Vec::new();
        for (i, name) in self.names.iter().enumerate() {
            let (view, ns) = tr.time("registry.load", i as u64, || fresh.view(name));
            failed += u64::from(view.is_err());
            load_ms.push((*name, ns as f64 / 1e6));
        }
        // `desc::from_str` on the description text.
        let mut parse_ms = 0.0;
        for (i, name) in self.names.iter().enumerate() {
            let text = crate::read_desc(name).unwrap_or_default();
            let (topo, ns) = tr.time("desc.parse", i as u64, || mctop::desc::from_str(&text));
            failed += u64::from(topo.is_err());
            parse_ms += ns as f64 / 1e6;
        }

        let before = self.server_snapshot();
        let (mut w, b, hops) = self.run(window, Some(&mut tr));
        let after = self.server_snapshot();
        w.attempted += 2 * self.names.len() as u64;
        w.failed += failed;

        let totals = trace::totals(tr.spans());
        let mean_us = |names: &[&str]| {
            let (n, ns) = names
                .iter()
                .filter_map(|k| totals.get(k))
                .fold((0, 0), |(n, ns), t| (n + t.count, ns + t.total_ns));
            ns as f64 / n.max(1) as f64 / 1e3
        };
        let eval_names: Vec<&str> = KINDS.iter().map(|k| k.0.eval_span()).collect();
        let mut m = vec![
            Metric::new("desc.parse_ms", parse_ms, "ms"),
            Metric::new(
                "registry.load_ms",
                load_ms.iter().map(|l| l.1).sum::<f64>(),
                "ms",
            ),
            Metric::new(
                "registry.load_ms.mesh",
                load_ms
                    .iter()
                    .filter(|l| MESH.contains(&l.0))
                    .map(|l| l.1)
                    .sum::<f64>(),
                "ms",
            ),
            Metric::new(
                "view.resident_bytes",
                self.views
                    .iter()
                    .map(|v| v.resident_bytes() as f64)
                    .sum::<f64>(),
                "bytes",
            ),
            Metric::new("serve.eval_us", mean_us(&eval_names), "us"),
        ];
        for name in &eval_names {
            let kind = name.trim_start_matches("serve.eval.");
            m.push(Metric::new(
                format!("serve.eval_us.{kind}"),
                mean_us(&[name]),
                "us",
            ));
        }
        let p50 = |v: &[f64]| stats::percentile(&stats::sorted(v.to_vec()), 0.5).unwrap_or(0.0);
        let requests = after.requests - before.requests;
        let batches = (after.batches - before.batches).max(1);
        let errors = (after.error_responses - before.error_responses)
            + (after.protocol_errors - before.protocol_errors);
        m.extend([
            Metric::new("serve.codec_us", mean_us(&["serve.codec"]), "us"),
            Metric::new("serve.hop_us", p50(&hops), "us"),
            Metric::new("serve.batch_rtt_us", p50(&b.batch_us), "us"),
            Metric::new(
                "server.requests_per_batch",
                requests as f64 / batches as f64,
                "count",
            ),
            Metric::new("server.errors", errors as f64, "count"),
        ]);
        Traced {
            window: w,
            metrics: m,
            spans: vec![tr.spans().to_vec()],
        }
    }
}

impl Drop for Bench {
    /// Shuts the daemon down and waits for it.
    fn drop(&mut self) {
        if let Some(s) = self.server.take() {
            s.stop();
        }
    }
}

/// Whether a response carries exactly the expected body.
fn matches(resp: &Response, expected: &[u8]) -> bool {
    matches!(resp, Response::Ok { body } if body == expected)
}

/// Connection A: one request at a time, in its phases of the window. Returns the
/// window (latencies are A's) and, when traced, each request's hop time
/// (round trip minus eval minus codec), in µs.
fn conn_a(
    socket: &PathBuf,
    pool: &[Item],
    views: &[Arc<TopoView>],
    rng: &mut Rng,
    clock: Clock,
    mut tracer: Option<&mut Tracer>,
) -> (Window, Vec<f64>) {
    let mut w = Window::default();
    let mut hops = Vec::new();
    let Ok(mut client) = Client::connect(socket) else {
        w.record(None);
        return (w, hops);
    };
    let mut op = 0u64;
    while clock.wait_turn(0) {
        let item = &pool[rng.below(pool.len())];
        op += 1;
        let t = Instant::now();
        let resp = match tracer.as_deref_mut() {
            Some(tr) => tr.time("serve.rtt", op, || client.roundtrip(&item.req)).0,
            None => client.roundtrip(&item.req),
        };
        let ms = ms_since(t);
        let ok = matches!(&resp, Ok(r) if matches(r, &item.expected));
        if let Some(tr) = tracer.as_deref_mut() {
            let view = &views[item.desc];
            let (text, eval_ns) = tr.time(item.kind.eval_span(), op, || evaluate(view, &item.req));
            let eval_ok = matches!(text, Ok(t) if t.as_bytes() == item.expected.as_slice());
            let (codec_ok, codec_ns) = tr.time("serve.codec", op, || {
                codec_roundtrip(&item.req, &item.expected)
            });
            hops.push(ms * 1e3 - (eval_ns + codec_ns) as f64 / 1e3);
            w.record((ok && eval_ok && codec_ok).then_some(ms));
        } else {
            w.record(ok.then_some(ms));
        }
        if resp.is_err() {
            match Client::connect(socket) {
                Ok(c) => client = c,
                Err(_) => break,
            }
        }
    }
    (w, hops)
}

/// Encodes and decodes the request and its response, as the client and
/// the daemon each do once per request.
fn codec_roundtrip(req: &Request, body: &[u8]) -> bool {
    let req_ok = wire::decode_request(&wire::encode_request(req)).is_ok_and(|r| r == *req);
    let resp = Response::Ok {
        body: body.to_vec(),
    };
    let resp_ok = wire::decode_response(&wire::encode_response(&resp)).is_ok_and(|r| r == resp);
    req_ok && resp_ok
}

/// What connection B saw.
#[derive(Debug, Default)]
struct ConnB {
    attempted: u64,
    failed: u64,
    /// Round trip of each batch, µs (kept only when traced).
    batch_us: Vec<f64>,
}

/// Connection B: pipelined batches of [`BATCH`] requests, in its phases
/// of the window.
fn conn_b(socket: &PathBuf, pool: &[Item], rng: &mut Rng, clock: Clock, traced: bool) -> ConnB {
    let mut out = ConnB::default();
    let Ok(mut client) = Client::connect(socket) else {
        out.attempted = 1;
        out.failed = 1;
        return out;
    };
    while clock.wait_turn(1) {
        let items: Vec<&Item> = (0..BATCH).map(|_| &pool[rng.below(pool.len())]).collect();
        let reqs: Vec<Request> = items.iter().map(|i| i.req.clone()).collect();
        let t = Instant::now();
        let resps = client.batch(&reqs);
        let us = t.elapsed().as_secs_f64() * 1e6;
        out.attempted += BATCH as u64;
        match resps {
            Ok(resps) => {
                let bad = items
                    .iter()
                    .zip(&resps)
                    .filter(|(i, r)| !matches(r, &i.expected))
                    .count();
                out.failed += bad as u64 + (BATCH - resps.len().min(BATCH)) as u64;
                if traced {
                    out.batch_us.push(us);
                }
            }
            Err(_) => {
                out.failed += BATCH as u64;
                match Client::connect(socket) {
                    Ok(c) => client = c,
                    Err(_) => break,
                }
            }
        }
    }
    out
}
