//! The `serve-mix` workload: sp-serve on loopback, driven by closed-loop
//! client connections through the frame protocol.
//!
//! Closed loop fits because sp-serve's callers (the `submit` CLI, the
//! router) block on each reply. Every connection cycles through a fixed
//! pattern: cache-miss submits of small graphs sent as inline Chaco text,
//! repeats of its own earlier submits (each one a guaranteed cache hit),
//! and delta-batch + `session_repartition` steps on its own streaming
//! session between the submits.

use crate::report::Report;
use crate::spans::Spans;
use crate::stats::{beyond, fastest, median, percentile, scrape, tail, Histogram};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use scalapart::graph::gen::{delaunay_graph, grid_2d, kkt_graph};
use scalapart::graph::io::{read_chaco, write_chaco};
use scalapart::graph::Graph;
use scalapart::machine::trace::fnv::Fingerprint;
use scalapart::machine::trace::json::escape;
use scalapart::obs::rss;
use scalapart::stream::{DeltaOverlay, GraphDelta, IncrementalRepartitioner, StreamConfig};
use sp_serve::json::Value;
use sp_serve::proto::extract_raw_field;
use sp_serve::{fingerprint_graph, Client, ServeConfig, Server};
use std::collections::{HashSet, VecDeque};
use std::net::SocketAddr;
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

const CONNECTIONS: usize = 2;
const WORKERS: usize = 2;
/// Vertex counts of the submitted graphs, from well below sp-embed's
/// replication threshold (3000) to just above it.
const SIZES: [usize; 5] = [256, 512, 1024, 2048, 4096];
const PARTS: [usize; 3] = [2, 4, 8];
const SESSION_N: usize = 2048;
/// Full set-ups timed for `setup_s` before the window and again after it;
/// the fastest is reported.
const SETUP_REPS: usize = 8;

#[derive(Clone, Copy, PartialEq)]
enum Op {
    Miss,
    Hit,
    Step,
}

/// Per connection: two misses and one repeat per three submits, with a
/// session step after every submit.
const PATTERN: [Op; 6] = [Op::Miss, Op::Step, Op::Miss, Op::Step, Op::Hit, Op::Step];

#[derive(Clone, Copy)]
enum Family {
    Grid,
    Delaunay,
    Kkt,
}

fn generate(family: Family, n: usize, rng: &mut StdRng) -> Graph {
    match family {
        Family::Grid => {
            let side = (n as f64).sqrt().round() as usize;
            grid_2d(side, side)
        }
        Family::Delaunay => delaunay_graph(n, rng).0,
        Family::Kkt => kkt_graph(n * 2 / 3, n - n * 2 / 3, 6, rng),
    }
}

fn chaco(g: &Graph) -> String {
    let mut buf = Vec::new();
    write_chaco(g, &mut buf).expect("writing to memory cannot fail");
    String::from_utf8(buf).expect("chaco text is ASCII")
}

/// One connection's inputs, generated from the workload seed.
struct ConnInputs {
    /// `(class label, escaped Chaco text, parts)` in the connection's
    /// seeded order; misses cycle through it.
    classes: Vec<(String, Arc<String>, usize)>,
    session_chaco: String,
    session_graph: Graph,
    session_seed: u64,
    rng_seed: u64,
    fingerprint: u64,
}

fn sub_seed(seed: u64, conn: usize, what: u64) -> u64 {
    let mut f = Fingerprint::new();
    f.u64(seed);
    f.u64(conn as u64);
    f.u64(what);
    f.finish()
}

fn conn_inputs(seed: u64, conn: usize) -> ConnInputs {
    let mut rng = StdRng::seed_from_u64(sub_seed(seed, conn, 0));
    let mut fp = Fingerprint::new();
    let mut classes = Vec::new();
    for (name, family) in [
        ("grid", Family::Grid),
        ("delaunay", Family::Delaunay),
        ("kkt", Family::Kkt),
    ] {
        for &n in &SIZES {
            let text = chaco(&generate(family, n, &mut rng));
            let g = read_chaco(text.as_bytes()).expect("generated chaco parses");
            fp.u64(fingerprint_graph(&g));
            let escaped = Arc::new(escape(&text));
            for &k in &PARTS {
                classes.push((format!("{name}-{n}-k{k}"), escaped.clone(), k));
            }
        }
    }
    classes.shuffle(&mut rng);
    let session_graph = delaunay_graph(SESSION_N, &mut rng).0;
    let session_chaco = chaco(&session_graph);
    let session_graph = read_chaco(session_chaco.as_bytes()).expect("generated chaco parses");
    fp.u64(fingerprint_graph(&session_graph));
    ConnInputs {
        classes,
        session_chaco,
        session_graph,
        session_seed: sub_seed(seed, conn, 1),
        rng_seed: sub_seed(seed, conn, 2),
        fingerprint: fp.finish(),
    }
}

/// A seeded stream of valid delta batches over one session graph: local
/// edge insertions (to a vertex two hops away), removal of the oldest
/// inserted edge, and a vertex-weight change.
struct DeltaScript {
    g: Graph,
    edges: HashSet<(u32, u32)>,
    added: VecDeque<(u32, u32)>,
    rng: StdRng,
}

impl DeltaScript {
    fn new(g: Graph, seed: u64) -> DeltaScript {
        let mut edges = HashSet::new();
        for v in 0..g.n() as u32 {
            for &u in g.neighbors(v) {
                edges.insert((u.min(v), u.max(v)));
            }
        }
        DeltaScript {
            g,
            edges,
            added: VecDeque::new(),
            rng: StdRng::seed_from_u64(seed),
        }
    }

    fn pick_neighbor(&mut self, v: u32) -> Option<u32> {
        let nb = self.g.neighbors(v);
        (!nb.is_empty()).then(|| nb[self.rng.random_range(0..nb.len())])
    }

    fn next_batch(&mut self) -> Vec<GraphDelta> {
        let n = self.g.n() as u32;
        let mut batch = Vec::new();
        for _ in 0..2 {
            for _ in 0..16 {
                let u = self.rng.random_range(0..n);
                let Some(v) = self.pick_neighbor(u).and_then(|w| self.pick_neighbor(w)) else {
                    continue;
                };
                let key = (u.min(v), u.max(v));
                if u != v && self.edges.insert(key) {
                    self.added.push_back(key);
                    batch.push(GraphDelta::AddEdge { u, v, w: 1.0 });
                    break;
                }
            }
        }
        if self.added.len() > 8 {
            let (u, v) = self.added.pop_front().expect("queue is non-empty");
            self.edges.remove(&(u, v));
            batch.push(GraphDelta::RemoveEdge { u, v });
        }
        let v = self.rng.random_range(0..n);
        let w = if self.rng.random_range(0..2) == 0 {
            1.0
        } else {
            2.0
        };
        batch.push(GraphDelta::SetVwgt { v, w });
        batch
    }
}

fn delta_json(batch: &[GraphDelta]) -> String {
    let items: Vec<String> = batch
        .iter()
        .map(|d| match *d {
            GraphDelta::AddEdge { u, v, w } => {
                format!("{{\"op\": \"add_edge\", \"u\": {u}, \"v\": {v}, \"w\": {w:?}}}")
            }
            GraphDelta::RemoveEdge { u, v } => {
                format!("{{\"op\": \"remove_edge\", \"u\": {u}, \"v\": {v}}}")
            }
            GraphDelta::SetVwgt { v, w } => {
                format!("{{\"op\": \"set_vwgt\", \"v\": {v}, \"w\": {w:?}}}")
            }
            GraphDelta::ShiftCoord { .. } => unreachable!("sessions here carry no coordinates"),
        })
        .collect();
    format!("[{}]", items.join(", "))
}

struct Submit {
    /// Index into the connection's classes.
    class: usize,
    hit: bool,
    rtt_ms: f64,
    server_ms: f64,
    sim_time: f64,
}

struct Step {
    rtt_ms: f64,
    incremental: bool,
    dirty: f64,
    partition_fp: String,
}

#[derive(Default)]
struct ConnLog {
    submits: Vec<Submit>,
    steps: Vec<Step>,
    batches: Vec<Vec<GraphDelta>>,
    open_fp: String,
    failures: Vec<String>,
    attempted: u64,
    /// `(name, start, end)` per request when tracing.
    spans: Vec<(&'static str, Instant, Instant)>,
}

fn field_str(v: &Value, key: &str) -> String {
    v.get(key).and_then(Value::as_str).unwrap_or("").to_string()
}

/// Send one request; a transport error is a failed operation.
fn request(client: &mut Client, frame: &str, log: &mut ConnLog) -> Option<(String, f64)> {
    let t = Instant::now();
    match client.request(frame) {
        Ok(resp) => Some((resp, t.elapsed().as_secs_f64() * 1e3)),
        Err(e) => {
            log.failures.push(format!("transport error: {e}"));
            None
        }
    }
}

fn drive(
    mut client: Client,
    conn: usize,
    inputs: &ConnInputs,
    barrier: &Barrier,
    budget: Duration,
    trace: bool,
) -> (Client, ConnLog) {
    let mut log = ConnLog::default();
    let session = format!("conn{conn}");
    let open = format!(
        "{{\"type\": \"session_open\", \"session\": \"{session}\", \"chaco\": \"{}\", \"seed\": {}}}",
        escape(&inputs.session_chaco),
        inputs.session_seed
    );
    match client.request(&open).map(|r| Value::parse(&r)) {
        Ok(Ok(v)) if field_str(&v, "status") == "open" => {
            log.open_fp = field_str(&v, "partition_fp")
        }
        other => log.failures.push(format!("session_open failed: {other:?}")),
    }
    let mut script = DeltaScript::new(inputs.session_graph.clone(), inputs.rng_seed);
    let mut rng = StdRng::seed_from_u64(inputs.rng_seed ^ 0x5EED);
    // Every miss sent so far: the exact frame, the result bytes it got
    // and its class.
    let mut sent: Vec<(String, String, usize)> = Vec::new();
    let mut misses = 0usize;

    barrier.wait();
    let start = Instant::now();
    let mut i = 0;
    while start.elapsed() < budget {
        let op = PATTERN[i % PATTERN.len()];
        i += 1;
        let t0 = Instant::now();
        match op {
            Op::Miss | Op::Hit => {
                let (frame, expect, class) = if op == Op::Miss || sent.is_empty() {
                    let class = misses % inputs.classes.len();
                    let (_, text, k) = &inputs.classes[class];
                    misses += 1;
                    let job_seed = ((conn as u64) << 32) | misses as u64;
                    let frame = format!(
                        "{{\"type\": \"submit\", \"chaco\": \"{text}\", \"method\": \"sp\", \"parts\": {k}, \"seed\": {job_seed}}}"
                    );
                    (frame, None, class)
                } else {
                    let (frame, result, class) = &sent[rng.random_range(0..sent.len())];
                    (frame.clone(), Some(result.clone()), *class)
                };
                log.attempted += 1;
                let Some((resp, rtt_ms)) = request(&mut client, &frame, &mut log) else {
                    break;
                };
                let hit = expect.is_some();
                let v = match Value::parse(&resp) {
                    Ok(v) => v,
                    Err(e) => {
                        log.failures
                            .push(format!("unparseable submit response: {e}"));
                        continue;
                    }
                };
                let result = extract_raw_field(&resp, "result").unwrap_or("").to_string();
                if field_str(&v, "status") != "ok" {
                    log.failures.push(format!("submit not ok: {resp:.200}"));
                    continue;
                }
                if v.get("cache_hit").and_then(Value::as_bool) != Some(hit) {
                    log.failures
                        .push(format!("submit expected cache_hit={hit}: {resp:.200}"));
                    continue;
                }
                match &expect {
                    Some(first) if *first != result => {
                        log.failures
                            .push("repeat's result differs from its first miss".into());
                        continue;
                    }
                    Some(_) => {}
                    None => sent.push((frame, result, class)),
                }
                log.submits.push(Submit {
                    class,
                    hit,
                    rtt_ms,
                    server_ms: v.get("latency_ms").and_then(Value::as_f64).unwrap_or(0.0),
                    sim_time: v.get("sim_time").and_then(Value::as_f64).unwrap_or(0.0),
                });
                if trace {
                    let name = if hit { "submit.hit" } else { "submit.miss" };
                    log.spans.push((name, t0, Instant::now()));
                }
            }
            Op::Step => {
                let batch = script.next_batch();
                let delta = format!(
                    "{{\"type\": \"session_delta\", \"session\": \"{session}\", \"deltas\": {}}}",
                    delta_json(&batch)
                );
                let repart =
                    format!("{{\"type\": \"session_repartition\", \"session\": \"{session}\"}}");
                log.attempted += 1;
                let Some((d, d_ms)) = request(&mut client, &delta, &mut log) else {
                    break;
                };
                let Some((r, r_ms)) = request(&mut client, &repart, &mut log) else {
                    break;
                };
                log.batches.push(batch);
                let ok = |s: &str, status: &str| {
                    Value::parse(s)
                        .ok()
                        .filter(|v| field_str(v, "status") == status)
                };
                let (Some(_), Some(rv)) = (ok(&d, "delta"), ok(&r, "repartition")) else {
                    log.failures
                        .push(format!("session step failed: {d:.200} / {r:.200}"));
                    continue;
                };
                log.steps.push(Step {
                    rtt_ms: d_ms + r_ms,
                    incremental: field_str(&rv, "mode") == "incremental",
                    dirty: rv.get("dirty").and_then(Value::as_f64).unwrap_or(0.0),
                    partition_fp: field_str(&rv, "partition_fp"),
                });
                if trace {
                    log.spans.push(("session.step", t0, Instant::now()));
                }
            }
        }
    }
    (client, log)
}

/// Replay a session's delta batches in process through sp-stream and
/// compare every step's partition fingerprint with the server's.
fn replay_session(inputs: &ConnInputs, log: &ConnLog) -> Result<(), String> {
    let overlay = DeltaOverlay::new(Arc::new(inputs.session_graph.clone()), None)
        .map_err(|e| format!("overlay: {e}"))?;
    let cfg = StreamConfig {
        seed: inputs.session_seed,
        ..StreamConfig::default()
    };
    let (mut rp, boot) = IncrementalRepartitioner::new(overlay, cfg);
    if format!("{:016x}", boot.partition_fp) != log.open_fp {
        return Err(format!(
            "session open fingerprint {} differs from the replay's {:016x}",
            log.open_fp, boot.partition_fp
        ));
    }
    for (i, (batch, step)) in log.batches.iter().zip(&log.steps).enumerate() {
        rp.apply(batch).map_err(|e| format!("step {i}: {e}"))?;
        let rep = rp.repartition();
        if format!("{:016x}", rep.partition_fp) != step.partition_fp {
            return Err(format!(
                "step {i}: server partition_fp {} differs from the replay's {:016x}",
                step.partition_fp, rep.partition_fp
            ));
        }
    }
    Ok(())
}

fn metrics_text(client: &mut Client) -> Result<String, String> {
    let resp = client
        .request("{\"type\": \"metrics\"}")
        .map_err(|e| format!("metrics request: {e}"))?;
    let v = Value::parse(&resp).map_err(|e| format!("metrics frame: {e}"))?;
    v.get("body")
        .and_then(Value::as_str)
        .map(str::to_string)
        .ok_or_else(|| "metrics frame has no body".to_string())
}

fn series(text: &str, name: &str, labels: &[(&str, &str)]) -> Histogram {
    scrape(text, name, labels).unwrap_or_default()
}

/// Times `SETUP_REPS` full set-ups (input generation, then server bind),
/// appending to `setup` and to `gen` (generation alone), and returns the
/// last one's server, still running, and inputs.
fn set_up(
    seed: u64,
    cfg: &ServeConfig,
    setup: &mut Vec<f64>,
    gen: &mut Vec<f64>,
) -> (Arc<Server>, Vec<ConnInputs>) {
    let mut ready: Option<(Arc<Server>, Vec<ConnInputs>)> = None;
    for _ in 0..SETUP_REPS {
        if let Some((server, _)) = ready.take() {
            server.shutdown();
            server.wait();
        }
        let t = Instant::now();
        let inputs: Vec<ConnInputs> = (0..CONNECTIONS).map(|c| conn_inputs(seed, c)).collect();
        gen.push(t.elapsed().as_secs_f64());
        let server = Server::bind("127.0.0.1:0", cfg.clone()).expect("bind a loopback port");
        setup.push(t.elapsed().as_secs_f64());
        ready = Some((server, inputs));
    }
    ready.expect("at least one set-up")
}

pub fn run(seed: u64, seconds: f64, trace: bool, report: &mut Report) {
    let mut spans = Spans::new();
    let cfg = ServeConfig {
        workers: WORKERS,
        cache_capacity: 1 << 16,
        ..ServeConfig::default()
    };
    let mut setup = Vec::new();
    let mut gen = Vec::new();
    let (server, inputs) = set_up(seed, &cfg, &mut setup, &mut gen);
    let addr: SocketAddr = server.local_addr();
    for (c, inp) in inputs.iter().enumerate() {
        report.note(format!(
            "connection {c}: input fingerprint {:016x} ({} submit classes, session n={SESSION_N})",
            inp.fingerprint,
            inp.classes.len()
        ));
    }

    let mut clients: Vec<Client> = (0..CONNECTIONS)
        .map(|_| Client::connect(&addr).expect("connect to the loopback server"))
        .collect();
    let before = metrics_text(&mut clients[0]);
    let barrier = Barrier::new(CONNECTIONS + 1);
    let budget = Duration::from_secs_f64(seconds);
    rss::reset_peak();
    let mut window = 0.0;
    let results: Vec<(Client, ConnLog)> = std::thread::scope(|s| {
        let handles: Vec<_> = clients
            .drain(..)
            .zip(&inputs)
            .enumerate()
            .map(|(c, (client, inp))| {
                let barrier = &barrier;
                s.spawn(move || drive(client, c, inp, barrier, budget, trace))
            })
            .collect();
        barrier.wait();
        let origin = Instant::now();
        let out = handles
            .into_iter()
            .map(|h| h.join().expect("connection thread panicked"))
            .collect();
        window = origin.elapsed().as_secs_f64();
        out
    });
    let peak_rss_mb = rss::peak_rss_bytes().map_or(0.0, |b| b as f64 / (1024.0 * 1024.0));
    let (mut clients, logs): (Vec<Client>, Vec<ConnLog>) = results.into_iter().unzip();
    let after = metrics_text(&mut clients[0]);
    drop(clients);
    server.shutdown();
    server.wait();
    // The host's speed changes every few seconds, and it only ever slows
    // work down: set-ups on both sides of the window give the fastest one
    // two chances to run undisturbed.
    let (again, _) = set_up(seed, &cfg, &mut setup, &mut gen);
    again.shutdown();
    again.wait();

    for (c, log) in logs.iter().enumerate() {
        report.attempted += log.attempted;
        for f in &log.failures {
            report.fail(format!("connection {c}: {f}"));
        }
        if let Err(e) = replay_session(&inputs[c], log) {
            report.fail(format!("connection {c}: {e}"));
        }
    }
    let submits: Vec<&Submit> = logs.iter().flat_map(|l| &l.submits).collect();
    let steps: Vec<&Step> = logs.iter().flat_map(|l| &l.steps).collect();
    let miss_ms: Vec<f64> = submits
        .iter()
        .filter(|s| !s.hit)
        .map(|s| s.rtt_ms)
        .collect();
    let hit_ms: Vec<f64> = submits.iter().filter(|s| s.hit).map(|s| s.rtt_ms).collect();
    let step_ms: Vec<f64> = steps.iter().map(|s| s.rtt_ms).collect();
    if miss_ms.is_empty() || hit_ms.is_empty() || step_ms.is_empty() {
        report.fail("the run completed no miss, hit or session step".into());
        return;
    }

    let (before, after) = match (before, after) {
        (Ok(b), Ok(a)) => (b, a),
        (Err(e), _) | (_, Err(e)) => {
            report.fail(e);
            return;
        }
    };
    let delta = |name: &str, labels: &[(&str, &str)]| {
        series(&after, name, labels).since(&series(&before, name, labels))
    };
    let hits = delta("sp_cache_hits_total", &[]).sum;
    let misses = delta("sp_cache_misses_total", &[]).sum;
    if hits != hit_ms.len() as f64 || misses != miss_ms.len() as f64 {
        report.fail(format!(
            "server counted {hits} cache hits and {misses} misses; the script sent {} repeats and {} fresh submits",
            hit_ms.len(),
            miss_ms.len()
        ));
    }

    for (label, xs) in [
        ("miss", &miss_ms),
        ("hit", &hit_ms),
        ("session step", &step_ms),
    ] {
        let t = tail(xs);
        report.note(format!(
            "{label} round trip: n={} p50={:.3} ms tail={:?} (p90 has {} samples beyond it)",
            t.samples,
            t.p50,
            t.tail,
            beyond(xs.len(), 90.0)
        ));
    }

    if !trace {
        let miss_sim: Vec<f64> = submits
            .iter()
            .filter(|s| !s.hit)
            .map(|s| s.sim_time)
            .collect();
        report.metric("setup_s", fastest(&setup));
        report.metric("wall_s", median(&miss_ms) / 1e3);
        report.metric(
            "sim_time_s",
            miss_sim.iter().sum::<f64>() / miss_sim.len() as f64,
        );
        report.metric("peak_rss_mb", peak_rss_mb);
        return;
    }

    let mut by_class: Vec<(f64, String, usize)> = Vec::new();
    for (c, log) in logs.iter().enumerate() {
        for (ci, (label, _, _)) in inputs[c].classes.iter().enumerate() {
            let xs: Vec<f64> = log
                .submits
                .iter()
                .filter(|s| !s.hit && s.class == ci)
                .map(|s| s.rtt_ms)
                .collect();
            if !xs.is_empty() {
                by_class.push((median(&xs), format!("c{c} {label}"), xs.len()));
            }
        }
    }
    by_class.sort_by(|a, b| a.0.total_cmp(&b.0));
    for (ms, label, n) in &by_class {
        report.note(format!("miss class {label}: n={n} p50={ms:.2} ms"));
    }
    let busy = delta("sp_worker_busy_milliseconds_total", &[]).sum;
    report.metric("graph.gen_s", fastest(&gen));
    let overhead: Vec<f64> = submits.iter().map(|s| s.rtt_ms - s.server_ms).collect();
    report.metric("serve.submit_rps", submits.len() as f64 / window);
    report.metric("serve.submit_p90_ms", percentile(&miss_ms, 90.0));
    report.metric("serve.submit_samples", miss_ms.len() as f64);
    report.metric("serve.hit_p50_ms", median(&hit_ms));
    report.metric("stream.session_p50_ms", median(&step_ms));
    report.metric("stream.session_p90_ms", percentile(&step_ms, 90.0));
    report.metric(
        "serve.queue_wait_p50_ms",
        delta("sp_queue_wait_milliseconds", &[]).quantile(0.5),
    );
    report.metric(
        "serve.job_run_p50_ms",
        delta("sp_job_run_milliseconds", &[]).quantile(0.5),
    );
    report.metric(
        "serve.embed_ms",
        delta("sp_phase_wall_milliseconds", &[("phase", "embed")]).mean(),
    );
    report.metric(
        "serve.coarsen_ms",
        delta("sp_phase_wall_milliseconds", &[("phase", "coarsen")]).mean(),
    );
    report.metric("serve.overhead_p50_ms", median(&overhead));
    report.metric("serve.cache_hit_rate", hits / (hits + misses));
    report.metric(
        "serve.worker_busy_share",
        busy / (WORKERS as f64 * window * 1e3),
    );
    report.metric(
        "stream.repartition_p50_ms",
        delta("sp_session_repartition_milliseconds", &[]).quantile(0.5),
    );
    report.metric(
        "stream.incremental_share",
        steps.iter().filter(|s| s.incremental).count() as f64 / steps.len() as f64,
    );
    report.metric(
        "stream.dirty_mean",
        steps.iter().map(|s| s.dirty).sum::<f64>() / steps.len() as f64,
    );

    let mut covered = 0.0;
    for (c, log) in logs.iter().enumerate() {
        spans.name_lane(c as u32, &format!("client connection {c}"));
        for &(name, a, b) in &log.spans {
            spans.push(name, spans.at(a), spans.at(b), None, None, c as u32);
            covered += (b - a).as_secs_f64();
        }
    }
    report.metric("trace.coverage", covered / (CONNECTIONS as f64 * window));
    report.write_trace(&spans.chrome_trace("e2ebench serve-mix clients"));
}
