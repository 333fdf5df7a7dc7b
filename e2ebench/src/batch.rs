//! The batch workloads: one k-way ScalaPart partition of a large graph on
//! a 64-rank simulated machine, timed from outside through the public
//! entry points.

use crate::report::{fingerprint_labels, Report};
use crate::spans::Spans;
use crate::stats::{critical_path, fastest, median, preorder_depths};
use rand::rngs::StdRng;
use rand::SeedableRng;
use scalapart::coarsen::{Contraction, Hierarchy, Matching};
use scalapart::embed::{lattice_smooth_with, LatticeConfig, LatticeStats, SmoothScratch};
use scalapart::geometry::Point2;
use scalapart::geopart::GeoPartResult;
use scalapart::graph::gen::{grid_2d, kkt_graph};
use scalapart::graph::{Bisection, Graph};
use scalapart::machine::trace::fnv::Fingerprint;
use scalapart::machine::{CostModel, Machine, SuperstepInfo};
use scalapart::obs::rss;
use scalapart::refine::FmStats;
use scalapart::{
    recursive_kway_checked_on, recursive_kway_on, scalapart_bisect_with, KWayPartition, LevelStats,
    Method, PipelineObserver, SpConfig,
};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Simulated ranks of every batch run (the paper's mid-range P).
const RANKS: usize = 64;
/// Input generations timed for `setup_s` before the window, and after
/// each partition in it; the fastest is reported.
const SETUP_REPS: usize = 15;
const SETUP_REPS_BETWEEN: usize = 3;
/// Generator seed of the kkt instance: the one BENCH_4 sweeps. The
/// generator seed moves where coarsening stalls, and with it the wall
/// time by up to 2x, so the instance is fixed.
const KKT_GRAPH_SEED: u64 = 0x77A7;

#[derive(Clone, Copy)]
pub enum Batch {
    GridK8,
    KktK2,
}

impl Batch {
    fn k(self) -> usize {
        match self {
            Batch::GridK8 => 8,
            Batch::KktK2 => 2,
        }
    }

    /// The partitioner seed a run partitions with, every time. On grid-k8
    /// the workload seed picks it. On kkt-k2 the partitioner seed decides
    /// where coarsening stalls, which moves the wall by up to 2x (3.2 s to
    /// 7.2 s over 16 random seeds), so kkt-k2 always partitions with the
    /// generator's seed and the workload seed leaves its inputs unchanged.
    fn partitioner_seed(self, seed: u64) -> u64 {
        match self {
            Batch::GridK8 => {
                let mut f = Fingerprint::new();
                f.u64(seed);
                f.finish()
            }
            Batch::KktK2 => KKT_GRAPH_SEED,
        }
    }

    fn generate(self) -> Graph {
        match self {
            Batch::GridK8 => grid_2d(512, 512),
            Batch::KktK2 => {
                let n = 1 << 17;
                let primal = n * 2 / 3;
                kkt_graph(
                    primal,
                    n - primal,
                    6,
                    &mut StdRng::seed_from_u64(KKT_GRAPH_SEED),
                )
            }
        }
    }
}

/// One untraced k-way partition, as a user runs it.
struct Run {
    part: KWayPartition,
    wall: f64,
    sim: f64,
    peak_rss_mb: f64,
    fp: u64,
}

fn untraced(g: &Graph, k: usize, seed: u64) -> Run {
    rss::reset_peak();
    let mut m = Machine::new(RANKS, CostModel::qdr_infiniband());
    let t = Instant::now();
    let part = recursive_kway_on(Method::ScalaPart, g, None, k, seed, &mut m);
    let wall = t.elapsed().as_secs_f64();
    let sim = m.elapsed();
    let peak_rss_mb = rss::peak_rss_bytes().map_or(0.0, |b| b as f64 / (1024.0 * 1024.0));
    let fp = fingerprint_labels(&part.part, sim);
    Run {
        part,
        wall,
        sim,
        peak_rss_mb,
        fp,
    }
}

pub fn run(wl: Batch, seed: u64, seconds: f64, trace: bool, report: &mut Report) {
    let mut setup = Vec::new();
    let g = set_up(wl, SETUP_REPS, &mut setup);
    let k = wl.k();
    let pseed = wl.partitioner_seed(seed);
    report.note(format!(
        "input n={} m={} fingerprint={:016x} k={k} ranks={RANKS} partitioner seed={pseed:x}",
        g.n(),
        g.m(),
        sp_serve::fingerprint_graph(&g),
    ));
    if trace {
        report.metric("graph.gen_s", fastest(&setup));
        traced(&g, k, pseed, seconds, report);
        return;
    }

    let start = Instant::now();
    let budget = Duration::from_secs_f64(seconds);
    let mut walls = Vec::new();
    let mut first: Option<Run> = None;
    let mut runs = 0;
    // At least two runs: the determinism gate gets a pair to compare, and
    // the first run, which pays for the process's cold heap and caches,
    // stays out of the timing.
    while runs < 2 || start.elapsed() < budget {
        let r = untraced(&g, k, pseed);
        report.attempted += 1;
        let expected = first.as_ref().map_or(r.fp, |f| f.fp);
        if let Err(e) = r.part.validate(&g) {
            report.fail(format!("invalid partition: {e}"));
        } else if r.fp != expected {
            report.fail(format!(
                "labels+sim fingerprint {:016x} differs from the first run's {expected:016x}",
                r.fp
            ));
        }
        report.note(format!(
            "run {runs}: wall {:.4} s sim {:.9} s peak {:.1} MiB cut {} imbalance {:.4} fp {:016x}",
            r.wall,
            r.sim,
            r.peak_rss_mb,
            r.part.edge_cut(&g),
            r.part.imbalance(&g),
            r.fp
        ));
        if first.is_some() {
            walls.push(r.wall);
        } else {
            first = Some(r);
        }
        runs += 1;
        set_up(wl, SETUP_REPS_BETWEEN, &mut setup);
    }
    let first = first.expect("at least one run");
    // The host runs at different speeds, switching every few seconds, and
    // only ever slows work down: the fastest set-up and the fastest
    // partition of the window are the ones it disturbed least.
    report.metric("setup_s", fastest(&setup));
    report.metric("wall_s", fastest(&walls));
    report.metric("sim_time_s", first.sim);
    // The first partition's peak is the one a user running a single
    // partition per process sees.
    report.metric("peak_rss_mb", first.peak_rss_mb);
}

/// Generates the input `reps` times, appending each generation's time to
/// `setup`, and returns the last graph.
fn set_up(wl: Batch, reps: usize, setup: &mut Vec<f64>) -> Graph {
    let mut g = None;
    for _ in 0..reps {
        let t = Instant::now();
        g = Some(std::hint::black_box(wl.generate()));
        setup.push(t.elapsed().as_secs_f64());
    }
    g.expect("at least one set-up repetition")
}

fn mean(xs: &[f64]) -> f64 {
    xs.iter().sum::<f64>() / xs.len() as f64
}

/// Checkpoint observer that turns the pipeline's hooks into spans: one
/// span per bisection, one per phase inside it, and one per coarsening
/// checkpoint interval inside the coarsen phase.
///
/// Bisection starts are read off `poll_cancel`: the pipeline polls right
/// after every hook except `on_refined`, and `recursive_kway_checked_on`
/// polls when a bisection method returns, before extracting the next
/// subgraph, and on entering the next bisection method. Counting the
/// polls not owed to a hook, the one before extraction opens a bisection
/// and the next one opens its coarsen phase.
struct Tracer<'s> {
    spans: &'s mut Spans,
    lane: u32,
    root: usize,
    bisections: Vec<usize>,
    bisection: Option<usize>,
    phase: Option<usize>,
    cursor: f64,
    last_hook: f64,
    post_hook_poll: bool,
    seen_hook: bool,
    polls: u32,
    shrink: Vec<f64>,
    moved: usize,
    /// `(levels, coarsest n)` of the root bisection's hierarchy.
    root_hierarchy: Option<(usize, usize)>,
}

impl<'s> Tracer<'s> {
    fn new(spans: &'s mut Spans, name: &str, lane: u32) -> Tracer<'s> {
        let t = spans.now();
        let root = spans.open(name, t, None, None, lane);
        Tracer {
            spans,
            lane,
            root,
            bisections: Vec::new(),
            bisection: None,
            phase: None,
            cursor: t,
            last_hook: t,
            post_hook_poll: false,
            seen_hook: false,
            polls: 0,
            shrink: Vec::new(),
            moved: 0,
            root_hierarchy: None,
        }
    }

    fn close_bisection(&mut self) {
        if let Some(p) = self.phase.take() {
            self.spans.close(p, self.last_hook);
        }
        if let Some(b) = self.bisection.take() {
            self.spans.close(b, self.last_hook);
        }
    }

    fn open_bisection(&mut self, t: f64, first_phase: &str) {
        self.close_bisection();
        let index = self.bisections.len();
        let b = self
            .spans
            .open("bisection", t, Some(self.root), Some(index), self.lane);
        self.bisections.push(b);
        self.bisection = Some(b);
        self.phase = Some(
            self.spans
                .open(first_phase, t, Some(b), Some(index), self.lane),
        );
        self.cursor = t;
    }

    fn switch_phase(&mut self, t: f64, name: &str) {
        if let Some(p) = self.phase.take() {
            self.spans.close(p, t);
        }
        let index = self.bisections.len().checked_sub(1);
        self.phase = Some(self.spans.open(name, t, self.bisection, index, self.lane));
        self.cursor = t;
    }

    /// Mark a hook: returns its time after updating the poll bookkeeping.
    fn hook(&mut self, polled_after: bool) -> f64 {
        let t = self.spans.now();
        self.post_hook_poll = polled_after;
        self.seen_hook = true;
        self.polls = 0;
        self.last_hook = t;
        t
    }

    fn interval(&mut self, name: &str, t: f64) {
        let index = self.bisections.len().checked_sub(1);
        self.spans
            .push(name, self.cursor, t, self.phase, index, self.lane);
        self.cursor = t;
    }

    /// Close every open span and hand back what was recorded.
    fn finish(mut self) -> Finished {
        self.close_bisection();
        let end = self.spans.now();
        self.spans.close(self.root, end);
        Finished {
            root: self.root,
            bisections: self.bisections,
            shrink: self.shrink,
            moved: self.moved,
            root_hierarchy: self.root_hierarchy,
        }
    }
}

struct Finished {
    root: usize,
    bisections: Vec<usize>,
    shrink: Vec<f64>,
    moved: usize,
    root_hierarchy: Option<(usize, usize)>,
}

impl PipelineObserver for Tracer<'_> {
    fn on_matching(&mut self, _g: &Graph, _m: &Matching) {
        let t = self.hook(true);
        self.interval("coarsen.match", t);
    }

    fn on_contraction(&mut self, _fine: &Graph, _m: &Matching, _c: &Contraction) {
        let t = self.hook(true);
        self.interval("coarsen.contract", t);
    }

    fn on_level_stats(&mut self, s: &LevelStats) {
        if s.fine_n > 0 {
            self.shrink.push(s.coarse_n as f64 / s.fine_n as f64);
        }
    }

    fn on_hierarchy(&mut self, h: &Hierarchy) {
        let t = self.hook(true);
        self.root_hierarchy
            .get_or_insert((h.depth(), h.coarsest().n()));
        self.switch_phase(t, "embed");
    }

    fn on_embedding(&mut self, _g: &Graph, _coords: &[Point2]) {
        let t = self.hook(true);
        self.switch_phase(t, "geopart");
    }

    fn on_geo_partition(&mut self, _g: &Graph, _geo: &GeoPartResult) {
        let t = self.hook(true);
        self.switch_phase(t, "refine");
    }

    fn on_refined(&mut self, _g: &Graph, _bi: &Bisection, st: &FmStats) {
        self.hook(false);
        self.moved += st.moved;
        self.close_bisection();
    }

    fn poll_cancel(&mut self) -> bool {
        if self.post_hook_poll {
            self.post_hook_poll = false;
            return false;
        }
        let t = self.spans.now();
        self.polls += 1;
        // Once a bisection has run, its method's return poll comes first.
        let extract = if self.seen_hook { 2 } else { 1 };
        if self.polls == extract {
            self.open_bisection(t, "kway.extract");
        } else if self.polls == extract + 1 {
            self.switch_phase(t, "coarsen");
        }
        false
    }
}

const PHASES: [&str; 4] = ["coarsen", "embed", "geopart", "refine"];

/// The traced run: untraced/traced k-way pairs for the overhead ratio and
/// the k-way layer breakdown, then one traced root bisection for the
/// embed levels and supersteps.
fn traced(g: &Graph, k: usize, seed: u64, seconds: f64, report: &mut Report) {
    let mut spans = Spans::new();
    spans.name_lane(0, "k-way partition (traced)");
    spans.name_lane(1, "root bisection (traced)");
    spans.name_lane(2, "root bisection supersteps");
    let start = Instant::now();
    let mut untraced_walls = Vec::new();
    let mut traced_walls = Vec::new();
    let mut per_rep: Vec<Vec<(&'static str, f64)>> = Vec::new();
    let mut reference: Option<Run> = None;
    // Pairs fill about 60% of the run, leaving room for the root bisection.
    while per_rep.is_empty() || start.elapsed().as_secs_f64() < seconds * 0.6 {
        let plain = untraced(g, k, seed);
        report.attempted += 1;
        if let Err(e) = plain.part.validate(g) {
            report.fail(format!("untraced run: invalid partition: {e}"));
        }
        untraced_walls.push(plain.wall);

        let mut m = Machine::new(RANKS, CostModel::qdr_infiniband());
        let t = Instant::now();
        let mut tracer = Tracer::new(&mut spans, "kway", 0);
        let part =
            recursive_kway_checked_on(Method::ScalaPart, g, None, k, seed, &mut m, &mut tracer)
                .expect("the tracer never cancels");
        let fin = tracer.finish();
        let wall = t.elapsed().as_secs_f64();
        traced_walls.push(wall);
        report.attempted += 1;
        let fp = fingerprint_labels(&part.part, m.elapsed());
        if let Err(e) = part.validate(g) {
            report.fail(format!("traced run: invalid partition: {e}"));
        } else if fp != plain.fp {
            report.fail(format!(
                "traced k-way fingerprint {fp:016x} differs from the untraced {:016x}",
                plain.fp
            ));
        }
        let reference = reference.get_or_insert(plain);
        if fp != reference.fp {
            report.fail(format!(
                "k-way fingerprint {fp:016x} differs from the first run's {:016x}",
                reference.fp
            ));
        }
        per_rep.push(kway_layers(&spans, &fin, k, &part, g, report));
    }
    let reference = reference.expect("at least one pair ran");

    // Root bisection through the same pipeline, with the smoother and the
    // machine's superstep hook wrapped.
    let root_layers = root_bisection(g, k, seed, &reference, &mut spans, report);

    for (name, _) in &per_rep[0] {
        let xs: Vec<f64> = per_rep
            .iter()
            .map(|r| r.iter().find(|(n, _)| n == name).expect("same keys").1)
            .collect();
        report.metric(name, median(&xs));
    }
    for (name, v) in root_layers {
        report.metric(name, v);
    }
    report.metric(
        "trace.overhead",
        median(&traced_walls) / median(&untraced_walls),
    );
    report.note(format!(
        "traced k-way walls {traced_walls:?} untraced {untraced_walls:?}"
    ));
    for (name, (total, own)) in spans.breakdown(0) {
        report.note(format!(
            "span {name:<18} total {total:>9.4} s  self {own:>9.4} s"
        ));
    }
    report.write_trace(&spans.chrome_trace("e2ebench host wall"));
}

fn kway_layers(
    spans: &Spans,
    fin: &Finished,
    k: usize,
    part: &KWayPartition,
    g: &Graph,
    report: &mut Report,
) -> Vec<(&'static str, f64)> {
    let durations: Vec<f64> = fin.bisections.iter().map(|&b| spans.get(b).dur()).collect();
    let critical = if durations.len() == preorder_depths(k).len() {
        critical_path(k, &durations)
    } else {
        report.fail(format!(
            "traced {} bisections, k = {k} needs {}",
            durations.len(),
            preorder_depths(k).len()
        ));
        0.0
    };
    let traced_wall = spans.get(fin.root).dur();
    let covered: f64 = PHASES.iter().map(|p| spans.total(fin.root, p)).sum();
    let (levels, coarsest) = fin.root_hierarchy.unwrap_or_default();
    vec![
        ("coarsen.match_s", spans.total(fin.root, "coarsen.match")),
        (
            "coarsen.contract_s",
            spans.total(fin.root, "coarsen.contract"),
        ),
        ("coarsen.levels", levels as f64),
        ("coarsen.coarsest_n", coarsest as f64),
        ("coarsen.shrink", mean_or_zero(&fin.shrink)),
        ("embed.s", spans.total(fin.root, "embed")),
        ("geopart.s", spans.total(fin.root, "geopart")),
        ("refine.s", spans.total(fin.root, "refine")),
        ("refine.moved", fin.moved as f64),
        ("kway.bisections", durations.len() as f64),
        ("kway.root_s", durations.first().copied().unwrap_or(0.0)),
        ("kway.critical_path_s", critical),
        ("kway.other_s", traced_wall - covered),
        ("kway.edge_cut", part.edge_cut(g)),
        ("kway.imbalance", part.imbalance(g)),
        ("trace.coverage", covered / traced_wall),
    ]
}

fn mean_or_zero(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        mean(xs)
    }
}

/// Cut of the root split inside a k-way labelling: the root bisection
/// sends parts `0..k/2` to one side.
fn root_cut(part: &KWayPartition, g: &Graph) -> usize {
    let k0 = (part.k / 2) as u32;
    let side = |v: u32| part.part[v as usize] < k0;
    (0..g.n() as u32)
        .map(|v| {
            g.neighbors(v)
                .iter()
                .filter(|&&u| u > v && side(u) != side(v))
                .count()
        })
        .sum()
}

fn root_bisection(
    g: &Graph,
    k: usize,
    seed: u64,
    reference: &Run,
    spans: &mut Spans,
    report: &mut Report,
) -> Vec<(&'static str, f64)> {
    type Superstep = (Instant, f64, usize);
    let steps: Arc<Mutex<Vec<Superstep>>> = Arc::new(Mutex::new(Vec::new()));
    let mut m = Machine::new(RANKS, CostModel::qdr_infiniband());
    {
        let steps = steps.clone();
        m.set_superstep_hook(Box::new(move |info: &SuperstepInfo| {
            steps.lock().expect("superstep log lock").push((
                Instant::now(),
                info.wall_seconds,
                info.active,
            ));
        }));
    }
    let mut calls: Vec<(Instant, Instant, usize)> = Vec::new();
    let mut smoother = |sg: &Graph,
                        coords: &mut [Point2],
                        q: usize,
                        machine: &mut Machine,
                        cfg: &LatticeConfig,
                        scratch: &mut SmoothScratch|
     -> LatticeStats {
        let t = Instant::now();
        let st = lattice_smooth_with(sg, coords, q, machine, cfg, scratch);
        calls.push((t, Instant::now(), sg.n()));
        st
    };
    let mut tracer = Tracer::new(spans, "root bisection", 1);
    let t0 = tracer.spans.now();
    tracer.open_bisection(t0, "coarsen");
    let cfg = SpConfig::default().with_seed(seed);
    let r = scalapart_bisect_with(g, &mut m, &cfg, &mut tracer, &mut smoother);
    let fin = tracer.finish();
    report.attempted += 1;

    let sim = m.elapsed();
    let expected_cut = root_cut(&reference.part, g);
    if r.cut != expected_cut || sim.to_bits() != reference.sim.to_bits() {
        report.fail(format!(
            "root bisection cut {} sim {sim:e} does not reproduce the k-way root's cut {expected_cut} sim {:e}",
            r.cut, reference.sim
        ));
    } else {
        report.note(format!(
            "root bisection reproduces the k-way root: cut {} sim {sim:.9} s (k = {k})",
            r.cut
        ));
    }

    for (name, (total, own)) in spans.breakdown(fin.root) {
        report.note(format!(
            "root span {name:<18} total {total:>9.4} s  self {own:>9.4} s"
        ));
    }
    let bisection = fin.bisections[0];
    let embed = (0..spans.all().len())
        .find(|&i| spans.get(i).name == "embed" && spans.get(i).parent == Some(bisection))
        .expect("the root bisection has an embed phase");
    let embed_start = spans.get(embed).start;
    let embed_end = spans.get(embed).end;
    let first_call = calls.first().map_or(embed_end, |c| spans.at(c.0));
    spans.push(
        "embed.coarse",
        embed_start,
        first_call,
        Some(embed),
        Some(0),
        1,
    );
    let mut lattice = 0.0;
    let mut finest = 0.0;
    for &(a, b, n) in &calls {
        let (a, b) = (spans.at(a), spans.at(b));
        spans.push(
            &format!("embed.lattice n={n}"),
            a,
            b,
            Some(embed),
            Some(0),
            1,
        );
        lattice += b - a;
        if n == g.n() {
            finest = b - a;
        }
    }
    let steps = steps.lock().expect("superstep log lock");
    let mut busy = 0.0;
    let mut active = 0usize;
    for &(end, wall, act) in steps.iter() {
        let e = spans.at(end);
        spans.push("superstep", e - wall, e, None, Some(0), 2);
        busy += wall;
        active += act;
    }
    vec![
        ("embed.coarse_s", first_call - embed_start),
        ("embed.lattice_s", lattice),
        ("embed.lattice_finest_s", finest),
        ("machine.supersteps", steps.len() as f64),
        ("machine.superstep_s", busy),
        (
            "machine.active_ranks",
            active as f64 / steps.len().max(1) as f64,
        ),
    ]
}
