//! Full-pipeline differential tests: run ScalaPart once with the
//! optimized lattice smoother and once with the pre-optimization reference
//! smoother plugged into the same pipeline, and demand bit-identical
//! results. Every other stage is shared code, so any divergence indicts
//! the optimized smoothing kernel alone. (The FM counterpart — optimized
//! heap FM vs a naive full-recompute oracle — lives in
//! `sp-refine::naive`.)
//!
//! The Barnes–Hut force layout gets the same treatment one level down:
//! the flat `sp_geometry::QuadTree` and the allocation-free
//! `sp_embed::force_layout` must reproduce the pre-optimization reference
//! pair bit for bit on every input shape the pipeline feeds them.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use scalapart::{scalapart_bisect, scalapart_bisect_with, NoopObserver, SpConfig, SpResult};
use sp_bench::reference::{reference_force_layout, reference_lattice_smooth, ReferenceQuadTree};
use sp_coarsen::{CoarsenConfig, Hierarchy};
use sp_embed::{force_layout, random_init, ForceParams, MultilevelEmbedConfig};
use sp_geometry::{Point2, QuadTree};
use sp_graph::gen::{delaunay_graph, grid_2d, kkt_graph};
use sp_graph::{Graph, GraphBuilder};
use sp_machine::{CostModel, Machine};

fn run_optimized(g: &Graph, p: usize, cfg: &SpConfig) -> (SpResult, f64) {
    let mut m = Machine::new(p, CostModel::qdr_infiniband());
    let r = scalapart_bisect(g, &mut m, cfg);
    let elapsed = m.elapsed();
    (r, elapsed)
}

fn run_reference(g: &Graph, p: usize, cfg: &SpConfig) -> (SpResult, f64) {
    let mut m = Machine::new(p, CostModel::qdr_infiniband());
    let r = scalapart_bisect_with(
        g,
        &mut m,
        cfg,
        &mut NoopObserver,
        &mut |g, c, q, mach, lcfg, _scratch| reference_lattice_smooth(g, c, q, mach, lcfg),
    );
    let elapsed = m.elapsed();
    (r, elapsed)
}

fn assert_bit_identical(g: &Graph, name: &str, a: &(SpResult, f64), b: &(SpResult, f64)) {
    let ((ra, ta), (rb, tb)) = (a, b);
    assert_eq!(ra.cut, rb.cut, "{name}: cut diverged");
    assert_eq!(
        ra.cut_before_refine, rb.cut_before_refine,
        "{name}: pre-refinement cut diverged"
    );
    for v in 0..g.n() as u32 {
        assert_eq!(
            ra.bisection.side(v),
            rb.bisection.side(v),
            "{name}: vertex {v} on different sides"
        );
    }
    for (i, (ca, cb)) in ra.coords.iter().zip(&rb.coords).enumerate() {
        assert_eq!(
            (ca.x.to_bits(), ca.y.to_bits()),
            (cb.x.to_bits(), cb.y.to_bits()),
            "{name}: coordinate {i} differs in bits"
        );
    }
    assert_eq!(
        ra.total_time.to_bits(),
        rb.total_time.to_bits(),
        "{name}: simulated pipeline time diverged ({} vs {})",
        ra.total_time,
        rb.total_time
    );
    assert_eq!(
        ta.to_bits(),
        tb.to_bits(),
        "{name}: machine clocks diverged ({ta} vs {tb})"
    );
}

#[test]
fn pipeline_matches_reference_on_grid() {
    let g = grid_2d(40, 40);
    let cfg = SpConfig::default().with_seed(0xD1FF_0001);
    let a = run_optimized(&g, 16, &cfg);
    let b = run_reference(&g, 16, &cfg);
    assert_bit_identical(&g, "grid 40x40", &a, &b);
    assert!(a.0.cut > 0);
}

#[test]
fn pipeline_matches_reference_on_delaunay() {
    let mut rng = StdRng::seed_from_u64(0xD1FF_0002);
    let (g, _) = delaunay_graph(2000, &mut rng);
    let cfg = SpConfig::default().with_seed(0xD1FF_0002);
    let a = run_optimized(&g, 16, &cfg);
    let b = run_reference(&g, 16, &cfg);
    assert_bit_identical(&g, "delaunay 2000", &a, &b);
}

#[test]
fn pipeline_matches_reference_on_kkt_power_law() {
    let mut rng = StdRng::seed_from_u64(0xD1FF_0003);
    let g = kkt_graph(1500, 60, 5, &mut rng);
    let cfg = SpConfig::default().with_seed(0xD1FF_0003);
    let a = run_optimized(&g, 9, &cfg);
    let b = run_reference(&g, 9, &cfg);
    assert_bit_identical(&g, "kkt 1500", &a, &b);
}

/// The layout settings the pipeline uses at the coarsest level
/// (`coarsest = true`) and at replicated finer levels.
fn layout_settings(coarsest: bool) -> (f64, usize, f64, f64) {
    let cfg = MultilevelEmbedConfig::default();
    if coarsest {
        let step0 = cfg.lattice.step0.max(0.8);
        (cfg.theta, cfg.iters_coarsest, step0, cfg.lattice.cooling)
    } else {
        let step0 = cfg.lattice.step0 * 0.3;
        (cfg.theta, cfg.iters_smooth * 2, step0, cfg.lattice.cooling)
    }
}

/// Run the optimized and the reference layout from the same start and
/// demand bit-equal coordinates and op counts.
fn assert_layouts_match(name: &str, g: &Graph, start: &[Point2], coarsest: bool) {
    let (theta, iters, step0, cooling) = layout_settings(coarsest);
    let params = ForceParams::for_domain(0.2, g.n() as f64, g.n());
    let mut a = start.to_vec();
    let mut b = start.to_vec();
    let ops_a = force_layout(g, &mut a, &params, theta, iters, step0, cooling);
    let ops_b = reference_force_layout(g, &mut b, &params, theta, iters, step0, cooling);
    assert_eq!(
        ops_a.to_bits(),
        ops_b.to_bits(),
        "{name}: ops diverged ({ops_a} vs {ops_b})"
    );
    for (i, (ca, cb)) in a.iter().zip(&b).enumerate() {
        assert_eq!(
            (ca.x.to_bits(), ca.y.to_bits()),
            (cb.x.to_bits(), cb.y.to_bits()),
            "{name}: coordinate {i} differs in bits"
        );
    }
}

fn random_start(n: usize, seed: u64) -> Vec<Point2> {
    random_init(n, &mut StdRng::seed_from_u64(seed))
}

#[test]
fn force_layout_matches_reference_on_grid_coarsest_level() {
    let h = Hierarchy::build(&grid_2d(96, 96), &CoarsenConfig::default());
    let g = h.coarsest();
    assert!(h.depth() > 1 && g.n() > 100, "want a real coarsest level");
    assert_layouts_match("grid coarsest", g, &random_start(g.n(), 1), true);
}

#[test]
fn force_layout_matches_reference_on_weighted_coarse_level() {
    let h = Hierarchy::build(
        &grid_2d(96, 96),
        &CoarsenConfig {
            target_coarsest: 200,
            ..Default::default()
        },
    );
    let g = &h.levels[1].graph;
    assert!(
        g.vwgts().iter().any(|&w| w != 1.0),
        "level 1 must carry non-unit vertex weights"
    );
    assert_layouts_match("weighted level 1", g, &random_start(g.n(), 2), false);
}

#[test]
fn force_layout_matches_reference_on_kkt() {
    let mut rng = StdRng::seed_from_u64(0xD1FF_0004);
    let g = kkt_graph(1500, 60, 5, &mut rng);
    assert_layouts_match("kkt 1500", &g, &random_start(g.n(), 3), true);
}

#[test]
fn force_layout_matches_reference_on_delaunay() {
    let mut rng = StdRng::seed_from_u64(0xD1FF_0005);
    let (g, _) = delaunay_graph(2000, &mut rng);
    assert_layouts_match("delaunay 2000", &g, &random_start(g.n(), 4), false);
}

/// 12×12 grid whose first 40 vertices start on one point: the tree over
/// that cloud keeps splitting down to its depth cap.
fn duplicate_cloud() -> (Graph, Vec<Point2>) {
    let g = grid_2d(12, 12);
    let mut pts = random_start(g.n(), 5);
    for p in &mut pts[..40] {
        *p = Point2::new(3.25, 7.5);
    }
    (g, pts)
}

#[test]
fn force_layout_matches_reference_on_duplicate_points() {
    let (g, pts) = duplicate_cloud();
    let depth_capped = QuadTree::build(&pts, None).node_count();
    // 48 levels of four children: the depth cap of the tree.
    assert!(depth_capped > 4 * 48, "tree did not reach its depth cap");
    assert_layouts_match("duplicate cloud", &g, &pts, true);
}

#[test]
fn force_layout_matches_reference_on_empty_and_single_vertex() {
    let empty = GraphBuilder::new(0).build();
    assert_layouts_match("n = 0", &empty, &[], true);
    let single = GraphBuilder::new(1).build();
    assert_layouts_match("n = 1", &single, &[Point2::new(0.5, 0.5)], true);
}

#[test]
fn quadtree_visits_match_reference() {
    let (_, dup) = duplicate_cloud();
    let mut rng = StdRng::seed_from_u64(6);
    let cloud = random_start(2500, 7);
    let masses: Vec<f64> = (0..2500).map(|_| rng.random_range(1.0..9.0)).collect();
    let mut flat = QuadTree::default();
    for (name, pts, m) in [
        ("duplicates", &dup, None),
        ("weighted cloud", &cloud, Some(&masses[..])),
    ] {
        let reference = ReferenceQuadTree::build(pts, m);
        flat.rebuild(pts, m);
        assert_eq!(flat.node_count(), reference.node_count(), "{name}");
        assert_eq!(
            flat.total_mass().to_bits(),
            reference.total_mass().to_bits(),
            "{name}"
        );
        for theta in [0.0, 0.85, 1.1] {
            for q in [0usize, 7, 39, 41, pts.len() - 1] {
                let mut got = Vec::new();
                let mut want = Vec::new();
                let bits = |p: Point2, m: f64| (p.x.to_bits(), p.y.to_bits(), m.to_bits());
                let n_got = flat
                    .for_each_approx(pts[q], Some(q as u32), theta, |p, m| got.push(bits(p, m)));
                let n_want = reference
                    .for_each_approx(pts[q], Some(q as u32), theta, |p, m| want.push(bits(p, m)));
                assert_eq!(n_got, n_want, "{name}: theta {theta} query {q}");
                assert_eq!(got, want, "{name}: theta {theta} query {q}");
            }
        }
    }
}
