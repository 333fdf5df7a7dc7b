//! What one benchmark run found: metrics with units, operation counts,
//! failures, and the human-readable notes printed before the result line.

use scalapart::machine::trace::fnv::Fingerprint;
use scalapart::machine::trace::json::{escape, num};
use std::path::PathBuf;

/// End-to-end metrics with their units; every workload reports all of
/// them on an untraced run.
pub const END_TO_END: [(&str, &str); 4] = [
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("sim_time_s", "s"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics with their units, reported on a traced run. A layer
/// the workload does not exercise reads 0.
pub const PER_LAYER: [(&str, &str); 40] = [
    ("graph.gen_s", "s"),
    ("coarsen.match_s", "s"),
    ("coarsen.contract_s", "s"),
    ("coarsen.levels", "count"),
    ("coarsen.coarsest_n", "count"),
    ("coarsen.shrink", "ratio"),
    ("embed.s", "s"),
    ("embed.coarse_s", "s"),
    ("embed.lattice_s", "s"),
    ("embed.lattice_finest_s", "s"),
    ("geopart.s", "s"),
    ("refine.s", "s"),
    ("refine.moved", "count"),
    ("kway.bisections", "count"),
    ("kway.root_s", "s"),
    ("kway.critical_path_s", "s"),
    ("kway.other_s", "s"),
    ("kway.edge_cut", "count"),
    ("kway.imbalance", "ratio"),
    ("machine.supersteps", "count"),
    ("machine.superstep_s", "s"),
    ("machine.active_ranks", "count"),
    ("serve.submit_rps", "1/s"),
    ("serve.submit_p90_ms", "ms"),
    ("serve.submit_samples", "count"),
    ("serve.hit_p50_ms", "ms"),
    ("serve.queue_wait_p50_ms", "ms"),
    ("serve.job_run_p50_ms", "ms"),
    ("serve.embed_ms", "ms"),
    ("serve.coarsen_ms", "ms"),
    ("serve.overhead_p50_ms", "ms"),
    ("serve.cache_hit_rate", "ratio"),
    ("serve.worker_busy_share", "ratio"),
    ("stream.session_p50_ms", "ms"),
    ("stream.session_p90_ms", "ms"),
    ("stream.repartition_p50_ms", "ms"),
    ("stream.incremental_share", "ratio"),
    ("stream.dirty_mean", "count"),
    ("trace.overhead", "ratio"),
    ("trace.coverage", "ratio"),
];

pub struct Report {
    metrics: Vec<(String, f64, &'static str)>,
    pub attempted: u64,
    pub failed: u64,
    trace_path: PathBuf,
}

impl Report {
    pub fn new(trace_path: PathBuf) -> Report {
        Report {
            metrics: Vec::new(),
            attempted: 0,
            failed: 0,
            trace_path,
        }
    }

    /// Record a metric from [`END_TO_END`] or [`PER_LAYER`].
    pub fn metric(&mut self, name: &str, value: f64) {
        let (name, unit) = END_TO_END
            .iter()
            .chain(PER_LAYER.iter())
            .find(|(n, _)| *n == name)
            .copied()
            .unwrap_or_else(|| panic!("metric {name} is not declared"));
        if !value.is_finite() {
            self.fail(format!("metric {name} is not finite"));
            return;
        }
        println!("metric {name} = {value} {unit}");
        self.metrics.push((name.to_string(), value, unit));
    }

    /// Complete the metric set the run mode promises: a missing end-to-end
    /// metric is a failure, a per-layer metric the workload has no layer
    /// for reads 0.
    pub fn complete(&mut self, trace: bool) {
        let declared: &[(&str, &str)] = if trace { &PER_LAYER } else { &END_TO_END };
        for &(name, _) in declared {
            if self.metrics.iter().any(|m| m.0 == name) {
                continue;
            }
            if trace {
                self.metric(name, 0.0);
            } else {
                self.fail(format!("end-to-end metric {name} was not measured"));
            }
        }
        self.metrics.retain(|m| declared.iter().any(|d| d.0 == m.0));
    }

    pub fn note(&mut self, line: String) {
        println!("# {line}");
    }

    /// Count one failed operation.
    pub fn fail(&mut self, why: String) {
        println!("# FAILED: {why}");
        self.failed += 1;
    }

    pub fn correct(&self) -> bool {
        self.failed == 0 && self.attempted > 0
    }

    /// Write the traced run's spans.
    pub fn write_trace(&mut self, chrome_json: &str) {
        let written = self
            .trace_path
            .parent()
            .map_or(Ok(()), std::fs::create_dir_all)
            .and_then(|()| std::fs::write(&self.trace_path, chrome_json));
        match written {
            Ok(()) => self.note(format!("spans written to {}", self.trace_path.display())),
            Err(e) => self.fail(format!("writing {}: {e}", self.trace_path.display())),
        }
    }

    /// The result line: one JSON object.
    pub fn to_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, v, unit)| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    escape(name),
                    num(*v),
                    escape(unit)
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// Fingerprint of a partition's labels together with the simulated time's
/// bits: equal fingerprints mean the same labels and the same sim time.
pub fn fingerprint_labels(part: &[u32], sim: f64) -> u64 {
    let mut f = Fingerprint::new();
    for &p in part {
        f.u64(p as u64);
    }
    f.f64_bits(sim);
    f.finish()
}
