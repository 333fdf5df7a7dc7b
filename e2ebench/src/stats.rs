//! Summary statistics shared by the workloads: the percentile rule, the
//! k-way critical path, and the Prometheus histogram scrape.

use std::collections::BTreeMap;

/// Median of `xs` (mean of the two middle values for even lengths).
pub fn median(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "median of no samples");
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Smallest of `xs`: the time a host that only ever slows work down
/// least disturbed.
pub fn fastest(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "fastest of no samples");
    xs.iter().copied().fold(f64::INFINITY, f64::min)
}

/// Nearest-rank percentile `q` (0 < q < 100) of `xs`.
pub fn percentile(xs: &[f64], q: f64) -> f64 {
    assert!(!xs.is_empty(), "percentile of no samples");
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((q / 100.0) * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// How many samples lie strictly above the nearest-rank percentile `q`.
pub fn beyond(n: usize, q: f64) -> usize {
    let rank = ((q / 100.0) * n as f64).ceil() as usize;
    n.saturating_sub(rank.max(1))
}

/// The percentile rule for reporting a timing: the median plus the
/// highest of the standard tail percentiles that still has at least ten
/// samples beyond it, with the sample count.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Tail {
    pub samples: usize,
    pub p50: f64,
    /// `(q, value)` of the highest percentile with ≥ 10 samples beyond
    /// it; `None` when even p50 has fewer than ten.
    pub tail: Option<(f64, f64)>,
}

const TAIL_PERCENTILES: [f64; 5] = [99.9, 99.0, 95.0, 90.0, 75.0];

pub fn tail(xs: &[f64]) -> Tail {
    let n = xs.len();
    let tail = TAIL_PERCENTILES
        .iter()
        .find(|&&q| beyond(n, q) >= 10)
        .map(|&q| (q, percentile(xs, q)));
    Tail {
        samples: n,
        p50: median(xs),
        tail,
    }
}

/// Recursion depth of every bisection of a k-way recursive bisection, in
/// the preorder `scalapart::kway` runs them: `k` splits into `k / 2` and
/// `k - k / 2` parts and a part count of one is a leaf.
pub fn preorder_depths(k: usize) -> Vec<usize> {
    fn walk(k: usize, depth: usize, out: &mut Vec<usize>) {
        if k <= 1 {
            return;
        }
        out.push(depth);
        walk(k / 2, depth + 1, out);
        walk(k - k / 2, depth + 1, out);
    }
    let mut out = Vec::new();
    walk(k, 0, &mut out);
    out
}

/// Sum over recursion depths of the slowest bisection at that depth, from
/// bisection durations in preorder. Sibling subtrees are independent, so
/// this is the wall a run with every sibling concurrent could reach.
pub fn critical_path(k: usize, durations_preorder: &[f64]) -> f64 {
    let depths = preorder_depths(k);
    assert_eq!(
        depths.len(),
        durations_preorder.len(),
        "k = {k} has {} bisections",
        depths.len()
    );
    let mut slowest: BTreeMap<usize, f64> = BTreeMap::new();
    for (&d, &t) in depths.iter().zip(durations_preorder) {
        let e = slowest.entry(d).or_insert(0.0);
        *e = e.max(t);
    }
    slowest.values().sum()
}

/// One Prometheus histogram (or a counter/gauge when `buckets` is empty)
/// parsed out of a text exposition.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Histogram {
    /// Cumulative `(le, count)` pairs in exposition order; `+Inf` last.
    pub buckets: Vec<(f64, f64)>,
    pub sum: f64,
    pub count: f64,
}

impl Histogram {
    /// Bucket-wise difference `self - earlier`, for the samples observed
    /// between two scrapes.
    pub fn since(&self, earlier: &Histogram) -> Histogram {
        let buckets = self
            .buckets
            .iter()
            .map(|&(le, c)| {
                let before = earlier
                    .buckets
                    .iter()
                    .find(|b| b.0 == le)
                    .map_or(0.0, |b| b.1);
                (le, c - before)
            })
            .collect();
        Histogram {
            buckets,
            sum: self.sum - earlier.sum,
            count: self.count - earlier.count,
        }
    }

    pub fn mean(&self) -> f64 {
        if self.count > 0.0 {
            self.sum / self.count
        } else {
            0.0
        }
    }

    /// Quantile `q` (0..1) by linear interpolation inside the bucket that
    /// holds it, the way Prometheus' `histogram_quantile` does. A quantile
    /// landing in the `+Inf` bucket reports the highest finite bound.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.count <= 0.0 {
            return 0.0;
        }
        let target = q * self.count;
        let mut prev_le = 0.0;
        let mut prev_c = 0.0;
        for &(le, c) in &self.buckets {
            if c >= target {
                if le.is_infinite() {
                    return prev_le;
                }
                let in_bucket = c - prev_c;
                let frac = if in_bucket > 0.0 {
                    (target - prev_c) / in_bucket
                } else {
                    0.0
                };
                return prev_le + (le - prev_le) * frac;
            }
            prev_le = le;
            prev_c = c;
        }
        prev_le
    }
}

/// Read the metric `name` whose label set contains every `labels` pair
/// (the `le` label of buckets aside). Counters and gauges come back with
/// their value in `sum` and `count = 1`; histograms fill all fields.
/// `None` when the exposition has no such series.
pub fn scrape(exposition: &str, name: &str, labels: &[(&str, &str)]) -> Option<Histogram> {
    let mut h = Histogram::default();
    let mut found = false;
    for line in exposition.lines() {
        if line.starts_with('#') || line.trim().is_empty() {
            continue;
        }
        let Some((series, value)) = line.rsplit_once(' ') else {
            continue;
        };
        let Ok(value) = value.parse::<f64>() else {
            continue;
        };
        let (metric, label_text) = match series.split_once('{') {
            Some((m, rest)) => (m, rest.trim_end_matches('}')),
            None => (series, ""),
        };
        let parsed = parse_labels(label_text);
        if !labels
            .iter()
            .all(|(k, v)| parsed.iter().any(|(pk, pv)| pk == k && pv == v))
        {
            continue;
        }
        if metric == name {
            h.sum = value;
            h.count = 1.0;
            found = true;
        } else if metric.strip_suffix("_bucket") == Some(name) {
            let le = parsed
                .iter()
                .find(|(k, _)| k == "le")
                .map(|(_, v)| v.as_str())?;
            let le = if le == "+Inf" {
                f64::INFINITY
            } else {
                le.parse().ok()?
            };
            h.buckets.push((le, value));
            found = true;
        } else if metric.strip_suffix("_sum") == Some(name) {
            h.sum = value;
            found = true;
        } else if metric.strip_suffix("_count") == Some(name) {
            h.count = value;
            found = true;
        }
    }
    found.then_some(h)
}

fn parse_labels(text: &str) -> Vec<(String, String)> {
    let mut out = Vec::new();
    let mut rest = text;
    while let Some((key, tail)) = rest.split_once("=\"") {
        let mut value = String::new();
        let mut chars = tail.char_indices();
        let mut end = tail.len();
        while let Some((i, c)) = chars.next() {
            match c {
                '\\' => {
                    if let Some((_, e)) = chars.next() {
                        value.push(e);
                    }
                }
                '"' => {
                    end = i + 1;
                    break;
                }
                c => value.push(c),
            }
        }
        out.push((key.trim_start_matches(',').trim().to_string(), value));
        rest = &tail[end..];
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn fastest_is_the_minimum() {
        assert_eq!(fastest(&[3.0, 1.5, 2.0]), 1.5);
    }

    #[test]
    fn tail_picks_highest_percentile_with_ten_beyond() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        let t = tail(&xs);
        assert_eq!(t.samples, 100);
        assert_eq!(t.p50, 50.5);
        // p99 leaves 1 sample beyond, p95 leaves 5, p90 leaves exactly 10.
        assert_eq!(t.tail, Some((90.0, 90.0)));

        let xs: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(tail(&xs).tail, Some((99.0, 990.0)));

        // 39 samples: p75 (rank 30) leaves 9 beyond, so no tail qualifies.
        let xs: Vec<f64> = (1..=39).map(f64::from).collect();
        assert_eq!(tail(&xs).tail, None);
        let xs: Vec<f64> = (1..=40).map(f64::from).collect();
        assert_eq!(tail(&xs).tail, Some((75.0, 30.0)));
    }

    #[test]
    fn beyond_counts_samples_above_the_rank() {
        assert_eq!(beyond(100, 90.0), 10);
        assert_eq!(beyond(109, 90.0), 10);
        assert_eq!(beyond(110, 90.0), 11);
        assert_eq!(beyond(1, 50.0), 0);
        assert_eq!(beyond(0, 50.0), 0);
    }

    #[test]
    fn preorder_depths_follow_the_kway_split() {
        assert_eq!(preorder_depths(1), Vec::<usize>::new());
        assert_eq!(preorder_depths(2), vec![0]);
        assert_eq!(preorder_depths(8), vec![0, 1, 2, 2, 1, 2, 2]);
        // k = 3 splits into 1 (leaf) and 2.
        assert_eq!(preorder_depths(3), vec![0, 1]);
    }

    #[test]
    fn critical_path_sums_the_slowest_bisection_per_depth() {
        // Depths 0,1,2,2,1,2,2: 4.0 + max(1.0, 1.5) + max(0.2, 0.3, 0.4, 0.1).
        let d = [4.0, 1.0, 0.2, 0.3, 1.5, 0.4, 0.1];
        assert!((critical_path(8, &d) - 5.9).abs() < 1e-12);
        // k = 2 is the root alone.
        assert_eq!(critical_path(2, &[3.25]), 3.25);
    }

    const EXPO: &str = "\
# HELP sp_job_run_milliseconds Worker execution time per job
# TYPE sp_job_run_milliseconds histogram
sp_job_run_milliseconds_bucket{le=\"1\"} 2
sp_job_run_milliseconds_bucket{le=\"10\"} 6
sp_job_run_milliseconds_bucket{le=\"100\"} 10
sp_job_run_milliseconds_bucket{le=\"+Inf\"} 10
sp_job_run_milliseconds_sum 250
sp_job_run_milliseconds_count 10
sp_phase_wall_milliseconds_bucket{phase=\"embed\",le=\"10\"} 1
sp_phase_wall_milliseconds_bucket{phase=\"embed\",le=\"+Inf\"} 3
sp_phase_wall_milliseconds_sum{phase=\"embed\"} 90
sp_phase_wall_milliseconds_count{phase=\"embed\"} 3
sp_phase_wall_milliseconds_sum{phase=\"coarsen\"} 12
sp_phase_wall_milliseconds_count{phase=\"coarsen\"} 4
sp_cache_hits_total 7
";

    #[test]
    fn scrape_reads_histogram_sum_count_and_buckets() {
        let h = scrape(EXPO, "sp_job_run_milliseconds", &[]).unwrap();
        assert_eq!(h.count, 10.0);
        assert_eq!(h.sum, 250.0);
        assert_eq!(h.mean(), 25.0);
        assert_eq!(h.buckets.len(), 4);
        // Rank 5 of 10 lies in (1, 10]: 3 of that bucket's 4 samples.
        assert!((h.quantile(0.5) - 7.75).abs() < 1e-12);
        assert!((h.quantile(0.2) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn scrape_selects_by_label_and_reads_counters() {
        let e = scrape(EXPO, "sp_phase_wall_milliseconds", &[("phase", "embed")]).unwrap();
        assert_eq!((e.sum, e.count), (90.0, 3.0));
        // Two of three samples sit in +Inf: the quantile clamps to 10.
        assert_eq!(e.quantile(0.9), 10.0);
        let c = scrape(EXPO, "sp_phase_wall_milliseconds", &[("phase", "coarsen")]).unwrap();
        assert_eq!(c.mean(), 3.0);
        assert_eq!(scrape(EXPO, "sp_cache_hits_total", &[]).unwrap().sum, 7.0);
        assert!(scrape(EXPO, "sp_missing", &[]).is_none());
    }

    #[test]
    fn histogram_difference_isolates_a_window() {
        let before = Histogram {
            buckets: vec![(1.0, 1.0), (f64::INFINITY, 2.0)],
            sum: 3.0,
            count: 2.0,
        };
        let after = Histogram {
            buckets: vec![(1.0, 1.0), (f64::INFINITY, 5.0)],
            sum: 12.0,
            count: 5.0,
        };
        let d = after.since(&before);
        assert_eq!(d.buckets, vec![(1.0, 0.0), (f64::INFINITY, 3.0)]);
        assert_eq!(d.mean(), 3.0);
    }
}
