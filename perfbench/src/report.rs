//! The metric catalogue and the result line.
//!
//! The catalogue mirrors `BENCHMARK.json`: an untraced run reports every
//! end-to-end metric, a traced run every per-layer metric. A per-layer
//! metric of a layer the workload never calls reads 0.

use std::collections::BTreeMap;

/// End-to-end metrics: `(name, unit)`.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("latency_ms.p50", "ms"),
    ("latency_ms.p90", "ms"),
    ("ops_per_s", "1/s"),
    ("peak_mib", "MiB"),
    ("f1", "ratio"),
    ("ok_share", "ratio"),
];

/// Per-layer metrics: `(name, unit)`.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("engine.stage1_ms", "ms"),
    ("engine.refine_ms", "ms"),
    ("engine.execute_ms", "ms"),
    ("engine.shards", "count"),
    ("engine.fused_stages", "count"),
    ("engine.stored_entries", "count"),
    ("engine.survivor_ratio", "ratio"),
    ("matchers.name_ms", "ms"),
    ("matchers.name_sharded_ms", "ms"),
    ("matchers.shard_speedup", "ratio"),
    ("combine.aggregate_ms", "ms"),
    ("combine.select_ms", "ms"),
    ("index.build_ms", "ms"),
    ("index.postings", "count"),
    ("index.retrieved", "count"),
    ("index.kept_ratio", "ratio"),
    ("index.recall", "ratio"),
    ("analyze.gather_ms", "ms"),
    ("analyze.plan_ms", "ms"),
    ("analyze.share", "ratio"),
    ("cache.matrix_hit_ratio", "ratio"),
    ("cache.index_hit_ratio", "ratio"),
    ("cache.matrix_entries", "count"),
    ("protocol.encode_ms", "ms"),
    ("protocol.decode_ms", "ms"),
    ("protocol.frame_bytes", "bytes"),
    ("server.handle_ms", "ms"),
    ("server.wait_ms", "ms"),
    ("server.errors", "count"),
    ("client.read_ms.p50", "ms"),
    ("client.read_ms.p90", "ms"),
    ("client.write_ms.p50", "ms"),
    ("client.write_ms.p90", "ms"),
    ("graph.pathset_ms", "ms"),
    ("graph.paths", "count"),
    ("xml.import_ms", "ms"),
    ("sql.import_ms", "ms"),
    ("repo.persist_ms", "ms"),
    ("repo.snapshot_bytes", "bytes"),
    ("repo.write_amp", "ratio"),
    ("repo.pivot_ms", "ms"),
    ("reuse.resolve_ms", "ms"),
    ("reuse.paths", "count"),
    ("reuse.merged_ratio", "ratio"),
    ("trace.overhead", "ratio"),
];

/// What one run measured and checked.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted: match tasks (batch) or requests (service).
    pub attempted: u64,
    /// Operations that errored, panicked or failed the output check.
    pub failed: u64,
    /// One line per failed check, printed to stderr.
    pub problems: Vec<String>,
    pub metrics: BTreeMap<&'static str, f64>,
}

impl Outcome {
    pub fn fail(&mut self, problem: String) {
        self.failed += 1;
        if self.problems.len() < 20 {
            self.problems.push(problem);
        }
    }

    pub fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.insert(name, value);
    }

    /// Sets `ok_share` to the share of a fixed set of `of` operations
    /// that did not fail: `failed_share` turned around, so that it is
    /// never 0. The set is the same in every run of a seed (the batch
    /// pool, the lead requests of the service streams), so the metric
    /// repeats; failures outside it count in `failed` only.
    pub fn set_ok_share(&mut self, failed: usize, of: usize) {
        self.set("ok_share", 1.0 - ratio(failed.min(of) as f64, of as f64));
    }

    /// The result line over `catalogue`: every metric must be present and
    /// finite. Per-layer metrics a workload does not exercise read 0.
    pub fn render(&self, catalogue: &[(&str, &str)], fill_zero: bool) -> Result<String, String> {
        let mut fields = Vec::with_capacity(catalogue.len());
        for &(name, unit) in catalogue {
            let value = match self.metrics.get(name) {
                Some(v) => *v,
                None if fill_zero => 0.0,
                None => return Err(format!("metric {name} was not measured")),
            };
            if !value.is_finite() {
                return Err(format!("metric {name} is not finite: {value}"));
            }
            fields.push(format!(
                "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
            ));
        }
        Ok(format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.failed == 0 && self.attempted > 0,
            self.attempted,
            self.failed,
            fields.join(", ")
        ))
    }
}

/// The `q`-quantile (0..=1) of `values` by linear interpolation between
/// closest ranks; 0 for no values.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// `num / den`, or 0 when nothing was counted.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

pub fn mean(values: &[f64]) -> f64 {
    ratio(values.iter().sum(), values.len() as f64)
}

/// CPU time the host has taken from this machine so far, in seconds:
/// the `steal` column of `/proc/stat` (in 1/100 s); 0 where it is
/// missing.
pub fn host_steal_s() -> f64 {
    std::fs::read_to_string("/proc/stat")
        .ok()
        .and_then(|stat| {
            let cpu = stat.lines().next()?;
            cpu.split_whitespace().nth(8)?.parse::<f64>().ok()
        })
        .map_or(0.0, |ticks| ticks / 100.0)
}

/// One measurement window of a timed phase: its wall time, the CPU time
/// the host took from the machine meanwhile, the operations completed in
/// it, and the latencies it contributes to the latency metrics.
#[derive(Debug, Default)]
pub struct Window {
    pub wall_s: f64,
    pub steal_s: f64,
    pub ops: usize,
    pub latencies_ms: Vec<f64>,
}

/// Host CPU time taken per second of wall time up to which a window
/// counts as calm: 2% of one CPU, two ticks of `/proc/stat` in a 1-s
/// window.
const CALM_STEAL: f64 = 0.02;

/// The quiet windows: every calm one, or when fewer than half are calm,
/// the quieter half, those in which the host took the least CPU time
/// from the machine. Other tenants of a shared host take its cores for
/// seconds at a time, and a window they hit times them, not the program;
/// the metrics rest on the windows they left alone, and on all of them
/// when they left the whole run alone.
pub fn quiet(windows: &[Window]) -> Vec<&Window> {
    let share = |w: &Window| ratio(w.steal_s, w.wall_s);
    let mut sorted: Vec<&Window> = windows.iter().collect();
    sorted.sort_by(|a, b| share(a).total_cmp(&share(b)));
    let calm = sorted.iter().filter(|w| share(w) <= CALM_STEAL).count();
    sorted.truncate(calm.max(windows.len().div_ceil(2)));
    let steal = |ws: &[&Window]| {
        let wall: f64 = ws.iter().map(|w| w.wall_s).sum();
        100.0 * ratio(ws.iter().map(|w| w.steal_s).sum(), wall)
    };
    eprintln!(
        "# {} windows, {} quiet: host steal {:.1}% in them, {:.1}% in all",
        windows.len(),
        sorted.len(),
        steal(&sorted),
        steal(&windows.iter().collect::<Vec<_>>())
    );
    sorted
}

/// Sets the latency metrics as quantiles over the latencies of the
/// quiet windows, and `ops_per_s` as their operations over their wall
/// time.
pub fn set_windowed(out: &mut Outcome, windows: &[Window]) {
    let kept = quiet(windows);
    let latencies: Vec<f64> = kept
        .iter()
        .flat_map(|w| w.latencies_ms.iter().copied())
        .collect();
    out.set("latency_ms.p50", quantile(&latencies, 0.5));
    out.set("latency_ms.p90", quantile(&latencies, 0.9));
    let ops: usize = kept.iter().map(|w| w.ops).sum();
    out.set(
        "ops_per_s",
        ratio(ops as f64, kept.iter().map(|w| w.wall_s).sum()),
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let v = [4.0, 1.0, 3.0, 2.0, 5.0];
        assert_eq!(quantile(&v, 0.5), 3.0);
        assert_eq!(quantile(&v, 0.9), 4.6);
        assert_eq!(quantile(&[], 0.5), 0.0);
    }

    #[test]
    fn windowed_metrics_rest_on_the_quiet_windows() {
        let window = |wall_s, steal_s, ops, latencies_ms: &[f64]| Window {
            wall_s,
            steal_s,
            ops,
            latencies_ms: latencies_ms.to_vec(),
        };
        let windows = [
            window(1.0, 0.0, 10, &[1.0, 2.0, 3.0]),
            window(1.0, 0.9, 2, &[50.0, 60.0, 70.0]), // the host took the cores
            window(2.0, 0.1, 16, &[2.0, 3.0, 4.0]),
            window(1.0, 0.5, 3, &[40.0, 50.0, 60.0]),
        ];
        assert_eq!(quiet(&windows).len(), 2);
        let mut out = Outcome::default();
        set_windowed(&mut out, &windows);
        assert_eq!(out.metrics["latency_ms.p50"], 2.5);
        assert_eq!(out.metrics["ops_per_s"], 26.0 / 3.0);
    }

    #[test]
    fn a_calm_run_keeps_every_calm_window() {
        let window = |steal_s| Window {
            wall_s: 1.0,
            steal_s,
            ops: 1,
            latencies_ms: Vec::new(),
        };
        let windows: Vec<Window> = [0.0, 0.01, 0.02, 0.0, 0.3].map(window).into();
        assert_eq!(quiet(&windows).len(), 4);
    }

    #[test]
    fn render_requires_every_metric() {
        let mut out = Outcome {
            attempted: 3,
            ..Outcome::default()
        };
        assert!(out.render(END_TO_END, false).is_err());
        for (name, _) in END_TO_END {
            out.set(name, 1.5);
        }
        let line = out.render(END_TO_END, false).unwrap();
        assert!(line.starts_with("{\"correct\": true, \"attempted\": 3, \"failed\": 0"));
        assert!(line.contains("\"setup_s\": {\"value\": 1.5, \"unit\": \"s\"}"));
        out.set("f1", f64::NAN);
        assert!(out.render(END_TO_END, false).is_err());
    }
}
