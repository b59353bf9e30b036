//! The metric catalogue and the result line.
//!
//! Every workload reports every metric of the catalogue it runs under:
//! [`END_TO_END`] untraced, [`PER_LAYER`] traced. A per-layer metric of a
//! layer the workload leaves idle reads 0. `BENCHMARK.json` lists the
//! same names and units (a test keeps the two in step).

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// End-to-end metrics: `(name, unit)`.
pub const END_TO_END: [(&str, &str); 9] = [
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("success_ratio", "ratio"),
    ("ops_per_s", "1/s"),
    ("op_p50_us", "us"),
    ("op_tail_us", "us"),
    ("compile_wall_s", "s"),
    ("fragments_translated", "count"),
    ("fragments_proved", "count"),
];

/// Per-layer metrics of the traced run: `(name, unit)`.
pub const PER_LAYER: [(&str, &str); 48] = [
    ("front.compile_source_ms", "ms"),
    ("kernel.typecheck_us", "us"),
    ("vcgen.generate_us", "us"),
    ("vcgen.conditions", "count"),
    ("vcgen.unknowns", "count"),
    ("synth.search_ms", "ms"),
    ("synth.candidates_tried", "count"),
    ("synth.cex_cache_hits", "count"),
    ("synth.cexes_found", "count"),
    ("synth.cexes_seeded", "count"),
    ("synth.levels_used", "count"),
    ("synth.cex_screen_ratio", "ratio"),
    ("verify.certify_ms", "ms"),
    ("verify.proved", "count"),
    ("verify.extended_bounded", "count"),
    ("translate.us", "us"),
    ("batch.memo_hits", "count"),
    ("batch.pool_shapes", "count"),
    ("batch.pool_cexes", "count"),
    ("batch.overhead_ms", "ms"),
    ("sql.parse_us", "us"),
    ("db.execute_us.selection", "us"),
    ("db.execute_us.join", "us"),
    ("db.execute_us.count", "us"),
    ("db.execute_us.group", "us"),
    ("db.plan_us", "us"),
    ("db.exec_us", "us"),
    ("db.other_us", "us"),
    ("db.plan_cache_hit_rate", "ratio"),
    ("db.replans_per_page", "count"),
    ("db.rows_scanned_per_row", "ratio"),
    ("db.join_comparisons", "count"),
    ("db.write_us", "us"),
    ("db.walker.scan_us", "us"),
    ("db.walker.join_us", "us"),
    ("db.walker.aggregate_us", "us"),
    ("db.walker.residual_us", "us"),
    ("db.walker.sort_us", "us"),
    ("orm.fetch_us", "us"),
    ("orm.app_us", "us"),
    ("orm.queries_per_page", "count"),
    ("orm.objects_per_page", "count"),
    ("page.original_p50_us", "us"),
    ("page.write_p50_us", "us"),
    ("trace.spans", "count"),
    ("trace.accounted_min", "ratio"),
    ("trace.overhead_pct", "%"),
    ("trace.untraced_op_p50_us", "us"),
];

/// What one run found.
#[derive(Default)]
pub struct Outcome {
    /// Operations attempted (fragments compiled, pages loaded, batches
    /// written).
    pub attempted: u64,
    /// Operations that failed, panicked or gave a wrong answer.
    pub failed: u64,
    /// False when a check other than a per-operation one failed (e.g. the
    /// determinism check).
    pub broken: bool,
    /// Metric values by name.
    pub metrics: BTreeMap<&'static str, f64>,
    /// Context printed before the result line: sample counts, sizes, the
    /// seed, and any failure messages.
    pub notes: Vec<String>,
}

impl Outcome {
    /// Records a metric value.
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.insert(name, value);
    }

    /// Counts one operation and whether it failed.
    pub fn attempt(&mut self, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
    }

    /// Notes a failure and marks the run incorrect.
    pub fn fail(&mut self, message: String) {
        self.broken = true;
        self.notes.push(format!("FAILED: {message}"));
    }

    /// Share of attempted operations that succeeded.
    pub fn success_ratio(&self) -> f64 {
        if self.attempted == 0 {
            return 0.0;
        }
        (self.attempted - self.failed) as f64 / self.attempted as f64
    }

    /// The result line for `catalogue`. A catalogue metric the workload
    /// did not measure reads 0 on the per-layer catalogue and fails the
    /// run on the end-to-end one, as does a value that is not finite.
    pub fn result_line(&mut self, catalogue: &[(&'static str, &'static str)]) -> String {
        let strict = catalogue == END_TO_END.as_slice();
        let mut body = String::new();
        for (i, &(name, unit)) in catalogue.iter().enumerate() {
            let value = match self.metrics.get(name) {
                Some(v) if v.is_finite() => *v,
                Some(_) => {
                    self.fail(format!("metric {name} is not finite"));
                    0.0
                }
                None if strict => {
                    self.fail(format!("metric {name} was not measured"));
                    0.0
                }
                None => 0.0,
            };
            let sep = if i == 0 { "" } else { ", " };
            let _ =
                write!(body, "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}");
        }
        let correct = !self.broken && self.failed == 0 && self.attempted > 0;
        format!(
            "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{body}}}}}",
            self.attempted, self.failed
        )
    }
}

/// Peak resident set size of this process in MB (`VmHWM`), or 0 where
/// `/proc` is unavailable.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn benchmark_json_lists_the_catalogues() {
        let spec = include_str!("../../BENCHMARK.json");
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER.iter()) {
            let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
            assert!(spec.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        let listed = spec.matches("\"unit\":").count();
        assert_eq!(
            listed,
            END_TO_END.len() + PER_LAYER.len(),
            "BENCHMARK.json has extra metrics"
        );
    }

    #[test]
    fn the_result_line_has_exactly_the_contract_keys() {
        let mut out = Outcome::default();
        for (name, _) in END_TO_END {
            out.set(name, 1.5);
        }
        out.attempt(true);
        let line = out.result_line(&END_TO_END);
        assert!(line.starts_with(
            "{\"correct\": true, \"attempted\": 1, \"failed\": 0, \"metrics\": {"
        ));
        assert!(line.contains("\"setup_s\": {\"value\": 1.5, \"unit\": \"s\"}"));
    }

    #[test]
    fn a_missing_end_to_end_metric_fails_the_run() {
        let mut out = Outcome::default();
        out.attempt(true);
        assert!(out.result_line(&END_TO_END).starts_with("{\"correct\": false"));
        let mut traced = Outcome::default();
        traced.attempt(true);
        assert!(traced.result_line(&PER_LAYER).starts_with("{\"correct\": true"));
    }

    #[test]
    fn failures_count_against_success() {
        let mut out = Outcome::default();
        out.attempt(true);
        out.attempt(false);
        assert_eq!(out.success_ratio(), 0.5);
        assert_eq!(out.failed, 1);
    }
}
