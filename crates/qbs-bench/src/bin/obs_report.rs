//! Emits `BENCH_obs.json`: what observability costs and what it sees.
//!
//! For every translated corpus query (Appendix A plus the grouped
//! fragments, so the aggregate operator is measured too), measures `reps`
//! executions three ways over the seeded universe database:
//!
//! * **baseline** — `Database::execute_plan_with` over a precomputed
//!   plan: the plan interpreter alone, no connection machinery;
//! * **disabled** — `Connection::execute` over a prepared statement:
//!   the production path with per-node instrumentation compiled in but
//!   switched off (`actuals = None`, no per-node clock reads);
//! * **analyze** — `Connection::explain_analyze`: instrumentation on,
//!   every operator's rows and wall-clock recorded.
//!
//! All three run the same operator pipeline, so the disabled overhead is
//! what the connection adds per call (snapshot pin, plan-cache lookup,
//! parameter validation) plus the switched-off instrumentation.
//!
//! From the analyze runs it aggregates the per-operator time breakdown
//! (scan / join / residual filter / aggregate / sort / distinct) and the
//! planner's
//! estimate-vs-actual cardinality error distribution (q-error per
//! cardinality-bearing node). The corpus synthesis that produces the
//! query set runs with a metrics registry attached, so the batch
//! scheduler's and pipeline's counters land in the report too.
//!
//! Exits non-zero when the disabled-instrumentation production path
//! costs more than [`MAX_DISABLED_OVERHEAD`]× the plan-interpreter
//! baseline over the relational corpus fragments — the CI gate keeping
//! observability free when it is off.
//!
//! ```sh
//! cargo run --release -p qbs-bench --bin obs_report -- \
//!     [--json <path>] [--filter <substr>] [--seed S] [--reps N]
//! ```

use qbs::FragmentStatus;
use qbs_batch::{corpus_inputs, grouped_inputs, BatchConfig, BatchRunner};
use qbs_bench::harness::{json_escape, BenchArgs};
use qbs_db::{plan_with, Connection, Params, PlanConfig};
use qbs_sql::SqlQuery;
use std::fmt::Write as _;
use std::process::ExitCode;
use std::time::Instant;

/// The production path with instrumentation disabled must stay within
/// this factor of the plan interpreter alone.
const MAX_DISABLED_OVERHEAD: f64 = 1.05;

struct Measured {
    method: String,
    relational: bool,
    baseline_us: f64,
    disabled_us: f64,
    analyze_us: f64,
    output_rows: usize,
    op_ns: [u64; 6],
    total_ns: u64,
}

/// Per-operator keys, in the order of `Measured::op_ns`.
const OPS: [&str; 6] = ["scan", "join", "residual", "aggregate", "sort", "distinct"];

/// The planner's q-error on one node: how far off the estimate was, as
/// a factor ≥ 1 (1.0 = exact), symmetric in over- and under-estimates.
fn q_error(est: usize, actual: usize) -> f64 {
    let (e, a) = (est.max(1) as f64, actual.max(1) as f64);
    (e / a).max(a / e)
}

fn main() -> ExitCode {
    let args = BenchArgs::parse("BENCH_obs.json", 30);

    // Synthesize the corpus with the metrics registry attached, so the
    // scheduler gauges and per-stage totals ride into the report.
    let metrics = qbs_obs::Metrics::new();
    let runner = BatchRunner::new(BatchConfig::new().with_metrics(metrics.clone()));
    let mut inputs = corpus_inputs();
    inputs.extend(grouped_inputs());
    let report = runner.run(&inputs);
    report.record_metrics(&metrics);
    let queries: Vec<(String, SqlQuery)> = report
        .fragments
        .into_iter()
        .filter_map(|fr| match fr.status {
            FragmentStatus::Translated { sql, .. } => Some((fr.method, sql)),
            _ => None,
        })
        .collect();

    let db = qbs_corpus::populate_universe(args.seed);
    let conn = Connection::open(db.clone());
    let params = Params::new();
    let cfg = PlanConfig::default();

    let mut measured: Vec<Measured> = Vec::new();
    let mut nodes = 0usize;
    let mut exact = 0usize;
    let mut within_2x = 0usize;
    let mut max_q_error = 1.0f64;
    let mut worst_node = String::new();
    for (method, sql) in &queries {
        if !args.matches(method) {
            continue;
        }
        // Skip queries the universe cannot execute (absent tables, unbound
        // parameters) — same policy as exec_bench; the oracle job owns
        // their correctness.
        if db.execute(sql, &params).is_err() {
            continue;
        }
        let select = match sql {
            SqlQuery::Select(s) => s.clone(),
            SqlQuery::Scalar(s) => s.query.clone(),
        };
        // Scalar statements aggregate on top of their relational core, so
        // only relational fragments are apples-to-apples against the raw
        // plan-interpreter baseline (and only they feed the gate).
        let relational = matches!(sql, SqlQuery::Select(_));
        let text = sql.to_string();
        let stmt = conn.prepare(&text).expect("rendered corpus SQL re-parses");
        let plan = plan_with(&select, &db, &cfg);

        // Warm both paths (first prepared execution pays the replan).
        let _ = db.execute_plan_with(&plan, &params, &cfg).expect("measured above");
        let _ = conn.execute(&stmt, &params).expect("measured above");

        let started = Instant::now();
        for _ in 0..args.reps {
            let _ = db.execute_plan_with(&plan, &params, &cfg).expect("measured above");
        }
        let baseline = started.elapsed();

        let started = Instant::now();
        for _ in 0..args.reps {
            let _ = conn.execute(&stmt, &params).expect("measured above");
        }
        let disabled = started.elapsed();

        let mut analyzed = None;
        let started = Instant::now();
        for _ in 0..args.reps {
            analyzed = Some(conn.explain_analyze(&stmt, &params).expect("measured above"));
        }
        let analyze = started.elapsed();
        let analyzed = analyzed.expect("reps >= 1");

        for (label, est, actual) in analyzed.estimate_errors() {
            let q = q_error(est, actual);
            nodes += 1;
            exact += usize::from(est == actual);
            within_2x += usize::from(q <= 2.0);
            if q > max_q_error {
                max_q_error = q;
                worst_node = format!("{method}: {label} (est {est}, actual {actual})");
            }
        }

        let a = &analyzed.actuals;
        let op_ns = [
            a.scans.iter().map(|s| s.elapsed_ns).sum(),
            a.joins.iter().map(|j| j.elapsed_ns).sum(),
            a.residual.as_ref().map_or(0, |o| o.elapsed_ns),
            a.aggregate.as_ref().map_or(0, |o| o.elapsed_ns),
            a.sort.as_ref().map_or(0, |o| o.elapsed_ns),
            a.distinct.as_ref().map_or(0, |o| o.elapsed_ns),
        ];
        let per_rep = |d: std::time::Duration| d.as_secs_f64() * 1e6 / args.reps as f64;
        measured.push(Measured {
            method: method.clone(),
            relational,
            baseline_us: per_rep(baseline),
            disabled_us: per_rep(disabled),
            analyze_us: per_rep(analyze),
            output_rows: a.output_rows,
            op_ns,
            total_ns: a.total_ns,
        });
    }

    // The gate compares total time over the relational fragments — the
    // queries where both paths interpret the identical plan.
    let rel: Vec<&Measured> = measured.iter().filter(|m| m.relational).collect();
    let baseline_total: f64 = rel.iter().map(|m| m.baseline_us).sum();
    let disabled_total: f64 = rel.iter().map(|m| m.disabled_us).sum();
    let analyze_total: f64 = rel.iter().map(|m| m.analyze_us).sum();
    let disabled_overhead = disabled_total / baseline_total.max(1e-9);
    let analyze_overhead = analyze_total / baseline_total.max(1e-9);

    let mut breakdown = [0u64; 6];
    for m in &measured {
        for (total, ns) in breakdown.iter_mut().zip(m.op_ns) {
            *total += ns;
        }
    }

    let mut out = String::from("{\n");
    let _ = writeln!(out, "  \"benchmark\": \"obs_corpus\",");
    let _ = writeln!(out, "  \"db_seed\": {},", args.seed);
    let _ = writeln!(out, "  \"reps\": {},", args.reps);
    if let Some(filter) = &args.filter {
        let _ = writeln!(out, "  \"filter\": \"{}\",", json_escape(filter));
    }
    let _ = writeln!(out, "  \"queries\": {},", measured.len());
    let _ = writeln!(out, "  \"relational_queries\": {},", rel.len());
    let _ = writeln!(out, "  \"baseline_us\": {:.1},", baseline_total);
    let _ = writeln!(out, "  \"disabled_us\": {:.1},", disabled_total);
    let _ = writeln!(out, "  \"analyze_us\": {:.1},", analyze_total);
    let _ = writeln!(out, "  \"disabled_overhead\": {:.4},", disabled_overhead);
    let _ = writeln!(out, "  \"analyze_overhead\": {:.4},", analyze_overhead);
    let _ = write!(out, "  \"operator_ns\": {{");
    for (k, (op, ns)) in OPS.iter().zip(breakdown).enumerate() {
        let comma = if k + 1 < OPS.len() { ", " } else { "" };
        let _ = write!(out, "\"{op}\": {ns}{comma}");
    }
    let _ = writeln!(out, "}},");
    let _ = writeln!(
        out,
        "  \"estimate_errors\": {{\"nodes\": {nodes}, \"exact\": {exact}, \
         \"within_2x\": {within_2x}, \"max_q_error\": {max_q_error:.2}, \
         \"worst\": \"{}\"}},",
        json_escape(&worst_node),
    );
    let _ = write!(out, "  \"synthesis\": {{");
    let snap = metrics.snapshot();
    let batch: Vec<_> = snap.counters.iter().filter(|(k, _)| k.starts_with("batch.")).collect();
    for (k, (name, v)) in batch.iter().enumerate() {
        let comma = if k + 1 < batch.len() { "," } else { "" };
        let _ = write!(out, "\n    \"{}\": {v}{comma}", json_escape(name));
    }
    let _ = writeln!(out, "\n  }},");
    let _ = writeln!(out, "  \"results\": [");
    for (i, m) in measured.iter().enumerate() {
        let comma = if i + 1 < measured.len() { "," } else { "" };
        let _ = writeln!(
            out,
            "    {{\"method\": \"{}\", \"relational\": {}, \"baseline_us\": {:.2}, \
             \"disabled_us\": {:.2}, \"analyze_us\": {:.2}, \"output_rows\": {}, \
             \"scan_ns\": {}, \"join_ns\": {}, \"residual_ns\": {}, \"aggregate_ns\": {}, \
             \"sort_ns\": {}, \"distinct_ns\": {}, \"total_ns\": {}}}{comma}",
            json_escape(&m.method),
            m.relational,
            m.baseline_us,
            m.disabled_us,
            m.analyze_us,
            m.output_rows,
            m.op_ns[0],
            m.op_ns[1],
            m.op_ns[2],
            m.op_ns[3],
            m.op_ns[4],
            m.op_ns[5],
            m.total_ns,
        );
    }
    let _ = writeln!(out, "  ]");
    out.push_str("}\n");
    std::fs::write(&args.json, &out).unwrap_or_else(|e| panic!("write {}: {e}", args.json));

    println!(
        "wrote {}: {} queries ({} relational) — disabled-instrumentation overhead \
         {:.1}%, analyze overhead {:.1}%, worst q-error {max_q_error:.1}",
        args.json,
        measured.len(),
        rel.len(),
        (disabled_overhead - 1.0) * 100.0,
        (analyze_overhead - 1.0) * 100.0,
    );
    if args.filter.is_some() {
        // A filtered run is exploratory; the CI gate only applies to the
        // full corpus.
        return ExitCode::SUCCESS;
    }
    if disabled_overhead > MAX_DISABLED_OVERHEAD {
        eprintln!(
            "REGRESSION: disabled instrumentation costs {:.1}% over the plan-interpreter \
             baseline (budget {:.0}%)",
            (disabled_overhead - 1.0) * 100.0,
            (MAX_DISABLED_OVERHEAD - 1.0) * 100.0,
        );
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}
