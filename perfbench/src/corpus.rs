//! `corpus_compile`: the 54 corpus fragments (49 Appendix A plus 5
//! grouped) through a fresh one-worker `BatchRunner` per pass, in an order
//! the seed permutes.
//!
//! One closed-loop client hands the runner one fragment at a time, so a
//! fragment's latency is the compile a user waits for; the runner's memo
//! and counterexample pool persist across the calls of a pass exactly as
//! within one batch. Every pass of a run must give identical statuses,
//! SQL and counts.
//!
//! The traced run makes one such pass, then drives the same fragments
//! through the layers' public functions itself — front end, typecheck,
//! VC generation, synthesis (verification inside it), translation — with
//! the batch layer's own memo and pool, timing each call in a span.

use crate::report::{peak_rss_mb, Outcome};
use crate::rng::SplitMix;
use crate::stats::{median, percentile, tail};
use crate::trace::{self, Tracer};
use crate::Args;
use qbs::{EngineConfig, FragmentStatus, PipelineEvent};
use qbs_batch::{
    canonical, corpus_inputs, grouped_inputs, shape_key, BatchConfig, BatchInput, BatchRunner,
    CexPool, Claim, FingerprintCache,
};
use qbs_corpus::{all_fragments, grouped_fragments, CorpusFragment};
use qbs_kernel::{KExpr, KStmt, KernelProgram, VarTypes};
use qbs_synth::{synthesize_with_hooks, ProofStatus, SynthFailure, SynthHooks, SynthOutcome};
use qbs_tor::{Env, QuerySpec, TorExpr};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Passes per untraced run at the least, so the determinism check always
/// has two passes to compare.
const MIN_PASSES: usize = 2;

/// One fragment to compile and the status Appendix A expects of it.
struct Item {
    input: BatchInput,
    expected: &'static str,
}

/// A fragment's compile result without its timings: the determinism key.
#[derive(Clone, Debug, PartialEq)]
struct FragmentOutcome {
    name: String,
    glyph: &'static str,
    sql: Option<String>,
    reason: Option<String>,
    proof: Option<ProofStatus>,
    /// `levels_used, candidates_tried, cache_hits, cexes_seeded,
    /// cexes_found` of a translated fragment's search.
    search: Option<[usize; 5]>,
    memo_hit: bool,
    cexes_seeded: usize,
    vcs: Option<(usize, usize)>,
}

impl FragmentOutcome {
    /// The outcome of a compile that panicked or broke the one-method,
    /// one-fragment shape of the corpus sources.
    fn broken(name: &str, why: &str) -> Self {
        let status = FragmentStatus::Failed { reason: why.to_string() };
        FragmentOutcome { glyph: "!", ..FragmentOutcome::of(name, &status, false, 0) }
    }

    fn of(name: &str, status: &FragmentStatus, memo_hit: bool, cexes_seeded: usize) -> Self {
        let (sql, reason, proof, search) = match status {
            FragmentStatus::Translated { sql, proof, stats, .. } => (
                Some(sql.to_string()),
                None,
                Some(*proof),
                Some([
                    stats.levels_used,
                    stats.candidates_tried,
                    stats.cache_hits,
                    stats.cexes_seeded,
                    stats.cexes_found,
                ]),
            ),
            FragmentStatus::Rejected { reason } | FragmentStatus::Failed { reason } => {
                (None, Some(reason.clone()), None, None)
            }
        };
        FragmentOutcome {
            name: name.to_string(),
            glyph: status.glyph(),
            sql,
            reason,
            proof,
            search,
            memo_hit,
            cexes_seeded,
            vcs: None,
        }
    }
}

/// One pass over the corpus.
#[derive(Default)]
struct Pass {
    wall: Duration,
    fragment_ms: Vec<f64>,
    outcomes: Vec<FragmentOutcome>,
    pool: (usize, usize),
    /// Runner wall time minus the fragments' own time, summed over calls.
    overhead: Duration,
}

impl Pass {
    fn translated(&self) -> usize {
        self.outcomes.iter().filter(|o| o.glyph == "X").count()
    }

    fn proved(&self, status: ProofStatus) -> usize {
        self.outcomes.iter().filter(|o| o.proof == Some(status)).count()
    }

    fn memo_hits(&self) -> usize {
        self.outcomes.iter().filter(|o| o.memo_hit).count()
    }
}

fn expectations() -> Vec<CorpusFragment> {
    let mut frags = all_fragments();
    frags.extend(grouped_fragments());
    frags
}

/// The 54 fragments in the seed's order.
fn set_up(seed: u64) -> Vec<Item> {
    let mut inputs = corpus_inputs();
    inputs.extend(grouped_inputs());
    let mut items: Vec<Item> = inputs
        .into_iter()
        .zip(expectations())
        .map(|(input, frag)| Item { input, expected: frag.expected.glyph() })
        .collect();
    SplitMix::new(seed, 1).shuffle(&mut items);
    items
}

/// Checks a fragment's outcome against its expectation; grouped fragments
/// (Appendix A has none) must translate, which their expectation says.
fn check(item: &Item, outcome: &FragmentOutcome) -> Result<(), String> {
    if outcome.glyph != item.expected {
        return Err(format!(
            "{}: status {} where {} is expected ({})",
            item.input.name,
            outcome.glyph,
            item.expected,
            outcome.reason.as_deref().unwrap_or("")
        ));
    }
    Ok(())
}

/// One pass through a fresh runner, one fragment per call; `between`
/// runs after each fragment, outside its time. The pass's wall time is
/// the sum of its fragments' times.
fn runner_pass(items: &[Item], out: &mut Outcome, between: &mut dyn FnMut()) -> Pass {
    let runner = BatchRunner::new(BatchConfig::with_workers(1));
    let vcs: Arc<Mutex<Vec<(usize, usize)>>> = Arc::default();
    let mut pass = Pass::default();
    for item in items {
        let t = Instant::now();
        let report = catch_unwind(AssertUnwindSafe(|| {
            runner.run_observed(std::slice::from_ref(&item.input), || {
                let vcs = Arc::clone(&vcs);
                move |e: &PipelineEvent| {
                    if let PipelineEvent::VcsGenerated { conditions, unknowns, .. } = e {
                        vcs.lock().expect("vc log").push((*conditions, *unknowns));
                    }
                }
            })
        }));
        let took = t.elapsed();
        pass.wall += took;
        pass.fragment_ms.push(took.as_secs_f64() * 1e3);
        let vc = vcs.lock().expect("vc log").drain(..).next();
        let outcome = match report {
            Ok(report) if report.fragments.len() == 1 => {
                let fr = &report.fragments[0];
                pass.overhead += report.wall_clock.saturating_sub(fr.elapsed);
                FragmentOutcome {
                    vcs: vc,
                    ..FragmentOutcome::of(
                        &item.input.name,
                        &fr.status,
                        fr.memo_hit,
                        fr.cexes_seeded,
                    )
                }
            }
            Ok(_) => FragmentOutcome::broken(&item.input.name, "not one fragment"),
            Err(_) => FragmentOutcome::broken(&item.input.name, "panicked"),
        };
        let verdict = check(item, &outcome);
        if let Err(msg) = &verdict {
            out.notes.push(format!("FAILED: {msg}"));
        }
        out.attempt(verdict.is_ok());
        pass.outcomes.push(outcome);
        between();
    }
    pass.pool = (runner.pool().shapes(), runner.pool().len());
    pass
}

/// Compares a pass against the first one of the run.
fn same_as(first: &Pass, pass: &Pass, what: &str, out: &mut Outcome) {
    for (a, b) in first.outcomes.iter().zip(&pass.outcomes) {
        if a != b {
            out.fail(format!("{what}: {} differs: {a:?} vs {b:?}", a.name));
        }
    }
    if first.pool != pass.pool || first.outcomes.len() != pass.outcomes.len() {
        out.fail(format!("{what}: pool {:?} vs {:?}", first.pool, pass.pool));
    }
}

/// The untraced run: passes until the next would overrun `seconds`.
pub fn run(args: &Args) -> Outcome {
    let mut out = Outcome::default();
    // Set-up is timed again after every fragment, so its median samples
    // the machine across the whole run, as the passes do.
    let mut setups = Vec::new();
    let mut set_up_timed = || {
        let t = Instant::now();
        let items = set_up(args.seed);
        setups.push(t.elapsed().as_secs_f64());
        items
    };
    let items = set_up_timed();
    let budget = Duration::from_secs(args.seconds);
    let started = Instant::now();
    let mut passes: Vec<Pass> = Vec::new();
    loop {
        passes.push(runner_pass(&items, &mut out, &mut || {
            set_up_timed();
        }));
        let walls: Vec<f64> = passes.iter().map(|p| p.wall.as_secs_f64()).collect();
        let next = Duration::from_secs_f64(median(&walls));
        if passes.len() >= MIN_PASSES && started.elapsed() + next > budget {
            break;
        }
    }
    let measured: f64 = passes.iter().map(|p| p.wall.as_secs_f64()).sum();
    for (k, pass) in passes.iter().enumerate().skip(1) {
        same_as(&passes[0], pass, &format!("pass {k}"), &mut out);
    }
    let per_pass = |f: &dyn Fn(&Pass) -> f64| median(&passes.iter().map(f).collect::<Vec<_>>());
    out.set("setup_s", median(&setups));
    out.set("peak_rss_mb", peak_rss_mb());
    out.set("success_ratio", out.success_ratio());
    out.set("ops_per_s", out.attempted as f64 / measured);
    out.set("op_p50_us", per_pass(&|p| percentile(&p.fragment_ms, 50.0) * 1e3));
    out.set("op_tail_us", per_pass(&|p| tail(&p.fragment_ms) * 1e3));
    out.set("compile_wall_s", per_pass(&|p| p.wall.as_secs_f64()));
    out.set("fragments_translated", passes[0].translated() as f64);
    out.set("fragments_proved", passes[0].proved(ProofStatus::Proved) as f64);
    out.notes.push(format!(
        "corpus_compile: {} fragments x {} passes, 1 worker, closed loop; pass walls {:?} s; \
         tail = p80 of each pass",
        items.len(),
        passes.len(),
        passes.iter().map(|p| (p.wall.as_secs_f64() * 1e3).round() / 1e3).collect::<Vec<_>>()
    ));
    out
}

/// Search counts of every synthesis call in a traced pass, failed ones
/// included.
#[derive(Default)]
struct SearchTotals {
    levels: usize,
    candidates: usize,
    cache_hits: usize,
    found: usize,
    seeded: usize,
    vcs: (usize, usize),
}

/// The traced run: one runner pass, then one traced pass through the
/// layers, which must agree with it.
pub fn run_traced(args: &Args) -> Outcome {
    let mut out = Outcome::default();
    let items = set_up(args.seed);
    let untraced = runner_pass(&items, &mut out, &mut || {});
    let mut tracer = Tracer::new(Instant::now());
    let mut totals = SearchTotals::default();
    let started = Instant::now();
    let traced = traced_pass(&items, &mut tracer, &mut totals, &mut out);
    let traced_wall = started.elapsed().as_secs_f64();
    same_as(&untraced, &traced, "traced pass", &mut out);

    let spans = tracer.into_spans();
    let selfs = trace::self_times(&spans);
    let own = trace::self_by_name(&spans, &selfs);
    let ms = |name: &str| own.get(name).copied().unwrap_or(0) as f64 / 1e6;
    out.set("front.compile_source_ms", ms("front.compile_source"));
    out.set("kernel.typecheck_us", ms("kernel.typecheck") * 1e3);
    out.set("vcgen.generate_us", ms("vcgen.generate") * 1e3);
    out.set("vcgen.conditions", totals.vcs.0 as f64);
    out.set("vcgen.unknowns", totals.vcs.1 as f64);
    out.set("synth.search_ms", ms("synth.search"));
    out.set("synth.candidates_tried", totals.candidates as f64);
    out.set("synth.cex_cache_hits", totals.cache_hits as f64);
    out.set("synth.cexes_found", totals.found as f64);
    out.set("synth.cexes_seeded", totals.seeded as f64);
    out.set("synth.levels_used", totals.levels as f64);
    out.set(
        "synth.cex_screen_ratio",
        totals.cache_hits as f64 / totals.candidates.max(1) as f64,
    );
    out.set("verify.certify_ms", ms("verify.certify"));
    out.set("verify.proved", traced.proved(ProofStatus::Proved) as f64);
    out.set("verify.extended_bounded", traced.proved(ProofStatus::ExtendedBounded) as f64);
    out.set("translate.us", ms("translate") * 1e3);
    out.set("batch.memo_hits", untraced.memo_hits() as f64);
    out.set("batch.pool_shapes", untraced.pool.0 as f64);
    out.set("batch.pool_cexes", untraced.pool.1 as f64);
    out.set("batch.overhead_ms", untraced.overhead.as_secs_f64() * 1e3);
    let untraced_wall = untraced.wall.as_secs_f64();
    finish_trace(&mut out, &spans, &selfs, traced_wall, untraced_wall);
    out.set("trace.untraced_op_p50_us", percentile(&untraced.fragment_ms, 50.0) * 1e3);
    out.notes.push(format!(
        "corpus_compile traced: untraced pass {untraced_wall:.3} s, traced pass {traced_wall:.3} s; \
         per-layer times and counts are per-pass totals"
    ));
    crate::write_spans(args, &spans, &selfs, &mut out);
    out
}

/// Records the trace-wide metrics: span count, the worst share of a
/// request's duration its spans' self times account for, and the
/// overhead of the traced measure over the untraced one.
pub fn finish_trace(
    out: &mut Outcome,
    spans: &[trace::Span],
    selfs: &[u64],
    traced: f64,
    untraced: f64,
) {
    let shares = trace::accounted_shares(spans, selfs);
    let worst = shares.iter().copied().fold(f64::INFINITY, |a, s| a.min(s));
    out.set("trace.spans", spans.len() as f64);
    out.set("trace.accounted_min", if shares.is_empty() { 0.0 } else { worst });
    out.set("trace.overhead_pct", (traced / untraced - 1.0) * 100.0);
    if shares.iter().any(|s| (s - 1.0).abs() > 1e-9) {
        out.fail(format!("self times cover only {worst} of a request's duration"));
    }
}

/// One pass driving the layers directly, with the batch layer's memo and
/// counterexample pool, each call in a span; a fragment is one request.
fn traced_pass(
    items: &[Item],
    tracer: &mut Tracer,
    totals: &mut SearchTotals,
    out: &mut Outcome,
) -> Pass {
    let config = EngineConfig::default();
    let memo = FingerprintCache::new();
    let pool = CexPool::new();
    let mut pass = Pass::default();
    let started = Instant::now();
    for (i, item) in items.iter().enumerate() {
        tracer.begin_request(i as u64);
        let root = tracer.open("batch.fragment");
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            compile_traced(&item.input, &config, &memo, &pool, tracer, totals)
        }));
        tracer.close(root);
        pass.fragment_ms.push(tracer.spans()[root].duration_ns() as f64 / 1e6);
        let outcome =
            outcome.unwrap_or_else(|_| FragmentOutcome::broken(&item.input.name, "panicked"));
        let verdict = check(item, &outcome);
        if let Err(msg) = &verdict {
            out.notes.push(format!("FAILED: {msg}"));
        }
        out.attempt(verdict.is_ok());
        pass.outcomes.push(outcome);
    }
    pass.wall = started.elapsed();
    pass.pool = (pool.shapes(), pool.len());
    pass
}

fn compile_traced(
    input: &BatchInput,
    config: &EngineConfig,
    memo: &FingerprintCache,
    pool: &CexPool,
    tracer: &mut Tracer,
    totals: &mut SearchTotals,
) -> FragmentOutcome {
    let compiled = tracer.span("front.compile_source", |_| {
        qbs_front::compile_source(&input.source, &input.model)
    });
    let frag = match compiled {
        Ok(f) if f.len() == 1 => f.into_iter().next().expect("one fragment"),
        Ok(_) => return FragmentOutcome::broken(&input.name, "not one fragment"),
        Err(e) => {
            let status = FragmentStatus::Failed { reason: e.to_string() };
            return FragmentOutcome::of(&input.name, &status, false, 0);
        }
    };
    let kernel = match frag.kernel {
        Err(reject) => {
            let status = FragmentStatus::Rejected { reason: reject.reason };
            return FragmentOutcome::of(&input.name, &status, false, 0);
        }
        Ok(kernel) => kernel,
    };
    let ticket = match memo.claim(&canonical(&kernel, config)) {
        Claim::Hit(status) => return FragmentOutcome::of(&input.name, &status, true, 0),
        Claim::Compute(ticket) => ticket,
    };
    let types = tracer
        .span("kernel.typecheck", |_| qbs_kernel::typecheck(&kernel, &config.param_types));
    let vcs = tracer.span("vcgen.generate", |_| qbs_vcgen::generate(&kernel));
    let vcs = vcs.ok().map(|v| (v.conditions.len(), v.unknowns.len()));
    if let Some((c, u)) = vcs {
        totals.vcs.0 += c;
        totals.vcs.1 += u;
    }
    let shape = shape_key(&kernel, config);
    let seeds = pool.seeds(&shape);
    let mut record = |env: &Env| pool.record(&shape, env);
    let hooks =
        SynthHooks { seed_cexes: &seeds, on_cex: Some(&mut record), ..SynthHooks::default() };
    let search = tracer.open("synth.search");
    let result = synthesize_with_hooks(&kernel, &config.param_types, &config.synth, hooks);
    tracer.close(search);
    let status = match result {
        Ok(outcome) => {
            let end = tracer.spans()[search].end_ns;
            let proof = outcome.stats.proof_elapsed.as_nanos() as u64;
            tracer.record(search, "verify.certify", end.saturating_sub(proof), end);
            count_search(totals, &outcome.stats);
            tracer.span("translate", |_| translate(&kernel, &outcome, types))
        }
        Err(SynthFailure::NoCandidate(stats)) => {
            count_search(totals, &stats);
            let reason = format!(
                "no valid invariants/postcondition found ({} candidates tried)",
                stats.candidates_tried
            );
            FragmentStatus::Failed { reason }
        }
        Err(e @ SynthFailure::Interrupted { .. }) => {
            FragmentStatus::Failed { reason: e.to_string() }
        }
        Err(SynthFailure::Unsupported(reason)) => FragmentStatus::Failed { reason },
    };
    ticket.fill(status.clone());
    FragmentOutcome { vcs, ..FragmentOutcome::of(&input.name, &status, false, seeds.len()) }
}

fn count_search(totals: &mut SearchTotals, stats: &qbs_synth::SynthStats) {
    totals.levels += stats.levels_used;
    totals.candidates += stats.candidates_tried;
    totals.cache_hits += stats.cache_hits;
    totals.found += stats.cexes_found;
    totals.seeded += stats.cexes_seeded;
}

/// The Translated stage through the public functions: substitute each
/// source's retrieval into the verified postcondition, translate to TOR's
/// relational subset, and emit SQL.
fn translate(
    kernel: &KernelProgram,
    outcome: &SynthOutcome,
    types: Result<VarTypes, qbs_kernel::TypecheckError>,
) -> FragmentStatus {
    let post = substitute_sources(&outcome.post_rhs, kernel);
    let types = match types {
        Ok(t) => t,
        Err(e) => return FragmentStatus::Failed { reason: e.to_string() },
    };
    let trans = match qbs_tor::trans(&post, &types.to_type_env()) {
        Ok(t) => t,
        Err(e) => {
            let reason = format!("postcondition not translatable to SQL: {e}");
            return FragmentStatus::Failed { reason };
        }
    };
    match qbs_sql::sql_of(&trans) {
        Ok(sql) => FragmentStatus::Translated {
            sql,
            post,
            proof: outcome.proof,
            stats: outcome.stats.clone(),
        },
        Err(e) => FragmentStatus::Failed { reason: e.to_string() },
    }
}

/// Replaces each source variable by the `Query(...)` it is assigned from.
fn substitute_sources(post: &TorExpr, kernel: &KernelProgram) -> TorExpr {
    fn collect(stmts: &[KStmt], out: &mut Vec<(qbs_common::Ident, QuerySpec)>) {
        for s in stmts {
            match s {
                KStmt::Assign(v, KExpr::Query(spec)) => out.push((v.clone(), spec.clone())),
                KStmt::If(_, t, f) => {
                    collect(t, out);
                    collect(f, out);
                }
                KStmt::While(_, b) => collect(b, out),
                _ => {}
            }
        }
    }
    let mut sources = Vec::new();
    collect(kernel.body(), &mut sources);
    sources.into_iter().fold(post.clone(), |cur, (v, spec)| {
        qbs_vcgen::subst_expr(&cur, &v, &TorExpr::Query(spec))
    })
}
