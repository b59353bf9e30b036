//! `pageload_mixed`: the paper's Fig. 14 page served from a seeded,
//! page-sized Wilos database while writes land beside it.
//!
//! The page is four fragments — #40 selection, #46 join, #38 count and the
//! grouped #53 (`MAX … GROUP BY`). Set-up populates the database,
//! synthesizes the page's SQL through a one-worker `BatchRunner`, and
//! prepares each statement on one `Connection` (parse, then plan). The
//! inferred page executes the four prepared statements; the original page
//! is the application code they replace: lazy `qbs_orm::Session::find_all`
//! fetches plus the loops of each fragment.

use crate::corpus::finish_trace;
use crate::report::{peak_rss_mb, Outcome};
use crate::rng::SplitMix;
use crate::stats::{mean, median, percentile, tail};
use crate::trace::{self, Span, Tracer};
use crate::Args;
use qbs::FragmentStatus;
use qbs_batch::{corpus_inputs, grouped_inputs, BatchConfig, BatchInput, BatchRunner};
use qbs_common::{Record, Value};
use qbs_corpus::{populate_wilos, wilos_registry, WilosConfig};
use qbs_db::{Connection, Database, ExecStats, Params, PreparedStatement, QueryOutput};
use qbs_orm::{FetchMode, OrmObject, Registry, Session, SessionStats};
use qbs_sql::{Dialect, SqlQuery};
use qbs_synth::ProofStatus;
use std::collections::{BTreeMap, HashMap};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Barrier, Mutex};
use std::thread;
use std::time::Instant;

/// The page's fragments, in execution order.
const PAGE: [usize; 4] = [40, 46, 38, 53];

/// Span names of the page's four statement executions.
const EXECUTE_SPANS: [&str; 4] =
    ["db.execute.selection", "db.execute.join", "db.execute.count", "db.execute.group"];

/// Set-ups per run before and after the measured window; `setup_s` is
/// their median.
const SETUPS_BEFORE: usize = 3;
const SETUPS_AFTER: usize = 2;

/// `pageload_mixed`: write batches client 1 makes per epoch (each
/// followed by a page), and pages client 0 loads per epoch.
const EPOCH_WRITES: usize = 8;
const EPOCH_PAGES: usize = 16;

/// Rows per write batch.
const BATCH_ROWS: usize = 8;

/// Longest untraced and traced mixed windows of the traced run: a second
/// of traced pages makes about 100k spans, all kept in memory and written
/// out.
const TRACED_WINDOW_S: f64 = 3.0;

/// Seconds of the traced run's paired window of inferred and original
/// pages.
const PAIRED_SECONDS: f64 = 2.0;

/// Pages analyzed with `explain_analyze` after a traced window.
const ANALYZED_PAGES: usize = 20;

/// The mixed workload's database: page-sized, so per-call overheads
/// dominate.
fn mixed_config(seed: u64) -> WilosConfig {
    WilosConfig { users: 60, roles: 12, projects: 48, ..WilosConfig::default() }.with_seed(seed)
}

/// A page's answers in comparable form. Selection and join keep their
/// order (their SQL orders by rowid, as the application loops do); the
/// grouped answer is unordered and kept sorted.
#[derive(Clone, Debug, PartialEq)]
struct Answers {
    selection: Vec<Vec<Value>>,
    join: Vec<Vec<Value>>,
    count: i64,
    group: Vec<(Value, Value)>,
}

fn values(records: &[Record]) -> Vec<Vec<Value>> {
    records.iter().map(|r| r.values().to_vec()).collect()
}

fn rows(out: &QueryOutput) -> Option<&[Record]> {
    match out {
        QueryOutput::Rows(o) => Some(o.rows.records()),
        QueryOutput::Scalar { .. } => None,
    }
}

fn sorted_pairs(records: &[Record]) -> Vec<(Value, Value)> {
    let mut pairs: Vec<_> =
        records.iter().map(|r| (r.value_at(0).clone(), r.value_at(1).clone())).collect();
    pairs.sort();
    pairs
}

impl Answers {
    fn of_inferred(outputs: &[QueryOutput]) -> Option<Answers> {
        let [selection, join, QueryOutput::Scalar { value, .. }, group] = outputs else {
            return None;
        };
        Some(Answers {
            selection: values(rows(selection)?),
            join: values(rows(join)?),
            count: value.as_int()?,
            group: sorted_pairs(rows(group)?),
        })
    }

    fn of_original(page: &Original) -> Answers {
        let mut group: Vec<_> =
            page.group.iter().map(|(&k, &v)| (Value::from(k), Value::from(v))).collect();
        group.sort();
        Answers {
            selection: page.selection.iter().map(|o| o.record.values().to_vec()).collect(),
            join: page.join.iter().map(|o| o.record.values().to_vec()).collect(),
            count: page.count as i64,
            group,
        }
    }

    /// True when an inferred page's outputs are these answers; compares
    /// in place, without copying the rows.
    fn matches(&self, outputs: &[QueryOutput]) -> bool {
        let [selection, join, QueryOutput::Scalar { value, .. }, group] = outputs else {
            return false;
        };
        let same = |out: &QueryOutput, want: &[Vec<Value>]| {
            rows(out).is_some_and(|r| {
                r.iter().map(Record::values).eq(want.iter().map(Vec::as_slice))
            })
        };
        same(selection, &self.selection)
            && same(join, &self.join)
            && value.as_int() == Some(self.count)
            && rows(group).is_some_and(|r| sorted_pairs(r) == self.group)
    }
}

/// The original page's results, as the application holds them.
struct Original {
    selection: Vec<OrmObject>,
    join: Vec<OrmObject>,
    count: usize,
    group: HashMap<i64, i64>,
    stats: SessionStats,
}

/// Runs `f` inside a span when tracing.
fn timed<T>(tracer: &mut Option<&mut Tracer>, name: &'static str, f: impl FnOnce() -> T) -> T {
    match tracer {
        Some(t) => t.span(name, |_| f()),
        None => f(),
    }
}

fn int(o: &OrmObject, field: &str) -> Result<i64, String> {
    o.get(field)
        .map_err(|e| e.to_string())?
        .as_int()
        .ok_or_else(|| format!("{field} is not an integer"))
}

/// The original page: each fragment's DAO fetch through the lazy ORM and
/// its loop in application code.
fn load_original(
    db: &Database,
    registry: &Registry,
    tracer: &mut Option<&mut Tracer>,
) -> Result<Original, String> {
    let session = Session::new(db, registry, FetchMode::Lazy);
    let mut fetch = |entity: &str| {
        timed(tracer, "orm.fetch", || session.find_all(entity)).map_err(|e| e.to_string())
    };
    // #40: unfinished projects.
    let projects = fetch("Project")?;
    let unfinished = Value::from(false);
    let mut selection = Vec::new();
    for p in projects {
        if p.get("finished").map_err(|e| e.to_string())? == &unfinished {
            selection.push(p);
        }
    }
    // #46: users with a matching role, nested loops.
    let users = fetch("User")?;
    let roles = fetch("Role")?;
    let mut join = Vec::new();
    for u in &users {
        let role = int(u, "roleId")?;
        for r in &roles {
            if role == int(r, "roleId")? {
                join.push(u.clone());
            }
        }
    }
    // #38: process managers counted.
    let mut count = 0;
    for u in fetch("User")? {
        if int(&u, "roleId")? == 5 {
            count += 1;
        }
    }
    // #53: highest activity id per project, the guarded-put loop.
    let mut group = HashMap::new();
    for a in fetch("Activity")? {
        let (key, id) = (int(&a, "projectId")?, int(&a, "id")?);
        if id >= group.get(&key).copied().unwrap_or(i64::MIN) {
            group.insert(key, id);
        }
    }
    Ok(Original { selection, join, count, group, stats: session.stats() })
}

/// Executor counters summed over a window.
#[derive(Clone, Copy, Default)]
struct DbTotals {
    executes: usize,
    plan_cache_hits: usize,
    replans: usize,
    rows_scanned: usize,
    rows_out: usize,
    join_comparisons: usize,
}

impl DbTotals {
    fn absorb(&mut self, out: &QueryOutput) {
        let (stats, rows): (&ExecStats, usize) = match out {
            QueryOutput::Rows(o) => (&o.stats, o.rows.len()),
            QueryOutput::Scalar { stats, .. } => (stats, 1),
        };
        self.executes += 1;
        self.plan_cache_hits += stats.plan_cache_hits;
        self.replans += stats.replans;
        self.rows_scanned += stats.rows_scanned;
        self.rows_out += rows;
        self.join_comparisons += stats.join_comparisons;
    }

    fn add(&mut self, o: &DbTotals) {
        self.executes += o.executes;
        self.plan_cache_hits += o.plan_cache_hits;
        self.replans += o.replans;
        self.rows_scanned += o.rows_scanned;
        self.rows_out += o.rows_out;
        self.join_comparisons += o.join_comparisons;
    }
}

/// The inferred page: the four prepared statements, executed in order.
/// Traced, each execute is a span with the plan and execution times its
/// `ExecStats` reports as child spans.
fn load_inferred(
    conn: &Connection,
    stmts: &[PreparedStatement],
    tracer: &mut Option<&mut Tracer>,
) -> Result<Vec<QueryOutput>, String> {
    let params = Params::new();
    let mut outputs = Vec::with_capacity(stmts.len());
    for (stmt, name) in stmts.iter().zip(EXECUTE_SPANS) {
        let out = match tracer {
            None => conn.execute(stmt, &params),
            Some(t) => {
                let id = t.open(name);
                let out = conn.execute(stmt, &params);
                t.close(id);
                if let Ok(o) = &out {
                    let stats = match o {
                        QueryOutput::Rows(r) => &r.stats,
                        QueryOutput::Scalar { stats, .. } => stats,
                    };
                    let start = t.spans()[id].start_ns;
                    let planned = start + stats.plan_ns;
                    t.record(id, "db.plan", start, planned);
                    t.record(id, "db.exec", planned, planned + stats.exec_ns);
                }
                out
            }
        };
        outputs.push(out.map_err(|e| e.to_string())?);
    }
    Ok(outputs)
}

/// A served site: the database, its connection, the prepared page and
/// the answers fixed at set-up.
struct Site {
    base: Database,
    conn: Connection,
    queries: Vec<SqlQuery>,
    stmts: Vec<PreparedStatement>,
    expect: Answers,
    proved: usize,
}

fn page_inputs() -> Vec<BatchInput> {
    let mut all = corpus_inputs();
    all.extend(grouped_inputs());
    PAGE.iter()
        .map(|id| {
            let name = format!("wilos#{id}");
            all.iter().find(|i| i.name == name).cloned().expect("page fragment in the corpus")
        })
        .collect()
}

/// Builds a site: populate, synthesize the page's SQL, prepare it, and
/// fix the answers (the inferred page must agree with the original one).
/// Returns the site and the synthesis time in seconds.
fn set_up(
    cfg: &WilosConfig,
    registry: &Registry,
    mut tracer: Option<&mut Tracer>,
) -> Result<(Site, f64), String> {
    let db = timed(&mut tracer, "db.populate", || populate_wilos(cfg));
    let compiled = Instant::now();
    let report = timed(&mut tracer, "batch.compile", || {
        BatchRunner::new(BatchConfig::with_workers(1)).run(&page_inputs())
    });
    let compile_s = compiled.elapsed().as_secs_f64();
    let mut queries = Vec::new();
    let mut proved = 0;
    for fr in &report.fragments {
        let FragmentStatus::Translated { sql, proof, .. } = &fr.status else {
            return Err(format!("{} did not translate: {:?}", fr.input, fr.status));
        };
        proved += usize::from(*proof == ProofStatus::Proved);
        queries.push(sql.clone());
    }
    let conn = Connection::open(db.clone());
    let mut stmts = Vec::new();
    let mut parsed = Vec::new();
    for q in &queries {
        let text = qbs_sql::render_query(q, Dialect::Generic);
        let query = timed(&mut tracer, "sql.parse", || qbs_sql::parse(&text))
            .map_err(|e| format!("inferred SQL does not re-parse: {e}: {text}"))?;
        stmts.push(timed(&mut tracer, "db.prepare", || conn.prepare_query(&query)));
        parsed.push(query);
    }
    let outputs = load_inferred(&conn, &stmts, &mut tracer)?;
    let expect = Answers::of_inferred(&outputs).ok_or("inferred page has the wrong shape")?;
    let original = load_original(&conn.database(), registry, &mut tracer)?;
    if Answers::of_original(&original) != expect {
        return Err("inferred and original pages disagree at set-up".into());
    }
    Ok((Site { base: db, conn, queries: parsed, stmts, expect, proved }, compile_s))
}

/// Set-up times gathered across a run.
#[derive(Default)]
struct SetupTimes {
    total: Vec<f64>,
    compile: Vec<f64>,
}

impl SetupTimes {
    /// Sets up `n` times and returns the last site.
    fn repeat(
        &mut self,
        n: usize,
        cfg: &WilosConfig,
        registry: &Registry,
        out: &mut Outcome,
    ) -> Option<Site> {
        let mut site = None;
        for _ in 0..n {
            site = None;
            let t = Instant::now();
            match catch_unwind(AssertUnwindSafe(|| set_up(cfg, registry, None))) {
                Ok(Ok((s, compile_s))) => {
                    self.total.push(t.elapsed().as_secs_f64());
                    self.compile.push(compile_s);
                    site = Some(s);
                }
                Ok(Err(msg)) => out.fail(format!("set-up: {msg}")),
                Err(_) => out.fail("set-up panicked".into()),
            }
        }
        site
    }

    /// Records `setup_s` and `compile_wall_s` as medians, and the page's
    /// fragment counts.
    fn record(&self, out: &mut Outcome, site: &Site) {
        if !self.total.is_empty() {
            out.set("setup_s", median(&self.total));
            out.set("compile_wall_s", median(&self.compile));
        }
        out.set("fragments_translated", PAGE.len() as f64);
        out.set("fragments_proved", site.proved as f64);
    }
}

/// What a window of page loads and writes measured.
#[derive(Default)]
struct Window {
    inferred_us: Vec<f64>,
    original_us: Vec<f64>,
    write_us: Vec<f64>,
    db: DbTotals,
    orm: Vec<SessionStats>,
    spans: Vec<Span>,
    attempted: u64,
    failed: u64,
    failures: Vec<String>,
    elapsed: f64,
}

impl Window {
    fn attempt(&mut self, result: Result<(), String>) {
        self.attempted += 1;
        if let Err(msg) = result {
            self.failed += 1;
            if self.failures.len() < 5 {
                self.failures.push(msg);
            }
        }
    }

    /// Folds another client's window into this one.
    fn absorb(&mut self, other: Window) {
        self.inferred_us.extend(other.inferred_us);
        self.original_us.extend(other.original_us);
        self.write_us.extend(other.write_us);
        self.db.add(&other.db);
        self.orm.extend(other.orm);
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.failures.extend(other.failures);
        self.spans = trace::merge(vec![std::mem::take(&mut self.spans), other.spans]);
    }

    fn count_into(&mut self, out: &mut Outcome) {
        out.attempted += self.attempted;
        out.failed += self.failed;
        out.notes.extend(self.failures.drain(..).map(|m| format!("FAILED: {m}")));
    }
}

/// Runs `f` as request `request`'s root span when tracing, catching a
/// panic as a failure; returns its result and its time in microseconds.
fn request<T>(
    tracer: &mut Option<&mut Tracer>,
    request: u64,
    name: &'static str,
    f: impl FnOnce(&mut Option<&mut Tracer>) -> Result<T, String>,
) -> (Result<T, String>, f64) {
    let root = tracer.as_deref_mut().map(|t| {
        t.begin_request(request);
        t.open(name)
    });
    let started = Instant::now();
    let result = catch_unwind(AssertUnwindSafe(|| f(tracer)))
        .unwrap_or_else(|_| Err(format!("{name} panicked")));
    let us = started.elapsed().as_secs_f64() * 1e6;
    if let (Some(t), Some(id)) = (tracer.as_deref_mut(), root) {
        t.close(id);
    }
    (result, us)
}

/// Loads and checks one inferred page against `expect`.
fn checked_page(
    w: &mut Window,
    conn: &Connection,
    stmts: &[PreparedStatement],
    expect: &Answers,
    tracer: &mut Option<&mut Tracer>,
    id: u64,
) {
    let (result, us) = request(tracer, id, "page.inferred", |t| load_inferred(conn, stmts, t));
    w.inferred_us.push(us);
    let checked = result.and_then(|outputs| {
        outputs.iter().for_each(|o| w.db.absorb(o));
        if expect.matches(&outputs) {
            Ok(())
        } else {
            Err("page answers differ from the expected ones".into())
        }
    });
    w.attempt(checked);
}

/// The traced run's read-only window: one client alternates the inferred
/// page with the original page on one pinned snapshot of the set-up
/// database, and each pair must agree, until `seconds` pass.
fn paired_window(site: &Site, registry: &Registry, seconds: f64) -> Window {
    let mut w = Window::default();
    let mut tracer = Tracer::new(Instant::now());
    let mut tr = Some(&mut tracer);
    let started = Instant::now();
    let mut page = 0;
    while started.elapsed().as_secs_f64() < seconds {
        let snapshot = site.conn.database();
        // Requests of this window are numbered apart from the mixed
        // clients' (`client << 40 | n`).
        let id = (2 << 40) | (2 * page);
        let (inferred, us) = request(&mut tr, id, "page.inferred", |t| {
            load_inferred(&site.conn, &site.stmts, t)
        });
        w.inferred_us.push(us);
        let (original, us) = request(&mut tr, id + 1, "page.original", |t| {
            load_original(&snapshot, registry, t)
        });
        w.original_us.push(us);
        let expect = original.as_ref().map(Answers::of_original);
        let checked = inferred.and_then(|outputs| {
            outputs.iter().for_each(|o| w.db.absorb(o));
            match &expect {
                Ok(e) if !e.matches(&outputs) => {
                    Err("inferred page differs from the original page".into())
                }
                _ => Ok(()),
            }
        });
        w.attempt(checked);
        let fetched = original.map(|o| w.orm.push(o.stats));
        w.attempt(fetched);
        page += 1;
    }
    w.elapsed = started.elapsed().as_secs_f64();
    w.spans = tracer.into_spans();
    w
}

/// The `i`-th write batch: finished projects, users whose role matches
/// no role, or activities with ids below every existing id — rows no
/// page answer may change by.
fn write_batch(
    rng: &mut SplitMix,
    i: usize,
    cfg: &WilosConfig,
) -> (&'static str, Vec<Vec<Value>>) {
    let mut id = || 1_000_000 + rng.below(1_000_000) as i64;
    let rows: Vec<Vec<Value>> = (0..BATCH_ROWS)
        .map(|k| match i % 3 {
            0 => vec![
                Value::from(id()),
                Value::from((id() as usize % cfg.users) as i64),
                Value::from(true),
                Value::from(format!("new-project-{i}-{k}")),
            ],
            1 => vec![
                Value::from(id()),
                Value::from(cfg.roles as i64 + id()),
                Value::from(k % 2 == 0),
                Value::from(format!("new-user-{i}-{k}")),
            ],
            _ => vec![
                Value::from(-id()),
                Value::from((id() as usize % cfg.projects) as i64),
                Value::from((k % 3) as i64),
            ],
        })
        .collect();
    (["projects", "users", "activities"][i % 3], rows)
}

/// What the two clients of a `pageload_mixed` window share.
struct Mixed<'a> {
    site: &'a Site,
    cfg: &'a WilosConfig,
    seed: u64,
    seconds: f64,
    traced: bool,
    started: Instant,
    /// The current epoch's connection and its prepared page.
    current: Mutex<Option<(Connection, Arc<Vec<PreparedStatement>>)>>,
    sync: Barrier,
    stop: AtomicBool,
}

impl Mixed<'_> {
    /// One client. Epochs repeat until client 0 finds `seconds` passed:
    /// client 0 reopens the shared connection on the set-up database and
    /// re-prepares the page; then client 0 loads `EPOCH_PAGES` pages while
    /// client 1 alternates `EPOCH_WRITES` write batches with pages. The
    /// tables thus grow by the same rows in every epoch and stay
    /// page-sized.
    fn client(&self, client: u64) -> Window {
        let (site, mut w) = (self.site, Window::default());
        let mut rng = SplitMix::new(self.seed, 10 + client);
        let mut tracer = Tracer::new(self.started);
        let mut tr = self.traced.then_some(&mut tracer);
        let mut ops = 0;
        let mut next_id = || {
            ops += 1;
            (client << 40) | ops
        };
        let mut writes = 0;
        loop {
            if client == 0 {
                if self.started.elapsed().as_secs_f64() >= self.seconds {
                    self.stop.store(true, Ordering::SeqCst);
                } else {
                    let conn = Connection::open(site.base.clone());
                    let stmts =
                        Arc::new(site.queries.iter().map(|q| conn.prepare_query(q)).collect());
                    *self.current.lock().expect("epoch lock") = Some((conn, stmts));
                }
            }
            self.sync.wait();
            if self.stop.load(Ordering::SeqCst) {
                break;
            }
            let (conn, stmts) =
                self.current.lock().expect("epoch lock").clone().expect("epoch set up");
            if client == 0 {
                for _ in 0..EPOCH_PAGES {
                    checked_page(&mut w, &conn, &stmts, &site.expect, &mut tr, next_id());
                }
            } else {
                for _ in 0..EPOCH_WRITES {
                    let (table, rows) = write_batch(&mut rng, writes, self.cfg);
                    writes += 1;
                    let (result, us) = request(&mut tr, next_id(), "db.write", |_| {
                        conn.insert_many(table, rows).map_err(|e| e.to_string())
                    });
                    w.write_us.push(us);
                    w.attempt(result);
                    checked_page(&mut w, &conn, &stmts, &site.expect, &mut tr, next_id());
                }
            }
            self.sync.wait();
        }
        w.spans = tracer.into_spans();
        w
    }
}

/// A `pageload_mixed` window: two closed-loop clients on one cloned
/// connection.
fn mixed_window(
    site: &Site,
    cfg: &WilosConfig,
    seed: u64,
    seconds: f64,
    traced: bool,
) -> Window {
    let mixed = Mixed {
        site,
        cfg,
        seed,
        seconds,
        traced,
        started: Instant::now(),
        current: Mutex::new(None),
        sync: Barrier::new(2),
        stop: AtomicBool::new(false),
    };
    let clients: Vec<Window> = thread::scope(|s| {
        let handles: Vec<_> = (0..2)
            .map(|client| {
                let mixed = &mixed;
                s.spawn(move || mixed.client(client))
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("client thread")).collect()
    });
    let mut w = Window::default();
    for c in clients {
        w.absorb(c);
    }
    w.elapsed = mixed.started.elapsed().as_secs_f64();
    w
}

fn summary(label: &str, us: &[f64]) -> String {
    if us.is_empty() {
        return format!("{label}: none");
    }
    format!(
        "{label}: n={} p50={:.1}us p{}={:.1}us",
        us.len(),
        percentile(us, 50.0),
        crate::stats::tail_percentile(us.len()).unwrap_or(50.0),
        tail(us)
    )
}

/// `pageload_mixed`, untraced. Set-ups run before and after the window,
/// so their median samples the machine at both ends of the run.
pub fn run_mixed(args: &Args) -> Outcome {
    let mut out = Outcome::default();
    let cfg = mixed_config(args.seed);
    let registry = wilos_registry();
    let mut times = SetupTimes::default();
    let Some(site) = times.repeat(SETUPS_BEFORE, &cfg, &registry, &mut out) else {
        return out;
    };
    let mut w = mixed_window(&site, &cfg, args.seed, args.seconds as f64, false);
    times.repeat(SETUPS_AFTER, &cfg, &registry, &mut out);
    times.record(&mut out, &site);
    w.count_into(&mut out);
    out.set("peak_rss_mb", peak_rss_mb());
    out.set("success_ratio", out.success_ratio());
    out.set("ops_per_s", w.attempted as f64 / w.elapsed);
    out.set("op_p50_us", percentile(&w.inferred_us, 50.0));
    out.set("op_tail_us", tail(&w.inferred_us));
    out.notes.push(format!(
        "pageload_mixed seed {}: users 60, roles 12, projects 48, 2 closed-loop clients on one \
         connection, epochs of {EPOCH_PAGES}+{EPOCH_WRITES} pages and {EPOCH_WRITES} writes of \
         {BATCH_ROWS} rows; {}; {}",
        args.seed,
        summary("page", &w.inferred_us),
        summary("write", &w.write_us)
    ));
    out
}

/// `pageload_mixed`, traced: a traced set-up; an untraced and a traced
/// mixed window of half the seconds each, up to `TRACED_WINDOW_S`; a
/// traced paired window of the inferred and original pages, which
/// measures `qbs-orm`; then `explain_analyze` of the page.
pub fn run_traced(args: &Args) -> Outcome {
    let mut out = Outcome::default();
    let registry = wilos_registry();
    let cfg = mixed_config(args.seed);
    let mut setup_tracer = Tracer::new(Instant::now());
    setup_tracer.begin_request(u64::MAX);
    let root = setup_tracer.open("setup");
    let site = set_up(&cfg, &registry, Some(&mut setup_tracer));
    setup_tracer.close(root);
    let (site, _) = match site {
        Ok(s) => s,
        Err(msg) => {
            out.fail(format!("set-up: {msg}"));
            return out;
        }
    };
    let half = (args.seconds as f64 / 2.0).min(TRACED_WINDOW_S);
    let mut plain = mixed_window(&site, &cfg, args.seed, half, false);
    let mut traced = mixed_window(&site, &cfg, args.seed, half, true);
    let mut paired = paired_window(&site, &registry, PAIRED_SECONDS);
    for w in [&mut plain, &mut traced, &mut paired] {
        w.count_into(&mut out);
    }

    // Each group of metrics reads its own window's spans; set-up's spans
    // give the parse time.
    let per_name = |spans: &[Span]| {
        (trace::self_by_name(spans, &trace::self_times(spans)), trace::duration_by_name(spans))
    };
    let (_, setup_dur) = per_name(setup_tracer.spans());
    let (own, dur) = per_name(&traced.spans);
    let (orm_own, orm_dur) = per_name(&paired.spans);
    let mean_us = |d: &BTreeMap<&str, (u64, usize)>, name: &str, per: Option<usize>| {
        d.get(name).map_or(0.0, |&(ns, n)| ns as f64 / 1e3 / per.unwrap_or(n).max(1) as f64)
    };
    let pages = traced.inferred_us.len();
    let stmts = pages * EXECUTE_SPANS.len();
    out.set("sql.parse_us", mean_us(&setup_dur, "sql.parse", None));
    for (name, metric) in EXECUTE_SPANS.iter().zip([
        "db.execute_us.selection",
        "db.execute_us.join",
        "db.execute_us.count",
        "db.execute_us.group",
    ]) {
        out.set(metric, mean_us(&dur, name, None));
    }
    out.set("db.plan_us", mean_us(&dur, "db.plan", Some(stmts)));
    out.set("db.exec_us", mean_us(&dur, "db.exec", Some(stmts)));
    let other: u64 = EXECUTE_SPANS.iter().map(|n| own.get(n).copied().unwrap_or(0)).sum();
    out.set("db.other_us", other as f64 / 1e3 / stmts.max(1) as f64);
    let db = traced.db;
    out.set("db.plan_cache_hit_rate", db.plan_cache_hits as f64 / db.executes.max(1) as f64);
    out.set("db.replans_per_page", db.replans as f64 / pages.max(1) as f64);
    out.set("db.rows_scanned_per_row", db.rows_scanned as f64 / db.rows_out.max(1) as f64);
    out.set("db.join_comparisons", db.join_comparisons as f64 / pages.max(1) as f64);
    out.set("db.write_us", mean_us(&dur, "db.write", None));
    let originals = paired.original_us.len();
    out.set("orm.fetch_us", mean_us(&orm_dur, "orm.fetch", Some(originals)));
    let app = orm_own.get("page.original").copied().unwrap_or(0);
    out.set("orm.app_us", app as f64 / 1e3 / originals.max(1) as f64);
    let orm = &paired.orm;
    out.set(
        "orm.queries_per_page",
        mean(&orm.iter().map(|s| s.queries as f64).collect::<Vec<_>>()),
    );
    out.set(
        "orm.objects_per_page",
        mean(&orm.iter().map(|s| s.objects_loaded as f64).collect::<Vec<_>>()),
    );
    if !paired.original_us.is_empty() {
        out.set("page.original_p50_us", percentile(&paired.original_us, 50.0));
    }
    if !plain.write_us.is_empty() {
        out.set("page.write_p50_us", percentile(&plain.write_us, 50.0));
    }
    walker_actuals(&site, &mut out);
    let spans = trace::merge(vec![
        setup_tracer.into_spans(),
        std::mem::take(&mut traced.spans),
        std::mem::take(&mut paired.spans),
    ]);
    let selfs = trace::self_times(&spans);
    let (plain_p50, traced_p50) =
        (percentile(&plain.inferred_us, 50.0), percentile(&traced.inferred_us, 50.0));
    finish_trace(&mut out, &spans, &selfs, traced_p50, plain_p50);
    out.set("trace.untraced_op_p50_us", plain_p50);
    out.notes.push(format!(
        "pageload_mixed traced: {}; {}; {} and {}; per-statement db.* times, per-page orm.* \
         times; db.walker.* are the tree-walking interpreter's actuals from explain_analyze, \
         not the VM that serves pages",
        summary("untraced page", &plain.inferred_us),
        summary("traced page", &traced.inferred_us),
        summary("paired inferred page", &paired.inferred_us),
        summary("original page", &paired.original_us),
    ));
    crate::write_spans(args, &spans, &selfs, &mut out);
    out
}

/// Per-operator times of the tree-walking interpreter, from
/// `explain_analyze` of the page on the set-up connection, per page.
fn walker_actuals(site: &Site, out: &mut Outcome) {
    let params = Params::new();
    let (mut scan, mut join, mut aggregate, mut residual, mut sort) = (0, 0, 0, 0, 0);
    for _ in 0..ANALYZED_PAGES {
        for stmt in &site.stmts {
            let Ok(a) = site.conn.explain_analyze(stmt, &params) else {
                out.fail("explain_analyze failed".into());
                return;
            };
            let a = a.actuals;
            scan += a.scans.iter().map(|s| s.elapsed_ns).sum::<u64>();
            join += a.joins.iter().map(|j| j.elapsed_ns).sum::<u64>();
            aggregate += a.aggregate.map_or(0, |o| o.elapsed_ns);
            residual += a.residual.map_or(0, |o| o.elapsed_ns);
            sort += a.sort.map_or(0, |o| o.elapsed_ns);
        }
    }
    let per_page = |ns: u64| ns as f64 / 1e3 / ANALYZED_PAGES as f64;
    out.set("db.walker.scan_us", per_page(scan));
    out.set("db.walker.join_us", per_page(join));
    out.set("db.walker.aggregate_us", per_page(aggregate));
    out.set("db.walker.residual_us", per_page(residual));
    out.set("db.walker.sort_us", per_page(sort));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn writes_never_change_a_page_answer() {
        let cfg = WilosConfig { users: 30, roles: 6, projects: 24, ..WilosConfig::default() };
        let registry = wilos_registry();
        let (site, _) = set_up(&cfg, &registry, None).expect("set-up");
        let mut rng = SplitMix::new(3, 10);
        for i in 0..6 {
            let (table, rows) = write_batch(&mut rng, i, &cfg);
            site.conn.insert_many(table, rows).expect("write");
            let outputs = load_inferred(&site.conn, &site.stmts, &mut None).expect("page");
            assert!(site.expect.matches(&outputs), "batch {i} into {table} changed the page");
            let original = load_original(&site.conn.database(), &registry, &mut None).unwrap();
            assert_eq!(Answers::of_original(&original), site.expect);
        }
    }

    #[test]
    fn a_changed_answer_is_caught() {
        let cfg = WilosConfig { users: 30, roles: 6, projects: 24, ..WilosConfig::default() };
        let (site, _) = set_up(&cfg, &wilos_registry(), None).expect("set-up");
        // An unfinished project joins the selection.
        let row = vec![Value::from(-1), Value::from(0), Value::from(false), Value::from("x")];
        site.conn.insert("projects", row).expect("write");
        let outputs = load_inferred(&site.conn, &site.stmts, &mut None).expect("page");
        assert!(!site.expect.matches(&outputs));
    }
}
