//! The differential check: run the original kernel program and execute
//! the synthesized SQL on the same database, then compare under the
//! correct TOR equivalence.
//!
//! The SQL side runs through a [`Connection`] and a single
//! [`PreparedStatement`] per fragment — planned once at [`check_opts`]
//! (or [`check_many`]) entry, then executed for the initial run, every
//! witness-minimization candidate, and every seeded database; the returned
//! [`ExecStats`] therefore expose the plan-cache behaviour
//! (`plan_cache_hits` / `replans`) alongside the row counters. The kernel
//! side runs the fragment through [`qbs_kernel::run`], the kernel
//! language's interpreter.

use crate::verdict::{MismatchWitness, OracleVerdict};
use qbs_common::Ident;
use qbs_db::{
    rows_diff, Connection, Database, ExecStats, Params, PlanConfig, PreparedStatement,
    QueryOutput, RowsEquivalence,
};
use qbs_kernel::KernelProgram;
use qbs_sql::{Dialect, SqlQuery};
use qbs_tor::DynValue;

/// Cap on re-executions spent minimizing one witness; minimization is
/// best-effort and stops early on huge databases rather than stalling the
/// oracle run.
const MINIMIZE_BUDGET: usize = 512;

/// How many result rows a witness dump includes before truncating.
const DUMP_ROWS: usize = 12;

/// The raw outcome of running both sides once, before any witness
/// minimization.
enum Outcome {
    Agree { rows: usize, equivalence: RowsEquivalence },
    Diff { diff: String, original: String, translated: String },
    Inconclusive(String),
}

/// Tuning for one differential check.
#[derive(Clone, Debug)]
pub struct CheckOptions {
    /// Execute the SQL side with greedy join reordering enabled (the
    /// planner still gates the reorder on order-safety — see
    /// `qbs_db::PlanConfig`).
    pub reorder_joins: bool,
    /// Delta-debug a mismatch witness down to a (near-)minimal database.
    pub minimize: bool,
}

impl Default for CheckOptions {
    fn default() -> CheckOptions {
        CheckOptions { reorder_joins: false, minimize: true }
    }
}

impl CheckOptions {
    fn plan_config(&self) -> PlanConfig {
        PlanConfig { reorder_joins: self.reorder_joins, ..PlanConfig::default() }
    }
}

/// A verdict plus the executor counters of the SQL side — what corpus-scale
/// oracle runs roll up into their reports.
#[derive(Clone, Debug)]
pub struct CheckOutcome {
    /// The differential verdict.
    pub verdict: OracleVerdict,
    /// [`ExecStats`] of the first SQL execution (absent when the executor
    /// itself failed, i.e. the verdict is inconclusive on the SQL side).
    pub exec: Option<ExecStats>,
    /// Wall-clock of the kernel interpretation on the initial database
    /// (0 when the interpreter failed before finishing).
    pub kernel_ns: u64,
    /// Wall-clock of the first SQL execution (0 when it failed) — the
    /// paper's speedup claim, measured per check: `kernel_ns / sql_ns`
    /// is the original-vs-translated ratio on that database.
    pub sql_ns: u64,
}

/// Per-side wall-clock of one `run_both`, for [`CheckOutcome`].
#[derive(Default)]
struct SideTimes {
    kernel_ns: u64,
    sql_ns: u64,
}

fn dump_dyn(v: &DynValue) -> String {
    match v {
        DynValue::Scalar(s) => format!("{s:?}"),
        DynValue::Rec(r) => format!("{:?}", r.values()),
        DynValue::Rel(rel) => dump_rows(rel.iter().map(|r| r.values().to_vec())),
    }
}

fn dump_rows(rows: impl IntoIterator<Item = Vec<qbs_common::Value>>) -> String {
    let mut all: Vec<String> = rows.into_iter().map(|r| format!("{r:?}")).collect();
    let n = all.len();
    if n > DUMP_ROWS {
        all.truncate(DUMP_ROWS);
        all.push(format!("… ({} more)", n - DUMP_ROWS));
    }
    format!("[{}] {}", n, all.join(", "))
}

/// The row equivalence a query's results must be compared under: ordered
/// when the SQL pins order with an `ORDER BY` (the paper's `Order`
/// function proved the fragment's order), multiset otherwise.
pub fn proven_equivalence(sql: &SqlQuery) -> RowsEquivalence {
    match sql {
        SqlQuery::Select(s) if !s.order_by.is_empty() => RowsEquivalence::Ordered,
        SqlQuery::Select(_) => RowsEquivalence::Multiset,
        // Scalars have no row order to compare.
        SqlQuery::Scalar(_) => RowsEquivalence::Ordered,
    }
}

fn run_both(
    kernel: &KernelProgram,
    stmt: &PreparedStatement,
    conn: &Connection,
    params: &Params,
    exec: &mut Option<ExecStats>,
    times: &mut SideTimes,
) -> Outcome {
    // Original semantics: the kernel program over the database's
    // relations, with bind parameters as scalar variables.
    let mut env = conn.database().env();
    for (name, value) in params {
        env.bind(name.clone(), value.clone());
    }
    let opened = std::time::Instant::now();
    let run = match qbs_kernel::run(kernel, env) {
        Ok(r) => r,
        Err(e) => return Outcome::Inconclusive(format!("interpreter failed: {e}")),
    };
    times.kernel_ns = opened.elapsed().as_nanos() as u64;

    // Transformed semantics: the prepared statement on the same database.
    let opened = std::time::Instant::now();
    let out = match conn.execute(stmt, params) {
        Ok(o) => o,
        Err(e) => return Outcome::Inconclusive(format!("sql execution failed: {e}")),
    };
    times.sql_ns = opened.elapsed().as_nanos() as u64;
    *exec = Some(match &out {
        QueryOutput::Rows(r) => r.stats.clone(),
        QueryOutput::Scalar { stats, .. } => stats.clone(),
    });

    let equivalence = proven_equivalence(stmt.query());
    match (&run.result, &out) {
        (DynValue::Rel(orig), QueryOutput::Rows(sqlout)) => {
            match rows_diff(orig, &sqlout.rows, equivalence) {
                None => Outcome::Agree { rows: orig.len(), equivalence },
                Some(d) => Outcome::Diff {
                    diff: d.to_string(),
                    original: dump_dyn(&run.result),
                    translated: dump_rows(sqlout.rows.iter().map(|r| r.values().to_vec())),
                },
            }
        }
        (DynValue::Scalar(orig), QueryOutput::Scalar { value, .. }) => {
            if orig == value {
                Outcome::Agree { rows: 1, equivalence: RowsEquivalence::Ordered }
            } else {
                Outcome::Diff {
                    diff: format!("scalar differs: {orig:?} vs {value:?}"),
                    original: format!("{orig:?}"),
                    translated: format!("{value:?}"),
                }
            }
        }
        // A record-valued fragment against a one-row result set compares
        // by that row.
        (DynValue::Rec(rec), QueryOutput::Rows(sqlout)) => {
            let matches = sqlout.rows.len() == 1
                && sqlout.rows.get(0).is_some_and(|r| r.values() == rec.values());
            if matches {
                Outcome::Agree { rows: 1, equivalence: RowsEquivalence::Ordered }
            } else {
                Outcome::Diff {
                    diff: format!("record result vs {} SQL rows", sqlout.rows.len()),
                    original: dump_dyn(&run.result),
                    translated: dump_rows(sqlout.rows.iter().map(|r| r.values().to_vec())),
                }
            }
        }
        (orig, out) => {
            let translated = match out {
                QueryOutput::Rows(r) => dump_rows(r.rows.iter().map(|x| x.values().to_vec())),
                QueryOutput::Scalar { value, .. } => format!("{value:?}"),
            };
            Outcome::Diff {
                diff: format!("result kinds differ: {} vs SQL", orig.kind()),
                original: dump_dyn(orig),
                translated,
            }
        }
    }
}

/// Runs the differential check and, on mismatch, minimizes the witness
/// database before reporting.
///
/// The fragment's `Query(...)` retrievals resolve against `db`'s tables;
/// `params` supplies values for both the kernel's parameters and the SQL's
/// bind parameters (the engine keeps their names aligned).
pub fn check(
    kernel: &KernelProgram,
    sql: &SqlQuery,
    db: &Database,
    params: &Params,
) -> OracleVerdict {
    check_opts(kernel, sql, db, params, &CheckOptions::default()).verdict
}

/// Runs the differential check without witness minimization — the hot path
/// for fuzzing loops where most verdicts are expected to agree.
pub fn check_unminimized(
    kernel: &KernelProgram,
    sql: &SqlQuery,
    db: &Database,
    params: &Params,
) -> OracleVerdict {
    let opts = CheckOptions { minimize: false, ..CheckOptions::default() };
    check_opts(kernel, sql, db, params, &opts).verdict
}

/// The configurable differential check: verdict plus the SQL executor's
/// counters, with join reordering and witness minimization per `opts`.
///
/// The SQL is prepared exactly once; the initial run and every
/// minimization candidate execute the same handle (candidates replan
/// transparently — their tables carry different generation counters).
pub fn check_opts(
    kernel: &KernelProgram,
    sql: &SqlQuery,
    db: &Database,
    params: &Params,
    opts: &CheckOptions,
) -> CheckOutcome {
    let conn = connect(db, opts);
    let stmt = conn.prepare_query(sql);
    check_with_handle(kernel, &stmt, &conn, params, opts)
}

/// Differentially checks one fragment on several databases through **one**
/// prepared handle: the statement is planned once and re-executed per
/// seed, so each outcome's [`ExecStats`] show a plan-cache hit instead of
/// a fresh planning pass (the corpus oracle's execute-many shape).
pub fn check_many(
    kernel: &KernelProgram,
    sql: &SqlQuery,
    dbs: &[Database],
    params: &Params,
    opts: &CheckOptions,
) -> Vec<CheckOutcome> {
    let mut stmt: Option<PreparedStatement> = None;
    dbs.iter()
        .map(|db| {
            let conn = connect(db, opts);
            let stmt = stmt.get_or_insert_with(|| conn.prepare_query(sql));
            check_with_handle(kernel, stmt, &conn, params, opts)
        })
        .collect()
}

fn connect(db: &Database, opts: &CheckOptions) -> Connection {
    Connection::open_with(db.clone(), opts.plan_config(), Dialect::Generic)
}

fn check_with_handle(
    kernel: &KernelProgram,
    stmt: &PreparedStatement,
    conn: &Connection,
    params: &Params,
    opts: &CheckOptions,
) -> CheckOutcome {
    let witness = |diff, original, translated, db| {
        OracleVerdict::Mismatch(Box::new(MismatchWitness {
            fragment: kernel.name().to_string(),
            sql: stmt.query().to_string(),
            diff,
            original,
            translated,
            db,
        }))
    };
    let mut exec = None;
    let mut times = SideTimes::default();
    let verdict = match run_both(kernel, stmt, conn, params, &mut exec, &mut times) {
        Outcome::Agree { rows, equivalence } => OracleVerdict::Agree { rows, equivalence },
        Outcome::Inconclusive(reason) => OracleVerdict::Inconclusive { reason },
        Outcome::Diff { diff, original, translated } if !opts.minimize => {
            witness(diff, original, translated, (*conn.database()).clone())
        }
        Outcome::Diff { diff, original, translated } => {
            let full = (*conn.database()).clone();
            let minimized = minimize_with(kernel, stmt, &full, params, &opts.plan_config());
            // Re-derive the divergence on the minimized database so the
            // witness is self-contained.
            let mut scratch = None;
            let reconn =
                Connection::open_with(minimized.clone(), opts.plan_config(), Dialect::Generic);
            match run_both(
                kernel,
                stmt,
                &reconn,
                params,
                &mut scratch,
                &mut SideTimes::default(),
            ) {
                Outcome::Diff { diff, original, translated } => {
                    witness(diff, original, translated, minimized)
                }
                // Unreachable by construction (minimize only commits
                // mismatch-preserving reductions), kept total for safety.
                _ => witness(diff, original, translated, full),
            }
        }
    };
    CheckOutcome { verdict, exec, kernel_ns: times.kernel_ns, sql_ns: times.sql_ns }
}

/// Rebuilds `db` with `table` restricted to the rows whose positions are
/// marked in `keep`; schemas and indexes carry over.
fn retain_rows(db: &Database, table: &Ident, keep: &[bool]) -> Database {
    let mut out = Database::new();
    for name in db.table_names() {
        let t = db.table(name).expect("listed table");
        out.create_table(t.schema().clone()).expect("fresh database");
        for (i, row) in t.rows().enumerate() {
            if name == table && !keep.get(i).copied().unwrap_or(true) {
                continue;
            }
            out.insert(name.as_str(), row.to_vec()).expect("same schema");
        }
        for col in t.indexed_columns() {
            out.create_index(name.as_str(), col.as_str()).expect("same schema");
        }
    }
    out
}

/// Greedily shrinks the database while the fragment and its SQL still
/// disagree — delta debugging over table rows, chunked from whole-table
/// removals down to single rows, bounded by a fixed re-execution budget.
///
/// The result is a (near-)minimal database on which the mismatch still
/// reproduces; on agreement or errors the input database is returned
/// unchanged.
pub fn minimize(
    kernel: &KernelProgram,
    sql: &SqlQuery,
    db: &Database,
    params: &Params,
) -> Database {
    let config = PlanConfig::default();
    let conn = Connection::open_with(db.clone(), config.clone(), Dialect::Generic);
    let stmt = conn.prepare_query(sql);
    minimize_with(kernel, &stmt, db, params, &config)
}

/// [`minimize`] under the plan configuration the mismatch was found with,
/// so reductions are judged by the same executor behaviour. Every
/// candidate database executes the *same* prepared handle, moving in and
/// out of a throwaway connection without being copied.
fn minimize_with(
    kernel: &KernelProgram,
    stmt: &PreparedStatement,
    db: &Database,
    params: &Params,
    config: &PlanConfig,
) -> Database {
    let still_mismatch = |candidate: Database| -> (bool, Database) {
        let mut scratch = None;
        let conn = Connection::open_with(candidate, config.clone(), Dialect::Generic);
        let diff = matches!(
            run_both(kernel, stmt, &conn, params, &mut scratch, &mut SideTimes::default()),
            Outcome::Diff { .. }
        );
        (diff, conn.into_database())
    };
    let (reproduced, initial) = still_mismatch(db.clone());
    if !reproduced {
        return initial;
    }
    let mut budget = MINIMIZE_BUDGET;
    let mut current = initial;
    let tables: Vec<Ident> = current.table_names().cloned().collect();
    for table in tables {
        let mut chunk = current.table(&table).map(|t| t.len()).unwrap_or(0);
        while chunk >= 1 && budget > 0 {
            let len = current.table(&table).map(|t| t.len()).unwrap_or(0);
            let mut start = 0;
            while start < len && budget > 0 {
                let len_now = current.table(&table).map(|t| t.len()).unwrap_or(0);
                if start >= len_now {
                    break;
                }
                let mut keep = vec![true; len_now];
                for k in keep.iter_mut().skip(start).take(chunk) {
                    *k = false;
                }
                budget -= 1;
                let (diff, candidate) = still_mismatch(retain_rows(&current, &table, &keep));
                if diff {
                    // Commit the removal; the next chunk now starts at the
                    // same position.
                    current = candidate;
                } else {
                    start += chunk;
                }
            }
            chunk /= 2;
        }
    }
    current
}

#[cfg(test)]
mod tests {
    use super::*;
    use qbs_common::{FieldType, Schema, Value};
    use qbs_kernel::{KExpr, KStmt};
    use qbs_tor::{CmpOp, QuerySpec};

    fn users_db(role_pairs: &[(i64, i64)]) -> Database {
        let mut db = Database::new();
        db.create_table(
            Schema::builder("users")
                .field("id", FieldType::Int)
                .field("roleId", FieldType::Int)
                .finish(),
        )
        .unwrap();
        for (id, role) in role_pairs {
            db.insert("users", vec![Value::from(*id), Value::from(*role)]).unwrap();
        }
        db
    }

    fn selection_kernel_built(role: i64) -> KernelProgram {
        let schema = Schema::builder("users")
            .field("id", FieldType::Int)
            .field("roleId", FieldType::Int)
            .finish();
        KernelProgram::builder("sel")
            .stmt(KStmt::assign("out", KExpr::EmptyList))
            .stmt(KStmt::assign("users", KExpr::query(QuerySpec::table_scan("users", schema))))
            .stmt(KStmt::assign("i", KExpr::int(0)))
            .stmt(KStmt::while_loop(
                KExpr::cmp(CmpOp::Lt, KExpr::var("i"), KExpr::size(KExpr::var("users"))),
                vec![
                    KStmt::if_then(
                        KExpr::cmp(
                            CmpOp::Eq,
                            KExpr::field(
                                KExpr::get(KExpr::var("users"), KExpr::var("i")),
                                "roleId",
                            ),
                            KExpr::int(role),
                        ),
                        vec![KStmt::assign(
                            "out",
                            KExpr::append(
                                KExpr::var("out"),
                                KExpr::get(KExpr::var("users"), KExpr::var("i")),
                            ),
                        )],
                    ),
                    KStmt::assign("i", KExpr::add(KExpr::var("i"), KExpr::int(1))),
                ],
            ))
            .result("out")
            .finish()
    }

    fn select_where_role(role: i64) -> SqlQuery {
        qbs_sql::parse(&format!(
            "SELECT users.id, users.roleId FROM users WHERE users.roleId = {role} \
             ORDER BY users.rowid"
        ))
        .unwrap()
    }

    #[test]
    fn correct_translation_agrees() {
        let db = users_db(&[(1, 10), (2, 20), (3, 10)]);
        let v = check(&selection_kernel_built(10), &select_where_role(10), &db, &Params::new());
        match v {
            OracleVerdict::Agree { rows, equivalence } => {
                assert_eq!(rows, 2);
                assert_eq!(equivalence, RowsEquivalence::Ordered);
            }
            other => panic!("expected agree, got {other}"),
        }
    }

    #[test]
    fn wrong_predicate_is_a_minimized_mismatch() {
        let db = users_db(&[(0, 10), (1, 20), (2, 10), (3, 20), (4, 10), (5, 30)]);
        // The "translation" filters role 20 while the source filters 10.
        let v = check(&selection_kernel_built(10), &select_where_role(20), &db, &Params::new());
        let OracleVerdict::Mismatch(w) = v else { panic!("expected mismatch, got {v}") };
        // A single row with roleId ∈ {10, 20} suffices to show divergence;
        // minimization must get there.
        let users = w.db.table(&"users".into()).expect("witness keeps the table");
        assert_eq!(users.len(), 1, "witness:\n{w}");
        assert!(w.to_string().contains("sql:"), "{w}");
    }

    /// An imperative max-loop over `users` (`best = i64::MIN` sentinel
    /// init, as real fragments write it).
    fn max_kernel() -> KernelProgram {
        let schema = Schema::builder("users")
            .field("id", FieldType::Int)
            .field("roleId", FieldType::Int)
            .finish();
        KernelProgram::builder("maxid")
            .stmt(KStmt::assign("best", KExpr::int(i64::MIN)))
            .stmt(KStmt::assign("users", KExpr::query(QuerySpec::table_scan("users", schema))))
            .stmt(KStmt::assign("i", KExpr::int(0)))
            .stmt(KStmt::while_loop(
                KExpr::cmp(CmpOp::Lt, KExpr::var("i"), KExpr::size(KExpr::var("users"))),
                vec![
                    KStmt::if_then(
                        KExpr::cmp(
                            CmpOp::Gt,
                            KExpr::field(
                                KExpr::get(KExpr::var("users"), KExpr::var("i")),
                                "id",
                            ),
                            KExpr::var("best"),
                        ),
                        vec![KStmt::assign(
                            "best",
                            KExpr::field(
                                KExpr::get(KExpr::var("users"), KExpr::var("i")),
                                "id",
                            ),
                        )],
                    ),
                    KStmt::assign("i", KExpr::add(KExpr::var("i"), KExpr::int(1))),
                ],
            ))
            .result("best")
            .finish()
    }

    #[test]
    fn empty_max_is_inconclusive_not_a_sentinel_comparison() {
        // The kernel's sentinel (i64::MIN) is garbage, and so was the old
        // SQL executor's — the oracle must not compare the two as if they
        // were data. The executor now raises EmptyAggregate, which the
        // oracle maps to Inconclusive.
        let db = users_db(&[]);
        let sql = qbs_sql::parse("SELECT MAX(users.id) FROM users").unwrap();
        let v = check(&max_kernel(), &sql, &db, &Params::new());
        match v {
            OracleVerdict::Inconclusive { reason } => {
                assert!(reason.contains("empty relation"), "{reason}")
            }
            other => panic!("expected inconclusive, got {other}"),
        }
        // On a populated table the same pair agrees.
        let db = users_db(&[(7, 1), (3, 2)]);
        let v = check(&max_kernel(), &sql, &db, &Params::new());
        assert!(v.is_agree(), "{v}");
    }

    #[test]
    fn check_opts_reports_exec_stats_and_honors_reordering() {
        let db = users_db(&[(1, 10), (2, 20), (3, 10)]);
        let opts = CheckOptions { reorder_joins: true, ..CheckOptions::default() };
        let out = check_opts(
            &selection_kernel_built(10),
            &select_where_role(10),
            &db,
            &Params::new(),
            &opts,
        );
        assert!(out.verdict.is_agree(), "{}", out.verdict);
        let exec = out.exec.expect("sql side executed");
        assert!(exec.rows_scanned > 0, "{exec:?}");
        // Both sides ran, so both wall-clocks were measured.
        assert!(out.kernel_ns > 0, "kernel side timed");
        assert!(out.sql_ns > 0, "sql side timed");
    }

    #[test]
    fn inconclusive_sql_side_reports_zero_sql_time() {
        let db = users_db(&[(1, 10)]);
        let sql = qbs_sql::parse("SELECT missing.id FROM missing").unwrap();
        let out = check_opts(
            &selection_kernel_built(10),
            &sql,
            &db,
            &Params::new(),
            &CheckOptions::default(),
        );
        assert!(matches!(out.verdict, OracleVerdict::Inconclusive { .. }));
        assert!(out.kernel_ns > 0, "interpreter finished before the sql side failed");
        assert_eq!(out.sql_ns, 0, "failed execution has no measured time");
    }

    #[test]
    fn unknown_table_is_inconclusive() {
        let db = users_db(&[(1, 10)]);
        let sql = qbs_sql::parse("SELECT missing.id FROM missing").unwrap();
        let v = check(&selection_kernel_built(10), &sql, &db, &Params::new());
        assert!(matches!(v, OracleVerdict::Inconclusive { .. }), "{v}");
    }

    #[test]
    fn unordered_query_compares_as_multiset() {
        let db = users_db(&[(1, 10), (2, 10)]);
        // No ORDER BY: the oracle must not require row order.
        let sql = qbs_sql::parse("SELECT users.id, users.roleId FROM users").unwrap();
        let v = check(&selection_kernel_built(10), &sql, &db, &Params::new());
        match v {
            OracleVerdict::Agree { equivalence, .. } => {
                assert_eq!(equivalence, RowsEquivalence::Multiset)
            }
            other => panic!("expected agree, got {other}"),
        }
    }
}
