//! Connections: the plan-once / execute-many session surface over a
//! [`Database`], safe to share across threads.
//!
//! The QBS story is repeated execution — the inferred query replaces code
//! that runs on *every page load* — yet the plain [`Database::execute`]
//! path re-parses and re-plans the SQL text on every call. A
//! [`Connection`] is the production-shaped client handle: it owns a
//! fingerprint-keyed cache of [`PhysicalPlan`]s, a persistent hoisting
//! cache for uncorrelated sub-queries, and hands out
//! [`PreparedStatement`]s whose typed parameter slots are re-validated on
//! every bind without ever re-planning.
//!
//! # Concurrency
//!
//! `Connection` is `Send + Sync + Clone`: clones share the database and
//! every cache, so a pool of worker threads each holding a clone is the
//! intended serving shape. Reads are MVCC snapshot reads: a statement
//! *pins* the current database value (one `Arc` clone under a briefly
//! held read lock) and executes entirely against that immutable snapshot
//! — no lock is held during execution, and a concurrent writer can never
//! make it observe a partial write. Writers ([`Connection::insert`],
//! [`Connection::insert_many`], [`Connection::create_index`]) serialize
//! among themselves, build a *new* database value copy-on-write (table
//! chunks are `Arc`-shared, so this copies catalog structure, not rows),
//! and swap it in with a bumped version.
//!
//! Plans stay valid until a referenced table's generation counter moves
//! (inserts and index builds bump it); execution then replans
//! transparently and records the event in
//! [`ExecStats::replans`](crate::ExecStats).

use crate::analyze::{AnalyzedPlan, PlanActuals};
use crate::db::{Database, DbError, Params, QueryOutput, SelectOutput, SubqueryState};
use crate::planner::{plan_with, PhysicalPlan, PlanConfig};
use crate::stmt::{fingerprint, replan, snapshot, PlanState, PreparedStatement, Snapshot};
use crate::storage::Table;
use qbs_common::Value;
use qbs_sql::{Dialect, SqlQuery};
use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, PoisonError, RwLock, RwLockReadGuard, RwLockWriteGuard};
use std::time::Instant;

/// Aggregate counters of a connection's plan cache.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PlanCacheStats {
    /// Lookups answered by a still-valid cached plan (prepared handle or
    /// fingerprint cache).
    pub hits: usize,
    /// Plans computed because nothing valid was cached.
    pub misses: usize,
    /// Cached plans discarded because a referenced table's generation
    /// counter moved.
    pub invalidations: usize,
}

impl PlanCacheStats {
    /// Hits over total lookups (1.0 for an untouched cache).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            return 1.0;
        }
        self.hits as f64 / total as f64
    }
}

struct CachedPlan {
    plan: Arc<PhysicalPlan>,
    snapshot: Snapshot,
}

/// Plan-cache counters held as atomics so [`Connection::cache_stats`] is
/// a lock-free read: a snapshot never blocks an in-flight increment, and
/// incrementing never waits on a reader.
#[derive(Debug, Default)]
struct CacheCounters {
    hits: AtomicUsize,
    misses: AtomicUsize,
    invalidations: AtomicUsize,
}

impl CacheCounters {
    fn snapshot(&self) -> PlanCacheStats {
        PlanCacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            invalidations: self.invalidations.load(Ordering::Relaxed),
        }
    }
}

/// The connection's current database value and its monotonically
/// increasing version — the MVCC head. Readers clone the `Arc` (a
/// snapshot pin); writers replace the whole value.
struct DbVersion {
    db: Arc<Database>,
    version: u64,
}

/// Locks a `RwLock` for reading, surviving poisoning: every writer
/// replaces guarded state wholesale (never mutates it in place), so a
/// panicked writer cannot have left it half-written.
fn rlock<T>(lock: &RwLock<T>) -> RwLockReadGuard<'_, T> {
    lock.read().unwrap_or_else(PoisonError::into_inner)
}

/// Write-lock counterpart of [`rlock`], same poisoning argument.
fn wlock<T>(lock: &RwLock<T>) -> RwLockWriteGuard<'_, T> {
    lock.write().unwrap_or_else(PoisonError::into_inner)
}

struct ConnInner {
    /// The MVCC head. The lock is held only long enough to clone (pin) or
    /// swap the `Arc` — never across planning or execution.
    current: RwLock<DbVersion>,
    /// Serializes writers: each clones the pinned database, mutates the
    /// clone, and installs it. Readers never take this.
    write_lock: Mutex<()>,
    config: PlanConfig,
    dialect: Dialect,
    /// Fingerprint → plan + the generation snapshot it was computed under.
    plans: RwLock<HashMap<u64, CachedPlan>>,
    /// SQL text → prepared statement (the `query_cached` fast path).
    stmts: RwLock<HashMap<String, Arc<PreparedStatement>>>,
    subqueries: SubqueryState,
    stats: CacheCounters,
}

/// A session handle over a [`Database`]: prepared statements, a plan
/// cache, and mutation entry points that keep both honest.
///
/// Cloning is cheap and shares the database and every cache — the shape
/// of a pooled client connection. Clones may execute prepared statements
/// from different threads concurrently; see the
/// [crate docs](crate) for the snapshot semantics.
///
/// # Example
///
/// ```
/// use qbs_common::{FieldType, Schema, Value};
/// use qbs_db::{Connection, Database, QueryOutput};
///
/// let mut db = Database::new();
/// db.create_table(Schema::builder("users").field("id", FieldType::Int).finish()).unwrap();
/// db.insert("users", vec![Value::from(7)]).unwrap();
///
/// let conn = Connection::open(db);
/// // The first call parses + plans; every call executes a cached plan.
/// for _ in 0..3 {
///     let QueryOutput::Rows(out) =
///         conn.query_cached("SELECT id FROM users", &qbs_db::Params::new()).unwrap()
///     else {
///         unreachable!()
///     };
///     assert_eq!(out.rows.len(), 1);
///     assert_eq!(out.stats.plan_cache_hits, 1);
///     assert_eq!(out.stats.replans, 0);
/// }
/// assert_eq!(conn.plan_cache_stats().misses, 1, "one planning pass total");
/// ```
#[derive(Clone)]
pub struct Connection {
    inner: Arc<ConnInner>,
}

impl Connection {
    /// Opens a connection over a database with the default planner
    /// configuration and the generic dialect.
    pub fn open(db: Database) -> Connection {
        Connection::open_with(db, PlanConfig::default(), Dialect::default())
    }

    /// Opens a connection with an explicit planner configuration and
    /// statement dialect.
    pub fn open_with(db: Database, config: PlanConfig, dialect: Dialect) -> Connection {
        Connection {
            inner: Arc::new(ConnInner {
                current: RwLock::new(DbVersion { db: Arc::new(db), version: 0 }),
                write_lock: Mutex::new(()),
                subqueries: SubqueryState::new(config.clone()),
                config,
                dialect,
                plans: RwLock::new(HashMap::new()),
                stmts: RwLock::new(HashMap::new()),
                stats: CacheCounters::default(),
            }),
        }
    }

    /// The dialect prepared statements render under.
    pub fn dialect(&self) -> Dialect {
        self.inner.dialect
    }

    /// The planner configuration every plan is computed with.
    pub fn config(&self) -> &PlanConfig {
        &self.inner.config
    }

    /// Pins the current snapshot: the database value and its version.
    /// The read lock is held only for the `Arc` clone.
    fn pin(&self) -> (Arc<Database>, u64) {
        let cur = rlock(&self.inner.current);
        (cur.db.clone(), cur.version)
    }

    /// Pins and returns the current database snapshot. The returned value
    /// is immutable and stays exactly as it was pinned — concurrent
    /// writers on this connection publish *new* database values without
    /// disturbing handed-out snapshots.
    pub fn database(&self) -> Arc<Database> {
        self.pin().0
    }

    /// The version of the current snapshot (bumped by every mutation
    /// through this connection or its clones).
    pub fn version(&self) -> u64 {
        self.pin().1
    }

    /// Closes the connection and returns the database. When this is the
    /// only handle (no connection clones, no outstanding snapshots) the
    /// database moves out without copying (what a throwaway connection
    /// over an owned database wants — e.g. the oracle's witness
    /// minimization executing one candidate after another); otherwise the
    /// current snapshot is copied out.
    pub fn into_database(self) -> Database {
        match Arc::try_unwrap(self.inner) {
            Ok(inner) => {
                let cur = inner.current.into_inner().unwrap_or_else(PoisonError::into_inner);
                Arc::try_unwrap(cur.db).unwrap_or_else(|shared| (*shared).clone())
            }
            Err(shared) => (*rlock(&shared.current).db).clone(),
        }
    }

    /// The writer path: serializes with other writers, copies the current
    /// database value (copy-on-write — row chunks are shared), applies
    /// `f`, and atomically publishes the result under `version + 1`.
    /// In-flight readers keep their pinned snapshot; an error from `f`
    /// publishes nothing.
    fn mutate<T>(
        &self,
        f: impl FnOnce(&mut Database) -> Result<T, DbError>,
    ) -> Result<T, DbError> {
        let _writer = self.inner.write_lock.lock().unwrap_or_else(PoisonError::into_inner);
        let (base, version) = self.pin();
        let mut db = (*base).clone();
        let out = f(&mut db)?;
        *wlock(&self.inner.current) = DbVersion { db: Arc::new(db), version: version + 1 };
        // Hoisted sub-query results were computed against older versions;
        // drop them (their version tags would keep them unreachable
        // anyway, but there is no point retaining dead entries).
        self.inner.subqueries.clear();
        Ok(out)
    }

    /// Inserts a row; bumps the table's generation counter, so cached
    /// plans over it replan on next execution, and drops the hoisted
    /// sub-query cache. Concurrent readers keep their snapshot.
    ///
    /// # Errors
    ///
    /// [`DbError::UnknownTable`] when the table does not exist.
    pub fn insert(&self, table: &str, values: Vec<Value>) -> Result<(), DbError> {
        self.mutate(|db| db.insert(table, values))
    }

    /// Inserts a batch of rows atomically: one storage chunk, one
    /// generation bump, one published version — a concurrent reader sees
    /// none or all of the batch, and cached plans are invalidated once
    /// instead of once per row. See [`Table::insert_many`].
    ///
    /// An empty batch is a complete no-op: nothing changed, so no version
    /// is published, no generation moves, and cached plans and hoisted
    /// sub-query results stay valid (it used to go through the writer
    /// path and spuriously replan every prepared statement).
    ///
    /// # Errors
    ///
    /// [`DbError::UnknownTable`] when the table does not exist.
    pub fn insert_many(&self, table: &str, rows: Vec<Vec<Value>>) -> Result<(), DbError> {
        if rows.is_empty() {
            let (db, _) = self.pin();
            return match db.table(&table.into()) {
                Some(_) => Ok(()),
                None => Err(DbError::UnknownTable(table.into())),
            };
        }
        self.mutate(|db| db.insert_many(table, rows))
    }

    /// Builds a hash index; bumps the table's generation counter so
    /// cached plans replan (and may now probe the new index).
    ///
    /// # Errors
    ///
    /// Unknown table or column.
    pub fn create_index(&self, table: &str, column: &str) -> Result<(), DbError> {
        self.mutate(|db| db.create_index(table, column))
    }

    /// Parses and prepares a statement: one parse, one plan, typed slots.
    ///
    /// # Errors
    ///
    /// [`DbError::Exec`] when the text is not parseable SQL.
    pub fn prepare(&self, sql: &str) -> Result<PreparedStatement, DbError> {
        let query = qbs_sql::parse(sql).map_err(|e| DbError::Exec(e.to_string()))?;
        Ok(self.prepare_query(&query))
    }

    /// Prepares an already-parsed query (the path engine sessions use for
    /// synthesized fragments).
    pub fn prepare_query(&self, query: &SqlQuery) -> PreparedStatement {
        self.prepare_query_as(query, self.inner.dialect)
    }

    /// [`prepare_query`](Self::prepare_query) rendered under an explicit
    /// dialect (the statement text and placeholder spelling follow it;
    /// planning is dialect-independent).
    pub fn prepare_query_as(&self, query: &SqlQuery, dialect: Dialect) -> PreparedStatement {
        let (db, _) = self.pin();
        let core = match query {
            SqlQuery::Select(s) => s.clone(),
            SqlQuery::Scalar(s) => crate::db::scalar_core(s),
        };
        let (canonical, _) = qbs_sql::render_query_with_params(query, Dialect::Generic);
        let fp = fingerprint(&canonical, &self.inner.config);
        let tables = query.referenced_tables();
        let current = snapshot(&db, &tables);
        // Prepare consults the plan cache too: two statements with the
        // same canonical text share one planning pass.
        let plan = {
            let plans = rlock(&self.inner.plans);
            match plans.get(&fp) {
                Some(entry) if entry.snapshot == current => {
                    self.inner.stats.hits.fetch_add(1, Ordering::Relaxed);
                    Some(entry.plan.clone())
                }
                _ => None,
            }
        };
        let plan = plan.unwrap_or_else(|| {
            let plan = Arc::new(plan_with(&core, &db, &self.inner.config));
            self.inner.stats.misses.fetch_add(1, Ordering::Relaxed);
            wlock(&self.inner.plans)
                .insert(fp, CachedPlan { plan: plan.clone(), snapshot: current.clone() });
            plan
        });
        PreparedStatement::new(&db, query.clone(), core, fp, tables, current, dialect, plan)
    }

    /// Executes a prepared statement against a snapshot pinned for the
    /// whole call.
    ///
    /// Parameters are validated against the statement's typed slots, the
    /// plan is reused when every referenced table's generation counter is
    /// unchanged (recorded as
    /// [`ExecStats::plan_cache_hits`](crate::ExecStats)), and replanned
    /// otherwise (recorded as [`ExecStats::replans`](crate::ExecStats)).
    /// Plan resolution and execution both use the same pinned snapshot,
    /// so a concurrent writer cannot wedge a plan from one version
    /// against data from another.
    ///
    /// A statement may be executed on any connection whose catalog is
    /// compatible with the one it was prepared on; a plan probing an
    /// index the database lacks fails loudly rather than reading garbage.
    ///
    /// # Errors
    ///
    /// [`DbError::Param`] on bind problems; execution errors otherwise.
    pub fn execute(
        &self,
        stmt: &PreparedStatement,
        params: &Params,
    ) -> Result<QueryOutput, DbError> {
        let (db, _, out) = self.run(stmt, params, None)?;
        match stmt.query() {
            SqlQuery::Select(_) => Ok(QueryOutput::Rows(out)),
            SqlQuery::Scalar(s) => db.finish_scalar(s, out, params),
        }
    }

    /// Executes a relational prepared statement, erroring on scalar ones.
    ///
    /// # Errors
    ///
    /// As [`execute`](Self::execute), plus [`DbError::Exec`] for scalar
    /// statements.
    pub fn execute_select(
        &self,
        stmt: &PreparedStatement,
        params: &Params,
    ) -> Result<SelectOutput, DbError> {
        match self.execute(stmt, params)? {
            QueryOutput::Rows(out) => Ok(out),
            QueryOutput::Scalar { .. } => {
                Err(DbError::Exec("scalar statement where rows were expected".to_string()))
            }
        }
    }

    /// One-shot execution with statement caching: the first call for a
    /// given text parses, plans and caches a prepared statement; later
    /// calls skip straight to execution.
    ///
    /// # Errors
    ///
    /// As [`prepare`](Self::prepare) and [`execute`](Self::execute).
    pub fn query_cached(&self, sql: &str, params: &Params) -> Result<QueryOutput, DbError> {
        let cached = rlock(&self.inner.stmts).get(sql).cloned();
        let mut parse_ns = 0;
        let stmt = match cached {
            Some(stmt) => stmt,
            None => {
                let opened = Instant::now();
                let query = qbs_sql::parse(sql).map_err(|e| DbError::Exec(e.to_string()))?;
                parse_ns = opened.elapsed().as_nanos() as u64;
                let stmt = Arc::new(self.prepare_query(&query));
                // Two threads may race to prepare the same text; the first
                // insert wins and both execute a valid statement.
                wlock(&self.inner.stmts).entry(sql.to_string()).or_insert(stmt).clone()
            }
        };
        let mut out = self.execute(&stmt, params)?;
        match &mut out {
            QueryOutput::Rows(o) => o.stats.parse_ns = parse_ns,
            QueryOutput::Scalar { stats, .. } => stats.parse_ns = parse_ns,
        }
        Ok(out)
    }

    /// Executes a prepared statement with the interpreter's per-node
    /// instrumentation switched on and returns the plan annotated with
    /// per-operator actuals — rows in and out, elapsed time, index use —
    /// next to the planner's `estimated_rows`.
    ///
    /// The statement really executes, through the same path as
    /// [`execute`](Self::execute): the plan cache, hoisted sub-query
    /// cache, generation-based invalidation and the operator pipeline are
    /// the ones that serve queries, so the actuals describe production
    /// execution, not a detached re-run. Scalar statements are analyzed
    /// over their relational core.
    ///
    /// # Errors
    ///
    /// As [`execute`](Self::execute).
    pub fn explain_analyze(
        &self,
        stmt: &PreparedStatement,
        params: &Params,
    ) -> Result<AnalyzedPlan, DbError> {
        let mut actuals = PlanActuals::default();
        let (_, plan, out) = self.run(stmt, params, Some(&mut actuals))?;
        Ok(AnalyzedPlan { plan, actuals, stats: out.stats })
    }

    /// The one execution path under [`execute`](Self::execute) and
    /// [`explain_analyze`](Self::explain_analyze): validate, pin a
    /// snapshot, resolve the plan against it, run the plan's relational
    /// core (recording per-operator `actuals` when given), and account the
    /// plan-cache outcome. Returns the pinned database and the plan that
    /// ran next to the output.
    fn run(
        &self,
        stmt: &PreparedStatement,
        params: &Params,
        actuals: Option<&mut PlanActuals>,
    ) -> Result<(Arc<Database>, Arc<PhysicalPlan>, SelectOutput), DbError> {
        stmt.validate(params)?;
        let (db, version) = self.pin();
        let opened = Instant::now();
        let (plan, reused) = self.plan_for(stmt, &db);
        let plan_ns = opened.elapsed().as_nanos() as u64;
        let mut out = db.run_statement(
            &plan,
            params,
            &self.inner.subqueries,
            version,
            Some(&stmt.out_schema),
            actuals,
        )?;
        out.stats.plan_ns = plan_ns;
        if reused {
            out.stats.plan_cache_hits += 1;
        } else {
            out.stats.replans += 1;
        }
        Ok((db, plan, out))
    }

    /// A lock-free, by-value snapshot of the plan-cache counters shared
    /// by every clone of this connection. Reads three relaxed atomics —
    /// no lock is taken, so it is safe to call from a hot loop or while
    /// other clones are mid-execution.
    pub fn cache_stats(&self) -> PlanCacheStats {
        self.inner.stats.snapshot()
    }

    /// The plan-cache counters accumulated by this connection (shared
    /// across clones). Alias of [`cache_stats`](Self::cache_stats).
    pub fn plan_cache_stats(&self) -> PlanCacheStats {
        self.cache_stats()
    }

    /// Resolves the statement's current plan against the *pinned*
    /// database: the statement's own plan when its snapshot is current,
    /// the fingerprint cache next, a fresh planning pass last. Returns
    /// the plan and whether it was reused.
    fn plan_for(&self, stmt: &PreparedStatement, db: &Database) -> (Arc<PhysicalPlan>, bool) {
        // Steady-state fast path: compare the recorded generations in
        // place, no snapshot allocation.
        {
            let cur = stmt.lock_current();
            if cur.snapshot.iter().all(|(t, g)| db.table(t).map(Table::generation) == *g) {
                self.inner.stats.hits.fetch_add(1, Ordering::Relaxed);
                return (cur.plan.clone(), true);
            }
        }
        let current = snapshot(db, &stmt.tables);
        // The statement's view is stale. Another statement (or clone of
        // this connection) may already have replanned the same query.
        let cached = {
            let plans = rlock(&self.inner.plans);
            plans
                .get(&stmt.fingerprint)
                .and_then(|entry| (entry.snapshot == current).then(|| entry.plan.clone()))
        };
        let plan = match cached {
            Some(plan) => {
                self.inner.stats.hits.fetch_add(1, Ordering::Relaxed);
                plan
            }
            None => {
                let plan = replan(stmt, db, &self.inner.config);
                self.inner.stats.misses.fetch_add(1, Ordering::Relaxed);
                wlock(&self.inner.plans).insert(
                    stmt.fingerprint,
                    CachedPlan { plan: plan.clone(), snapshot: current.clone() },
                );
                plan
            }
        };
        self.inner.stats.invalidations.fetch_add(1, Ordering::Relaxed);
        *stmt.lock_current() = PlanState { plan: plan.clone(), snapshot: current };
        (plan, false)
    }
}

impl Database {
    /// Opens a [`Connection`] over a clone of this database — the
    /// plan-once / execute-many client surface. See [`Connection`] for
    /// the cache and invalidation contract; mutate through the connection
    /// (its [`insert`](Connection::insert) /
    /// [`create_index`](Connection::create_index)) so the caches observe
    /// every generation bump.
    pub fn connect(&self) -> Connection {
        Connection::open(self.clone())
    }
}

impl std::fmt::Debug for Connection {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let stats = self.plan_cache_stats();
        f.debug_struct("Connection")
            .field("dialect", &self.inner.dialect)
            .field("version", &self.version())
            .field("plans", &rlock(&self.inner.plans).len())
            .field("statements", &rlock(&self.inner.stmts).len())
            .field("stats", &stats)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qbs_common::{FieldType, Schema};

    fn setup() -> Database {
        let mut db = Database::new();
        db.create_table(
            Schema::builder("users")
                .field("id", FieldType::Int)
                .field("roleId", FieldType::Int)
                .field("name", FieldType::Str)
                .finish(),
        )
        .unwrap();
        for i in 0..6i64 {
            db.insert(
                "users",
                vec![Value::from(i), Value::from(i % 3), Value::from(format!("u{i}"))],
            )
            .unwrap();
        }
        db
    }

    fn rows(out: QueryOutput) -> SelectOutput {
        match out {
            QueryOutput::Rows(o) => o,
            other => panic!("expected rows, got {other:?}"),
        }
    }

    #[test]
    fn prepare_once_execute_many_reuses_the_plan() {
        let conn = Connection::open(setup());
        let stmt = conn.prepare("SELECT id FROM users WHERE roleId = :r").unwrap();
        for r in 0..3i64 {
            let params = stmt.bind().set("r", r).unwrap().finish().unwrap();
            let out = rows(conn.execute(&stmt, &params).unwrap());
            assert_eq!(out.rows.len(), 2);
            assert_eq!(out.stats.plan_cache_hits, 1, "{:?}", out.stats);
            assert_eq!(out.stats.replans, 0);
        }
        let stats = conn.plan_cache_stats();
        assert_eq!((stats.hits, stats.misses, stats.invalidations), (3, 1, 0));
    }

    #[test]
    fn typed_slots_reject_mismatched_bindings() {
        let conn = Connection::open(setup());
        let stmt = conn.prepare("SELECT id FROM users WHERE name = :who").unwrap();
        assert_eq!(stmt.slots().len(), 1);
        assert_eq!(stmt.slots()[0].ty, Some(FieldType::Str));
        // Binding an integer where the column is a string fails at bind
        // time, before any execution.
        let got = stmt.bind().set("who", 3);
        assert!(matches!(got, Err(DbError::Param(_))), "{got:?}");
        // And a correct bind flows through.
        let params = stmt.bind().set("who", "u4").unwrap().finish().unwrap();
        let out = rows(conn.execute(&stmt, &params).unwrap());
        assert_eq!(out.rows.len(), 1);
    }

    #[test]
    fn unbound_and_unknown_parameters_error() {
        let conn = Connection::open(setup());
        let stmt = conn.prepare("SELECT id FROM users WHERE roleId = :r").unwrap();
        assert!(matches!(conn.execute(&stmt, &Params::new()), Err(DbError::Param(_))));
        // Extra bindings are tolerated on execute (the oracle binds one
        // map for kernel and SQL sides) …
        let mut params = Params::new();
        params.insert("r".into(), Value::from(1));
        params.insert("extra".into(), Value::from(1));
        assert!(conn.execute(&stmt, &params).is_ok());
        // … but the typed binder is strict about names.
        assert!(stmt.bind().set("typo", 1).is_err());
    }

    #[test]
    fn statements_share_one_resolved_plan_through_the_fingerprint_cache() {
        let conn = Connection::open(setup());
        let sql = "SELECT id FROM users WHERE roleId = :r";
        let a = conn.prepare(sql).unwrap();
        let b = conn.prepare(sql).unwrap();
        // The second statement picked its plan up from the fingerprint
        // cache: one resolution — compiled scan kernel included — shared
        // by both, never recompiled per statement or per execute.
        assert!(Arc::ptr_eq(&a.plan(), &b.plan()));
        assert!(matches!(a.plan().scans[0].path, crate::db::ScanPath::Vector(Some(_))));
        let params = a.bind().set("r", 1).unwrap().finish().unwrap();
        conn.insert("users", vec![Value::from(6), Value::from(1), Value::from("u6")]).unwrap();
        // After a write each statement re-resolves exactly once — the
        // first by replanning, the second from the fingerprint cache —
        // and is a plan-cache hit from then on.
        for stmt in [&a, &b] {
            let out = rows(conn.execute(stmt, &params).unwrap());
            assert_eq!(out.rows.len(), 3);
            assert_eq!(
                (out.stats.replans, out.stats.plan_cache_hits),
                (1, 0),
                "{:?}",
                out.stats
            );
            let out = rows(conn.execute(stmt, &params).unwrap());
            assert_eq!(
                (out.stats.replans, out.stats.plan_cache_hits),
                (0, 1),
                "{:?}",
                out.stats
            );
        }
        assert!(Arc::ptr_eq(&a.plan(), &b.plan()), "the re-resolved plan is shared too");
        assert_eq!(conn.plan_cache_stats().misses, 2, "one planning pass per version");
    }

    #[test]
    fn insert_invalidates_and_replans() {
        let conn = Connection::open(setup());
        let stmt = conn.prepare("SELECT id FROM users WHERE roleId = 1").unwrap();
        let params = Params::new();
        assert_eq!(rows(conn.execute(&stmt, &params).unwrap()).rows.len(), 2);
        conn.insert("users", vec![Value::from(6), Value::from(1), Value::from("u6")]).unwrap();
        let out = rows(conn.execute(&stmt, &params).unwrap());
        assert_eq!(out.rows.len(), 3, "the new row is visible");
        assert_eq!(out.stats.replans, 1, "{:?}", out.stats);
        assert_eq!(out.stats.plan_cache_hits, 0);
        // Steady state again afterwards.
        let out = rows(conn.execute(&stmt, &params).unwrap());
        assert_eq!(out.stats.plan_cache_hits, 1);
        assert_eq!(conn.plan_cache_stats().invalidations, 1);
    }

    #[test]
    fn insert_many_invalidates_once_for_the_whole_batch() {
        let conn = Connection::open(setup());
        let stmt = conn.prepare("SELECT id FROM users WHERE roleId = 1").unwrap();
        let params = Params::new();
        assert_eq!(rows(conn.execute(&stmt, &params).unwrap()).rows.len(), 2);
        conn.insert_many(
            "users",
            (6..16i64)
                .map(|i| vec![Value::from(i), Value::from(1), Value::from(format!("u{i}"))])
                .collect(),
        )
        .unwrap();
        let out = rows(conn.execute(&stmt, &params).unwrap());
        assert_eq!(out.rows.len(), 12, "all ten new rows visible at once");
        assert_eq!(out.stats.replans, 1, "{:?}", out.stats);
        // One batch, one invalidation — not ten.
        assert_eq!(conn.plan_cache_stats().invalidations, 1);
        assert_eq!(conn.version(), 1);
    }

    #[test]
    fn index_built_after_prepare_is_picked_up_by_the_replan() {
        let conn = Connection::open(setup());
        let stmt = conn.prepare("SELECT id FROM users WHERE roleId = 2").unwrap();
        let params = Params::new();
        let before = rows(conn.execute(&stmt, &params).unwrap());
        assert!(!before.stats.used_index);
        conn.create_index("users", "roleId").unwrap();
        let after = rows(conn.execute(&stmt, &params).unwrap());
        assert!(after.stats.used_index, "replanned onto the new index: {:?}", after.stats);
        assert_eq!(after.stats.replans, 1);
        assert_eq!(after.rows, before.rows);
    }

    #[test]
    fn query_cached_skips_parse_and_plan_on_repeat() {
        let conn = Connection::open(setup());
        let params = Params::new();
        for _ in 0..4 {
            let out = rows(conn.query_cached("SELECT id FROM users", &params).unwrap());
            assert_eq!(out.rows.len(), 6);
            assert_eq!(out.stats.plan_cache_hits, 1);
            assert_eq!(out.stats.replans, 0);
        }
        let stats = conn.plan_cache_stats();
        assert_eq!(stats.misses, 1, "one parse + one plan for four calls");
        assert_eq!(stats.hits, 4);
    }

    #[test]
    fn clones_share_caches_and_statements_share_fingerprints() {
        let conn = Connection::open(setup());
        let clone = conn.clone();
        let a = conn.prepare("SELECT id FROM users WHERE roleId = 0").unwrap();
        // Same canonical text on a clone: the planning pass is shared.
        let _b = clone.prepare("SELECT id FROM users WHERE roleId = 0").unwrap();
        let stats = conn.plan_cache_stats();
        assert_eq!((stats.hits, stats.misses), (1, 1));
        let out = rows(clone.execute(&a, &Params::new()).unwrap());
        assert_eq!(out.rows.len(), 2);
    }

    #[test]
    fn scalar_statements_prepare_and_execute() {
        let conn = Connection::open(setup());
        let stmt = conn.prepare("SELECT COUNT(*) > :n FROM users WHERE roleId = 0").unwrap();
        assert_eq!(stmt.slots()[0].ty, Some(FieldType::Int));
        let params = stmt.bind().set("n", 1).unwrap().finish().unwrap();
        match conn.execute(&stmt, &params).unwrap() {
            QueryOutput::Scalar { value, stats } => {
                assert_eq!(value, Value::from(true));
                assert_eq!(stats.plan_cache_hits, 1);
            }
            other => panic!("expected scalar, got {other:?}"),
        }
    }

    #[test]
    fn param_free_subquery_results_persist_across_statements() {
        let conn = Connection::open(setup());
        let sql =
            "SELECT id FROM users WHERE roleId IN (SELECT roleId FROM users WHERE id = 0)";
        let params = Params::new();
        let first = rows(conn.query_cached(sql, &params).unwrap());
        assert_eq!(first.stats.subqueries_executed, 1, "{:?}", first.stats);
        let second = rows(conn.query_cached(sql, &params).unwrap());
        assert_eq!(second.stats.subqueries_executed, 0, "hoisted result persisted");
        assert!(second.stats.subquery_cache_hits > 0);
        // A mutation drops the persisted result.
        conn.insert("users", vec![Value::from(9), Value::from(0), Value::from("u9")]).unwrap();
        let third = rows(conn.query_cached(sql, &params).unwrap());
        assert_eq!(third.stats.subqueries_executed, 1, "{:?}", third.stats);
    }

    #[test]
    fn snapshots_pinned_before_a_write_do_not_move() {
        let conn = Connection::open(setup());
        let before = conn.database();
        assert_eq!(conn.version(), 0);
        conn.insert("users", vec![Value::from(6), Value::from(1), Value::from("u6")]).unwrap();
        assert_eq!(conn.version(), 1);
        // The pinned snapshot still sees six rows; the head sees seven.
        assert_eq!(before.table(&"users".into()).unwrap().len(), 6);
        assert_eq!(conn.database().table(&"users".into()).unwrap().len(), 7);
    }

    #[test]
    fn explain_analyze_annotates_every_node_with_actuals() {
        let conn = Connection::open(setup());
        let stmt = conn.prepare("SELECT name FROM users WHERE roleId = :r").unwrap();
        let params = stmt.bind().set("r", 1).unwrap().finish().unwrap();
        let analyzed = conn.explain_analyze(&stmt, &params).unwrap();
        assert_eq!(analyzed.actuals.output_rows, 2);
        assert_eq!(analyzed.actuals.scans.len(), 1);
        assert_eq!(analyzed.actuals.scans[0].rows_out, 2);
        assert!(analyzed.actuals.scans[0].rows_scanned >= 2);
        assert_eq!(analyzed.stats.plan_cache_hits, 1, "{:?}", analyzed.stats);
        // The deterministic rendering carries estimates and actuals side
        // by side, with no wall-clock figures.
        let text = analyzed.render(false);
        assert!(text.contains("est"), "{text}");
        assert!(text.contains("actual 2 rows"), "{text}");
        assert!(!text.contains("ns"), "{text}");
        // The analyzed execution matches the production path.
        let out = rows(conn.execute(&stmt, &params).unwrap());
        assert_eq!(out.rows.len(), analyzed.actuals.output_rows);
        // Estimate-vs-actual pairs cover every cardinality-bearing node.
        let errors = analyzed.estimate_errors();
        assert_eq!(errors.len(), 1, "{errors:?}");
        assert_eq!(errors[0].2, 2);
    }

    #[test]
    fn grouped_statements_prepare_cache_and_analyze() {
        let conn = Connection::open(setup());
        let stmt = conn
            .prepare(
                "SELECT roleId, COUNT(*) FROM users WHERE id > :min \
                 GROUP BY roleId HAVING COUNT(*) > 1",
            )
            .unwrap();
        assert_eq!(stmt.slots()[0].ty, Some(FieldType::Int));
        assert!(stmt.explain().contains("hash aggregate (1 keys, 1 aggs, having)"));
        // ids 1..6 → roleId 1: {1, 4}, roleId 2: {2, 5}, roleId 0: {3}.
        let params = stmt.bind().set("min", 0).unwrap().finish().unwrap();
        let out = rows(conn.execute(&stmt, &params).unwrap());
        assert_eq!(out.rows.len(), 2);
        assert_eq!(out.stats.plan_cache_hits, 1, "{:?}", out.stats);
        // Re-execution under a different binding reuses the cached plan.
        let params = stmt.bind().set("min", 5).unwrap().finish().unwrap();
        let out = rows(conn.execute(&stmt, &params).unwrap());
        assert!(out.rows.is_empty());
        assert_eq!(out.stats.replans, 0, "{:?}", out.stats);
        // EXPLAIN ANALYZE annotates the aggregate with its actuals.
        let params = stmt.bind().set("min", 0).unwrap().finish().unwrap();
        let analyzed = conn.explain_analyze(&stmt, &params).unwrap();
        let agg = analyzed.actuals.aggregate.as_ref().expect("aggregate actuals");
        assert_eq!(agg.rows_out, 2, "post-HAVING row count");
        let text = analyzed.render(false);
        assert!(
            text.contains("hash aggregate (1 keys, 1 aggs, having) [actual 2 rows]"),
            "{text}"
        );
    }

    #[test]
    fn explain_analyze_observes_index_probes_and_replans() {
        let conn = Connection::open(setup());
        let stmt = conn.prepare("SELECT id FROM users WHERE roleId = 2").unwrap();
        conn.create_index("users", "roleId").unwrap();
        let analyzed = conn.explain_analyze(&stmt, &Params::new()).unwrap();
        assert!(analyzed.actuals.scans[0].via_index, "{analyzed:?}");
        assert_eq!(analyzed.stats.replans, 1);
        assert!(analyzed.to_string().contains("index"), "{analyzed}");
    }

    #[test]
    fn cache_stats_snapshot_is_consistent_under_concurrent_updates() {
        use std::thread;
        let counters = Arc::new(CacheCounters::default());
        let threads = 4;
        let per_thread = 1_000;
        let workers: Vec<_> = (0..threads)
            .map(|_| {
                let c = Arc::clone(&counters);
                thread::spawn(move || {
                    for _ in 0..per_thread {
                        c.hits.fetch_add(1, Ordering::Relaxed);
                        c.misses.fetch_add(1, Ordering::Relaxed);
                    }
                })
            })
            .collect();
        // Snapshots taken mid-flight are lock-free and never exceed the
        // number of increments issued.
        for _ in 0..100 {
            let snap = counters.snapshot();
            assert!(snap.hits <= threads * per_thread);
            assert!(snap.misses <= threads * per_thread);
        }
        for w in workers {
            w.join().unwrap();
        }
        let snap = counters.snapshot();
        assert_eq!(snap.hits, threads * per_thread);
        assert_eq!(snap.misses, threads * per_thread);
        assert_eq!(snap.invalidations, 0);
    }

    #[test]
    fn clones_execute_prepared_statements_from_many_threads() {
        use std::thread;
        let conn = Connection::open(setup());
        let stmt = Arc::new(conn.prepare("SELECT id FROM users WHERE roleId = :r").unwrap());
        thread::scope(|scope| {
            for t in 0..4 {
                let conn = conn.clone();
                let stmt = stmt.clone();
                scope.spawn(move || {
                    for i in 0..50i64 {
                        let params =
                            stmt.bind().set("r", (t + i) % 3).unwrap().finish().unwrap();
                        let out = rows(conn.execute(&stmt, &params).unwrap());
                        assert_eq!(out.rows.len(), 2);
                    }
                });
            }
        });
        let stats = conn.plan_cache_stats();
        assert_eq!(stats.hits + stats.misses, 4 * 50 + 1, "every execution resolved a plan");
        assert_eq!(stats.invalidations, 0, "no writes, no invalidations");
    }

    #[test]
    fn timing_fields_are_populated_but_do_not_affect_equality() {
        let conn = Connection::open(setup());
        let params = Params::new();
        let first = rows(conn.query_cached("SELECT id FROM users", &params).unwrap());
        assert!(first.stats.parse_ns > 0, "miss path parses: {:?}", first.stats);
        assert!(first.stats.exec_ns > 0, "{:?}", first.stats);
        let second = rows(conn.query_cached("SELECT id FROM users", &params).unwrap());
        assert_eq!(second.stats.parse_ns, 0, "hit path skips the parser");
        // Equality compares counters only, so reruns with different
        // wall-clock timings still compare equal.
        assert_eq!(first.stats, second.stats);
    }

    #[test]
    fn render_bound_inlines_validated_params() {
        let conn = Connection::open_with(setup(), PlanConfig::default(), Dialect::Postgres);
        let stmt = conn.prepare("SELECT id FROM users WHERE name = :who").unwrap();
        assert!(stmt.sql().contains("$1"), "{}", stmt.sql());
        let params = stmt.bind().set("who", "o'brien").unwrap().finish().unwrap();
        let text = stmt.render_bound(&params).unwrap();
        assert!(text.contains("'o''brien'"), "{text}");
        assert!(matches!(stmt.render_bound(&Params::new()), Err(DbError::Param(_))));
    }
}
