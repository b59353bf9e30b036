//! An in-memory relational database engine — the evaluation substrate.
//!
//! The paper's experiments run against MySQL through Hibernate; this crate
//! provides the equivalent substrate: tables with insertion-ordered rows and
//! a hidden monotone `rowid` column, hash indexes, and a planner/executor
//! that chooses between nested-loop and hash joins, pushes selections down
//! to (optionally indexed) scans, and implements `ORDER BY`/`LIMIT`/
//! `DISTINCT`/aggregates.
//!
//! Planning happens **once**: [`plan`]/[`plan_with`] compute a
//! [`PhysicalPlan`] (pushdown, index probes, join keys, join order,
//! cardinality estimates, `IN`-subquery hoisting), [`explain`] renders that
//! IR as a [`Plan`] summary, and [`Database::execute_plan`] interprets it —
//! the summary cannot diverge from execution because both consume the same
//! value.
//!
//! Two properties matter for reproducing the paper:
//!
//! * **Order preservation.** Scans yield insertion order; filters and
//!   projections keep their input order; both join algorithms produce the
//!   left-major, right-insertion-order sequence of the TOR `⋈` axioms (the
//!   hash join builds its table on the right input with per-key buckets in
//!   insertion order, then probes left rows in order).
//! * **Asymptotics.** The nested-loop join is `O(n·m)` while the hash join
//!   is `O(n + m)` — the source of the Fig. 14c gap between application-code
//!   joins and pushed-down joins.
//!
//! # Example
//!
//! ```
//! use qbs_common::{Schema, FieldType, Value};
//! use qbs_db::{Database, Params, QueryOutput};
//! use qbs_sql::parse_query;
//!
//! let mut db = Database::new();
//! db.create_table(
//!     Schema::builder("users")
//!         .field("id", FieldType::Int)
//!         .field("roleId", FieldType::Int)
//!         .finish(),
//! ).unwrap();
//! db.insert("users", vec![Value::from(1), Value::from(10)]).unwrap();
//! db.insert("users", vec![Value::from(2), Value::from(20)]).unwrap();
//!
//! let q = parse_query("SELECT id FROM users WHERE roleId = 10").unwrap();
//! let out = db.execute_select(&q, &Params::new()).unwrap();
//! assert_eq!(out.rows.len(), 1);
//! ```

mod analyze;
mod compare;
mod conn;
mod db;
mod exec;
mod planner;
mod stmt;
mod storage;

pub use analyze::{AnalyzedPlan, OpActuals, PlanActuals, ScanActuals};
pub use compare::{rows_agree, rows_diff, RowsDiff, RowsEquivalence};
pub use conn::{Connection, PlanCacheStats};
pub use db::{Database, DbError, Params, QueryOutput, SelectOutput};
pub use exec::{ExecStats, Frame, FrameCol};
pub use planner::{
    explain, explain_with, plan, plan_with, IndexProbe, JoinAlgorithm, JoinStep, PhysicalPlan,
    Plan, PlanConfig, ScanNode, ScanSource,
};
pub use stmt::{Binder, ParamSlot, PreparedStatement};
pub use storage::Table;
