//! The QBS kernel language (paper Fig. 4).
//!
//! Identified code fragments are compiled into this small imperative language
//! before query inference. It operates on three kinds of values — scalars,
//! immutable records, and immutable lists — with `Query(...)` retrievals,
//! random access (`get`), `append`, and `unique`. Heap updates and `null`
//! are not modeled (paper Sec. 2).
//!
//! The crate provides the AST ([`KExpr`], [`KStmt`], [`KernelProgram`]), a
//! type checker ([`typecheck`]) that also produces the TOR type environment
//! used by the synthesizer, a concrete interpreter ([`run`]) used for
//! differential testing of transformations, and a pretty printer.
//!
//! # Example: the paper's running example (Fig. 2)
//!
//! ```
//! use qbs_common::{Schema, FieldType};
//! use qbs_kernel::{KernelProgram, KExpr, KStmt};
//! use qbs_tor::{CmpOp, QuerySpec};
//!
//! let users = Schema::builder("users")
//!     .field("id", FieldType::Int)
//!     .field("roleId", FieldType::Int)
//!     .finish();
//! let roles = Schema::builder("roles")
//!     .field("roleId", FieldType::Int)
//!     .field("name", FieldType::Str)
//!     .finish();
//!
//! let prog = KernelProgram::builder("getRoleUser")
//!     .stmt(KStmt::assign("listUsers", KExpr::EmptyList))
//!     .stmt(KStmt::assign("users", KExpr::query(QuerySpec::table_scan("users", users))))
//!     .stmt(KStmt::assign("roles", KExpr::query(QuerySpec::table_scan("roles", roles))))
//!     .stmt(KStmt::assign("i", KExpr::int(0)))
//!     .stmt(KStmt::while_loop(
//!         KExpr::cmp(CmpOp::Lt, KExpr::var("i"), KExpr::size(KExpr::var("users"))),
//!         vec![
//!             KStmt::assign("j", KExpr::int(0)),
//!             KStmt::while_loop(
//!                 KExpr::cmp(CmpOp::Lt, KExpr::var("j"), KExpr::size(KExpr::var("roles"))),
//!                 vec![
//!                     KStmt::if_then(
//!                         KExpr::cmp(
//!                             CmpOp::Eq,
//!                             KExpr::field(KExpr::get(KExpr::var("users"), KExpr::var("i")), "roleId"),
//!                             KExpr::field(KExpr::get(KExpr::var("roles"), KExpr::var("j")), "roleId"),
//!                         ),
//!                         vec![KStmt::assign(
//!                             "listUsers",
//!                             KExpr::append(
//!                                 KExpr::var("listUsers"),
//!                                 KExpr::get(KExpr::var("users"), KExpr::var("i")),
//!                             ),
//!                         )],
//!                     ),
//!                     KStmt::assign("j", KExpr::add(KExpr::var("j"), KExpr::int(1))),
//!                 ],
//!             ),
//!             KStmt::assign("i", KExpr::add(KExpr::var("i"), KExpr::int(1))),
//!         ],
//!     ))
//!     .result("listUsers")
//!     .finish();
//! assert_eq!(prog.name(), "getRoleUser");
//! ```

mod ast;
mod interp;
mod pretty;
mod typeck;

pub use ast::{KExpr, KStmt, KernelProgram, KernelProgramBuilder};
pub use interp::{eval_expr, run, InterpError, RunResult};
pub use pretty::pretty;
pub use typeck::{typecheck, TypecheckError, VarTypes};
