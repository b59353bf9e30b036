//! Concrete interpreter for kernel programs.
//!
//! The interpreter provides the executable semantics of identified code
//! fragments. It is used for **differential testing**: the output of the
//! original fragment must equal the evaluation of the inferred TOR
//! postcondition and the rows returned by the generated SQL.

use crate::ast::{KExpr, KStmt, KernelProgram};
use qbs_common::{Ident, Record, Relation, Schema, Value};
use qbs_tor::{BinOp, DynValue, Env};
use std::fmt;

/// Errors raised by the interpreter.
#[derive(Clone, Debug, PartialEq)]
pub enum InterpError {
    /// Unbound variable.
    UnknownVar(Ident),
    /// `Query(...)` against an unbound table.
    UnknownTable(Ident),
    /// Wrong runtime kind for an operation.
    Kind {
        /// Operation context.
        context: &'static str,
        /// Expected kind.
        expected: &'static str,
        /// Found kind.
        found: &'static str,
    },
    /// `get` index out of bounds.
    OutOfBounds {
        /// Requested index.
        index: i64,
        /// List length.
        len: usize,
    },
    /// Field resolution failure.
    Common(qbs_common::CommonError),
    /// A failed `assert`.
    AssertionFailed(String),
    /// The loop fuel budget was exhausted (runaway loop).
    OutOfFuel,
}

impl fmt::Display for InterpError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            InterpError::UnknownVar(v) => write!(f, "unknown variable `{v}`"),
            InterpError::UnknownTable(t) => write!(f, "unknown table `{t}`"),
            InterpError::Kind { context, expected, found } => {
                write!(f, "kind error in {context}: expected {expected}, found {found}")
            }
            InterpError::OutOfBounds { index, len } => {
                write!(f, "index {index} out of bounds for list of length {len}")
            }
            InterpError::Common(e) => write!(f, "{e}"),
            InterpError::AssertionFailed(s) => write!(f, "assertion failed: {s}"),
            InterpError::OutOfFuel => write!(f, "loop fuel exhausted"),
        }
    }
}

impl std::error::Error for InterpError {}

impl From<qbs_common::CommonError> for InterpError {
    fn from(e: qbs_common::CommonError) -> Self {
        InterpError::Common(e)
    }
}

type Result<T> = std::result::Result<T, InterpError>;

/// The outcome of running a kernel program.
#[derive(Clone, Debug, PartialEq)]
pub struct RunResult {
    /// Final variable store.
    pub env: Env,
    /// Value of the program's result variable.
    pub result: DynValue,
}

/// Default iteration budget across all loops.
const DEFAULT_FUEL: u64 = 50_000_000;

/// The field name used when scalars are appended to lists: a scalar list is
/// represented as a single-column relation.
const SCALAR_COL: &str = "val";

fn want_rel(v: DynValue, context: &'static str) -> Result<Relation> {
    match v {
        DynValue::Rel(r) => Ok(r),
        other => Err(InterpError::Kind { context, expected: "list", found: other.kind() }),
    }
}

fn want_int(v: DynValue, context: &'static str) -> Result<i64> {
    match v {
        DynValue::Scalar(Value::Int(i)) => Ok(i),
        other => Err(InterpError::Kind { context, expected: "int", found: other.kind() }),
    }
}

fn want_bool(v: DynValue, context: &'static str) -> Result<bool> {
    match v {
        DynValue::Scalar(Value::Bool(b)) => Ok(b),
        other => Err(InterpError::Kind { context, expected: "bool", found: other.kind() }),
    }
}

fn scalar_record(v: Value) -> Record {
    let ty = match &v {
        Value::Bool(_) => qbs_common::FieldType::Bool,
        Value::Int(_) => qbs_common::FieldType::Int,
        Value::Str(_) => qbs_common::FieldType::Str,
    };
    let schema = Schema::anonymous().field(SCALAR_COL, ty).finish();
    Record::new(schema, vec![v])
}

fn values_equal(a: &Record, b: &Record) -> bool {
    a.values() == b.values()
}

fn field_type_of(v: &Value) -> qbs_common::FieldType {
    match v {
        Value::Bool(_) => qbs_common::FieldType::Bool,
        Value::Int(_) => qbs_common::FieldType::Int,
        Value::Str(_) => qbs_common::FieldType::Str,
    }
}

/// Evaluates the key probes of a `mapget`/`mapput` and finds the first
/// matching entry, returning `(map, key values, matching index)` — the
/// same semantics as TOR's `map_probe`, so the kernel interpreter and the
/// TOR postcondition agree by construction.
fn map_probe(
    map: &KExpr,
    keys: &[(Ident, KExpr)],
    env: &Env,
    context: &'static str,
) -> Result<(Relation, Vec<Value>, Option<usize>)> {
    let rel = want_rel(eval_expr(map, env)?, context)?;
    let mut probes = Vec::with_capacity(keys.len());
    for (_, e) in keys {
        match eval_expr(e, env)? {
            DynValue::Scalar(v) => probes.push(v),
            other => {
                return Err(InterpError::Kind {
                    context,
                    expected: "scalar",
                    found: other.kind(),
                })
            }
        }
    }
    // The untyped empty map matches nothing.
    if rel.schema().arity() == 0 {
        return Ok((rel, probes, None));
    }
    let mut key_idx = Vec::with_capacity(keys.len());
    for (name, _) in keys {
        key_idx.push(rel.schema().index_of(&qbs_common::FieldRef::from(name.as_str()))?);
    }
    let found = rel
        .iter()
        .position(|rec| key_idx.iter().zip(&probes).all(|(&i, p)| rec.value_at(i) == p));
    Ok((rel, probes, found))
}

/// Evaluates a kernel expression in an environment.
///
/// This is the reusable evaluation entry point for differential oracles:
/// bind a database's tables into the [`Env`] (e.g. via `qbs_db`'s
/// `Database::env`) and evaluate any fragment expression against the same
/// data the SQL executor sees.
///
/// # Errors
///
/// Propagates any [`InterpError`] (unbound names, kind errors, bounds).
pub fn eval_expr(e: &KExpr, env: &Env) -> Result<DynValue> {
    use KExpr::*;
    match e {
        Const(v) => Ok(DynValue::Scalar(v.clone())),
        EmptyList => Ok(DynValue::Rel(Relation::empty(Schema::anonymous().finish()))),
        Var(v) => env.get(v).cloned().ok_or_else(|| InterpError::UnknownVar(v.clone())),
        Field(rec, name) => match eval_expr(rec, env)? {
            DynValue::Rec(r) => Ok(DynValue::Scalar(r.get(&name.as_str().into())?.clone())),
            other => Err(InterpError::Kind {
                context: "field access",
                expected: "record",
                found: other.kind(),
            }),
        },
        RecordLit(fields) => {
            let mut b = Schema::anonymous();
            let mut values = Vec::with_capacity(fields.len());
            for (name, fe) in fields {
                let v = match eval_expr(fe, env)? {
                    DynValue::Scalar(v) => v,
                    other => {
                        return Err(InterpError::Kind {
                            context: "record literal",
                            expected: "scalar",
                            found: other.kind(),
                        })
                    }
                };
                let ty = match &v {
                    Value::Bool(_) => qbs_common::FieldType::Bool,
                    Value::Int(_) => qbs_common::FieldType::Int,
                    Value::Str(_) => qbs_common::FieldType::Str,
                };
                b = b.field(name.as_str(), ty);
                values.push(v);
            }
            Ok(DynValue::Rec(Record::new(b.finish(), values)))
        }
        Binary(op, a, b) => match op {
            BinOp::And => {
                if !want_bool(eval_expr(a, env)?, "∧")? {
                    return Ok(DynValue::Scalar(Value::from(false)));
                }
                Ok(DynValue::Scalar(Value::from(want_bool(eval_expr(b, env)?, "∧")?)))
            }
            BinOp::Or => {
                if want_bool(eval_expr(a, env)?, "∨")? {
                    return Ok(DynValue::Scalar(Value::from(true)));
                }
                Ok(DynValue::Scalar(Value::from(want_bool(eval_expr(b, env)?, "∨")?)))
            }
            BinOp::Add => Ok(DynValue::Scalar(Value::from(
                want_int(eval_expr(a, env)?, "+")?
                    .wrapping_add(want_int(eval_expr(b, env)?, "+")?),
            ))),
            BinOp::Sub => Ok(DynValue::Scalar(Value::from(
                want_int(eval_expr(a, env)?, "-")?
                    .wrapping_sub(want_int(eval_expr(b, env)?, "-")?),
            ))),
            BinOp::Cmp(c) => {
                let x = eval_expr(a, env)?;
                let y = eval_expr(b, env)?;
                match (x, y) {
                    (DynValue::Scalar(x), DynValue::Scalar(y)) => {
                        Ok(DynValue::Scalar(Value::from(c.test(x.total_cmp(&y)))))
                    }
                    (x, y) => Err(InterpError::Kind {
                        context: "comparison",
                        expected: "scalar",
                        found: if x.as_scalar().is_some() { y.kind() } else { x.kind() },
                    }),
                }
            }
        },
        Not(x) => Ok(DynValue::Scalar(Value::from(!want_bool(eval_expr(x, env)?, "¬")?))),
        Query(spec) => env
            .table(&spec.table)
            .cloned()
            .map(DynValue::Rel)
            .ok_or_else(|| InterpError::UnknownTable(spec.table.clone())),
        Size(r) => Ok(DynValue::Scalar(Value::from(
            want_rel(eval_expr(r, env)?, "size")?.len() as i64,
        ))),
        Get(r, i) => {
            let rel = want_rel(eval_expr(r, env)?, "get")?;
            let idx = want_int(eval_expr(i, env)?, "get index")?;
            if idx < 0 || idx as usize >= rel.len() {
                return Err(InterpError::OutOfBounds { index: idx, len: rel.len() });
            }
            Ok(DynValue::Rec(rel.get(idx as usize).expect("bounds checked").clone()))
        }
        Append(r, x) => {
            let rel = want_rel(eval_expr(r, env)?, "append")?;
            let rec = match eval_expr(x, env)? {
                DynValue::Rec(rec) => rec,
                // Scalar appends build single-column lists.
                DynValue::Scalar(v) => scalar_record(v),
                other => {
                    return Err(InterpError::Kind {
                        context: "append",
                        expected: "record or scalar",
                        found: other.kind(),
                    })
                }
            };
            // Appending to the untyped empty list adopts the record's schema.
            if rel.is_empty() && rel.schema().arity() == 0 {
                return Ok(DynValue::Rel(Relation::from_records(
                    rec.schema().clone(),
                    vec![rec],
                )?));
            }
            Ok(DynValue::Rel(rel.append(rec)?))
        }
        Unique(r) => Ok(DynValue::Rel(want_rel(eval_expr(r, env)?, "unique")?.unique())),
        Sort(fields, r) => {
            let rel = want_rel(eval_expr(r, env)?, "sort")?;
            Ok(DynValue::Rel(rel.sorted_by(fields)?))
        }
        Remove(r, x) => {
            let rel = want_rel(eval_expr(r, env)?, "remove")?;
            let target = eval_expr(x, env)?;
            let mut removed = false;
            let mut rows = Vec::new();
            for rec in rel.iter() {
                let matches = match &target {
                    DynValue::Rec(t) => values_equal(t, rec),
                    DynValue::Scalar(v) => rel.schema().arity() == 1 && rec.value_at(0) == v,
                    DynValue::Rel(_) => false,
                };
                if matches && !removed {
                    removed = true;
                    continue;
                }
                rows.push(rec.clone());
            }
            Ok(DynValue::Rel(
                Relation::from_records(rel.schema().clone(), rows).expect("schema unchanged"),
            ))
        }
        SortCustom(r) => {
            // Opaque comparator: deterministic order by all fields so the
            // interpreter stays usable for differential testing.
            let rel = want_rel(eval_expr(r, env)?, "sort")?;
            let all: Vec<qbs_common::FieldRef> = rel
                .schema()
                .fields()
                .iter()
                .map(|f| qbs_common::FieldRef {
                    qualifier: f.qualifier.clone(),
                    name: f.name.clone(),
                })
                .collect();
            Ok(DynValue::Rel(rel.sorted_by(&all)?))
        }
        MapGet { map, keys, val_field, default } => {
            let (rel, _, found) = map_probe(map, keys, env, "mapget")?;
            match found {
                Some(i) => {
                    let rec = rel.get(i).expect("probe index in range");
                    Ok(DynValue::Scalar(
                        rec.get(&qbs_common::FieldRef::from(val_field.as_str()))?.clone(),
                    ))
                }
                None => match eval_expr(default, env)? {
                    DynValue::Scalar(v) => Ok(DynValue::Scalar(v)),
                    other => Err(InterpError::Kind {
                        context: "mapget default",
                        expected: "scalar",
                        found: other.kind(),
                    }),
                },
            }
        }
        MapPut { map, keys, val_field, val } => {
            let (rel, probes, found) = map_probe(map, keys, env, "mapput")?;
            let v = match eval_expr(val, env)? {
                DynValue::Scalar(v) => v,
                other => {
                    return Err(InterpError::Kind {
                        context: "mapput value",
                        expected: "scalar",
                        found: other.kind(),
                    })
                }
            };
            match found {
                Some(hit) => {
                    let schema = rel.schema().clone();
                    let vi =
                        schema.index_of(&qbs_common::FieldRef::from(val_field.as_str()))?;
                    let rows = rel
                        .iter()
                        .enumerate()
                        .map(|(i, rec)| {
                            if i == hit {
                                let mut values = rec.values().to_vec();
                                values[vi] = v.clone();
                                Record::new(schema.clone(), values)
                            } else {
                                rec.clone()
                            }
                        })
                        .collect();
                    Ok(DynValue::Rel(Relation::from_records(schema, rows)?))
                }
                None => {
                    // Fresh entry: adopt (or build) the entry schema.
                    let schema = if rel.schema().arity() == 0 {
                        let mut b = Schema::anonymous();
                        for ((name, _), pv) in keys.iter().zip(&probes) {
                            b = b.field(name.as_str(), field_type_of(pv));
                        }
                        b.field(val_field.as_str(), field_type_of(&v)).finish()
                    } else {
                        rel.schema().clone()
                    };
                    let mut values = probes;
                    values.push(v);
                    let rec = Record::new(schema.clone(), values);
                    if rel.schema().arity() == 0 {
                        Ok(DynValue::Rel(Relation::from_records(schema, vec![rec])?))
                    } else {
                        Ok(DynValue::Rel(rel.append(rec)?))
                    }
                }
            }
        }
        Contains(r, x) => {
            let rel = want_rel(eval_expr(r, env)?, "contains")?;
            let found = match eval_expr(x, env)? {
                DynValue::Rec(rec) => rel.iter().any(|o| values_equal(&rec, o)),
                DynValue::Scalar(v) => {
                    rel.schema().arity() == 1 && rel.iter().any(|o| o.value_at(0) == &v)
                }
                other => {
                    return Err(InterpError::Kind {
                        context: "contains",
                        expected: "record or scalar",
                        found: other.kind(),
                    })
                }
            };
            Ok(DynValue::Scalar(Value::from(found)))
        }
    }
}

fn exec_block(stmts: &[KStmt], env: &mut Env, fuel: &mut u64) -> Result<()> {
    for s in stmts {
        exec_stmt(s, env, fuel)?;
    }
    Ok(())
}

fn exec_stmt(s: &KStmt, env: &mut Env, fuel: &mut u64) -> Result<()> {
    match s {
        KStmt::Skip => Ok(()),
        KStmt::Assign(v, e) => {
            let val = eval_expr(e, env)?;
            env.bind(v.clone(), val);
            Ok(())
        }
        KStmt::If(c, t, f) => {
            if want_bool(eval_expr(c, env)?, "if condition")? {
                exec_block(t, env, fuel)
            } else {
                exec_block(f, env, fuel)
            }
        }
        KStmt::While(c, body) => {
            while want_bool(eval_expr(c, env)?, "while condition")? {
                if *fuel == 0 {
                    return Err(InterpError::OutOfFuel);
                }
                *fuel -= 1;
                exec_block(body, env, fuel)?;
            }
            Ok(())
        }
        KStmt::Assert(e) => {
            if want_bool(eval_expr(e, env)?, "assert")? {
                Ok(())
            } else {
                Err(InterpError::AssertionFailed(format!("{e:?}")))
            }
        }
    }
}

/// Runs a kernel program against an initial environment (which supplies
/// parameter values via [`Env::bind`] and tables via [`Env::bind_table`]).
///
/// # Errors
///
/// Propagates any [`InterpError`]; `OutOfFuel` guards against diverging
/// loops when fuzzing candidate programs.
///
/// # Example
///
/// ```
/// use qbs_kernel::{run, KernelProgram, KExpr, KStmt};
/// use qbs_tor::Env;
///
/// let prog = KernelProgram::builder("f")
///     .stmt(KStmt::assign("x", KExpr::int(41)))
///     .stmt(KStmt::assign("x", KExpr::add(KExpr::var("x"), KExpr::int(1))))
///     .result("x")
///     .finish();
/// let out = run(&prog, Env::new()).unwrap();
/// assert_eq!(out.result.as_int(), Some(42));
/// ```
pub fn run(prog: &KernelProgram, mut env: Env) -> Result<RunResult> {
    let mut fuel = DEFAULT_FUEL;
    exec_block(prog.body(), &mut env, &mut fuel)?;
    let result = env
        .get(prog.result_var())
        .cloned()
        .ok_or_else(|| InterpError::UnknownVar(prog.result_var().clone()))?;
    Ok(RunResult { env, result })
}

#[cfg(test)]
mod tests {
    use super::*;
    use qbs_common::FieldType;
    use qbs_tor::{CmpOp, QuerySpec};

    fn users_table() -> (qbs_common::SchemaRef, Relation) {
        let s = Schema::builder("users")
            .field("id", FieldType::Int)
            .field("roleId", FieldType::Int)
            .finish();
        let rel = Relation::from_records(
            s.clone(),
            vec![
                Record::new(s.clone(), vec![1.into(), 10.into()]),
                Record::new(s.clone(), vec![2.into(), 20.into()]),
                Record::new(s.clone(), vec![3.into(), 10.into()]),
            ],
        )
        .unwrap();
        (s, rel)
    }

    #[test]
    fn selection_loop_filters() {
        let (s, rel) = users_table();
        let prog = KernelProgram::builder("sel")
            .stmt(KStmt::assign("out", KExpr::EmptyList))
            .stmt(KStmt::assign("users", KExpr::query(QuerySpec::table_scan("users", s))))
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
                            KExpr::int(10),
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
            .finish();
        let mut env = Env::new();
        env.bind_table("users", rel);
        let out = run(&prog, env).unwrap();
        let result = out.result.as_relation().unwrap();
        assert_eq!(result.len(), 2);
        assert_eq!(result.get(0).unwrap().value_at(0), &Value::from(1));
        assert_eq!(result.get(1).unwrap().value_at(0), &Value::from(3));
    }

    #[test]
    fn scalar_append_builds_single_column_list() {
        let prog = KernelProgram::builder("f")
            .stmt(KStmt::assign("out", KExpr::EmptyList))
            .stmt(KStmt::assign("out", KExpr::append(KExpr::var("out"), KExpr::int(7))))
            .stmt(KStmt::assign("out", KExpr::append(KExpr::var("out"), KExpr::int(8))))
            .result("out")
            .finish();
        let out = run(&prog, Env::new()).unwrap();
        let rel = out.result.as_relation().unwrap();
        assert_eq!(rel.len(), 2);
        assert_eq!(rel.get(0).unwrap().value_at(0), &Value::from(7));
    }

    #[test]
    fn record_literal_and_field_access() {
        let prog = KernelProgram::builder("f")
            .stmt(KStmt::assign(
                "r",
                KExpr::RecordLit(vec![
                    ("a".into(), KExpr::int(1)),
                    ("b".into(), KExpr::str("x")),
                ]),
            ))
            .stmt(KStmt::assign("out", KExpr::field(KExpr::var("r"), "b")))
            .result("out")
            .finish();
        let out = run(&prog, Env::new()).unwrap();
        assert_eq!(out.result.as_scalar().unwrap().as_str(), Some("x"));
    }

    #[test]
    fn contains_on_scalar_list() {
        let prog = KernelProgram::builder("f")
            .stmt(KStmt::assign("xs", KExpr::EmptyList))
            .stmt(KStmt::assign("xs", KExpr::append(KExpr::var("xs"), KExpr::int(5))))
            .stmt(KStmt::assign("out", KExpr::contains(KExpr::var("xs"), KExpr::int(5))))
            .result("out")
            .finish();
        let out = run(&prog, Env::new()).unwrap();
        assert_eq!(out.result.as_bool(), Some(true));
    }

    /// The `GROUP BY` source idiom: a per-key count accumulator loop,
    /// `m[k.roleId] += 1` spelled with `mapget`/`mapput`.
    fn count_by_role_program() -> (KernelProgram, Env) {
        let (s, rel) = users_table();
        let probe = || {
            vec![(
                Ident::new("roleId"),
                KExpr::field(KExpr::get(KExpr::var("users"), KExpr::var("i")), "roleId"),
            )]
        };
        let prog = KernelProgram::builder("countByRole")
            .stmt(KStmt::assign("m", KExpr::EmptyList))
            .stmt(KStmt::assign("users", KExpr::query(QuerySpec::table_scan("users", s))))
            .stmt(KStmt::assign("i", KExpr::int(0)))
            .stmt(KStmt::while_loop(
                KExpr::cmp(CmpOp::Lt, KExpr::var("i"), KExpr::size(KExpr::var("users"))),
                vec![
                    KStmt::assign(
                        "m",
                        KExpr::mapput(
                            KExpr::var("m"),
                            probe(),
                            "n",
                            KExpr::add(
                                KExpr::mapget(KExpr::var("m"), probe(), "n", KExpr::int(0)),
                                KExpr::int(1),
                            ),
                        ),
                    ),
                    KStmt::assign("i", KExpr::add(KExpr::var("i"), KExpr::int(1))),
                ],
            ))
            .result("m")
            .finish();
        let mut env = Env::new();
        env.bind_table("users", rel);
        (prog, env)
    }

    #[test]
    fn per_key_count_loop_groups_in_first_occurrence_order() {
        let (prog, env) = count_by_role_program();
        let out = run(&prog, env).unwrap();
        let m = out.result.as_relation().unwrap();
        // roleId 10 is seen first, so its entry precedes roleId 20.
        assert_eq!(m.len(), 2);
        assert_eq!(m.get(0).unwrap().values(), &[Value::from(10), Value::from(2)]);
        assert_eq!(m.get(1).unwrap().values(), &[Value::from(20), Value::from(1)]);
        let names: Vec<_> =
            m.schema().fields().iter().map(|f| f.name.as_str().to_string()).collect();
        assert_eq!(names, ["roleId", "n"]);
    }

    #[test]
    fn mapget_miss_returns_the_default_and_mapput_hit_replaces_in_place() {
        let put = |m, k: i64, v: i64| {
            KExpr::mapput(m, vec![(Ident::new("k"), KExpr::int(k))], "v", KExpr::int(v))
        };
        let prog = KernelProgram::builder("f")
            .stmt(KStmt::assign("m", KExpr::EmptyList))
            .stmt(KStmt::assign("m", put(KExpr::var("m"), 1, 10)))
            .stmt(KStmt::assign("m", put(KExpr::var("m"), 2, 20)))
            // Overwrite key 1: the entry order must not change.
            .stmt(KStmt::assign("m", put(KExpr::var("m"), 1, 11)))
            .stmt(KStmt::assign(
                "hit",
                KExpr::mapget(
                    KExpr::var("m"),
                    vec![(Ident::new("k"), KExpr::int(1))],
                    "v",
                    KExpr::int(-1),
                ),
            ))
            .stmt(KStmt::assign(
                "miss",
                KExpr::mapget(
                    KExpr::var("m"),
                    vec![(Ident::new("k"), KExpr::int(9))],
                    "v",
                    KExpr::int(-1),
                ),
            ))
            .stmt(KStmt::assign("out", KExpr::add(KExpr::var("hit"), KExpr::var("miss"))))
            .result("out")
            .finish();
        let out = run(&prog, Env::new()).unwrap();
        assert_eq!(out.result.as_int(), Some(10)); // 11 + (-1)
        let m = out.env.get(&"m".into()).unwrap().as_relation().unwrap();
        assert_eq!(m.get(0).unwrap().values(), &[Value::from(1), Value::from(11)]);
        assert_eq!(m.get(1).unwrap().values(), &[Value::from(2), Value::from(20)]);
    }

    #[test]
    fn map_operations_report_kind_errors() {
        // mapget over a scalar is a list kind error.
        let prog = KernelProgram::builder("f")
            .stmt(KStmt::assign(
                "out",
                KExpr::mapget(
                    KExpr::int(3),
                    vec![(Ident::new("k"), KExpr::int(1))],
                    "v",
                    KExpr::int(0),
                ),
            ))
            .result("out")
            .finish();
        assert_eq!(
            run(&prog, Env::new()),
            Err(InterpError::Kind { context: "mapget", expected: "list", found: "scalar" })
        );
    }

    #[test]
    fn assertion_failure_is_reported() {
        let prog = KernelProgram::builder("f")
            .stmt(KStmt::Assert(KExpr::bool(false)))
            .stmt(KStmt::assign("out", KExpr::int(0)))
            .result("out")
            .finish();
        assert!(matches!(run(&prog, Env::new()), Err(InterpError::AssertionFailed(_))));
    }

    #[test]
    fn short_circuit_and_skips_the_right_operand() {
        // `false ∧ (1 = [])` does not error: the right operand is never
        // evaluated.
        let prog = KernelProgram::builder("f")
            .stmt(KStmt::assign(
                "out",
                KExpr::and(
                    KExpr::bool(false),
                    KExpr::cmp(CmpOp::Eq, KExpr::int(1), KExpr::EmptyList),
                ),
            ))
            .result("out")
            .finish();
        assert_eq!(run(&prog, Env::new()).unwrap().result.as_bool(), Some(false));
    }

    #[test]
    fn record_sort_remove_contains_round_trip() {
        let (s, rel) = users_table();
        let prog = KernelProgram::builder("mix")
            .stmt(KStmt::assign("users", KExpr::query(QuerySpec::table_scan("users", s))))
            .stmt(KStmt::assign("sorted", KExpr::SortCustom(Box::new(KExpr::var("users")))))
            .stmt(KStmt::assign(
                "trimmed",
                KExpr::Remove(
                    Box::new(KExpr::var("sorted")),
                    Box::new(KExpr::get(KExpr::var("sorted"), KExpr::int(0))),
                ),
            ))
            .stmt(KStmt::assign(
                "r",
                KExpr::RecordLit(vec![
                    ("n".into(), KExpr::size(KExpr::var("trimmed"))),
                    (
                        "has".into(),
                        KExpr::contains(
                            KExpr::var("trimmed"),
                            KExpr::get(KExpr::var("users"), KExpr::int(1)),
                        ),
                    ),
                ]),
            ))
            .stmt(KStmt::assign("out", KExpr::field(KExpr::var("r"), "n")))
            .result("out")
            .finish();
        let mut env = Env::new();
        env.bind_table("users", rel);
        assert_eq!(run(&prog, env).unwrap().result.as_int(), Some(2));
    }

    #[test]
    fn bounds_kind_and_unbound_failures_are_typed_errors() {
        let oob = KernelProgram::builder("oob")
            .stmt(KStmt::assign("xs", KExpr::EmptyList))
            .stmt(KStmt::assign("xs", KExpr::append(KExpr::var("xs"), KExpr::int(1))))
            .stmt(KStmt::assign("out", KExpr::get(KExpr::var("xs"), KExpr::int(5))))
            .result("out")
            .finish();
        assert_eq!(run(&oob, Env::new()), Err(InterpError::OutOfBounds { index: 5, len: 1 }));
        let kind = KernelProgram::builder("kind")
            .stmt(KStmt::assign("out", KExpr::add(KExpr::int(1), KExpr::bool(true))))
            .result("out")
            .finish();
        assert!(matches!(run(&kind, Env::new()), Err(InterpError::Kind { .. })));
        let unbound = KernelProgram::builder("unbound")
            .stmt(KStmt::assign("out", KExpr::var("nope")))
            .result("out")
            .finish();
        assert_eq!(run(&unbound, Env::new()), Err(InterpError::UnknownVar("nope".into())));
    }

    #[test]
    fn runaway_loop_runs_out_of_fuel() {
        let prog = KernelProgram::builder("f")
            .stmt(KStmt::assign("out", KExpr::int(0)))
            .stmt(KStmt::while_loop(KExpr::bool(true), vec![KStmt::Skip]))
            .result("out")
            .finish();
        assert!(matches!(run(&prog, Env::new()), Err(InterpError::OutOfFuel)));
    }
}
