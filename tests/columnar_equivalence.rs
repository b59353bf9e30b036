//! Differential testing of the two scan paths: the vectorized columnar
//! scan (default) against the row-at-a-time scan
//! (`PlanConfig::force_row_store`). The columnar path is an internal
//! rewrite — rows, row order, and the observable `ExecStats` counters
//! must be indistinguishable for every query, corpus or generated.
//!
//! Every workload is checked through both entries to the executor: the
//! one-shot `Database::execute_with` call, and the serving path —
//! prepared statements on a `Connection`, executed twice so the
//! plan-cache-hit round is compared too.

use std::sync::OnceLock;

use proptest::prelude::*;
use qbs::FragmentStatus;
use qbs_batch::{corpus_inputs, grouped_inputs, BatchConfig, BatchRunner};
use qbs_common::Value;
use qbs_corpus::populate_universe;
use qbs_db::{Connection, Database, Params, PlanConfig, QueryOutput};
use qbs_sql::{parse_query, Dialect, SqlQuery};

fn row_store() -> PlanConfig {
    PlanConfig { force_row_store: true, ..PlanConfig::default() }
}

/// Require identical output — rows AND stats (`ExecStats` equality
/// covers rows_scanned, join_comparisons, index usage, plan-cache and
/// sub-query counters; timing fields are excluded from its `PartialEq`).
fn assert_outputs_agree(vectorized: &QueryOutput, rowwise: &QueryOutput, label: &str) {
    match (vectorized, rowwise) {
        (QueryOutput::Rows(v), QueryOutput::Rows(r)) => {
            assert_eq!(v.rows, r.rows, "{label}: rows diverged");
            assert_eq!(v.stats, r.stats, "{label}: stats diverged");
        }
        (
            QueryOutput::Scalar { value: v, stats: vs },
            QueryOutput::Scalar { value: r, stats: rs },
        ) => {
            assert_eq!(v, r, "{label}: scalar diverged");
            assert_eq!(vs, rs, "{label}: stats diverged");
        }
        _ => panic!("{label}: output shapes diverged"),
    }
}

/// Execute one query through `Database::execute_with` under both
/// configurations and require identical output.
fn assert_paths_agree(db: &Database, q: &SqlQuery, params: &Params, label: &str) {
    let vectorized = db
        .execute_with(q, params, &PlanConfig::default())
        .unwrap_or_else(|e| panic!("{label}: vectorized execution failed: {e}"));
    let rowwise = db
        .execute_with(q, params, &row_store())
        .unwrap_or_else(|e| panic!("{label}: row-store execution failed: {e}"));
    assert_outputs_agree(&vectorized, &rowwise, label);
}

/// Execute one query as a prepared statement on a default connection and
/// on a `force_row_store` connection and require identical output. Each
/// statement executes twice, so the steady-state plan-cache-hit round is
/// compared too, not just the first.
fn assert_statements_agree(db: &Database, q: &SqlQuery, params: &Params, label: &str) {
    let vec_conn = Connection::open(db.clone());
    let row_conn = Connection::open_with(db.clone(), row_store(), Dialect::Generic);
    let vec_stmt = vec_conn.prepare_query(q);
    let row_stmt = row_conn.prepare_query(q);
    for round in 0..2 {
        let vectorized = vec_conn
            .execute(&vec_stmt, params)
            .unwrap_or_else(|e| panic!("{label}: vectorized execution failed: {e}"));
        let rowwise = row_conn
            .execute(&row_stmt, params)
            .unwrap_or_else(|e| panic!("{label}: row-store execution failed: {e}"));
        assert_outputs_agree(&vectorized, &rowwise, &format!("{label} (round {round})"));
    }
}

/// The translated SQL of every corpus fragment — the 49 of Appendix A and
/// the five grouped ones — as `(fragment, query)`, synthesized once and
/// shared by the corpus tests of this file.
fn translated_corpus() -> &'static [(String, SqlQuery)] {
    static TRANSLATED: OnceLock<Vec<(String, SqlQuery)>> = OnceLock::new();
    TRANSLATED.get_or_init(|| {
        let runner = BatchRunner::new(BatchConfig::new());
        let mut inputs = corpus_inputs();
        inputs.extend(grouped_inputs());
        let report = runner.run(&inputs);
        report
            .fragments
            .iter()
            .filter_map(|fr| match &fr.status {
                FragmentStatus::Translated { sql, .. } => Some((fr.input.to_string(), sql.clone())),
                _ => None,
            })
            .collect()
    })
}

/// Run `check` over every translated corpus fragment on three
/// differently seeded databases.
fn check_corpus(check: fn(&Database, &SqlQuery, &Params, &str)) {
    let mut translated = 0;
    for seed in [1, 2, 3] {
        let db = populate_universe(seed);
        for (input, sql) in translated_corpus() {
            translated += 1;
            check(&db, sql, &Params::new(), &format!("{input} (seed {seed})"));
        }
    }
    assert_eq!(
        translated,
        (33 + 5) * 3,
        "the paper's 33 translated fragments plus the five grouped ones, three seeds"
    );
}

/// Every translated corpus fragment produces identical rows and counters
/// under both scan paths through `Database::execute_with`.
#[test]
fn corpus_queries_agree_between_columnar_and_row_store() {
    check_corpus(assert_paths_agree);
}

/// Every translated corpus fragment produces identical rows and counters
/// under both scan paths through prepared statements, in both rounds.
#[test]
fn corpus_statements_agree_between_columnar_and_row_store() {
    check_corpus(assert_statements_agree);
}

/// Filter fields the generator draws WHERE atoms from: (name, is the
/// comparison against an int constant). `enabled` exercises the Bool
/// kernel, `login` falls back to the row path (string inequality against
/// a non-constant is declined by the kernel compiler on purpose).
const INT_FIELDS: &[&str] = &["id", "roleId"];

prop_compose! {
    /// Generated single-table queries over the corpus `users` table —
    /// predicates, DISTINCT, ORDER BY, LIMIT/OFFSET paging, and bound
    /// parameters — as `(seed, text, query, params)`.
    fn users_query()(
        seed in 1i64..4,
        field in 0usize..INT_FIELDS.len(),
        op in 0usize..6,
        pivot in 0i64..70,
        bool_atom in 0usize..3,
        distinct in 0usize..2,
        order in 0usize..2,
        desc in 0usize..2,
        limit in prop::option::of(0i64..10),
        offset in prop::option::of(0i64..10),
    ) -> (u64, String, SqlQuery, Params) {
        let ops = ["=", "<>", "<", "<=", ">", ">="];
        let mut text = format!(
            "SELECT id, roleId, enabled FROM users WHERE {} {} {pivot}",
            INT_FIELDS[field], ops[op]
        );
        match bool_atom {
            1 => text.push_str(" AND enabled = 1"),
            2 => text.push_str(" AND enabled = :flag"),
            _ => {}
        }
        if order == 1 {
            text.push_str(" ORDER BY id");
            if desc == 1 {
                text.push_str(" DESC");
            }
        }
        if let Some(n) = limit {
            text.push_str(&format!(" LIMIT {n}"));
        }
        if let Some(n) = offset {
            text.push_str(&format!(" OFFSET {n}"));
        }
        let mut q = parse_query(&text).unwrap_or_else(|e| panic!("{text}: {e}"));
        q.distinct = distinct == 1;

        let mut params = Params::new();
        params.insert("flag".into(), Value::from(true));
        (seed as u64, text, SqlQuery::Select(q), params)
    }
}

prop_compose! {
    /// Generated grouped queries — one or two group keys, every
    /// aggregate kind, optional WHERE and HAVING, multi-key ORDER BY
    /// with per-key direction — as `(seed, text, query)`.
    fn grouped_query()(
        seed in 1i64..4,
        agg in 0usize..4,
        two_keys in 0usize..2,
        filtered in 0usize..2,
        pivot in 0i64..70,
        having in 0usize..3,
        threshold in 0i64..5,
        order in 0usize..2,
        desc_a in 0usize..2,
        desc_b in 0usize..2,
        limit in prop::option::of(0i64..5),
    ) -> (u64, String, SqlQuery) {
        let aggs = ["COUNT(*)", "SUM(id)", "MAX(id)", "MIN(id)"];
        let keys = if two_keys == 1 { "roleId, enabled" } else { "roleId" };
        let mut text = format!("SELECT {keys}, {} AS v FROM users", aggs[agg]);
        if filtered == 1 {
            text.push_str(&format!(" WHERE id > {pivot}"));
        }
        text.push_str(&format!(" GROUP BY {keys}"));
        match having {
            1 => text.push_str(&format!(" HAVING COUNT(*) > {threshold}")),
            2 => text.push_str(&format!(" HAVING SUM(id) > {}", threshold * 40)),
            _ => {}
        }
        if order == 1 {
            let dir = |d: usize| if d == 1 { "DESC" } else { "ASC" };
            text.push_str(&format!(" ORDER BY roleId {}", dir(desc_a)));
            if two_keys == 1 {
                text.push_str(&format!(", enabled {}", dir(desc_b)));
            }
        }
        if let Some(n) = limit {
            text.push_str(&format!(" LIMIT {n}"));
        }
        let q = parse_query(&text).unwrap_or_else(|e| panic!("{text}: {e}"));
        (seed as u64, text, SqlQuery::Select(q))
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Generated single-table queries agree between the two scan paths
    /// through `Database::execute_with`.
    #[test]
    fn generated_queries_agree_between_columnar_and_row_store(
        case in users_query(),
    ) {
        let (seed, text, q, params) = case;
        assert_paths_agree(&populate_universe(seed), &q, &params, &text);
    }

    /// Generated single-table queries agree between the two scan paths
    /// through prepared statements, in both rounds.
    #[test]
    fn generated_statements_agree_between_columnar_and_row_store(
        case in users_query(),
    ) {
        let (seed, text, q, params) = case;
        assert_statements_agree(&populate_universe(seed), &q, &params, &text);
    }

    /// Generated grouped queries agree between the two scan paths
    /// through `Database::execute_with`.
    #[test]
    fn generated_grouped_queries_agree_between_columnar_and_row_store(
        case in grouped_query(),
    ) {
        let (seed, text, q) = case;
        assert_paths_agree(&populate_universe(seed), &q, &Params::new(), &text);
    }

    /// Generated grouped queries agree between the two scan paths
    /// through prepared statements, in both rounds.
    #[test]
    fn generated_grouped_statements_agree_between_columnar_and_row_store(
        case in grouped_query(),
    ) {
        let (seed, text, q) = case;
        assert_statements_agree(&populate_universe(seed), &q, &Params::new(), &text);
    }
}
