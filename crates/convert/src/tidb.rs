//! TiDB converter: the `EXPLAIN` table → unified plans.
//!
//! Handles the two TiDB-isms the paper calls out: random numeric operator
//! suffixes (`TableReader_7` and `TableReader_12` are the same operation —
//! mishandling this was the bug in the original QPG implementation) and the
//! `Filter` key being a property rather than an operation.

use uplan_core::{Error, Result, UnifiedPlan};

use crate::spine::{declare_converter, pipe_cells, pipe_header, CellTrim, NodeBuilder};
use crate::Source;

declare_converter!(
    /// The `EXPLAIN` table: `id | estRows | [actRows |] task |
    /// access object | operator info`.
    TableConverter,
    Source::TidbTable,
    table_body,
    |input| input.contains("estRows")
);

fn table_body(input: &str, b: &mut NodeBuilder) -> Result<UnifiedPlan> {
    // Trailing-only trim keeps the `id` column's leading spaces, which
    // carry tree depth; the header's own names are trimmed once here.
    let mut header = Vec::new();
    let rows = pipe_header(input, CellTrim::TrailingOnly, &mut header)
        .ok_or_else(|| Error::Semantic("no TiDB table rows found".into()))?;
    for name in &mut header {
        *name = name.trim();
    }
    let col = |name: &str| header.iter().position(|h| *h == name);
    let id_col = col("id").ok_or_else(|| Error::Semantic("missing id column".into()))?;
    // Header names double as property keys (`task` normalizes to
    // `taskType` through the shared table).
    let prop_cols: Vec<(usize, &str)> = [
        "estRows",
        "actRows",
        "task",
        "access object",
        "operator info",
    ]
    .into_iter()
    .filter_map(|name| col(name).map(|c| (c, name)))
    .collect();

    b.begin_tree();
    let mut parsed_any = false;
    let mut cells = Vec::new();
    for line in rows {
        if !pipe_cells(line, CellTrim::TrailingOnly, &mut cells) {
            continue;
        }
        let raw_id = cells
            .get(id_col)
            .ok_or_else(|| Error::Semantic("short row".into()))?;
        let id_text = raw_id.trim_start_matches(' ');
        let leading_spaces = raw_id.len() - id_text.len();
        let has_connector = id_text.starts_with("└─") || id_text.starts_with("├─");
        let depth = leading_spaces / 2 + usize::from(has_connector);
        let name = id_text
            .trim_start_matches("└─")
            .trim_start_matches("├─")
            .trim();
        let mut node = b.op(name);
        for &(c, key) in &prop_cols {
            if let Some(text) = cells.get(c) {
                let text = text.trim();
                if !text.is_empty() {
                    node.properties.push(b.text_prop(key, text));
                }
            }
        }
        b.open_at_depth(depth, node);
        parsed_any = true;
    }

    let mut plan = UnifiedPlan::new();
    plan.root = b.end_tree_last();
    if plan.root.is_none() || !parsed_any {
        return Err(Error::Semantic("empty TiDB plan".into()));
    }
    Ok(plan)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::convert;
    use uplan_core::fingerprint::fingerprint;
    use uplan_core::OperationCategory;

    /// Paper Fig. 2's TiDB plan, as the real CLI prints it.
    const FIG2: &str = "\
+---------------------------+---------+-----------+---------------+--------------------------------+
| id                        | estRows | task      | access object | operator info                  |
+---------------------------+---------+-----------+---------------+--------------------------------+
| TableReader_7             | 5.00    | root      |               | data:Selection_6               |
| └─Selection_6             | 5.00    | cop[tikv] |               | lt(test.t0.c0, 5)              |
|   └─TableFullScan_5       | 100.00  | cop[tikv] | table:t0      | keep order:false               |
+---------------------------+---------+-----------+---------------+--------------------------------+
";

    #[test]
    fn fig2_conversion() {
        let plan = convert(Source::TidbTable, FIG2).unwrap();
        let root = plan.root.as_ref().unwrap();
        // Fig. 2: "TiDB's plan is converted into two operations [...]
        // Executor->Collect [receiving] data from other nodes" plus the
        // producer; our conversion keeps Selection as a third (Executor) op.
        assert_eq!(root.operation.identifier, "Collect");
        assert_eq!(root.operation.category, OperationCategory::Executor);
        let selection = &root.children[0];
        assert_eq!(selection.operation.identifier, "Selection");
        let scan = &selection.children[0];
        assert_eq!(scan.operation.identifier, "Full_Table_Scan");
        assert_eq!(scan.operation.category, OperationCategory::Producer);
        assert_eq!(
            scan.property("name_object").unwrap().value,
            uplan_core::Value::Str("table:t0".into())
        );
        assert_eq!(
            root.property("task_type").unwrap().value,
            uplan_core::Value::Str("root".into())
        );
    }

    #[test]
    fn random_suffixes_do_not_affect_fingerprints() {
        // The original QPG parser bug: different suffixes, same plan.
        let renumbered = FIG2
            .replace("TableReader_7", "TableReader_9")
            .replace("Selection_6 ", "Selection_12")
            .replace("TableFullScan_5 ", "TableFullScan_31");
        let a = convert(Source::TidbTable, FIG2).unwrap();
        let b = convert(Source::TidbTable, &renumbered).unwrap();
        assert_eq!(fingerprint(&a), fingerprint(&b));
    }

    #[test]
    fn round_trip_with_dialect_emitter() {
        use minidb::profile::EngineProfile;
        use minidb::Database;
        let mut db = Database::new(EngineProfile::TiDb);
        db.execute("CREATE TABLE t (x INT, y INT)").unwrap();
        db.execute("CREATE INDEX ix ON t(y)").unwrap();
        for i in 0..40 {
            db.execute(&format!("INSERT INTO t VALUES ({i}, {})", i % 4))
                .unwrap();
        }
        let plan = db
            .explain("SELECT x FROM t WHERE y = 2 AND x < 30")
            .unwrap();
        let text = dialects::tidb::to_table(&plan, 3);
        let unified = convert(Source::TidbTable, &text).unwrap();
        // IndexLookUp expands to index + rowid scans: two producers.
        let counts = uplan_core::stats::CategoryCounts::of(&unified);
        assert!(
            counts.get(&OperationCategory::Producer) >= 2,
            "{text}\n{unified:#?}"
        );
    }

    #[test]
    fn rejects_non_tables() {
        assert!(convert(Source::TidbTable, "").is_err());
        assert!(convert(Source::TidbTable, "nothing tabular").is_err());
        assert!(convert(Source::TidbTable, "| id |\n").is_err());
    }
}
