//! SparkSQL converter: `== Physical Plan ==` text → unified plans.

use uplan_core::{Error, Result, UnifiedPlan};

use crate::spine::{configuration, declare_converter, NodeBuilder};
use crate::Source;

declare_converter!(
    /// `df.explain()` physical-plan text (`== Physical Plan ==`).
    TextConverter,
    Source::SparkText,
    text_body,
    |input| input.contains("== Physical Plan ==")
);

fn text_body(input: &str, b: &mut NodeBuilder) -> Result<UnifiedPlan> {
    b.begin_tree();
    let mut parsed_any = false;

    for raw in input.lines() {
        let line = raw.trim_end();
        if line.is_empty() || line.starts_with("==") {
            continue;
        }
        // Depth from `+- ` / `:- ` connectors (3 chars per level).
        let mut depth = 0usize;
        let mut rest = line;
        loop {
            if let Some(r) = rest
                .strip_prefix("+- ")
                .or_else(|| rest.strip_prefix(":- "))
            {
                depth += 1;
                rest = r;
                break;
            } else if let Some(r) = rest
                .strip_prefix("   ")
                .or_else(|| rest.strip_prefix(":  "))
            {
                depth += 1;
                rest = r;
            } else {
                break;
            }
        }
        let body = rest.trim();
        if body.is_empty() {
            continue;
        }
        // Operator name = leading identifier (up to '(' or whitespace).
        let name_end = body
            .find(|c: char| c == '(' || c.is_whitespace())
            .unwrap_or(body.len());
        let name = &body[..name_end];
        let args = body[name_end..].trim();
        let mut node = b.op(name);
        if !args.is_empty() {
            // SparkSQL's catalogued properties are metrics only; operator
            // arguments fall back to a generic Configuration detail.
            node.properties.push(configuration(b.key_details, args));
        }
        b.open_at_depth(depth, node);
        parsed_any = true;
    }
    if !parsed_any {
        return Err(Error::Semantic("no Spark plan lines found".into()));
    }

    Ok(UnifiedPlan::with_root(b.end_tree_last().ok_or_else(
        || Error::Semantic("empty Spark plan".into()),
    )?))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::convert;
    use uplan_core::OperationCategory;

    const SAMPLE: &str = "\
== Physical Plan ==
AdaptiveSparkPlan isFinalPlan=true
+- HashAggregate(keys=[k], functions=[sum(v)])
   +- Exchange hashpartitioning(k, 200)
      +- HashAggregate(keys=[k], functions=[partial_sum(v)])
         +- Project [k, v]
            +- Filter (v < 100)
               +- ColumnarToRow
                  +- FileScan parquet default.t Batched: true
";

    #[test]
    fn spark_pipeline_conversion() {
        let plan = convert(Source::SparkText, SAMPLE).unwrap();
        assert_eq!(plan.operation_count(), 8);
        let counts = uplan_core::stats::CategoryCounts::of(&plan);
        // Paper Table II: Project/Filter/Exchange/AdaptiveSparkPlan/
        // ColumnarToRow are Executor-category operations.
        assert!(counts.get(&OperationCategory::Executor) >= 5, "{plan:#?}");
        assert_eq!(counts.get(&OperationCategory::Producer), 1);
        assert_eq!(counts.get(&OperationCategory::Folder), 2);
    }

    #[test]
    fn arguments_become_details() {
        let plan = convert(Source::SparkText, SAMPLE).unwrap();
        let mut found = false;
        plan.walk(&mut |n| {
            if n.operation.identifier == "Shuffle" {
                assert!(n.property("details").is_some());
                found = true;
            }
        });
        assert!(found, "Exchange resolved to Shuffle with details");
    }

    #[test]
    fn round_trip_with_dialect_emitter() {
        use minidb::profile::EngineProfile;
        use minidb::Database;
        let mut db = Database::new(EngineProfile::Postgres);
        db.execute("CREATE TABLE t (k INT, v INT)").unwrap();
        for i in 0..20 {
            db.execute(&format!("INSERT INTO t VALUES ({}, {i})", i % 4))
                .unwrap();
        }
        let plan = db.explain("SELECT k, SUM(v) FROM t GROUP BY k").unwrap();
        let text = dialects::sparksql::to_text(&plan);
        let unified = convert(Source::SparkText, &text).unwrap();
        assert!(unified.operation_count() >= 5, "{text}");
    }

    #[test]
    fn rejects_empty() {
        assert!(convert(Source::SparkText, "").is_err());
        assert!(convert(Source::SparkText, "== Physical Plan ==\n").is_err());
    }
}
