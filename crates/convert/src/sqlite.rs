//! SQLite converter: `EXPLAIN QUERY PLAN` text → unified plans.
//!
//! EQP lines are free-form strings (the study: SQLite "defines operations as
//! strings that are passed to the query plan generation process"), so the
//! converter pattern-matches line heads: `SCAN t`, `SEARCH t USING ...`,
//! `USE TEMP B-TREE FOR ...`, compound-query connectors.

use uplan_core::{Error, PlanNode, Property, Result, UnifiedPlan};

use crate::spine::{configuration, declare_converter, NodeBuilder};
use crate::Source;

declare_converter!(
    /// `EXPLAIN QUERY PLAN` tree text.
    EqpConverter,
    Source::SqliteEqp,
    eqp_body,
    |input| {
        input.contains("|--")
            || input.contains("`--")
            || input
                .lines()
                .any(|l| l.starts_with("SCAN ") || l.starts_with("SEARCH "))
    }
);

fn eqp_body(input: &str, b: &mut NodeBuilder) -> Result<UnifiedPlan> {
    b.begin_tree();
    let mut parsed_any = false;

    for raw in input.lines() {
        let line = raw.trim_end();
        if line.is_empty() || line == "QUERY PLAN" {
            continue;
        }
        // Depth from the connector prefix: every level is 3 chars
        // (`|--`, `` `-- ``, `|  `, `   `).
        let mut depth = 0usize;
        let mut rest = line;
        loop {
            if let Some(r) = rest
                .strip_prefix("|--")
                .or_else(|| rest.strip_prefix("`--"))
            {
                depth += 1;
                rest = r;
                break;
            } else if let Some(r) = rest
                .strip_prefix("|  ")
                .or_else(|| rest.strip_prefix("   "))
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
        let node = parse_line(body, b);
        b.open_at_depth(depth, node);
        parsed_any = true;
    }
    if !parsed_any {
        return Err(Error::Semantic("no EQP lines found".into()));
    }

    // Sibling top-level steps (a flattened join): first drives the rest.
    let mut plan = UnifiedPlan::new();
    plan.root = b.end_tree_stitched();
    Ok(plan)
}

fn parse_line(body: &str, b: &NodeBuilder) -> PlanNode {
    // Strip trailing ordinals ("SCALAR SUBQUERY 1").
    let lookup_key: &str = body.trim_end_matches(|c: char| c.is_ascii_digit() || c == ' ');

    let mut properties: Vec<Property> = Vec::new();
    let op_name: &str;

    if let Some(rest) = body.strip_prefix("SCAN ") {
        op_name = "SCAN";
        properties.push(configuration(b.key_name_object, rest.trim()));
    } else if let Some(rest) = body.strip_prefix("SEARCH ") {
        let (table, using) = match rest.split_once(" USING ") {
            Some((t, u)) => (t.trim(), Some(u.trim())),
            None => (rest.trim(), None),
        };
        properties.push(configuration(b.key_name_object, table));
        if let Some(using) = using {
            if using.starts_with("AUTOMATIC COVERING INDEX") {
                op_name = "SEARCH USING AUTOMATIC COVERING INDEX";
                properties.push(Property::configuration("USING COVERING INDEX", using));
            } else if using.starts_with("COVERING INDEX") {
                op_name = "SEARCH";
                properties.push(Property::configuration("USING COVERING INDEX", using));
            } else if using.starts_with("INTEGER PRIMARY KEY") {
                op_name = "SEARCH";
                properties.push(Property::configuration("USING INTEGER PRIMARY KEY", using));
            } else {
                op_name = "SEARCH";
                properties.push(Property::configuration("USING INDEX", using));
            }
        } else {
            op_name = "SEARCH";
        }
    } else {
        op_name = lookup_key;
    }

    let mut node = b.op(op_name);
    node.properties = properties;
    node
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::convert;
    use uplan_core::OperationCategory;

    /// Paper Listing 1, lines 37–43.
    const LISTING1: &str = "\
`--COMPOUND QUERY
   |--LEFT-MOST SUBQUERY
   |  |--SCAN t0
   |  |--SEARCH t1 USING AUTOMATIC COVERING INDEX (c0=?)
   |  `--USE TEMP B-TREE FOR GROUP BY
   `--UNION USING TEMP B-TREE
      `--SEARCH t2 USING COVERING INDEX sqlite_autoindex_t2_1 (c0<?)
";

    #[test]
    fn listing1_structure() {
        let plan = convert(Source::SqliteEqp, LISTING1).unwrap();
        let root = plan.root.as_ref().unwrap();
        assert_eq!(root.operation.identifier, "Append");
        assert_eq!(root.operation.category, OperationCategory::Combinator);
        assert_eq!(root.children.len(), 2);
        let left = &root.children[0];
        assert_eq!(left.operation.identifier, "LEFT_MOST_SUBQUERY");
        assert_eq!(left.children.len(), 3);
        assert_eq!(left.children[0].operation.identifier, "Full_Table_Scan");
        assert_eq!(
            left.children[1].operation.identifier, "Index_only_Scan",
            "automatic covering index"
        );
        assert_eq!(
            left.children[2].operation.category,
            OperationCategory::Executor,
            "GROUP BY B-tree is an executor step"
        );
        assert_eq!(plan.operation_count(), 7);
    }

    #[test]
    fn table_names_become_properties() {
        let plan = convert(Source::SqliteEqp, LISTING1).unwrap();
        let mut tables = Vec::new();
        plan.walk(&mut |n| {
            if let Some(p) = n.property("name_object") {
                tables.push(p.value.to_string());
            }
        });
        assert_eq!(tables, ["t0", "t1", "t2"]);
    }

    #[test]
    fn flattened_join_lines() {
        let text = "|--SCAN t0\n`--SEARCH t1 USING INDEX i1 (c0=?)\n";
        let plan = convert(Source::SqliteEqp, text).unwrap();
        assert_eq!(plan.operation_count(), 2);
        let root = plan.root.unwrap();
        assert_eq!(root.operation.identifier, "Full_Table_Scan");
        assert_eq!(root.children.len(), 1);
    }

    #[test]
    fn round_trip_with_dialect_emitter() {
        use minidb::profile::EngineProfile;
        use minidb::Database;
        let mut db = Database::new(EngineProfile::Sqlite);
        db.execute("CREATE TABLE a (x INT)").unwrap();
        db.execute("CREATE TABLE b (x INT)").unwrap();
        db.execute("INSERT INTO a VALUES (1), (2)").unwrap();
        db.execute("INSERT INTO b VALUES (2), (3)").unwrap();
        let plan = db
            .explain("SELECT a.x FROM a JOIN b ON a.x = b.x ORDER BY a.x")
            .unwrap();
        let text = dialects::sqlite::to_text(&plan);
        let unified = convert(Source::SqliteEqp, &text).unwrap();
        let counts = uplan_core::stats::CategoryCounts::of(&unified);
        assert!(counts.get(&OperationCategory::Producer) >= 2, "{text}");
        assert!(
            counts.get(&OperationCategory::Executor) >= 1,
            "order-by B-tree: {text}"
        );
    }

    #[test]
    fn scalar_subquery_ordinals_strip() {
        let text = "|--SCAN t0\n`--SCALAR SUBQUERY 1\n   `--SCAN t1\n";
        let plan = convert(Source::SqliteEqp, text).unwrap();
        let mut names = Vec::new();
        plan.walk(&mut |n| names.push(n.operation.identifier));
        assert!(names.iter().any(|n| *n == "Subquery_Scan"), "{names:?}");
    }

    #[test]
    fn rejects_empty() {
        assert!(convert(Source::SqliteEqp, "").is_err());
        assert!(convert(Source::SqliteEqp, "QUERY PLAN\n").is_err());
    }
}
