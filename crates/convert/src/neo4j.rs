//! Neo4j converter: the operator table (paper Fig. 1) → unified plans.
//!
//! "Each line in the table represents an operation and associated
//! properties, and the content outside the table is plan-associated
//! properties" — exactly how this converter splits its input.

use uplan_core::{Error, PlanNode, Result, UnifiedPlan};

use crate::spine::{chain, declare_converter, pipe_cells, CellTrim, NodeBuilder};
use crate::Source;

declare_converter!(
    /// The rendered operator table.
    TableConverter,
    Source::Neo4jTable,
    table_body,
    |input| input.contains("| Operator")
);

fn table_body(input: &str, b: &mut NodeBuilder) -> Result<UnifiedPlan> {
    let mut plan = UnifiedPlan::new();
    let mut header: Option<Vec<&str>> = None;
    let mut cells = Vec::new();
    let mut operators: Vec<PlanNode> = Vec::new();

    for line in input.lines() {
        let trimmed = line.trim();
        if trimmed.is_empty()
            || trimmed.starts_with('+')
                && trimmed.ends_with('+')
                && trimmed.chars().all(|c| matches!(c, '+' | '-'))
        {
            continue;
        }
        if pipe_cells(trimmed, CellTrim::Full, &mut cells) {
            match &header {
                None => header = Some(std::mem::take(&mut cells)),
                Some(columns) => {
                    let name = cells
                        .first()
                        .map(|c| c.trim_start_matches('+').trim())
                        .filter(|c| !c.is_empty())
                        .ok_or_else(|| Error::Semantic("operator row without name".into()))?;
                    let mut node = b.op(name);
                    for (i, cell) in cells.iter().enumerate().skip(1) {
                        if cell.is_empty() {
                            continue;
                        }
                        // Table-column headers map to the catalogued
                        // property names through the shared table
                        // (`Estimated Rows` → `EstimatedRows`, …).
                        let key = columns.get(i).copied().unwrap_or("Details");
                        node.properties.push(b.text_prop(key, cell));
                    }
                    operators.push(node);
                }
            }
            continue;
        }
        // Header/footer text outside the table → plan properties.
        if let Some((key, value)) = trimmed.split_once(':') {
            push_plan_prop(&mut plan, key, value, b);
            // The footer packs two metrics into one line.
            if let Some((_, mem)) = trimmed.split_once(", total allocated memory:") {
                push_plan_prop(&mut plan, "total allocated memory", mem, b);
            }
        } else if let Some((key, value)) = trimmed.split_once(' ') {
            push_plan_prop(&mut plan, key, value, b);
        }
    }

    if operators.is_empty() {
        return Err(Error::Semantic("no Neo4j operator rows found".into()));
    }
    // The table is a pipeline: first row (ProduceResults) is the root.
    plan.root = chain(operators);
    Ok(plan)
}

/// Header/footer lines: `Planner COST`, `Total database accesses: 5, …`.
fn push_plan_prop(plan: &mut UnifiedPlan, key: &str, value: &str, b: &NodeBuilder) {
    let key = key.trim();
    let value = value.trim().split(',').next().unwrap_or("").trim();
    if key.is_empty() || value.is_empty() {
        return;
    }
    plan.properties.push(b.text_prop(key, value));
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::convert;
    use uplan_core::OperationCategory;

    /// Paper Fig. 1 (structure-faithful rendering).
    const FIG1: &str = "\
Planner COST
Runtime PIPELINED
Runtime version 5.10

+--------------------------------------------+----------------+------+---------+
| Operator                                   | Estimated Rows | Rows | DB Hits |
+--------------------------------------------+----------------+------+---------+
| +ProduceResults                            | 8              | 8    | 0       |
| +UndirectedRelationshipIndexContainsScan   | 8              | 8    | 5       |
+--------------------------------------------+----------------+------+---------+

Total database accesses: 5, total allocated memory: 184
";

    #[test]
    fn fig1_conversion() {
        let plan = convert(Source::Neo4jTable, FIG1).unwrap();
        let root = plan.root.as_ref().unwrap();
        assert_eq!(root.operation.identifier, "Produce_Results");
        assert_eq!(root.operation.category, OperationCategory::Executor);
        let scan = &root.children[0];
        // The paper: "the operation UndirectedRelationshipIndexContainsScan
        // belongs to Join".
        assert_eq!(scan.operation.category, OperationCategory::Join);
        assert_eq!(plan.operation_count(), 2);
        // Estimated rows classified Cardinality.
        let est = root.property("rows").unwrap();
        assert_eq!(est.category, uplan_core::PropertyCategory::Cardinality);
        assert_eq!(est.value, uplan_core::Value::Int(8));
    }

    #[test]
    fn header_footer_become_plan_properties() {
        let plan = convert(Source::Neo4jTable, FIG1).unwrap();
        assert!(plan.plan_property("Planner").is_some());
        let accesses = plan.plan_property("Total_database_accesses").unwrap();
        assert_eq!(accesses.value, uplan_core::Value::Int(5));
        let memory = plan.plan_property("total_allocated_memory").unwrap();
        assert_eq!(memory.value, uplan_core::Value::Int(184));
    }

    #[test]
    fn round_trip_with_minigraph() {
        use minigraph::{GraphStore, PatternQuery, PropPredicate, PropValue};
        let mut g = GraphStore::new();
        let a = g.add_node(&["P"], vec![]);
        let b = g.add_node(&["P"], vec![]);
        for i in 0..4 {
            g.add_rel(
                a,
                b,
                "R",
                vec![("title", PropValue::Str(format!("t{i} developer")))],
            );
        }
        let (_, graph_plan) = g.run(&PatternQuery {
            rel_type: Some("R".into()),
            undirected: true,
            rel_predicates: vec![PropPredicate::EndsWith("title".into(), "developer".into())],
            ..PatternQuery::default()
        });
        let text = dialects::neo4j::to_table(&graph_plan);
        let unified = convert(Source::Neo4jTable, &text).unwrap();
        let counts = uplan_core::stats::CategoryCounts::of(&unified);
        assert!(counts.get(&OperationCategory::Join) >= 1, "{text}");
        assert!(counts.get(&OperationCategory::Executor) >= 1, "{text}");
    }

    #[test]
    fn rejects_tableless_input() {
        assert!(convert(Source::Neo4jTable, "").is_err());
        assert!(convert(Source::Neo4jTable, "Planner COST\n").is_err());
    }
}
