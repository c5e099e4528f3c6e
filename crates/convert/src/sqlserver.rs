//! SQL Server converter: XML showplan → unified plans.

use uplan_core::formats::xml::{self, XmlElement};
use uplan_core::{Error, PlanNode, Result, UnifiedPlan};

use crate::spine::{declare_converter, NodeBuilder};
use crate::Source;

declare_converter!(
    /// A `<ShowPlanXML>` document.
    ///
    /// XML showplans are genuinely tree-shaped, so this converter walks the
    /// parsed [`XmlElement`] tree — the shared borrowed-tree discipline,
    /// rather than a streaming one.
    XmlConverter,
    Source::SqlServerXml,
    xml_body,
    |input| input.trim_start().starts_with('<') && input.contains("ShowPlanXML")
);

fn xml_body(input: &str, b: &mut NodeBuilder) -> Result<UnifiedPlan> {
    let doc = xml::parse(input)?;
    if !doc.name.ends_with("ShowPlanXML") {
        return Err(Error::Semantic(format!(
            "expected <ShowPlanXML>, found <{}>",
            doc.name
        )));
    }
    let mut plan = UnifiedPlan::new();

    // Find the first RelOp under QueryPlan, collecting plan-level attrs.
    let mut rel_roots: Vec<PlanNode> = Vec::new();
    visit_query_plans(&doc, b, &mut plan, &mut rel_roots)?;
    match rel_roots.len() {
        0 => Err(Error::Semantic("no <RelOp> elements found".into())),
        1 => {
            plan.root = Some(rel_roots.remove(0));
            Ok(plan)
        }
        _ => {
            // Main plan + subplans: attach the rest under the first.
            let mut root = rel_roots.remove(0);
            root.children.extend(rel_roots);
            plan.root = Some(root);
            Ok(plan)
        }
    }
}

fn visit_query_plans(
    el: &XmlElement,
    b: &NodeBuilder,
    plan: &mut UnifiedPlan,
    roots: &mut Vec<PlanNode>,
) -> Result<()> {
    if el.name == "QueryPlan" {
        for (key, value) in &el.attributes {
            plan.properties.push(b.text_prop(key, value));
        }
        for child in el.children_named("RelOp") {
            roots.push(rel_op_node(child, b)?);
        }
        return Ok(());
    }
    for child in &el.children {
        visit_query_plans(child, b, plan, roots)?;
    }
    Ok(())
}

fn rel_op_node(el: &XmlElement, b: &NodeBuilder) -> Result<PlanNode> {
    let physical = el
        .attr("PhysicalOp")
        .ok_or_else(|| Error::Semantic("<RelOp> missing PhysicalOp".into()))?;
    let mut node = b.op(physical);
    for (key, value) in &el.attributes {
        if key == "PhysicalOp" {
            continue;
        }
        node.properties.push(b.text_prop(key, value));
    }
    for child in &el.children {
        if child.name == "RelOp" {
            node.children.push(rel_op_node(child, b)?);
        } else {
            // Child elements (Predicate, OutputList, Object, ...) become
            // properties; Object carries its table in an attribute.
            let value = if child.name == "Object" {
                child.attr("Table").unwrap_or("").to_owned()
            } else {
                child.text.clone()
            };
            if !value.is_empty() {
                node.properties.push(b.text_prop(&child.name, &value));
            }
        }
    }
    Ok(node)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::convert;
    use minidb::profile::EngineProfile;
    use minidb::Database;
    use uplan_core::OperationCategory;

    fn plan_xml(sql: &str) -> String {
        let mut db = Database::new(EngineProfile::Postgres);
        db.execute("CREATE TABLE t (x INT PRIMARY KEY, y INT)")
            .unwrap();
        for i in 0..30 {
            db.execute(&format!("INSERT INTO t VALUES ({i}, {})", i % 3))
                .unwrap();
        }
        let plan = db.explain(sql).unwrap();
        dialects::sqlserver::to_xml(&plan)
    }

    #[test]
    fn showplan_conversion() {
        let text = plan_xml("SELECT y, COUNT(*) FROM t WHERE x < 20 GROUP BY y");
        let plan = convert(Source::SqlServerXml, &text).unwrap();
        assert!(plan.operation_count() >= 2, "{text}");
        let counts = uplan_core::stats::CategoryCounts::of(&plan);
        assert!(counts.get(&OperationCategory::Producer) >= 1);
        assert!(counts.get(&OperationCategory::Folder) >= 1);
        // The paper's Section IV-A naming example: SQL Server "Table Scan"
        // (or seek) maps into the unified scan names.
        let mut scan_names = Vec::new();
        plan.walk(&mut |n| {
            if n.operation.category == OperationCategory::Producer {
                scan_names.push(n.operation.identifier);
            }
        });
        assert!(
            scan_names
                .iter()
                .all(|n| n.as_str().contains("Scan") || n.as_str().contains("Seek")),
            "{scan_names:?}"
        );
    }

    #[test]
    fn estimate_rows_classified_cardinality() {
        let text = plan_xml("SELECT x FROM t WHERE x = 3");
        let plan = convert(Source::SqlServerXml, &text).unwrap();
        let root = plan.root.as_ref().unwrap();
        let find = |node: &uplan_core::PlanNode, key: &str| node.property(key).map(|p| p.category);
        let mut checked = false;
        plan.walk(&mut |n| {
            if let Some(cat) = find(n, "rows") {
                assert_eq!(cat, uplan_core::PropertyCategory::Cardinality);
                checked = true;
            }
        });
        assert!(checked, "{root:?}");
        assert!(plan.plan_property("planning_time_ms").is_some());
    }

    #[test]
    fn rejects_foreign_xml() {
        assert!(convert(Source::SqlServerXml, "<Other/>").is_err());
        assert!(convert(Source::SqlServerXml, "not xml").is_err());
        assert!(convert(Source::SqlServerXml, "<ShowPlanXML></ShowPlanXML>").is_err());
    }
}
