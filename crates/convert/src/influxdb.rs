//! InfluxDB converter: the property-only `EXPLAIN` list → unified plans.
//!
//! Produces the tree-less case of the unified grammar
//! (`plan ::= (tree)? properties`) the paper designed for InfluxDB.

use uplan_core::{Error, Result, UnifiedPlan};

use crate::spine::{declare_converter, NodeBuilder};
use crate::Source;

declare_converter!(
    /// The property-only `EXPLAIN` list.
    TextConverter,
    Source::InfluxText,
    text_body,
    |input| input.contains("EXPRESSION:")
);

fn text_body(input: &str, b: &mut NodeBuilder) -> Result<UnifiedPlan> {
    let mut plan = UnifiedPlan::new();
    for line in input.lines() {
        let trimmed = line.trim();
        if trimmed.is_empty() || trimmed == "QUERY PLAN" || trimmed.chars().all(|c| c == '-') {
            continue;
        }
        let Some((key, value)) = trimmed.split_once(':') else {
            return Err(Error::Semantic(format!("unparseable line {trimmed:?}")));
        };
        plan.properties.push(b.text_prop(key.trim(), value));
    }
    if plan.properties.is_empty() {
        return Err(Error::Semantic("no properties found".into()));
    }
    Ok(plan)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::convert;
    use uplan_core::PropertyCategory;

    #[test]
    fn property_only_plan() {
        let stats = dialects::influxdb::InfluxStats::synthetic(2, 10);
        let text = dialects::influxdb::to_text(&stats);
        let plan = convert(Source::InfluxText, &text).unwrap();
        assert!(plan.root.is_none(), "InfluxDB plans have no tree");
        assert!(plan.properties.len() >= 6);
        let series = plan.plan_property("NUMBER_OF_SERIES").unwrap();
        assert_eq!(series.category, PropertyCategory::Cardinality);
        assert_eq!(series.value, uplan_core::Value::Int(10));
        // Round-trips through the strict unified text grammar.
        let serialized = uplan_core::text::to_text(&plan);
        assert_eq!(uplan_core::text::from_text(&serialized).unwrap(), plan);
    }

    #[test]
    fn rejects_garbage() {
        assert!(convert(Source::InfluxText, "").is_err());
        assert!(convert(Source::InfluxText, "not a property line").is_err());
    }
}
