//! MongoDB converter: `explain()` JSON → unified plans.

use uplan_core::formats::json::{JsonEvent, JsonReader};
use uplan_core::{Error, PlanNode, Result, UnifiedPlan};

use crate::spine::{declare_converter, NodeBuilder};
use crate::Source;

declare_converter!(
    /// `explain()` JSON (the `queryPlanner.winningPlan` vine).
    ///
    /// The document streams through the zero-copy [`JsonReader`]: the
    /// stage vine is schema-directed, so no JSON tree is materialized.
    JsonConverter,
    Source::MongoJson,
    |input, b: &mut NodeBuilder| json_body(&mut JsonReader::new(input), b),
    |input| input.trim_start().starts_with('{') && input.contains("\"queryPlanner\"")
);

fn json_body<'a>(r: &mut JsonReader<'a>, b: &mut NodeBuilder) -> Result<UnifiedPlan> {
    if r.next_event()? != JsonEvent::ObjectStart {
        return Err(Error::Semantic("missing \"queryPlanner\"".into()));
    }
    let mut plan = UnifiedPlan::new();
    let mut root = None;
    let mut planner_seen = false;
    while let Some(key) = r.next_key()? {
        match key.as_ref() {
            "queryPlanner" if !planner_seen => {
                planner_seen = true;
                if !r.enter_object()? {
                    continue;
                }
                while let Some(k) = r.next_key()? {
                    match k.as_ref() {
                        "winningPlan" if root.is_none() => root = Some(stage_value(r, b)?),
                        // Duplicate winners and rejected plans carry no
                        // plan-associated properties.
                        "winningPlan" | "rejectedPlans" => r.skip_value()?,
                        other => {
                            let value = r.read_value()?;
                            plan.properties.push(b.json_prop(other, &value));
                        }
                    }
                }
            }
            "executionStats" => {
                if r.enter_object()? {
                    while let Some(k) = r.next_key()? {
                        let value = r.read_value()?;
                        plan.properties.push(b.json_prop(k.as_ref(), &value));
                    }
                }
            }
            _ => r.skip_value()?,
        }
    }
    r.finish()?;
    if !planner_seen {
        return Err(Error::Semantic("missing \"queryPlanner\"".into()));
    }
    plan.root = Some(root.ok_or_else(|| Error::Semantic("missing \"winningPlan\"".into()))?);
    Ok(plan)
}

/// A stage node from the value of a `winningPlan`/`inputStage` member (the
/// value's start event not yet consumed).
fn stage_value<'a>(r: &mut JsonReader<'a>, b: &NodeBuilder) -> Result<PlanNode> {
    if r.next_event()? != JsonEvent::ObjectStart {
        return Err(Error::Semantic("stage without \"stage\" member".into()));
    }
    let mut name: Option<String> = None;
    let mut properties = Vec::new();
    let mut children = Vec::new();
    while let Some(key) = r.next_key()? {
        match key.as_ref() {
            // The stage name identifies the operation (first occurrence
            // wins) and is never a property.
            "stage" => match r.peek_event()? {
                JsonEvent::Str(_) => {
                    let JsonEvent::Str(s) = r.next_event()? else {
                        unreachable!("peeked a string");
                    };
                    if name.is_none() {
                        name = Some(s.into_owned());
                    }
                }
                _ => r.skip_value()?,
            },
            "inputStage" => children.push(stage_value(r, b)?),
            "inputStages" => {
                if r.enter_array()? {
                    while r.array_next()? {
                        children.push(stage_value(r, b)?);
                    }
                }
            }
            other => {
                let value = r.read_value()?;
                properties.push(b.json_prop(other, &value));
            }
        }
    }
    let name = name.ok_or_else(|| Error::Semantic("stage without \"stage\" member".into()))?;
    let mut node = b.op(&name);
    node.properties = properties;
    node.children = children;
    Ok(node)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::convert;
    use minidoc::{Condition, DocStore, FilterOp, Request};
    use uplan_core::formats::json::{self, JsonValue};
    use uplan_core::OperationCategory;

    fn store() -> DocStore {
        let mut store = DocStore::new();
        let c = store.collection_mut("lineitem");
        for i in 0..20i64 {
            c.insert(json::object([
                ("_id", JsonValue::Int(i)),
                ("qty", JsonValue::Int(i % 5)),
                ("flag", JsonValue::from(if i % 2 == 0 { "A" } else { "B" })),
            ]));
        }
        store
    }

    #[test]
    fn collscan_projection_shape() {
        // The paper's Table VI MongoDB row: producer + projector = 2 ops.
        let store = store();
        let request = Request {
            collection: "lineitem".into(),
            filter: vec![],
            projection: Some(vec!["flag".into(), "qty".into()]),
            sort: None,
            limit: None,
            group: Some(minidoc::GroupSpec {
                key: Some("flag".into()),
                accumulators: vec![("total".into(), minidoc::Accumulator::Sum("qty".into()))],
            }),
        };
        let (_, doc_plan) = store.find(&request);
        let unified = convert(Source::MongoJson, &dialects::mongodb::to_json(&doc_plan)).unwrap();
        assert_eq!(unified.operation_count(), 2);
        let counts = uplan_core::stats::CategoryCounts::of(&unified);
        assert_eq!(counts.get(&OperationCategory::Producer), 1);
        assert_eq!(counts.get(&OperationCategory::Projector), 1);
        // optimizedPipeline surfaces as a plan property.
        assert!(unified.plan_property("optimizedPipeline").is_some());
    }

    #[test]
    fn ixscan_fetch_vine() {
        let mut store = store();
        store.collection_mut("lineitem").create_index("flag");
        let request = Request {
            collection: "lineitem".into(),
            filter: vec![Condition {
                field: "flag".into(),
                op: FilterOp::Eq,
                value: JsonValue::from("A"),
            }],
            ..Request::default()
        };
        let (_, doc_plan) = store.find(&request);
        let unified = convert(Source::MongoJson, &dialects::mongodb::to_json(&doc_plan)).unwrap();
        let root = unified.root.as_ref().unwrap();
        assert_eq!(root.operation.identifier, "Document_Fetch");
        assert_eq!(root.children[0].operation.identifier, "Index_Scan");
        // Execution stats become plan properties with study categories.
        let actual = unified.plan_property("actual_rows").unwrap();
        assert_eq!(actual.category, uplan_core::PropertyCategory::Cardinality);
    }

    #[test]
    fn idhack_single_op() {
        let mut store = store();
        store.collection_mut("lineitem").create_index("_id");
        let request = Request {
            collection: "lineitem".into(),
            filter: vec![Condition {
                field: "_id".into(),
                op: FilterOp::Eq,
                value: JsonValue::Int(3),
            }],
            ..Request::default()
        };
        let (_, doc_plan) = store.find(&request);
        let unified = convert(Source::MongoJson, &dialects::mongodb::to_json(&doc_plan)).unwrap();
        assert_eq!(unified.operation_count(), 1, "YCSB point-read shape");
        assert_eq!(
            unified.root.as_ref().unwrap().operation.identifier,
            "Index_Seek"
        );
    }

    #[test]
    fn rejects_non_explain_json() {
        assert!(convert(Source::MongoJson, "{}").is_err());
        assert!(convert(Source::MongoJson, "{\"queryPlanner\": {}}").is_err());
        assert!(convert(
            Source::MongoJson,
            "{\"queryPlanner\": {\"winningPlan\": {}}}"
        )
        .is_err());
    }
}
