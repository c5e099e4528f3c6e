//! Serializing [`UnifiedPlan`] into the structured formats, and back.
//!
//! The paper's design analysis (Section IV-B, *Completeness*) requires that
//! the unified representation "can be serialized into other standard formats,
//! such as JSON and XML". This module defines a stable JSON schema —
//!
//! ```json
//! {
//!   "uplan_version": 1,
//!   "tree": {
//!     "operation": {"category": "Join", "identifier": "Hash_Join"},
//!     "properties": [{"category": "Cardinality", "identifier": "rows", "value": 5}],
//!     "children": [ ... ]
//!   },
//!   "properties": [ ... ]
//! }
//! ```
//!
//! — plus a matching XML rendering and a YAML rendering of the same document.
//! JSON is fully round-trippable; unknown top-level members are ignored when
//! reading (forward compatibility).

use std::borrow::Cow;

use crate::error::{Error, Result};
use crate::formats::json::{self, JsonEvent, JsonReader, JsonValue};
use crate::formats::xml::XmlElement;
use crate::formats::yaml;
use crate::model::{
    Operation, OperationCategory, PlanNode, Property, PropertyCategory, UnifiedPlan,
};
use crate::value::Value;

/// Schema version written into every document.
pub const UPLAN_VERSION: i64 = 1;

// ---------------------------------------------------------------------------
// JSON
// ---------------------------------------------------------------------------

/// Serializes a plan to the unified JSON schema (pretty-printed).
pub fn to_json(plan: &UnifiedPlan) -> String {
    to_json_value(plan).to_pretty()
}

/// Serializes a plan to the unified JSON document model.
pub fn to_json_value(plan: &UnifiedPlan) -> JsonValue<'static> {
    let mut members: Vec<(Cow<'static, str>, JsonValue<'static>)> =
        vec![("uplan_version".into(), JsonValue::Int(UPLAN_VERSION))];
    if let Some(root) = &plan.root {
        members.push(("tree".into(), node_to_json(root)));
    }
    members.push(("properties".into(), properties_to_json(&plan.properties)));
    JsonValue::Object(members)
}

fn node_to_json(node: &PlanNode) -> JsonValue<'static> {
    let mut members: Vec<(Cow<'static, str>, JsonValue<'static>)> = vec![
        (
            "operation".into(),
            json::object([
                ("category", JsonValue::from(node.operation.category.name())),
                (
                    "identifier",
                    JsonValue::from(node.operation.identifier.as_str()),
                ),
            ]),
        ),
        ("properties".into(), properties_to_json(&node.properties)),
    ];
    if !node.children.is_empty() {
        members.push((
            "children".into(),
            JsonValue::Array(node.children.iter().map(node_to_json).collect()),
        ));
    }
    JsonValue::Object(members)
}

fn properties_to_json(properties: &[Property]) -> JsonValue<'static> {
    JsonValue::Array(
        properties
            .iter()
            .map(|p| {
                json::object([
                    ("category", JsonValue::from(p.category.name())),
                    ("identifier", JsonValue::from(p.identifier.as_str())),
                    ("value", value_to_json(&p.value)),
                ])
            })
            .collect(),
    )
}

fn value_to_json(value: &Value) -> JsonValue<'static> {
    match value {
        Value::Null => JsonValue::Null,
        Value::Bool(b) => JsonValue::Bool(*b),
        Value::Int(i) => JsonValue::Int(*i),
        Value::Float(f) => JsonValue::Float(*f),
        Value::Str(s) => JsonValue::from(s.clone()),
    }
}

/// Parses a unified JSON document back into a plan.
///
/// This walks the document through the zero-copy [`JsonReader`] — no JSON
/// tree is materialized, and escape-free identifiers/strings are handed to
/// the interner and value constructors as borrowed spans of `input`.
pub fn from_json(input: &str) -> Result<UnifiedPlan> {
    let mut r = JsonReader::new(input);
    read_plan(&mut r).and_then(|plan| r.finish().map(|()| plan))
}

/// Reads one unified JSON document, the next value of `r`, up to its
/// closing brace, leaving the rest of the input to the caller: a request
/// reads on after its `"probe"`. Schema faults are never [`Error::Parse`]
/// or [`Error::UnexpectedEof`]; only the reader raises those.
pub fn read_plan<'a>(r: &mut JsonReader<'a>) -> Result<UnifiedPlan> {
    if r.next_event()? != JsonEvent::ObjectStart {
        return Err(Error::Semantic(
            "unified JSON document must be an object".into(),
        ));
    }
    let mut root = None;
    let mut properties = None;
    while let Some(key) = r.next_key()? {
        match key.as_ref() {
            // Duplicate members resolve first-wins, like `JsonValue::get`.
            "tree" if root.is_none() => root = Some(read_node(r)?),
            "properties" if properties.is_none() => properties = Some(read_properties(r)?),
            // Unknown top-level members are ignored (forward compatibility).
            _ => r.skip_value()?,
        }
    }
    Ok(UnifiedPlan {
        root,
        properties: properties.unwrap_or_default(),
    })
}

fn read_node<'a>(r: &mut JsonReader<'a>) -> Result<PlanNode> {
    if r.next_event()? != JsonEvent::ObjectStart {
        return Err(Error::Semantic("plan node must be an object".into()));
    }
    let mut operation = None;
    let mut properties = None;
    let mut children = None;
    while let Some(key) = r.next_key()? {
        match key.as_ref() {
            // First-wins on duplicates, like `JsonValue::get`.
            "operation" if operation.is_none() => operation = Some(read_operation(r)?),
            "properties" if properties.is_none() => properties = Some(read_properties(r)?),
            "children" if children.is_none() => {
                if r.next_event()? != JsonEvent::ArrayStart {
                    return Err(Error::Semantic("\"children\" must be an array".into()));
                }
                let mut out = Vec::new();
                while r.array_next()? {
                    out.push(read_node(r)?);
                }
                children = Some(out);
            }
            _ => r.skip_value()?,
        }
    }
    let operation =
        operation.ok_or_else(|| Error::Semantic("plan node missing \"operation\"".into()))?;
    let mut node = PlanNode::new(operation);
    node.properties = properties.unwrap_or_default();
    node.children = children.unwrap_or_default();
    Ok(node)
}

fn read_operation<'a>(r: &mut JsonReader<'a>) -> Result<Operation> {
    if r.next_event()? != JsonEvent::ObjectStart {
        return Err(Error::Semantic("\"operation\" must be an object".into()));
    }
    let mut category = None;
    let mut identifier = None;
    while let Some(key) = r.next_key()? {
        match key.as_ref() {
            "category" if category.is_none() => category = Some(read_string(r, "category")?),
            "identifier" if identifier.is_none() => {
                identifier = Some(read_string(r, "identifier")?)
            }
            _ => r.skip_value()?,
        }
    }
    let category =
        category.ok_or_else(|| Error::Semantic("operation missing \"category\"".into()))?;
    let identifier =
        identifier.ok_or_else(|| Error::Semantic("operation missing \"identifier\"".into()))?;
    Operation::from_keyword(OperationCategory::parse(&category)?, &identifier)
}

fn read_string<'a>(r: &mut JsonReader<'a>, what: &str) -> Result<Cow<'a, str>> {
    match r.next_event()? {
        JsonEvent::Str(s) => Ok(s),
        _ => Err(Error::Semantic(format!("\"{what}\" must be a string"))),
    }
}

fn read_properties<'a>(r: &mut JsonReader<'a>) -> Result<Vec<Property>> {
    if r.next_event()? != JsonEvent::ArrayStart {
        return Err(Error::Semantic("\"properties\" must be an array".into()));
    }
    let mut out = Vec::new();
    while r.array_next()? {
        if r.next_event()? != JsonEvent::ObjectStart {
            return Err(Error::Semantic("properties must be objects".into()));
        }
        let mut category = None;
        let mut identifier = None;
        let mut value = None;
        while let Some(key) = r.next_key()? {
            match key.as_ref() {
                "category" if category.is_none() => category = Some(read_string(r, "category")?),
                "identifier" if identifier.is_none() => {
                    identifier = Some(read_string(r, "identifier")?)
                }
                "value" if value.is_none() => value = Some(json_to_value(r.read_value()?)?),
                _ => r.skip_value()?,
            }
        }
        let category =
            category.ok_or_else(|| Error::Semantic("property missing \"category\"".into()))?;
        let identifier =
            identifier.ok_or_else(|| Error::Semantic("property missing \"identifier\"".into()))?;
        let value = value.ok_or_else(|| Error::Semantic("property missing \"value\"".into()))?;
        out.push(Property {
            category: PropertyCategory::parse(&category)?,
            identifier: crate::Symbol::intern(crate::keyword::validate(&identifier)?),
            value,
        });
    }
    Ok(out)
}

fn json_to_value(v: JsonValue<'_>) -> Result<Value> {
    Ok(match v {
        JsonValue::Null => Value::Null,
        JsonValue::Bool(b) => Value::Bool(b),
        JsonValue::Int(i) => Value::Int(i),
        JsonValue::Float(f) => Value::Float(f),
        JsonValue::Str(s) => Value::Str(s.into_owned()),
        JsonValue::Array(_) | JsonValue::Object(_) => {
            return Err(Error::Semantic("property values must be scalars".into()))
        }
    })
}

// ---------------------------------------------------------------------------
// XML / YAML
// ---------------------------------------------------------------------------

/// Serializes a plan as an XML document.
pub fn to_xml(plan: &UnifiedPlan) -> String {
    to_xml_element(plan).to_document()
}

/// Serializes a plan to the XML element model.
pub fn to_xml_element(plan: &UnifiedPlan) -> XmlElement {
    let mut root = XmlElement::new("UnifiedPlan").with_attr("version", UPLAN_VERSION.to_string());
    if let Some(tree) = &plan.root {
        root = root.with_child(node_to_xml(tree));
    }
    for p in &plan.properties {
        root = root.with_child(property_to_xml(p));
    }
    root
}

fn node_to_xml(node: &PlanNode) -> XmlElement {
    let mut el = XmlElement::new("Node")
        .with_attr("category", node.operation.category.name())
        .with_attr("identifier", node.operation.identifier.as_str());
    for p in &node.properties {
        el = el.with_child(property_to_xml(p));
    }
    for child in &node.children {
        el = el.with_child(node_to_xml(child));
    }
    el
}

fn property_to_xml(p: &Property) -> XmlElement {
    // The value lives in an attribute: XML text content is whitespace-
    // normalized by parsers, attributes are not.
    let (type_name, text) = match &p.value {
        Value::Null => ("null", String::new()),
        Value::Bool(b) => ("boolean", b.to_string()),
        Value::Int(i) => ("number", i.to_string()),
        Value::Float(f) => ("number", format!("{f:?}")),
        Value::Str(s) => ("string", s.clone()),
    };
    XmlElement::new("Property")
        .with_attr("category", p.category.name())
        .with_attr("identifier", p.identifier.as_str())
        .with_attr("type", type_name)
        .with_attr("value", text)
}

/// Parses the XML produced by [`to_xml`] back into a plan.
pub fn from_xml(input: &str) -> Result<UnifiedPlan> {
    let root = crate::formats::xml::parse(input)?;
    if root.name != "UnifiedPlan" {
        return Err(Error::Semantic(format!(
            "expected <UnifiedPlan> root, found <{}>",
            root.name
        )));
    }
    let mut plan = UnifiedPlan::new();
    for child in &root.children {
        match child.name.as_str() {
            "Node" => {
                if plan.root.is_some() {
                    return Err(Error::Semantic("multiple <Node> roots".into()));
                }
                plan.root = Some(node_from_xml(child)?);
            }
            "Property" => plan.properties.push(property_from_xml(child)?),
            other => return Err(Error::Semantic(format!("unexpected element <{other}>"))),
        }
    }
    Ok(plan)
}

fn node_from_xml(el: &XmlElement) -> Result<PlanNode> {
    let category = el
        .attr("category")
        .ok_or_else(|| Error::Semantic("<Node> missing category".into()))?;
    let identifier = el
        .attr("identifier")
        .ok_or_else(|| Error::Semantic("<Node> missing identifier".into()))?;
    let mut node = PlanNode::new(Operation::from_keyword(
        OperationCategory::parse(category)?,
        identifier,
    )?);
    for child in &el.children {
        match child.name.as_str() {
            "Property" => node.properties.push(property_from_xml(child)?),
            "Node" => node.children.push(node_from_xml(child)?),
            other => return Err(Error::Semantic(format!("unexpected element <{other}>"))),
        }
    }
    Ok(node)
}

fn property_from_xml(el: &XmlElement) -> Result<Property> {
    let category = el
        .attr("category")
        .ok_or_else(|| Error::Semantic("<Property> missing category".into()))?;
    let identifier = el
        .attr("identifier")
        .ok_or_else(|| Error::Semantic("<Property> missing identifier".into()))?;
    let type_name = el.attr("type").unwrap_or("string");
    let raw = el.attr("value").unwrap_or(&el.text);
    let value = match type_name {
        "null" => Value::Null,
        "boolean" => Value::Bool(raw == "true"),
        "number" => {
            if raw.contains(['.', 'e', 'E']) {
                Value::Float(
                    raw.parse()
                        .map_err(|_| Error::Semantic(format!("bad number {raw:?}")))?,
                )
            } else {
                Value::Int(
                    raw.parse()
                        .map_err(|_| Error::Semantic(format!("bad number {raw:?}")))?,
                )
            }
        }
        "string" => Value::Str(raw.to_owned()),
        other => return Err(Error::Semantic(format!("unknown property type {other:?}"))),
    };
    Ok(Property {
        category: PropertyCategory::parse(category)?,
        identifier: crate::Symbol::intern(crate::keyword::validate(identifier)?),
        value,
    })
}

/// Serializes a plan as YAML (via the JSON document model).
pub fn to_yaml(plan: &UnifiedPlan) -> String {
    yaml::to_yaml(&to_json_value(plan))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> UnifiedPlan {
        let scan = PlanNode::producer("Full_Table_Scan")
            .with_property(Property::configuration("name_object", "t0"))
            .with_property(Property::cardinality("rows", 1000))
            .with_property(Property::cost("total_cost", 35.5))
            .with_property(Property::status("parallel", false));
        let join = PlanNode::join("Hash_Join").with_child(scan).with_child(
            PlanNode::executor("Hash_Row").with_child(PlanNode::producer("Index_Scan")),
        );
        UnifiedPlan::with_root(join)
            .with_plan_property(Property::status("planning_time_ms", 0.124))
            .with_plan_property(Property::status("nothing", Value::Null))
    }

    #[test]
    fn json_round_trip() {
        let plan = sample();
        assert_eq!(from_json(&to_json(&plan)).unwrap(), plan);
    }

    #[test]
    fn json_round_trip_properties_only() {
        let plan = UnifiedPlan::properties_only(vec![Property::cardinality("series", 5)]);
        assert_eq!(from_json(&to_json(&plan)).unwrap(), plan);
    }

    #[test]
    fn json_schema_shape() {
        let doc = to_json_value(&sample());
        assert_eq!(doc.get("uplan_version").unwrap().as_int(), Some(1));
        let tree = doc.get("tree").unwrap();
        assert_eq!(
            tree.get("operation")
                .unwrap()
                .get("identifier")
                .unwrap()
                .as_str(),
            Some("Hash_Join")
        );
        assert_eq!(tree.get("children").unwrap().as_array().unwrap().len(), 2);
    }

    #[test]
    fn json_ignores_unknown_members_forward_compatibly() {
        let doc = r#"{"uplan_version": 99, "future_field": [1,2], "properties": []}"#;
        let plan = from_json(doc).unwrap();
        assert!(plan.root.is_none());
        assert!(plan.properties.is_empty());
    }

    #[test]
    fn duplicate_members_resolve_first_wins_on_both_paths() {
        // A whole document and the same document embedded in a request
        // body (read by `read_plan`, which stops at the plan's closing
        // brace) must agree with `JsonValue::get` (first match) when the
        // document carries duplicate keys.
        let doc = r#"{"uplan_version": 1,
            "tree": {"operation": {"category": "Producer", "identifier": "A",
                                   "identifier": "B"},
                     "properties": []},
            "tree": {"operation": {"category": "Producer", "identifier": "C"},
                     "properties": []},
            "properties": []}"#;
        let streamed = from_json(doc).unwrap();
        let body = format!(r#"{{"probe": {doc}, "k": 1}}"#);
        let mut r = JsonReader::new(&body);
        assert_eq!(r.next_event().unwrap(), JsonEvent::ObjectStart);
        assert_eq!(r.next_key().unwrap().as_deref(), Some("probe"));
        let embedded = read_plan(&mut r).unwrap();
        assert_eq!(r.next_key().unwrap().as_deref(), Some("k"));
        assert_eq!(streamed, embedded);
        assert_eq!(
            streamed.root.unwrap().operation.identifier.as_str(),
            "A",
            "first duplicate wins"
        );
    }

    #[test]
    fn json_rejects_structural_values() {
        let doc = r#"{"properties": [{"category": "Cost", "identifier": "c", "value": [1]}]}"#;
        assert!(from_json(doc).is_err());
    }

    #[test]
    fn json_rejects_missing_operation() {
        let doc = r#"{"tree": {"properties": []}, "properties": []}"#;
        assert!(from_json(doc).is_err());
        assert!(from_json("[1]").is_err());
    }

    #[test]
    fn xml_round_trip() {
        let plan = sample();
        assert_eq!(from_xml(&to_xml(&plan)).unwrap(), plan);
    }

    #[test]
    fn xml_round_trip_properties_only() {
        let plan = UnifiedPlan::properties_only(vec![
            Property::status("ok", true),
            Property::cost("x", 1.5),
        ]);
        assert_eq!(from_xml(&to_xml(&plan)).unwrap(), plan);
    }

    #[test]
    fn xml_rejects_foreign_roots() {
        assert!(from_xml("<Other/>").is_err());
    }

    #[test]
    fn yaml_contains_expected_keys() {
        let yaml = to_yaml(&sample());
        assert!(yaml.starts_with("---\n"));
        assert!(yaml.contains("uplan_version: 1"));
        assert!(yaml.contains("identifier: Hash_Join"));
    }
}
