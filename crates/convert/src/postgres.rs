//! PostgreSQL converter: `EXPLAIN` text and `FORMAT JSON` → unified plans.

use uplan_core::formats::json::{JsonEvent, JsonReader};
use uplan_core::{Error, PlanNode, Property, Result, UnifiedPlan};

use crate::spine::{configuration, declare_converter, NodeBuilder};
use crate::util::parse_value;
use crate::Source;

declare_converter!(
    /// `EXPLAIN`/`EXPLAIN ANALYZE` text.
    TextConverter,
    Source::PostgresText,
    text_body,
    |input| input.contains("(cost=")
);

declare_converter!(
    /// `EXPLAIN (FORMAT JSON)`.
    ///
    /// The document is walked through the zero-copy streaming
    /// [`JsonReader`] — no JSON tree is materialized for the plan skeleton;
    /// only property *values* are read as (borrowed) values before
    /// conversion.
    JsonConverter,
    Source::PostgresJson,
    |input, b: &mut NodeBuilder| json_body(&mut JsonReader::new(input), b),
    |input| input.trim_start().starts_with('[')
);

fn text_body(input: &str, b: &mut NodeBuilder) -> Result<UnifiedPlan> {
    let mut plan = UnifiedPlan::new();
    b.begin_tree();

    for raw in input.lines() {
        if raw.trim().is_empty() {
            continue;
        }
        let indent = raw.len() - raw.trim_start().len();
        let line = raw.trim();

        // Plan-level footers.
        if indent == 0
            && (line.starts_with("Planning Time:") || line.starts_with("Execution Time:"))
        {
            let (key, value) = line.split_once(':').expect("checked");
            plan.properties
                .push(b.text_prop(key, value.trim().trim_end_matches(" ms")));
            continue;
        }

        if line.contains("(cost=") {
            let body = line.trim_start_matches("->").trim_start();
            let depth = indent / 2;
            let (head, costs) = body
                .split_once("(cost=")
                .ok_or_else(|| Error::Semantic(format!("node line without cost: {line:?}")))?;
            let mut node = parse_head(head.trim(), b);
            // cost=a..b rows=n width=w
            let costs_text = costs.split(')').next().unwrap_or("");
            for part in costs_text.split_whitespace() {
                // The `cost=` prefix was consumed by the split above, so the
                // first token is the bare `a..b` range.
                if let Some((a, b)) = part
                    .strip_prefix("cost=")
                    .unwrap_or(part)
                    .split_once("..")
                    .filter(|(a, _)| a.parse::<f64>().is_ok())
                {
                    node.properties
                        .push(Property::cost("startup_cost", parse_value(a)));
                    node.properties
                        .push(Property::cost("total_cost", parse_value(b)));
                } else if let Some(rows) = part.strip_prefix("rows=") {
                    node.properties
                        .push(Property::cardinality("rows", parse_value(rows)));
                } else if let Some(width) = part.strip_prefix("width=") {
                    node.properties
                        .push(Property::cardinality("width", parse_value(width)));
                }
            }
            if let Some(actual) = line.split("(actual ").nth(1) {
                for part in actual.trim_end_matches(')').split_whitespace() {
                    if let Some(rows) = part.strip_prefix("rows=") {
                        node.properties
                            .push(Property::cardinality("actual_rows", parse_value(rows)));
                    } else if let Some(time) = part.strip_prefix("time=") {
                        if let Some((_, total)) = time.split_once("..") {
                            node.properties
                                .push(Property::cost("actual_time_ms", parse_value(total)));
                        }
                    }
                }
            }
            b.open_at_depth(depth, node);
        } else {
            // Property line: `Key: value`.
            let Some((key, value)) = line.split_once(':') else {
                return Err(Error::Semantic(format!("unparseable line {line:?}")));
            };
            let property = b.text_prop(key.trim(), value);
            match b.current() {
                Some(node) => node.properties.push(property),
                None => plan.properties.push(property),
            }
        }
    }
    plan.root = b.end_tree_last();
    if plan.root.is_none() {
        return Err(Error::Semantic("no plan nodes found".into()));
    }
    Ok(plan)
}

/// Parses `Name [using idx] [on table]` into an operation node.
fn parse_head(head: &str, b: &NodeBuilder) -> PlanNode {
    let mut name = head;
    let mut index = None;
    let mut table = None;
    if let Some((n, rest)) = head.split_once(" using ") {
        name = n;
        match rest.split_once(" on ") {
            Some((idx, tbl)) => {
                index = Some(idx.trim());
                table = Some(tbl.trim());
            }
            None => index = Some(rest.trim()),
        }
    } else if let Some((n, tbl)) = head.split_once(" on ") {
        name = n;
        table = Some(tbl.trim());
    }
    let mut node = b.op(name.trim());
    if let Some(t) = table {
        node.properties.push(configuration(b.key_name_object, t));
    }
    if let Some(i) = index {
        node.properties.push(configuration(b.key_name_index, i));
    }
    node
}

fn json_body<'a>(r: &mut JsonReader<'a>, b: &mut NodeBuilder) -> Result<UnifiedPlan> {
    if r.next_event()? != JsonEvent::ArrayStart || !r.array_next()? {
        return Err(Error::Semantic("expected a one-element JSON array".into()));
    }
    if r.next_event()? != JsonEvent::ObjectStart {
        return Err(Error::Semantic("missing \"Plan\" member".into()));
    }
    let mut root = None;
    let mut properties = Vec::new();
    while let Some(key) = r.next_key()? {
        if key == "Plan" {
            if root.is_some() {
                // Duplicate "Plan" members: first-wins.
                r.skip_value()?;
                continue;
            }
            root = Some(node_from_events(r, b)?);
        } else {
            let value = r.read_value()?;
            properties.push(b.json_prop(key.as_ref(), &value));
        }
    }
    // Real `EXPLAIN (FORMAT JSON)` emits one statement per element; extra
    // statements are tolerated and ignored.
    while r.array_next()? {
        r.skip_value()?;
    }
    r.finish()?;
    let root = root.ok_or_else(|| Error::Semantic("missing \"Plan\" member".into()))?;
    let mut plan = UnifiedPlan::with_root(root);
    plan.properties = properties;
    Ok(plan)
}

fn node_from_events<'a>(r: &mut JsonReader<'a>, b: &NodeBuilder) -> Result<PlanNode> {
    if r.next_event()? != JsonEvent::ObjectStart {
        return Err(Error::Semantic("plan node missing \"Node Type\"".into()));
    }
    let mut operation = None;
    let mut properties = Vec::new();
    let mut children = Vec::new();
    while let Some(key) = r.next_key()? {
        match key.as_ref() {
            "Node Type" if operation.is_some() => r.skip_value()?,
            "Node Type" => match r.next_event()? {
                JsonEvent::Str(name) => operation = Some(b.op(name.as_ref()).operation),
                _ => return Err(Error::Semantic("plan node missing \"Node Type\"".into())),
            },
            "Plans" => {
                // Non-array `Plans` carries no children.
                if r.enter_array()? {
                    while r.array_next()? {
                        children.push(node_from_events(r, b)?);
                    }
                }
            }
            other => {
                let value = r.read_value()?;
                properties.push(b.json_prop(other, &value));
            }
        }
    }
    let operation =
        operation.ok_or_else(|| Error::Semantic("plan node missing \"Node Type\"".into()))?;
    let mut node = PlanNode::new(operation);
    node.properties = properties;
    node.children = children;
    Ok(node)
}

#[cfg(test)]
mod tests {
    use crate::{convert, Source};
    use uplan_core::OperationCategory;

    /// Paper Listing 1 (PostgreSQL side), abbreviated but structurally
    /// faithful.
    const LISTING1: &str = "\
HashAggregate  (cost=62998.82..63009.32 rows=1050 width=4)
      Group Key: t1.c0
  ->  Append  (cost=27150.40..62996.20 rows=1050 width=4)
    ->  Group  (cost=27150.40..62949.08 rows=200 width=4)
          Group Key: t1.c0
      ->  Gather Merge  (cost=27150.40..62948.08 rows=400 width=4)
            Workers Planned: 2
        ->  Group  (cost=26150.38..61901.89 rows=200 width=4)
              Group Key: t1.c0
          ->  Merge Join  (cost=26150.38..56906.48 rows=100 width=4)
                Merge Cond: (t0.c0 = t1.c0)
            ->  Sort  (cost=25970.60..26362.39 rows=10 width=4)
                  Sort Key: t0.c0
              ->  Seq Scan on t0  (cost=0.00..17.50 rows=10 width=4)
                    Filter: (c0 < 100)
            ->  Sort  (cost=179.78..186.16 rows=2550 width=4)
                  Sort Key: t1.c0
              ->  Seq Scan on t1  (cost=0.00..35.50 rows=2550 width=4)
    ->  Bitmap Heap Scan on t2  (cost=10.74..31.37 rows=9 width=4)
          Recheck Cond: (c0 < 10)
      ->  Bitmap Index Scan on t2_pkey  (cost=0.00..8.50 rows=9 width=4)
            Index Cond: (c0 < 10)
Planning Time: 0.124 ms
";

    #[test]
    fn listing1_structure() {
        let plan = convert(Source::PostgresText, LISTING1).unwrap();
        let root = plan.root.as_ref().unwrap();
        assert_eq!(root.operation.identifier, "Hash_Aggregate");
        assert_eq!(root.operation.category, OperationCategory::Folder);
        assert_eq!(root.children.len(), 1, "Append under the aggregate");
        let append = &root.children[0];
        assert_eq!(append.operation.identifier, "Append");
        assert_eq!(append.operation.category, OperationCategory::Combinator);
        assert_eq!(append.children.len(), 2, "group branch + bitmap branch");
        assert_eq!(plan.operation_count(), 12);
        // Plan-level property.
        let planning = plan.plan_property("planning_time_ms").unwrap();
        assert_eq!(planning.value, uplan_core::Value::Float(0.124));
    }

    #[test]
    fn listing1_category_census() {
        use uplan_core::stats::CategoryCounts;
        let plan = convert(Source::PostgresText, LISTING1).unwrap();
        let counts = CategoryCounts::of(&plan);
        // Producers: Seq Scan ×2, Bitmap Heap Scan, Bitmap Index Scan.
        assert_eq!(counts.get(&OperationCategory::Producer), 4);
        // Combinators: Append, Sort ×2.
        assert_eq!(counts.get(&OperationCategory::Combinator), 3);
        assert_eq!(counts.get(&OperationCategory::Join), 1);
        // Folders: HashAggregate, Group ×2.
        assert_eq!(counts.get(&OperationCategory::Folder), 3);
        // Executors: Gather Merge.
        assert_eq!(counts.get(&OperationCategory::Executor), 1);
    }

    #[test]
    fn properties_are_classified() {
        let plan = convert(Source::PostgresText, LISTING1).unwrap();
        let root = plan.root.as_ref().unwrap();
        let group_key = root.property("group_key").unwrap();
        assert_eq!(
            group_key.category,
            uplan_core::PropertyCategory::Configuration
        );
        let rows = root.property("rows").unwrap();
        assert_eq!(rows.category, uplan_core::PropertyCategory::Cardinality);
        let cost = root.property("total_cost").unwrap();
        assert_eq!(cost.category, uplan_core::PropertyCategory::Cost);
        // Workers Planned → Status (paper's Listing 1 walkthrough).
        let mut found_status = false;
        plan.walk(&mut |n| {
            if let Some(p) = n.property("workers_planned") {
                assert_eq!(p.category, uplan_core::PropertyCategory::Status);
                found_status = true;
            }
        });
        assert!(found_status);
    }

    #[test]
    fn round_trip_with_dialect_emitter() {
        use minidb::profile::EngineProfile;
        use minidb::Database;
        let mut db = Database::new(EngineProfile::Postgres);
        db.execute("CREATE TABLE t (x INT, y INT)").unwrap();
        for i in 0..30 {
            db.execute(&format!("INSERT INTO t VALUES ({i}, {})", i % 3))
                .unwrap();
        }
        let plan = db
            .explain("SELECT y, COUNT(*) FROM t WHERE x < 20 GROUP BY y ORDER BY y")
            .unwrap();
        let text = dialects::postgres::to_text(&plan);
        let unified = convert(Source::PostgresText, &text).unwrap();
        assert!(unified.operation_count() >= 3, "{text}");

        let json_text = dialects::postgres::to_json(&plan);
        let unified_json = convert(Source::PostgresJson, &json_text).unwrap();
        // Text hides some structure (it's optimized for humans, paper
        // Section III-E): both parse, JSON carries at least as many ops.
        assert!(unified_json.operation_count() >= unified.operation_count());
    }

    #[test]
    fn json_rejects_wrong_shape() {
        assert!(convert(Source::PostgresJson, "{}").is_err());
        assert!(convert(Source::PostgresJson, "[{}]").is_err());
        assert!(convert(Source::PostgresJson, "[{\"Plan\": {\"no_node_type\": 1}}]").is_err());
    }

    #[test]
    fn text_rejects_garbage() {
        assert!(convert(Source::PostgresText, "").is_err());
        assert!(convert(Source::PostgresText, "complete nonsense\n").is_err());
    }

    #[test]
    fn unknown_operations_fall_back_to_executor() {
        let text = "Quantum Scan on t0  (cost=0.00..1.00 rows=1 width=4)\n";
        let plan = convert(Source::PostgresText, text).unwrap();
        let root = plan.root.unwrap();
        assert_eq!(root.operation.category, OperationCategory::Executor);
        assert_eq!(root.operation.identifier, "Quantum_Scan");
    }
}
