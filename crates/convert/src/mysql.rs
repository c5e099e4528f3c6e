//! MySQL converter: `FORMAT=JSON` and the classic table → unified plans.

use uplan_core::formats::json::{JsonEvent, JsonReader};
use uplan_core::{Error, PlanNode, Property, Result, UnifiedPlan};

use crate::spine::{chain, declare_converter, pipe_cells, pipe_header, CellTrim, NodeBuilder};
use crate::Source;

declare_converter!(
    /// `EXPLAIN FORMAT=JSON`.
    ///
    /// The document streams through the zero-copy [`JsonReader`]: the
    /// recursive `query_block` dispatch is schema-directed, so no JSON tree
    /// is built — object keys and escape-free strings are spans of the
    /// input, and only property values are materialized (as borrowed
    /// scalars).
    JsonConverter,
    Source::MySqlJson,
    |input, b: &mut NodeBuilder| json_body(&mut JsonReader::new(input), b),
    |input| input.trim_start().starts_with('{') && input.contains("\"query_block\"")
);

declare_converter!(
    /// The classic `EXPLAIN` table (rows become a left-deep chain).
    TableConverter,
    Source::MySqlTable,
    table_body,
    |input| input.contains("select_type")
);

fn json_body<'a>(r: &mut JsonReader<'a>, b: &mut NodeBuilder) -> Result<UnifiedPlan> {
    if r.next_event()? != JsonEvent::ObjectStart {
        return Err(Error::Semantic("missing \"query_block\"".into()));
    }
    let mut children = Vec::new();
    let mut seen = false;
    while let Some(key) = r.next_key()? {
        if key == "query_block" && !seen {
            seen = true;
            if r.enter_object()? {
                block_members(r, b, None, &mut children)?;
            }
        } else {
            r.skip_value()?;
        }
    }
    r.finish()?;
    if !seen {
        return Err(Error::Semantic("missing \"query_block\"".into()));
    }
    let root = match children.len() {
        0 => return Err(Error::Semantic("empty query block".into())),
        1 => children.remove(0),
        // Multiple top-level members (e.g. main table + subqueries): stitch
        // under the first.
        _ => {
            let mut first = children.remove(0);
            first.children.extend(children);
            first
        }
    };
    Ok(UnifiedPlan::with_root(root))
}

/// Walks the members of a `query_block`-like object (its `ObjectStart`
/// already consumed): operation members become nodes in `children`, scalar
/// members become properties in `props` (when collecting — the top-level
/// query block drops its scalars), other containers are skipped.
fn block_members<'a>(
    r: &mut JsonReader<'a>,
    b: &NodeBuilder,
    mut props: Option<&mut Vec<Property>>,
    children: &mut Vec<PlanNode>,
) -> Result<()> {
    while let Some(key) = r.next_key()? {
        match key.as_ref() {
            "ordering_operation" | "grouping_operation" | "duplicates_removal" => {
                let mut node = b.op(key.as_ref());
                if r.enter_object()? {
                    let (node_props, node_children) = (&mut node.properties, &mut node.children);
                    block_members(r, b, Some(node_props), node_children)?;
                }
                children.push(node);
            }
            "nested_loop" => {
                // A vine of table accesses: join operations binarize it.
                if !matches!(r.peek_event()?, JsonEvent::ArrayStart) {
                    return Err(Error::Semantic("nested_loop must be an array".into()));
                }
                r.next_event()?;
                let mut tables = Vec::new();
                while r.array_next()? {
                    if r.next_event()? != JsonEvent::ObjectStart {
                        return Err(Error::Semantic("nested_loop item without table".into()));
                    }
                    let mut found = None;
                    while let Some(k) = r.next_key()? {
                        if k == "table" && found.is_none() {
                            found = Some(table_value(r, b)?);
                        } else {
                            r.skip_value()?;
                        }
                    }
                    tables.push(
                        found.ok_or_else(|| {
                            Error::Semantic("nested_loop item without table".into())
                        })?,
                    );
                }
                let join_template = b.op("Nested loop join");
                let mut iter = tables.into_iter();
                let first = iter
                    .next()
                    .ok_or_else(|| Error::Semantic("empty nested_loop".into()))?;
                let joined = iter.fold(first, |left, right| {
                    let mut join = PlanNode::new(join_template.operation);
                    join.children.push(left);
                    join.children.push(right);
                    join
                });
                children.push(joined);
            }
            "table" => children.push(table_value(r, b)?),
            "union_result" => {
                let mut node = b.op(key.as_ref());
                if r.enter_object()? {
                    while let Some(k) = r.next_key()? {
                        if k != "query_specifications" {
                            r.skip_value()?;
                        } else if r.enter_array()? {
                            while r.array_next()? {
                                if !r.enter_object()? {
                                    continue;
                                }
                                while let Some(sk) = r.next_key()? {
                                    if sk == "query_block" && r.enter_object()? {
                                        block_members(r, b, None, &mut node.children)?;
                                    } else if sk != "query_block" {
                                        r.skip_value()?;
                                    }
                                }
                            }
                        }
                    }
                }
                children.push(node);
            }
            k if k.starts_with("subquery") => {
                if r.enter_object()? {
                    while let Some(sk) = r.next_key()? {
                        if sk == "query_block" && r.enter_object()? {
                            block_members(r, b, None, children)?;
                        } else if sk != "query_block" {
                            r.skip_value()?;
                        }
                    }
                }
            }
            other => match r.peek_event()? {
                // Non-operation containers carry no plan structure.
                JsonEvent::ObjectStart | JsonEvent::ArrayStart => r.skip_value()?,
                _ => {
                    let value = r.read_value()?;
                    if let Some(props) = props.as_deref_mut() {
                        props.push(b.json_prop(other, &value));
                    }
                }
            },
        }
    }
    Ok(())
}

/// A table-access node from the value of a `"table"` member (the value's
/// start event not yet consumed).
fn table_value<'a>(r: &mut JsonReader<'a>, b: &NodeBuilder) -> Result<PlanNode> {
    if !r.enter_object()? {
        return Ok(b.op("ALL"));
    }
    // `access_type` may appear anywhere (first occurrence wins); property
    // order follows member order with `cost_info` expanded in place.
    let mut access: Option<String> = None;
    let mut properties = Vec::new();
    while let Some(key) = r.next_key()? {
        match key.as_ref() {
            "access_type" => match r.peek_event()? {
                JsonEvent::Str(_) => {
                    let JsonEvent::Str(name) = r.next_event()? else {
                        unreachable!("peeked a string");
                    };
                    if access.is_none() {
                        access = Some(name.into_owned());
                    }
                }
                _ => r.skip_value()?,
            },
            "cost_info" if matches!(r.peek_event()?, JsonEvent::ObjectStart) => {
                r.next_event()?;
                while let Some(ck) = r.next_key()? {
                    let value = r.read_value()?;
                    properties.push(b.json_prop(ck.as_ref(), &value));
                }
            }
            other => {
                let value = r.read_value()?;
                properties.push(b.json_prop(other, &value));
            }
        }
    }
    let mut node = b.op(access.as_deref().unwrap_or("ALL"));
    node.properties = properties;
    Ok(node)
}

fn table_body(input: &str, b: &mut NodeBuilder) -> Result<UnifiedPlan> {
    let mut header = Vec::new();
    let rows = pipe_header(input, CellTrim::Full, &mut header)
        .ok_or_else(|| Error::Semantic("no MySQL table rows found".into()))?;
    let type_col = header
        .iter()
        .position(|h| *h == "type")
        .ok_or_else(|| Error::Semantic("missing type column".into()))?;

    let mut nodes: Vec<PlanNode> = Vec::new();
    let mut cells = Vec::new();
    for line in rows {
        if !pipe_cells(line, CellTrim::Full, &mut cells) {
            continue;
        }
        let access = cells.get(type_col).copied().unwrap_or("ALL");
        let mut node = b.op(access);
        for (i, &cell) in cells.iter().enumerate() {
            if i == type_col || cell.is_empty() || cell == "NULL" {
                continue;
            }
            // Column headers normalize through the shared table
            // (`table` → `table_name`).
            let Some(key) = header.get(i) else { continue };
            node.properties.push(b.text_prop(key, cell));
        }
        nodes.push(node);
    }
    // Chain: each subsequent access is the inner side of the previous.
    let root = chain(nodes).ok_or_else(|| Error::Semantic("empty MySQL plan".into()))?;
    Ok(UnifiedPlan::with_root(root))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::convert;
    use minidb::profile::EngineProfile;
    use minidb::Database;
    use uplan_core::OperationCategory;

    fn db() -> Database {
        let mut db = Database::new(EngineProfile::MySql);
        db.execute("CREATE TABLE t0 (c0 INT, c1 INT)").unwrap();
        db.execute("CREATE TABLE t1 (c0 INT PRIMARY KEY)").unwrap();
        for i in 0..30 {
            db.execute(&format!("INSERT INTO t0 VALUES ({i}, {})", i % 3))
                .unwrap();
        }
        for i in 0..10 {
            db.execute(&format!("INSERT INTO t1 VALUES ({i})")).unwrap();
        }
        db
    }

    #[test]
    fn json_group_order_join_pipeline() {
        let mut db = db();
        let plan = db
            .explain(
                "SELECT t0.c0, COUNT(*) FROM t0 JOIN t1 ON t0.c0 = t1.c0 \
                 GROUP BY t0.c0 ORDER BY t0.c0",
            )
            .unwrap();
        let text = dialects::mysql::to_json(&plan);
        let unified = convert(Source::MySqlJson, &text).unwrap();
        let root = unified.root.as_ref().unwrap();
        assert_eq!(root.operation.identifier, "Sort");
        assert_eq!(root.operation.category, OperationCategory::Combinator);
        let grouping = &root.children[0];
        assert_eq!(grouping.operation.category, OperationCategory::Folder);
        let join = &grouping.children[0];
        assert_eq!(join.operation.category, OperationCategory::Join);
        assert_eq!(join.children.len(), 2);
        // Producers under the join.
        let counts = uplan_core::stats::CategoryCounts::of(&unified);
        assert_eq!(counts.get(&OperationCategory::Producer), 2);
        // MySQL shows no projector ops (paper Table VI row).
        assert_eq!(counts.get(&OperationCategory::Projector), 0);
    }

    #[test]
    fn table_format_chains_accesses() {
        let mut db = db();
        let plan = db
            .explain("SELECT t0.c0 FROM t0 JOIN t1 ON t0.c0 = t1.c0 WHERE t0.c1 < 2")
            .unwrap();
        let text = dialects::mysql::to_table(&plan);
        let unified = convert(Source::MySqlTable, &text).unwrap();
        assert_eq!(unified.operation_count(), 2);
        let root = unified.root.as_ref().unwrap();
        assert!(root.property("name_object").is_some(), "{root:?}");
    }

    #[test]
    fn fig2_simple_table() {
        // Paper Fig. 2's MySQL box: one SIMPLE row for t0.
        let text = "\
+----+-------------+-------+------+------+------+-------------+
| id | select_type | table | type | key  | rows | Extra       |
+----+-------------+-------+------+------+------+-------------+
|  1 | SIMPLE      | t0    | ALL  | NULL | 5    | Using where |
+----+-------------+-------+------+------+------+-------------+
";
        let unified = convert(Source::MySqlTable, text).unwrap();
        assert_eq!(unified.operation_count(), 1);
        let root = unified.root.unwrap();
        assert_eq!(root.operation.identifier, "Full_Table_Scan");
        assert_eq!(root.operation.category, OperationCategory::Producer);
    }

    #[test]
    fn union_and_subqueries() {
        let mut db = db();
        let plan = db
            .explain("SELECT c0 FROM t0 WHERE c0 > (SELECT COUNT(*) FROM t1)")
            .unwrap();
        let text = dialects::mysql::to_json(&plan);
        let unified = convert(Source::MySqlJson, &text).unwrap();
        // Main scan + subquery scan.
        let counts = uplan_core::stats::CategoryCounts::of(&unified);
        assert!(
            counts.get(&OperationCategory::Producer) >= 2,
            "{unified:#?}"
        );
    }

    #[test]
    fn rejects_garbage() {
        assert!(convert(Source::MySqlJson, "{}").is_err());
        assert!(convert(Source::MySqlJson, "[1]").is_err());
        assert!(convert(Source::MySqlTable, "").is_err());
    }
}
