//! The shared conversion spine: one [`SourceConverter`] surface and one
//! [`NodeBuilder`] for all nine dialects.
//!
//! Before this module existed, every converter carried its own copy of the
//! same mechanics: registry resolution boilerplate, an indentation-depth
//! stack rebuild loop, pipe-table cell splitting, per-dialect property-key
//! renames, and a private parsing discipline (tree JSON here, streaming
//! JSON there). The spine centralizes them:
//!
//! * [`SourceConverter`] — the one trait every dialect implements: a
//!   [`Source`] tag, a registry DBMS, a cheap format [`sniff`] (raw-dump
//!   ingest routes undeclared lines with it), and the conversion itself,
//!   run through a shared builder.
//! * [`NodeBuilder`] — the reusable conversion context: the study
//!   [`Registry`], the target [`Dbms`], pre-interned symbols for the
//!   generic configuration keys, and the reused depth-stack that rebuilds
//!   indentation trees (PostgreSQL text, TiDB tables, SQLite EQP,
//!   SparkSQL) without per-conversion allocations once warm.
//! * [`pipe_cells`] / [`chain`] / [`normalize_key`] — the pipe-table cell
//!   splitter, the left-deep row chainer, and the one property-key
//!   normalization table shared by the table dialects.
//!
//! Adding a tenth dialect is now a ~100-line module: implement
//! [`SourceConverter`], resolve names through the builder, and register the
//! unit struct in [`Source::converter`](crate::Source::converter).
//!
//! [`sniff`]: SourceConverter::sniff

use uplan_core::formats::json::JsonValue;
use uplan_core::registry::{Dbms, Registry};
use uplan_core::{
    Operation, PlanNode, Property, PropertyCategory, Result, Symbol, UnifiedPlan, Value,
};

use crate::util::{json_value, parse_value};
use crate::Source;

/// The converter surface every dialect implements.
///
/// Implementations are stateless unit structs; all mutable conversion state
/// lives in the [`NodeBuilder`], which batch ingest reuses across inputs.
pub trait SourceConverter: Sync {
    /// The source dialect this converter implements.
    fn source(&self) -> Source;

    /// The studied DBMS whose registry catalog resolves native names.
    fn dbms(&self) -> Dbms {
        self.source().dbms()
    }

    /// Cheap format sniff: `true` when `input` looks like this dialect's
    /// serialization. Raw-dump ingest routes undeclared lines through
    /// [`crate::detect`], which consults these in a most-distinctive-first
    /// order.
    fn sniff(&self, input: &str) -> bool;

    /// Converts one serialized plan through the shared builder.
    fn convert(&self, input: &str, builder: &mut NodeBuilder) -> Result<UnifiedPlan>;
}

/// Declares a unit-struct [`SourceConverter`]: name and doc line, the
/// [`Source`] it implements, the conversion body
/// (`fn(&str, &mut NodeBuilder) -> Result<UnifiedPlan>` or a closure of
/// that shape), and the sniff closure. This is the whole per-dialect
/// registration surface — a new dialect is one `declare_converter!` plus
/// its body.
macro_rules! declare_converter {
    ($(#[$doc:meta])* $name:ident, $source:expr, $body:expr, $sniff:expr) => {
        $(#[$doc])*
        pub struct $name;

        impl $crate::spine::SourceConverter for $name {
            fn source(&self) -> $crate::Source {
                $source
            }

            fn sniff(&self, input: &str) -> bool {
                let sniff: fn(&str) -> bool = $sniff;
                sniff(input)
            }

            fn convert(
                &self,
                input: &str,
                builder: &mut $crate::spine::NodeBuilder,
            ) -> uplan_core::Result<uplan_core::UnifiedPlan> {
                $body(input, builder)
            }
        }
    };
}
pub(crate) use declare_converter;

/// The one property-key normalization table: serialized table-column
/// headers and dialect spellings → the catalogued native property keys.
/// Every converter funnels keys through it (via
/// [`NodeBuilder::text_prop`]/[`NodeBuilder::json_prop`]), so a rename
/// lives in exactly one place.
const KEY_NORMALIZATION: &[(Dbms, &str, &str)] = &[
    (Dbms::MySql, "table", "table_name"),
    (Dbms::TiDb, "task", "taskType"),
    (Dbms::Neo4j, "Estimated Rows", "EstimatedRows"),
    (Dbms::Neo4j, "DB Hits", "DbHits"),
];

/// Normalizes a serialized property key to its catalogued native spelling.
pub fn normalize_key(dbms: Dbms, key: &str) -> &str {
    KEY_NORMALIZATION
        .iter()
        .find(|(d, from, _)| *d == dbms && *from == key)
        .map_or(key, |(_, _, to)| to)
}

/// The shared conversion context: registry access, the reused depth-stack
/// for indentation-tree rebuilds, and pre-interned symbols for the generic
/// configuration keys the text dialects attach outside the registry path.
///
/// One builder converts many plans: batch ingest keeps a builder per worker
/// thread and [`NodeBuilder::retarget`]s it per line, so the stack and root
/// vectors keep their capacity across conversions.
pub struct NodeBuilder {
    registry: &'static Registry,
    dbms: Dbms,
    /// Open nodes of an indentation-tree rebuild: `(depth, node)`.
    stack: Vec<(usize, PlanNode)>,
    /// Completed top-level nodes, in completion order.
    roots: Vec<PlanNode>,
    /// Pre-interned `name_object` (scanned table/collection).
    pub key_name_object: Symbol,
    /// Pre-interned `name_index` (index used by a scan).
    pub key_name_index: Symbol,
    /// Pre-interned `details` (free-form operator arguments).
    pub key_details: Symbol,
}

impl NodeBuilder {
    /// A builder resolving native names against `dbms`'s catalog.
    pub fn new(dbms: Dbms) -> NodeBuilder {
        NodeBuilder {
            registry: crate::registry(),
            dbms,
            stack: Vec::new(),
            roots: Vec::new(),
            key_name_object: Symbol::intern("name_object"),
            key_name_index: Symbol::intern("name_index"),
            key_details: Symbol::intern("details"),
        }
    }

    /// The DBMS this builder currently resolves against.
    pub fn dbms(&self) -> Dbms {
        self.dbms
    }

    /// Re-points the builder at another dialect (batch ingest reuses one
    /// builder per worker across mixed-source lines).
    pub fn retarget(&mut self, dbms: Dbms) {
        self.dbms = dbms;
        self.stack.clear();
        self.roots.clear();
    }

    /// The shared study registry.
    pub fn registry(&self) -> &'static Registry {
        self.registry
    }

    /// A node for a native operation name (registry-resolved, with the
    /// paper's generic Executor fallback for uncatalogued operations).
    pub fn op(&self, native: &str) -> PlanNode {
        let resolved = self
            .registry
            .resolve_operation_or_generic(self.dbms, native);
        PlanNode::new(Operation {
            category: resolved.category,
            identifier: resolved.unified,
        })
    }

    /// A property from a native key and its serialized text value
    /// (key normalized through the shared table, value typed by
    /// `parse_value`, Configuration fallback for uncatalogued keys).
    pub fn text_prop(&self, native_key: &str, text: &str) -> Property {
        let resolved = self
            .registry
            .resolve_property_or_generic(self.dbms, normalize_key(self.dbms, native_key));
        Property {
            category: resolved.category,
            identifier: resolved.unified,
            value: parse_value(text),
        }
    }

    /// A property from a native key and a parsed JSON value (containers
    /// flatten to compact text, as the paper keeps property values scalar).
    pub fn json_prop(&self, native_key: &str, value: &JsonValue<'_>) -> Property {
        let resolved = self
            .registry
            .resolve_property_or_generic(self.dbms, normalize_key(self.dbms, native_key));
        Property {
            category: resolved.category,
            identifier: resolved.unified,
            value: json_value(value),
        }
    }

    // -- indentation-tree rebuild ------------------------------------------

    /// Starts an indentation-tree rebuild (clears the reused state).
    pub fn begin_tree(&mut self) {
        self.stack.clear();
        self.roots.clear();
    }

    /// Closes open nodes at depths `>= depth`, then opens `node` at
    /// `depth` — the one stack discipline every indentation dialect shares.
    pub fn open_at_depth(&mut self, depth: usize, node: PlanNode) {
        self.close_to(depth);
        self.stack.push((depth, node));
    }

    fn close_to(&mut self, depth: usize) {
        while self.stack.last().is_some_and(|(d, _)| *d >= depth) {
            let (_, done) = self.stack.pop().expect("non-empty");
            match self.stack.last_mut() {
                Some((_, parent)) => parent.children.push(done),
                None => self.roots.push(done),
            }
        }
    }

    /// The innermost open node (property lines attach here), or `None`
    /// outside any node (plan-level properties).
    pub fn current(&mut self) -> Option<&mut PlanNode> {
        self.stack.last_mut().map(|(_, node)| node)
    }

    /// Ends the rebuild, keeping the *last* completed top-level node (the
    /// PostgreSQL/TiDB/SparkSQL discipline: a later top-level tree
    /// supersedes an earlier one).
    pub fn end_tree_last(&mut self) -> Option<PlanNode> {
        self.close_to(0);
        self.roots.drain(..).next_back()
    }

    /// Ends the rebuild, stitching sibling top-level nodes under the first
    /// (the SQLite discipline: flattened join steps drive left to right).
    pub fn end_tree_stitched(&mut self) -> Option<PlanNode> {
        self.close_to(0);
        let mut drain = self.roots.drain(..);
        let mut first = drain.next()?;
        first.children.extend(drain);
        Some(first)
    }
}

/// A configuration property with a pre-interned identifier (see the
/// `key_*` fields of [`NodeBuilder`]).
pub fn configuration(identifier: Symbol, value: impl Into<Value>) -> Property {
    Property {
        category: PropertyCategory::Configuration,
        identifier,
        value: value.into(),
    }
}

/// Cell-splitting discipline of a pipe-table dialect.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CellTrim {
    /// Trim both sides (MySQL tables, Neo4j operator tables).
    Full,
    /// Trim the trailing side only — leading spaces carry tree depth
    /// (TiDB's `id` column).
    TrailingOnly,
}

/// Splits a `| a | b |` row into `cells`, which it clears first and fills
/// with slices of `line`, so one vector serves every row of a table.
/// Returns `false`, leaving `cells` empty, for non-row lines (rules, prose,
/// blanks).
pub fn pipe_cells<'a>(line: &'a str, trim: CellTrim, cells: &mut Vec<&'a str>) -> bool {
    cells.clear();
    if !is_pipe_row(line) {
        return false;
    }
    cells.extend(
        line.trim()
            .trim_matches('|')
            .split('|')
            .map(|cell| match trim {
                CellTrim::Full => cell.trim(),
                CellTrim::TrailingOnly => cell.trim_end(),
            }),
    );
    true
}

fn is_pipe_row(line: &str) -> bool {
    line.trim().starts_with('|')
}

/// Reads the first row of a pipe table into `header` (see [`pipe_cells`])
/// and returns the lines after it; `None` unless another row follows the
/// header (MySQL classic tables, TiDB tables).
pub(crate) fn pipe_header<'a>(
    input: &'a str,
    trim: CellTrim,
    header: &mut Vec<&'a str>,
) -> Option<std::str::Lines<'a>> {
    let mut lines = input.lines();
    let found = lines.any(|line| pipe_cells(line, trim, header));
    (found && lines.clone().any(is_pipe_row)).then_some(lines)
}

/// Chains sibling rows into the left-deep pipeline the table dialects
/// print: the first row drives, each subsequent row is its input (MySQL
/// classic tables, Neo4j operator tables).
pub fn chain(rows: Vec<PlanNode>) -> Option<PlanNode> {
    let mut iter = rows.into_iter().rev();
    let mut root = iter.next()?;
    for mut node in iter {
        node.children.push(root);
        root = node;
    }
    Some(root)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn depth_stack_rebuilds_nested_trees() {
        let mut b = NodeBuilder::new(Dbms::PostgreSql);
        b.begin_tree();
        b.open_at_depth(0, PlanNode::executor("Root"));
        b.open_at_depth(1, PlanNode::executor("Mid"));
        b.open_at_depth(2, PlanNode::producer("Leaf_A"));
        b.open_at_depth(2, PlanNode::producer("Leaf_B"));
        b.open_at_depth(1, PlanNode::producer("Mid_Sibling"));
        let root = b.end_tree_last().unwrap();
        assert_eq!(root.operation.identifier.as_str(), "Root");
        assert_eq!(root.children.len(), 2);
        assert_eq!(root.children[0].children.len(), 2, "two leaves under Mid");
    }

    #[test]
    fn end_tree_last_keeps_the_last_top_level_node() {
        let mut b = NodeBuilder::new(Dbms::PostgreSql);
        b.begin_tree();
        b.open_at_depth(0, PlanNode::producer("First"));
        b.open_at_depth(0, PlanNode::producer("Second"));
        let root = b.end_tree_last().unwrap();
        assert_eq!(root.operation.identifier.as_str(), "Second");
        assert!(b.end_tree_last().is_none(), "state fully drained");
    }

    #[test]
    fn end_tree_stitched_drives_siblings_under_the_first() {
        let mut b = NodeBuilder::new(Dbms::Sqlite);
        b.begin_tree();
        b.open_at_depth(0, PlanNode::producer("First"));
        b.open_at_depth(0, PlanNode::producer("Second"));
        b.open_at_depth(0, PlanNode::producer("Third"));
        let root = b.end_tree_stitched().unwrap();
        assert_eq!(root.operation.identifier.as_str(), "First");
        assert_eq!(root.children.len(), 2);
    }

    #[test]
    fn key_normalization_is_per_dbms() {
        assert_eq!(normalize_key(Dbms::MySql, "table"), "table_name");
        assert_eq!(normalize_key(Dbms::PostgreSql, "table"), "table");
        assert_eq!(normalize_key(Dbms::Neo4j, "DB Hits"), "DbHits");
        assert_eq!(normalize_key(Dbms::TiDb, "task"), "taskType");
        assert_eq!(normalize_key(Dbms::TiDb, "estRows"), "estRows");
    }

    #[test]
    fn pipe_cells_split_per_discipline() {
        let mut cells = Vec::new();
        assert!(pipe_cells("| a  | b |", CellTrim::Full, &mut cells));
        assert_eq!(cells, ["a", "b"]);
        assert!(pipe_cells(
            "|  a  | b |",
            CellTrim::TrailingOnly,
            &mut cells
        ));
        assert_eq!(cells, ["  a", " b"]);
        assert!(!pipe_cells("+---+---+", CellTrim::Full, &mut cells));
        assert!(cells.is_empty());
        assert!(!pipe_cells("prose line", CellTrim::Full, &mut cells));
    }

    #[test]
    fn pipe_header_needs_a_row_after_the_header() {
        let mut header = Vec::new();
        let table = "+---+\n| id | type |\n+---+\n| 1  | ALL  |\n";
        let mut rows = pipe_header(table, CellTrim::Full, &mut header).unwrap();
        assert_eq!(header, ["id", "type"]);
        assert_eq!(rows.next(), Some("+---+"));
        for header_only in ["| id | type |\n+---+\n", "prose\n", ""] {
            assert!(pipe_header(header_only, CellTrim::Full, &mut header).is_none());
        }
    }

    #[test]
    fn chain_builds_a_left_deep_pipeline() {
        let rows = vec![
            PlanNode::executor("Top"),
            PlanNode::executor("Middle"),
            PlanNode::producer("Scan"),
        ];
        let root = chain(rows).unwrap();
        assert_eq!(root.operation.identifier.as_str(), "Top");
        assert_eq!(root.children[0].operation.identifier.as_str(), "Middle");
        assert_eq!(
            root.children[0].children[0].operation.identifier.as_str(),
            "Scan"
        );
        assert!(chain(Vec::new()).is_none());
    }

    #[test]
    fn builder_reuse_leaks_nothing_across_conversions() {
        let mut b = NodeBuilder::new(Dbms::TiDb);
        b.begin_tree();
        b.open_at_depth(0, PlanNode::producer("Stale"));
        // A converter that forgets to end its tree must not leak into the
        // next conversion after retargeting.
        b.retarget(Dbms::MySql);
        assert_eq!(b.dbms(), Dbms::MySql);
        b.begin_tree();
        assert!(b.current().is_none());
        assert!(b.end_tree_last().is_none());
    }
}
