//! # The unified query vocabulary: one request, one response, one entry point
//!
//! Every way of interrogating a corpus — k-NN, radius, clustering, stats —
//! is a [`QueryRequest`] executed by [`ShardedCorpus::execute`], the one
//! public query entry point, answering with a [`QueryResponse`] that has a
//! stable JSON wire form (the same bytes over HTTP and from
//! `repro corpus query --json`). The `uplan-serve` daemon, the CLI, the
//! benches and library callers all speak this schema. Behind it each query
//! kind has one corpus walk over one BK traversal: radius queries,
//! clustering and budgeted queries share the radius walk, and every k-NN
//! query runs the k-NN walk.
//!
//! Every query runs on the thread that executes it. Two request knobs
//! matter beyond the query parameters themselves:
//!
//! * **`max_ted_evals`** is a per-request *counted-TED budget* in the
//!   spirit of the paper's evaluation-count discipline: the traversal
//!   stops before the evaluation that would exceed the budget and the
//!   request fails with [`QueryError::BudgetExceeded`] — a distinct,
//!   machine-readable outcome (HTTP 422 on the wire) rather than a
//!   silently partial answer.
//! * **`mode`** selects between the default [`QueryMode::Exact`] answer
//!   and [`QueryMode::Approx`], which generates a candidate shortlist by
//!   feature-vector distance (see [`crate::features`]) and re-ranks only
//!   those candidates with exact TED. Approximate mode is k-NN-only and
//!   incompatible with a counted-TED budget (its evaluation count is
//!   bounded by the candidate count already).
//!
//! Every response carries a [`QueryCost`] breakdown — evaluations
//! started, how many of those the early-exit kernel abandoned, and the
//! candidate-set size for approximate queries — with an exact JSON
//! round-trip, so the CLI, the HTTP handlers and CI gates all read the
//! same numbers.

use std::fmt;
use std::sync::{Arc, OnceLock};

use uplan_core::formats::json::{
    object, JsonEvent, JsonMembers, JsonReader, JsonValue, OwnedJsonValue,
};
use uplan_core::formats::unified;
use uplan_core::UnifiedPlan;
use uplan_obs::{trace, Counter, Histogram, Level};

use crate::{Cluster, CorpusStats, Matches, ShardedCorpus};

/// Global-registry handles for the query path, one member per
/// [`QueryKind`] wire name (index via [`QueryKind::metric_index`]).
struct QueryMetrics {
    /// `uplan_corpus_queries_total{kind}` — executed requests.
    requests: [Arc<Counter>; 4],
    /// `uplan_corpus_query_ted_evals{kind}` — counted TED evaluations per
    /// answered request (the BK-traversal work actually done).
    ted_evals: [Arc<Histogram>; 4],
    /// `uplan_corpus_query_prune_x{kind}` — corpus size over counted
    /// evals: how many× the triangle-inequality pruning shrank the scan
    /// (1 = none; only recorded when a request evaluated anything).
    prune_x: [Arc<Histogram>; 4],
    /// `uplan_query_partial_evals_total{kind}` — evaluations the
    /// early-exit kernel abandoned past the bound (pruned-but-visited
    /// nodes paying a partial dynamic program instead of a full one).
    partial_evals: [Arc<Counter>; 4],
    /// `uplan_query_candidate_set_size{kind}` — shortlist size of
    /// approximate queries (recorded only when a candidate set was built).
    candidate_set_size: [Arc<Histogram>; 4],
}

const QUERY_KIND_NAMES: [&str; 4] = ["knn", "radius", "cluster", "stats"];

fn query_metrics() -> &'static QueryMetrics {
    static METRICS: OnceLock<QueryMetrics> = OnceLock::new();
    METRICS.get_or_init(|| {
        let registry = uplan_obs::global();
        QueryMetrics {
            requests: QUERY_KIND_NAMES.map(|kind| {
                registry.counter_with(
                    "uplan_corpus_queries_total",
                    "corpus queries executed, by kind",
                    &[("kind", kind)],
                )
            }),
            ted_evals: QUERY_KIND_NAMES.map(|kind| {
                registry.histogram_with(
                    "uplan_corpus_query_ted_evals",
                    "counted TED evaluations per answered query",
                    &[("kind", kind)],
                )
            }),
            prune_x: QUERY_KIND_NAMES.map(|kind| {
                registry.histogram_with(
                    "uplan_corpus_query_prune_x",
                    "corpus size over counted TED evaluations (BK prune factor)",
                    &[("kind", kind)],
                )
            }),
            partial_evals: QUERY_KIND_NAMES.map(|kind| {
                registry.counter_with(
                    "uplan_query_partial_evals_total",
                    "TED evaluations abandoned early by the bounded kernel",
                    &[("kind", kind)],
                )
            }),
            candidate_set_size: QUERY_KIND_NAMES.map(|kind| {
                registry.histogram_with(
                    "uplan_query_candidate_set_size",
                    "candidate shortlist size of approximate queries",
                    &[("kind", kind)],
                )
            }),
        }
    })
}

/// Candidate-shortlist size approximate queries use when the request does
/// not say (`QueryMode::Approx { candidates: 0 }` or an absent
/// `"candidates"` member). Tuned on the 10k TPC-H-derived fixture: recall
/// ≥ 0.95 against exact k-NN while cutting full TED evaluations well over
/// 5× (the `repro corpus recall` CI gate re-measures both).
pub const DEFAULT_APPROX_CANDIDATES: usize = 96;

/// How a k-NN query trades accuracy for work.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QueryMode {
    /// The exact answer via the BK-tree traversal (the default).
    Exact,
    /// Approximate: shortlist `candidates` plans by feature-vector
    /// distance, re-rank the shortlist with exact TED. `candidates == 0`
    /// means [`DEFAULT_APPROX_CANDIDATES`]. k-NN only.
    Approx {
        /// Shortlist size (0 = default).
        candidates: usize,
    },
}

impl QueryMode {
    /// The wire name (`"exact"` / `"approx"`).
    pub fn name(&self) -> &'static str {
        match self {
            QueryMode::Exact => "exact",
            QueryMode::Approx { .. } => "approx",
        }
    }
}

/// What a [`QueryRequest`] asks of the corpus.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum QueryKind {
    /// The `k` stored plans nearest to the probe.
    Knn {
        /// How many neighbors to return.
        k: usize,
    },
    /// All stored plans within `radius` tree edits of the probe.
    Radius {
        /// Inclusive TED radius.
        radius: u32,
    },
    /// Greedy leader clustering of the whole corpus at `radius`.
    Cluster {
        /// Inclusive TED radius members must lie within of their leader.
        radius: u32,
    },
    /// Aggregate corpus statistics.
    Stats,
}

impl QueryKind {
    /// The wire name (`"knn"`, `"radius"`, `"cluster"`, `"stats"`).
    pub fn name(&self) -> &'static str {
        match self {
            QueryKind::Knn { .. } => "knn",
            QueryKind::Radius { .. } => "radius",
            QueryKind::Cluster { .. } => "cluster",
            QueryKind::Stats => "stats",
        }
    }

    /// Index into the per-kind metric arrays ([`QUERY_KIND_NAMES`] order).
    fn metric_index(&self) -> usize {
        match self {
            QueryKind::Knn { .. } => 0,
            QueryKind::Radius { .. } => 1,
            QueryKind::Cluster { .. } => 2,
            QueryKind::Stats => 3,
        }
    }
}

/// One corpus query: what to ask ([`QueryKind`]), what to ask it about
/// (the probe plan, for k-NN and radius), and how to run it (counted-TED
/// budget, mode). Built with the `QueryRequest::knn(5)`-style
/// constructors plus `with_*` chainers; executed by
/// [`ShardedCorpus::execute`].
#[derive(Debug, Clone, PartialEq)]
pub struct QueryRequest {
    /// The query itself.
    pub kind: QueryKind,
    /// Counted-TED budget: the query fails with
    /// [`QueryError::BudgetExceeded`] rather than spend more evaluations
    /// than this. Only k-NN and radius queries accept a budget.
    pub max_ted_evals: Option<u64>,
    /// Exact (default) or approximate answer — see [`QueryMode`].
    pub mode: QueryMode,
    /// The probe plan (required by k-NN and radius queries).
    pub probe: Option<UnifiedPlan>,
}

impl QueryRequest {
    fn with_kind(kind: QueryKind) -> QueryRequest {
        QueryRequest {
            kind,
            max_ted_evals: None,
            mode: QueryMode::Exact,
            probe: None,
        }
    }

    /// A k-nearest-neighbors request (probe still required).
    pub fn knn(k: usize) -> QueryRequest {
        QueryRequest::with_kind(QueryKind::Knn { k })
    }

    /// A radius request (probe still required).
    pub fn radius(radius: u32) -> QueryRequest {
        QueryRequest::with_kind(QueryKind::Radius { radius })
    }

    /// A whole-corpus clustering request.
    pub fn cluster(radius: u32) -> QueryRequest {
        QueryRequest::with_kind(QueryKind::Cluster { radius })
    }

    /// A stats request.
    pub fn stats() -> QueryRequest {
        QueryRequest::with_kind(QueryKind::Stats)
    }

    /// Sets the probe plan.
    pub fn with_probe(mut self, probe: UnifiedPlan) -> QueryRequest {
        self.probe = Some(probe);
        self
    }

    /// Sets the counted-TED budget.
    pub fn with_eval_budget(mut self, max_ted_evals: u64) -> QueryRequest {
        self.max_ted_evals = Some(max_ted_evals);
        self
    }

    /// Sets the query mode.
    pub fn with_mode(mut self, mode: QueryMode) -> QueryRequest {
        self.mode = mode;
        self
    }

    /// Shorthand for approximate mode with a shortlist of `candidates`
    /// (0 = [`DEFAULT_APPROX_CANDIDATES`]).
    pub fn approx(self, candidates: usize) -> QueryRequest {
        self.with_mode(QueryMode::Approx { candidates })
    }

    /// The request as its JSON wire object (the body `uplan-serve`
    /// accepts).
    pub fn to_json_value(&self) -> OwnedJsonValue {
        let mut members: Vec<(&'static str, OwnedJsonValue)> =
            vec![("query", JsonValue::from(self.kind.name()))];
        match self.kind {
            QueryKind::Knn { k } => members.push(("k", JsonValue::from(k))),
            QueryKind::Radius { radius } | QueryKind::Cluster { radius } => {
                members.push(("radius", JsonValue::from(radius as usize)))
            }
            QueryKind::Stats => {}
        }
        if let Some(budget) = self.max_ted_evals {
            members.push(("max_ted_evals", int(budget)));
        }
        if let QueryMode::Approx { candidates } = self.mode {
            members.push(("mode", JsonValue::from("approx")));
            if candidates != 0 {
                members.push(("candidates", JsonValue::from(candidates)));
            }
        }
        if let Some(probe) = &self.probe {
            members.push(("probe", unified::to_json_value(probe)));
        }
        object(members)
    }

    /// Parses a request from JSON text: [`QueryRequest::from_body`]
    /// without a raw-probe converter, so `"probe_raw"` is an unknown member.
    pub fn from_json(text: &str, kind: Option<&str>) -> Result<QueryRequest, QueryError> {
        QueryRequest::from_body(text, kind, None)
    }

    /// [`QueryRequest::from_json`] of a parsed tree's serialization. Its one
    /// caller is perfbench's `corpus.request_decode_us` row, which times
    /// pre-parsed trees; it goes when that row times body text.
    pub fn from_json_value(
        doc: &JsonValue<'_>,
        kind: Option<&str>,
    ) -> Result<QueryRequest, QueryError> {
        QueryRequest::from_json(&doc.to_compact(), kind)
    }

    /// The request decoder: one [`JsonReader`] pass that decodes `"probe"`
    /// inline. `"probe_raw"`, one raw dump record, is a member only with a
    /// `convert_raw`, which turns it into the probe plan or the message of
    /// a [`QueryError::BadProbe`]. `kind` overrides an absent `"query"`
    /// member (HTTP handlers know the kind from the path; a present member
    /// must agree). Duplicate members are first-wins. Faults are ranked
    /// after the scan, whatever the member order: a syntax error anywhere
    /// ([`QueryError::Syntax`]), then the raw probe's
    /// ([`QueryError::BadProbe`]), then a non-object body, an unknown
    /// member, `"query"`, `"k"`/`"radius"`, `"mode"`/`"candidates"`, the
    /// probe, and `"max_ted_evals"` last.
    pub fn from_body(
        text: &str,
        kind: Option<&str>,
        convert_raw: Option<RawProbeConverter>,
    ) -> Result<QueryRequest, QueryError> {
        let scanned = scan_request(text).map_err(|e| QueryError::Syntax(e.to_string()))?;
        let malformed = |m: &str| QueryError::Malformed(m.to_string());
        let Some((members, probe)) = scanned else {
            return Err(malformed("request body is not a JSON object"));
        };
        let probes = members
            .iter()
            .filter(|(k, _)| k == "probe" || k == "probe_raw")
            .count();
        // First-wins, like `JsonValue::get`.
        let get = |name: &str| members.iter().find(|(key, _)| key == name).map(|(_, v)| v);
        let bad_probe = |m: &str| Err(QueryError::BadProbe(m.to_string()));
        let raw_probe = match (get("probe_raw"), convert_raw) {
            (Some(_), Some(_)) if probes > 1 => {
                return bad_probe(
                    "send one probe: \"probe\" and \"probe_raw\" are mutually exclusive",
                )
            }
            (Some(JsonValue::Str(record)), Some(convert)) => {
                Some(convert(record).map_err(QueryError::BadProbe)?)
            }
            (Some(_), Some(_)) => return bad_probe("\"probe_raw\" is not a string"),
            _ => None,
        };
        for (key, _) in &members {
            let known = matches!(
                key.as_ref(),
                "query" | "k" | "radius" | "max_ted_evals" | "mode" | "candidates" | "probe"
            ) || (key == "probe_raw" && convert_raw.is_some());
            if !known {
                return Err(QueryError::Malformed(format!(
                    "unknown request member {key:?}"
                )));
            }
        }
        let named = get("query").map(|v| {
            v.as_str()
                .ok_or_else(|| malformed("\"query\" is not a string"))
        });
        let named = named.transpose()?;
        let query = match (named, kind) {
            (Some(a), Some(b)) if a != b => {
                return Err(QueryError::Malformed(format!(
                    "request says \"query\": {a:?} but was sent to the {b} endpoint"
                )))
            }
            (Some(a), _) => a,
            (None, Some(b)) => b,
            (None, None) => return Err(malformed("request has no \"query\" member")),
        };
        let uint = |key: &str| -> Result<Option<u64>, QueryError> {
            match get(key) {
                None => Ok(None),
                Some(v) => v
                    .as_int()
                    .and_then(|i| u64::try_from(i).ok())
                    .map(Some)
                    .ok_or_else(|| {
                        QueryError::Malformed(format!("{key:?} is not a non-negative integer"))
                    }),
            }
        };
        let kind = match query {
            "knn" => QueryKind::Knn {
                k: uint("k")?.ok_or_else(|| malformed("knn request has no \"k\""))? as usize,
            },
            "radius" => QueryKind::Radius {
                radius: radius_u32(uint("radius")?, "radius")?,
            },
            "cluster" => QueryKind::Cluster {
                radius: radius_u32(uint("radius")?, "cluster")?,
            },
            "stats" => QueryKind::Stats,
            other => {
                return Err(QueryError::Malformed(format!(
                    "unknown query kind {other:?} (expected knn, radius, cluster or stats)"
                )))
            }
        };
        let mode = match get("mode").map(JsonValue::as_str) {
            None | Some(Some("exact")) => {
                if get("candidates").is_some() {
                    return Err(malformed("\"candidates\" requires \"mode\": \"approx\""));
                }
                QueryMode::Exact
            }
            Some(Some("approx")) => QueryMode::Approx {
                candidates: uint("candidates")?.unwrap_or(0) as usize,
            },
            Some(_) => {
                return Err(malformed(
                    "\"mode\" must be the string \"exact\" or \"approx\"",
                ))
            }
        };
        let probe = probe
            .transpose()
            .map_err(|e| QueryError::Malformed(format!("bad probe plan: {e}")))?;
        Ok(QueryRequest {
            kind,
            max_ted_evals: uint("max_ted_evals")?,
            mode,
            probe: raw_probe.or(probe),
        })
    }
}

/// Turns a `"probe_raw"` record into the probe plan ([`QueryRequest::from_body`]).
pub type RawProbeConverter = fn(&str) -> Result<UnifiedPlan, String>;

/// The members of a request body in order, from one pass, or `None` if it
/// is not an object. The first `"probe"` is decoded inline (one that fails
/// is skipped to its end, so only a syntax error stops the scan); every
/// `"probe"` member stands as `null`.
fn scan_request(
    text: &str,
) -> uplan_core::Result<Option<(JsonMembers<'_>, Option<uplan_core::Result<UnifiedPlan>>)>> {
    let mut r = JsonReader::new(text);
    if *r.peek_event()? != JsonEvent::ObjectStart {
        r.skip_value()?;
        r.finish()?;
        return Ok(None);
    }
    r.next_event()?;
    let (mut members, mut probe) = (JsonMembers::new(), None);
    while let Some(key) = r.next_key()? {
        let value = match key.as_ref() {
            "probe" if probe.is_none() => {
                probe = Some(r.read_or_skip(unified::read_plan)?);
                JsonValue::Null
            }
            "probe" => r.skip_value().map(|()| JsonValue::Null)?,
            _ => r.read_value()?,
        };
        members.push((key, value));
    }
    r.finish()?;
    Ok(Some((members, probe)))
}

fn radius_u32(value: Option<u64>, what: &str) -> Result<u32, QueryError> {
    let v =
        value.ok_or_else(|| QueryError::Malformed(format!("{what} request has no \"radius\"")))?;
    u32::try_from(v).map_err(|_| QueryError::Malformed(format!("{what} \"radius\" overflows u32")))
}

fn int(v: u64) -> OwnedJsonValue {
    JsonValue::Int(i64::try_from(v).unwrap_or(i64::MAX))
}

/// The data a query produced.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum QueryOutcome {
    /// k-NN / radius matches as `(plan id, distance)` (radius sorts by
    /// id, k-NN by ascending distance then id).
    Matches(Matches),
    /// The clustering.
    Clusters(Vec<Cluster>),
    /// Aggregate statistics.
    Stats(CorpusStats),
}

/// What answering a query cost, in the paper's evaluation-count
/// discipline. One struct, carried verbatim by every [`QueryResponse`]
/// and serialized as the `"cost"` JSON object with an exact round-trip
/// ([`QueryCost::to_json_value`] / [`QueryCost::from_json_value`]), so
/// the CLI, HTTP handlers, benches and CI gates read identical numbers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct QueryCost {
    /// TED evaluations *started* (full and abandoned alike) — invariant
    /// under the early-exit kernel, so it stays comparable across
    /// kernel-on/off runs and the historical prune-factor gates.
    pub ted_evals: u64,
    /// The subset of `ted_evals` the bounded kernel abandoned once the
    /// distance provably exceeded the pruning bound. Full evaluations are
    /// `ted_evals - partial_evals`.
    pub partial_evals: u64,
    /// Shortlist size an approximate query re-ranked (0 for exact mode).
    pub candidates_considered: u64,
}

impl QueryCost {
    /// A cost of `evals` started evaluations, all run to completion.
    pub fn exact(ted_evals: u64) -> QueryCost {
        QueryCost {
            ted_evals,
            ..QueryCost::default()
        }
    }

    /// TED evaluations that ran the full dynamic program (started minus
    /// abandoned).
    pub fn full_evals(&self) -> u64 {
        self.ted_evals - self.partial_evals
    }

    /// The cost as its JSON wire object (the response's `"cost"` member).
    pub fn to_json_value(&self) -> OwnedJsonValue {
        object([
            ("ted_evals", int(self.ted_evals)),
            ("partial_evals", int(self.partial_evals)),
            ("candidates_considered", int(self.candidates_considered)),
        ])
    }

    /// Parses a cost back from its JSON wire object — the exact inverse
    /// of [`QueryCost::to_json_value`].
    pub fn from_json_value(doc: &JsonValue<'_>) -> Result<QueryCost, QueryError> {
        let member = |key: &str| -> Result<u64, QueryError> {
            doc.get(key)
                .and_then(|v| v.as_int())
                .and_then(|i| u64::try_from(i).ok())
                .ok_or_else(|| {
                    QueryError::Malformed(format!(
                        "cost object has no non-negative integer {key:?}"
                    ))
                })
        };
        Ok(QueryCost {
            ted_evals: member("ted_evals")?,
            partial_evals: member("partial_evals")?,
            candidates_considered: member("candidates_considered")?,
        })
    }
}

/// What a query answered: the outcome plus the [`QueryCost`] it spent,
/// and — when served from a [`crate::CorpusSnapshot`] — the epoch the
/// answer is consistent with.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QueryResponse {
    /// Wire name of the query this answers.
    pub query: &'static str,
    /// The outcome payload.
    pub outcome: QueryOutcome,
    /// The evaluation-count breakdown of answering.
    pub cost: QueryCost,
    /// Snapshot epoch the answer reflects (`None` when querying a plain
    /// corpus outside the snapshot service).
    pub epoch: Option<u64>,
}

impl QueryResponse {
    /// Stamps the snapshot epoch the answer was computed against.
    pub fn with_epoch(mut self, epoch: u64) -> QueryResponse {
        self.epoch = Some(epoch);
        self
    }

    /// The response as its JSON wire object — identical bytes from the
    /// HTTP handlers and `repro corpus query --json`.
    pub fn to_json_value(&self) -> OwnedJsonValue {
        let mut members: Vec<(&'static str, OwnedJsonValue)> = vec![
            ("status", JsonValue::from("ok")),
            ("query", JsonValue::from(self.query)),
            ("cost", self.cost.to_json_value()),
        ];
        if let Some(epoch) = self.epoch {
            members.push(("epoch", int(epoch)));
        }
        match &self.outcome {
            QueryOutcome::Matches(matches) => {
                members.push(("matches", matches_json(matches)));
            }
            QueryOutcome::Clusters(clusters) => {
                members.push((
                    "clusters",
                    JsonValue::Array(
                        clusters
                            .iter()
                            .map(|c| {
                                object([
                                    ("leader", JsonValue::from(c.leader)),
                                    ("members", matches_json(&c.members)),
                                ])
                            })
                            .collect(),
                    ),
                ));
            }
            QueryOutcome::Stats(stats) => {
                members.push((
                    "stats",
                    object([
                        ("observed", int(stats.observed)),
                        ("distinct", JsonValue::from(stats.distinct)),
                        ("duplicates", int(stats.duplicates)),
                        ("operations", JsonValue::from(stats.operations)),
                        ("max_depth", JsonValue::from(stats.max_depth)),
                    ]),
                ));
            }
        }
        object(members)
    }

    /// The response as compact JSON text.
    pub fn to_json(&self) -> String {
        self.to_json_value().to_compact()
    }
}

fn matches_json(matches: &Matches) -> OwnedJsonValue {
    JsonValue::Array(
        matches
            .iter()
            .map(|&(id, d)| {
                object([
                    ("id", JsonValue::from(id)),
                    ("distance", JsonValue::from(d as usize)),
                ])
            })
            .collect(),
    )
}

/// Why a query could not be answered. Each variant has a stable wire code
/// ([`QueryError::code`]) so scripts and the HTTP front end can branch
/// without parsing prose.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum QueryError {
    /// A k-NN or radius request arrived without a probe plan.
    MissingProbe,
    /// The counted-TED budget would have been exceeded; `spent` is where
    /// the traversal stopped (always `<= budget`).
    BudgetExceeded {
        /// The requested `max_ted_evals`.
        budget: u64,
        /// Evaluations spent before stopping.
        spent: u64,
    },
    /// The request combines options this query kind does not support
    /// (e.g. a TED budget on cluster or stats).
    Unsupported(String),
    /// The request could not be decoded.
    Malformed(String),
    /// The request body is not well-formed JSON; the message is the
    /// parser's own (wire code `"malformed"`).
    Syntax(String),
    /// The request's `"probe_raw"` was sent with `"probe"` or twice, is
    /// not a string, or does not convert into exactly one plan.
    BadProbe(String),
}

impl QueryError {
    /// Stable machine-readable code (`"missing-probe"`,
    /// `"budget-exceeded"`, `"unsupported"`, `"malformed"`, `"bad-probe"`).
    pub fn code(&self) -> &'static str {
        match self {
            QueryError::MissingProbe => "missing-probe",
            QueryError::BudgetExceeded { .. } => "budget-exceeded",
            QueryError::Unsupported(_) => "unsupported",
            QueryError::Malformed(_) | QueryError::Syntax(_) => "malformed",
            QueryError::BadProbe(_) => "bad-probe",
        }
    }

    /// The error as its JSON wire object (`"status": "error"`).
    pub fn to_json_value(&self) -> OwnedJsonValue {
        let mut members: Vec<(&'static str, OwnedJsonValue)> = vec![
            ("status", JsonValue::from("error")),
            ("error", JsonValue::from(self.code())),
            ("message", JsonValue::from(self.to_string())),
        ];
        if let QueryError::BudgetExceeded { budget, spent } = self {
            members.push(("budget", int(*budget)));
            members.push(("spent", int(*spent)));
        }
        object(members)
    }
}

impl fmt::Display for QueryError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            QueryError::MissingProbe => {
                write!(f, "knn and radius queries require a probe plan")
            }
            QueryError::BudgetExceeded { budget, spent } => write!(
                f,
                "counted-TED budget exceeded: stopped after {spent} of {budget} evaluations"
            ),
            QueryError::Unsupported(m) => write!(f, "unsupported request: {m}"),
            QueryError::Malformed(m) => write!(f, "malformed request: {m}"),
            QueryError::Syntax(m) | QueryError::BadProbe(m) => f.write_str(m),
        }
    }
}

impl std::error::Error for QueryError {}

impl ShardedCorpus {
    /// Executes a [`QueryRequest`] — the single query entry point the CLI,
    /// the `uplan-serve` handlers and library callers all share. The
    /// query runs on the calling thread, walking the shards in order, so
    /// its counted evaluations (and where a budget trips) are
    /// deterministic.
    pub fn execute(&self, request: &QueryRequest) -> Result<QueryResponse, QueryError> {
        let idx = request.kind.metric_index();
        let mut span = trace::span("corpus.query", Level::Debug, "query");
        span.field("kind", request.kind.name());
        span.field("mode", request.mode.name());
        let result = self.execute_inner(request);
        let metrics = query_metrics();
        metrics.requests[idx].inc();
        match &result {
            Ok(response) => {
                let cost = response.cost;
                metrics.ted_evals[idx].record(cost.ted_evals);
                if cost.ted_evals > 0 {
                    metrics.prune_x[idx].record((self.len() as u64) / cost.ted_evals.max(1));
                }
                metrics.partial_evals[idx].add(cost.partial_evals);
                if cost.candidates_considered > 0 {
                    metrics.candidate_set_size[idx].record(cost.candidates_considered);
                }
                span.field("ted_evals", cost.ted_evals);
            }
            Err(err) => {
                span.field("error", err.to_string());
            }
        }
        result
    }

    fn execute_inner(&self, request: &QueryRequest) -> Result<QueryResponse, QueryError> {
        let respond = |outcome, cost| QueryResponse {
            query: request.kind.name(),
            outcome,
            cost,
            epoch: None,
        };
        if let QueryMode::Approx { .. } = request.mode {
            if !matches!(request.kind, QueryKind::Knn { .. }) {
                return Err(QueryError::Unsupported(
                    "approximate mode applies to knn queries only".into(),
                ));
            }
            if request.max_ted_evals.is_some() {
                return Err(QueryError::Unsupported(
                    "approximate queries do not accept a counted-TED budget \
                     (the candidate count already bounds their evaluations)"
                        .into(),
                ));
            }
        }
        if request.max_ted_evals.is_some()
            && matches!(request.kind, QueryKind::Cluster { .. } | QueryKind::Stats)
        {
            return Err(QueryError::Unsupported(
                "counted-TED budgets apply to knn and radius queries only".into(),
            ));
        }
        let probe = || request.probe.as_ref().ok_or(QueryError::MissingProbe);
        let limit = request.max_ted_evals.unwrap_or(u64::MAX);
        let (q, truncated) = match (&request.kind, request.mode) {
            (&QueryKind::Knn { k }, QueryMode::Approx { candidates }) => {
                let candidates = if candidates == 0 {
                    DEFAULT_APPROX_CANDIDATES
                } else {
                    candidates
                };
                (self.knn_query_approx(probe()?, k, candidates), false)
            }
            (&QueryKind::Knn { k }, _) => self.knn_query(probe()?, k, limit),
            (&QueryKind::Radius { radius }, _) => self.radius_query(probe()?, radius, limit),
            (&QueryKind::Cluster { radius }, _) => {
                let (clusters, ted_evals, partial_evals) = self.cluster_query(radius);
                let cost = QueryCost {
                    ted_evals,
                    partial_evals,
                    candidates_considered: 0,
                };
                return Ok(respond(QueryOutcome::Clusters(clusters), cost));
            }
            (QueryKind::Stats, _) => {
                return Ok(respond(
                    QueryOutcome::Stats(self.stats()),
                    QueryCost::default(),
                ))
            }
        };
        if truncated {
            return Err(QueryError::BudgetExceeded {
                budget: limit,
                spent: q.ted_evals,
            });
        }
        let cost = QueryCost {
            ted_evals: q.ted_evals,
            partial_evals: q.partial_evals,
            candidates_considered: q.candidates_considered,
        };
        Ok(respond(QueryOutcome::Matches(q.matches), cost))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use uplan_core::PlanNode;

    fn chain(names: &[&str]) -> UnifiedPlan {
        let mut node: Option<PlanNode> = None;
        for name in names.iter().rev() {
            let mut n = PlanNode::producer(*name);
            if let Some(child) = node.take() {
                n = PlanNode::executor(*name).with_child(child);
            }
            node = Some(n);
        }
        UnifiedPlan::with_root(node.unwrap())
    }

    fn corpus() -> ShardedCorpus {
        let mut corpus = ShardedCorpus::new();
        for plan in [
            chain(&["Scan_A"]),
            chain(&["Gather", "Scan_A"]),
            chain(&["Gather", "Scan_B"]),
            chain(&["Gather", "Sort", "Scan_A"]),
            chain(&["Collect", "Sort", "Scan_B"]),
            chain(&["Collect", "Sort", "Hash", "Scan_B"]),
        ] {
            corpus.insert(plan);
        }
        corpus
    }

    #[test]
    fn execute_matches_the_direct_query_paths() {
        let corpus = corpus();
        let probe = chain(&["Gather", "Scan_A"]);

        let knn = corpus
            .execute(&QueryRequest::knn(3).with_probe(probe.clone()))
            .unwrap();
        let (direct, _) = corpus.knn_query(&probe, 3, u64::MAX);
        assert_eq!(knn.outcome, QueryOutcome::Matches(direct.matches));
        assert_eq!(knn.cost.ted_evals, direct.ted_evals);
        assert_eq!(knn.cost.partial_evals, direct.partial_evals);
        assert_eq!(knn.cost.candidates_considered, 0);
        assert_eq!(knn.query, "knn");
        assert_eq!(knn.epoch, None);

        let radius = corpus
            .execute(&QueryRequest::radius(1).with_probe(probe.clone()))
            .unwrap();
        let (direct, _) = corpus.radius_query(&probe, 1, u64::MAX);
        assert_eq!(radius.outcome, QueryOutcome::Matches(direct.matches));
        assert_eq!(radius.cost.ted_evals, direct.ted_evals);
        assert_eq!(radius.cost.partial_evals, direct.partial_evals);

        let clusters = corpus.execute(&QueryRequest::cluster(1)).unwrap();
        let (direct, evals, partials) = corpus.cluster_query(1);
        assert_eq!(clusters.outcome, QueryOutcome::Clusters(direct));
        assert_eq!(clusters.cost.ted_evals, evals);
        assert_eq!(clusters.cost.partial_evals, partials);

        let stats = corpus.execute(&QueryRequest::stats()).unwrap();
        assert_eq!(stats.outcome, QueryOutcome::Stats(corpus.stats()));
        assert_eq!(stats.cost, QueryCost::default());
    }

    #[test]
    fn approximate_knn_is_knn_only_and_reports_its_shortlist() {
        let corpus = corpus();
        let probe = chain(&["Gather", "Scan_A"]);

        // On a corpus smaller than the shortlist, approx recovers the
        // exact distance multiset (ties may swap members, as in exact
        // k-NN's own tie contract).
        let exact = corpus
            .execute(&QueryRequest::knn(2).with_probe(probe.clone()))
            .unwrap();
        let approx = corpus
            .execute(&QueryRequest::knn(2).with_probe(probe.clone()).approx(0))
            .unwrap();
        let dist = |r: &QueryResponse| match &r.outcome {
            QueryOutcome::Matches(m) => m.iter().map(|&(_, d)| d).collect::<Vec<_>>(),
            other => panic!("knn answered {other:?}"),
        };
        assert_eq!(dist(&approx), dist(&exact));
        assert_eq!(approx.cost.candidates_considered, corpus.len() as u64);
        assert_eq!(approx.cost.ted_evals, corpus.len() as u64);

        // A shortlist of 3 re-ranks exactly 3 candidates.
        let short = corpus
            .execute(&QueryRequest::knn(2).with_probe(probe.clone()).approx(3))
            .unwrap();
        assert_eq!(short.cost.candidates_considered, 3);
        assert_eq!(short.cost.ted_evals, 3);

        // Approx is knn-only and budget-incompatible.
        assert_eq!(
            corpus
                .execute(&QueryRequest::radius(1).with_probe(probe.clone()).approx(0))
                .unwrap_err()
                .code(),
            "unsupported"
        );
        assert_eq!(
            corpus
                .execute(
                    &QueryRequest::knn(2)
                        .with_probe(probe)
                        .with_eval_budget(100)
                        .approx(0)
                )
                .unwrap_err()
                .code(),
            "unsupported"
        );
        assert_eq!(
            corpus.execute(&QueryRequest::knn(2).approx(0)).unwrap_err(),
            QueryError::MissingProbe
        );
    }

    #[test]
    fn budgets_trip_distinctly_and_generous_budgets_change_nothing() {
        let corpus = corpus();
        let probe = chain(&["Gather", "Scan_A"]);
        let unbudgeted = corpus
            .execute(&QueryRequest::knn(2).with_probe(probe.clone()))
            .unwrap();

        // A budget the query fits under changes nothing — same matches,
        // same counted evaluations.
        let generous = corpus
            .execute(
                &QueryRequest::knn(2)
                    .with_probe(probe.clone())
                    .with_eval_budget(unbudgeted.cost.ted_evals),
            )
            .unwrap();
        assert_eq!(generous.outcome, unbudgeted.outcome);
        assert_eq!(generous.cost, unbudgeted.cost);

        // One evaluation less: the budget trips, reporting exactly where.
        let tight = unbudgeted.cost.ted_evals - 1;
        let err = corpus
            .execute(
                &QueryRequest::knn(2)
                    .with_probe(probe.clone())
                    .with_eval_budget(tight),
            )
            .unwrap_err();
        assert_eq!(
            err,
            QueryError::BudgetExceeded {
                budget: tight,
                spent: tight
            }
        );
        assert_eq!(err.code(), "budget-exceeded");

        // Radius queries trip the same way.
        let full = corpus
            .execute(&QueryRequest::radius(2).with_probe(probe.clone()))
            .unwrap();
        let err = corpus
            .execute(
                &QueryRequest::radius(2)
                    .with_probe(probe.clone())
                    .with_eval_budget(1),
            )
            .unwrap_err();
        assert!(matches!(err, QueryError::BudgetExceeded { budget: 1, .. }));
        assert!(full.cost.ted_evals > 1);

        // Budgets are knn/radius-only; probes are knn/radius-mandatory.
        assert_eq!(
            corpus
                .execute(&QueryRequest::cluster(1).with_eval_budget(10))
                .unwrap_err()
                .code(),
            "unsupported"
        );
        assert_eq!(
            corpus.execute(&QueryRequest::knn(2)).unwrap_err(),
            QueryError::MissingProbe
        );
    }

    #[test]
    fn every_radius_budget_trips_or_fits_at_its_own_evaluation() {
        // A radius walk shares one budget across the shards it visits in
        // turn: every budget below the unbudgeted spend trips after
        // exactly that many evaluations, and every budget at or above it
        // changes nothing.
        let mut corpus = ShardedCorpus::with_shards(4);
        for wrappers in 0..16usize {
            for scan in ["Scan_A", "Scan_B", "Scan_C"] {
                let mut names: Vec<&str> = ["Gather", "Sort", "Hash", "Collect"]
                    .into_iter()
                    .enumerate()
                    .filter(|&(bit, _)| wrappers >> bit & 1 == 1)
                    .map(|(_, name)| name)
                    .collect();
                names.push(scan);
                corpus.insert(chain(&names));
            }
        }
        let probe = chain(&["Gather", "Sort", "Scan_A"]);
        let radius = QueryRequest::radius(2).with_probe(probe);
        let full = corpus.execute(&radius).unwrap();
        let spend = full.cost.ted_evals;
        assert!(spend > 4, "the walk should span several shards");
        for budget in 1..=spend + 1 {
            let budgeted = corpus.execute(&radius.clone().with_eval_budget(budget));
            if budget < spend {
                assert_eq!(
                    budgeted.unwrap_err(),
                    QueryError::BudgetExceeded {
                        budget,
                        spent: budget
                    }
                );
            } else {
                // A budget the walk fits under changes nothing.
                let fitted = budgeted.unwrap();
                assert_eq!(fitted.outcome, full.outcome);
                assert_eq!(fitted.cost, full.cost);
            }
        }
    }

    #[test]
    fn huge_k_and_candidates_answer_instead_of_panicking() {
        // `k` and `candidates` arrive off the wire; heaps are sized by the
        // corpus, so a request for more neighbors than exist answers with
        // every plan instead of failing to allocate.
        let corpus = corpus();
        let probe = unified::to_json(&chain(&["Gather", "Scan_A"]));
        let huge = i64::MAX;
        for members in [
            format!("\"k\": {huge}"),
            format!("\"k\": 2, \"mode\": \"approx\", \"candidates\": {huge}"),
            format!("\"k\": {huge}, \"mode\": \"approx\", \"candidates\": {huge}"),
        ] {
            let text = format!("{{\"query\": \"knn\", {members}, \"probe\": {probe}}}");
            let request = QueryRequest::from_json(&text, None).unwrap();
            let response = corpus.execute(&request).unwrap();
            let QueryOutcome::Matches(matches) = response.outcome else {
                panic!("knn answered {:?}", response.outcome);
            };
            assert!(matches.len() <= corpus.len(), "{text}");
            assert!(!matches.is_empty(), "{text}");
        }
    }

    #[test]
    fn requests_round_trip_through_json() {
        let probe = chain(&["Gather", "Scan_A"]);
        let requests = [
            QueryRequest::knn(5).with_probe(probe.clone()),
            QueryRequest::knn(5).with_probe(probe.clone()).approx(0),
            QueryRequest::knn(5).with_probe(probe.clone()).approx(64),
            QueryRequest::radius(3)
                .with_probe(probe)
                .with_eval_budget(1000),
            QueryRequest::cluster(2),
            QueryRequest::stats(),
        ];
        for request in requests {
            let text = request.to_json_value().to_compact();
            let parsed = QueryRequest::from_json(&text, None).unwrap();
            assert_eq!(parsed, request, "{text}");
            // An endpoint-supplied kind must agree with the body.
            assert_eq!(
                QueryRequest::from_json(&text, Some(request.kind.name())).unwrap(),
                request
            );
            let other = if request.kind.name() == "stats" {
                "knn"
            } else {
                "stats"
            };
            assert_eq!(
                QueryRequest::from_json(&text, Some(other))
                    .unwrap_err()
                    .code(),
                "malformed"
            );
        }
        // The endpoint kind fills in an absent "query" member.
        let parsed = QueryRequest::from_json("{\"k\": 2}", Some("knn")).unwrap();
        assert_eq!(parsed.kind, QueryKind::Knn { k: 2 });
        assert!(QueryRequest::from_json("{\"k\": 2}", None).is_err());
        assert!(QueryRequest::from_json("{\"query\": \"knn\", \"kk\": 2}", None).is_err());
        assert!(QueryRequest::from_json("not json", Some("stats")).is_err());

        // Mode parsing: "exact" is the spelled-out default; "candidates"
        // belongs to approx mode alone; anything else is malformed.
        let exact =
            QueryRequest::from_json("{\"k\": 2, \"mode\": \"exact\"}", Some("knn")).unwrap();
        assert_eq!(exact.mode, QueryMode::Exact);
        let approx =
            QueryRequest::from_json("{\"k\": 2, \"mode\": \"approx\"}", Some("knn")).unwrap();
        assert_eq!(approx.mode, QueryMode::Approx { candidates: 0 });
        for bad in [
            "{\"k\": 2, \"mode\": \"fuzzy\"}",
            "{\"k\": 2, \"mode\": 3}",
            "{\"k\": 2, \"candidates\": 8}",
            "{\"k\": 2, \"mode\": \"exact\", \"candidates\": 8}",
            "{\"k\": 2, \"threads\": 2}",
            "{\"radius\": 1, \"threads\": 4}",
        ] {
            assert_eq!(
                QueryRequest::from_json(bad, Some("knn"))
                    .unwrap_err()
                    .code(),
                "malformed",
                "{bad}"
            );
        }
        // Queries run on the thread that executes them: a thread count is
        // not a request member, on any endpoint.
        assert_eq!(
            QueryRequest::from_json("{\"radius\": 1, \"threads\": 4}", Some("radius")),
            Err(QueryError::Malformed(
                "unknown request member \"threads\"".into()
            ))
        );
    }

    #[test]
    fn responses_serialize_the_one_wire_schema() {
        let corpus = corpus();
        let probe = chain(&["Gather", "Scan_A"]);
        let response = corpus
            .execute(&QueryRequest::knn(2).with_probe(probe))
            .unwrap()
            .with_epoch(7);
        let doc = response.to_json_value();
        assert_eq!(doc.get("status").unwrap().as_str(), Some("ok"));
        assert_eq!(doc.get("query").unwrap().as_str(), Some("knn"));
        assert_eq!(doc.get("epoch").unwrap().as_int(), Some(7));
        let cost = doc.get("cost").unwrap();
        assert_eq!(
            cost.get("ted_evals").unwrap().as_int(),
            Some(response.cost.ted_evals as i64)
        );
        // The cost object round-trips exactly.
        assert_eq!(QueryCost::from_json_value(cost).unwrap(), response.cost);
        let nontrivial = QueryCost {
            ted_evals: 9,
            partial_evals: 4,
            candidates_considered: 16,
        };
        let text = nontrivial.to_json_value().to_compact();
        let parsed = uplan_core::formats::json::parse(&text).unwrap();
        assert_eq!(QueryCost::from_json_value(&parsed).unwrap(), nontrivial);
        assert_eq!(nontrivial.full_evals(), 5);
        let matches = doc.get("matches").unwrap().as_array().unwrap();
        assert_eq!(matches.len(), 2);
        assert!(matches[0].get("id").is_some() && matches[0].get("distance").is_some());

        let stats = corpus.execute(&QueryRequest::stats()).unwrap();
        let doc = stats.to_json_value();
        assert_eq!(
            doc.get("stats").unwrap().get("distinct").unwrap().as_int(),
            Some(corpus.len() as i64)
        );

        let err = QueryError::BudgetExceeded {
            budget: 10,
            spent: 10,
        };
        let doc = err.to_json_value();
        assert_eq!(doc.get("status").unwrap().as_str(), Some("error"));
        assert_eq!(doc.get("error").unwrap().as_str(), Some("budget-exceeded"));
        assert_eq!(doc.get("budget").unwrap().as_int(), Some(10));
    }
}
