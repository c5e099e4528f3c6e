//! The traced run: times calls into each layer's public API on the
//! workload's own inputs (its store, probes and raw records), plus a short
//! socket loop, and reports which share of what a client and the ingest
//! process see the layer times on the k-NN path and the ingest chain cover.
//!
//! It runs separately from the end-to-end runs, so those stay untraced.
//! Every per-layer metric is reported for every workload; `README.md` in
//! this directory lists which end-to-end metric each should move on which
//! workload.

use std::io::BufReader;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use uplan_convert::{convert, detect, ingest_raw_with, sniff_framing, RawIngestOptions, Source};
use uplan_core::fingerprint::fingerprint;
use uplan_core::formats::json;
use uplan_core::ted::{tree_edit_distance_bounded, BoundedTed};
use uplan_core::UnifiedPlan;
use uplan_corpus::service::CorpusService;
use uplan_corpus::{PlanCorpus, QueryOutcome, QueryRequest, QueryResponse, SegmentStore};
use uplan_serve::http::{HttpRequest, HttpResponse};
use uplan_serve::ServeState;

use crate::inputs::{self, RecordPool};
use crate::net::{self, closed_loop, request_bytes, Daemon, Kind};
use crate::util::{copy_dir, derive, median, percentile, time_per_call, us_since, Outcome, Rng};
use crate::workloads::{self, knn_body, Ctx, INGEST_BATCH, MERGE_EVERY, PROBES};

/// Wall-clock budget of each micro-timed layer call.
const CALL_BUDGET_S: f64 = 0.3;
/// Raw records the serve workloads' ingest chain is timed on.
const SERVE_DUMP_RECORDS: usize = 10_000;
/// Repetitions of the store-level operations (open, append, merge).
const REPEATS: usize = 5;
/// Seconds of the traced socket loop.
const SOCKET_S: f64 = 1.5;

/// The inputs one workload's layers are timed on.
struct Inputs {
    /// The store the workload serves (never modified; copies are).
    store: PathBuf,
    probes: Vec<UnifiedPlan>,
    /// The raw dump the workload's ingest chain sees, and its file.
    dump: String,
    dump_path: PathBuf,
    /// `POST /ingest` bodies of the workload's traffic.
    bodies: Vec<String>,
}

fn inputs_for(ctx: &Ctx, workload: &str) -> Result<Inputs, String> {
    let batches = 0..2 * MERGE_EVERY;
    if workload == "ingest_raw_100k" {
        let (dump_path, _) = workloads::dump_for_seed(ctx)?;
        let dump = std::fs::read_to_string(&dump_path).map_err(|e| format!("read dump: {e}"))?;
        let store = ctx.work.join("ingest-base");
        cli_ingest(ctx, &dump_path, &store)?;
        let records: Vec<&str> = dump.lines().collect();
        let probes = inputs::dump_probes(ctx.seed, &records, PROBES)?;
        let bodies = batches
            .map(|j| inputs::dump_batch(ctx.seed, j, &records, INGEST_BATCH))
            .collect();
        return Ok(Inputs {
            store,
            probes,
            dump,
            dump_path,
            bodies,
        });
    }
    let store = if workload == "serve_query_10k" {
        inputs::fixture_10k(&ctx.work)?
    } else {
        inputs::fixture_100k(&ctx.work)?
    };
    let pool = RecordPool::new(ctx.seed);
    let dump = pool.dump(
        &mut Rng::new(derive(ctx.seed, inputs::SALT_TRAFFIC)),
        SERVE_DUMP_RECORDS,
    );
    let dump_path = ctx.work.join("traffic.jsonl");
    std::fs::write(&dump_path, &dump).map_err(|e| format!("write dump: {e}"))?;
    let bodies = batches
        .map(|j| pool.batch(ctx.seed, j, INGEST_BATCH))
        .collect();
    Ok(Inputs {
        store,
        probes: inputs::tpch_probes(ctx.seed, PROBES),
        dump,
        dump_path,
        bodies,
    })
}

/// The distinct plans a raw dump stages to, in corpus order.
fn staged(dump: &str) -> Result<Vec<UnifiedPlan>, String> {
    let mut staging = PlanCorpus::new();
    ingest_raw_with(dump, &mut staging, 1, &RawIngestOptions::default())
        .map_err(|e| format!("stage dump: {e}"))?;
    Ok(staging.iter().map(|(_, p)| p.clone()).collect())
}

/// One `repro corpus ingest --raw --segmented` of `dump` into `dir`;
/// returns its wall time in seconds.
fn cli_ingest(ctx: &Ctx, dump: &Path, dir: &Path) -> Result<f64, String> {
    let (wall, exit, _) = workloads::ingest_process(ctx, dump, dir)?;
    if !exit.success {
        return Err("ingest process failed".into());
    }
    Ok(wall)
}

/// Appends `plans` to a copy of `store` (or, when `fresh`, to a new empty
/// store in `scratch`); returns the append's milliseconds and the new
/// segment's bytes per admitted plan.
fn time_append(
    store: &Path,
    scratch: &Path,
    plans: &[UnifiedPlan],
    fresh: bool,
) -> Result<(f64, f64), String> {
    let mut target = if fresh {
        if scratch.exists() {
            std::fs::remove_dir_all(scratch).map_err(|e| format!("clear scratch: {e}"))?;
        }
        SegmentStore::create(scratch, PlanCorpus::new()).map_err(|e| format!("create: {e}"))?
    } else {
        copy_dir(store, scratch).map_err(|e| format!("copy store: {e}"))?;
        SegmentStore::open(scratch).map_err(|e| format!("open copy: {e}"))?
    };
    let t = Instant::now();
    let report = target
        .append(plans, net::DAEMON_THREADS)
        .map_err(|e| format!("append: {e}"))?;
    let ms = t.elapsed().as_secs_f64() * 1e3;
    Ok((
        ms,
        report.segment_bytes as f64 / report.admitted.max(1) as f64,
    ))
}

/// A JSON-string record's text, or the record itself for JSON documents —
/// what the converters see.
fn payload(record: &str) -> Result<String, String> {
    if record.starts_with('"') {
        let doc = json::parse(record).map_err(|e| format!("record JSON: {e}"))?;
        Ok(doc.as_str().unwrap_or_default().to_owned())
    } else {
        Ok(record.to_owned())
    }
}

fn matches(response: &QueryResponse) -> usize {
    match &response.outcome {
        QueryOutcome::Matches(m) => m.len(),
        _ => 0,
    }
}

pub fn run(ctx: &Ctx, workload: &str, out: &mut Outcome) -> Result<(), String> {
    let inputs = inputs_for(ctx, workload)?;
    let scratch = ctx.work.join("trace-store");

    // --- corpus: open, first queries, query execution -------------------
    let knn_requests: Vec<QueryRequest> = inputs
        .probes
        .iter()
        .map(|p| QueryRequest::knn(workloads::KNN_K).with_probe(p.clone()))
        .collect();
    let radius_requests: Vec<QueryRequest> = inputs
        .probes
        .iter()
        .map(|p| QueryRequest::radius(workloads::RADIUS).with_probe(p.clone()))
        .collect();
    let (mut opens, mut colds, mut warms) = (Vec::new(), Vec::new(), Vec::new());
    for _ in 0..REPEATS {
        let t = Instant::now();
        let store = SegmentStore::open(&inputs.store).map_err(|e| format!("open store: {e}"))?;
        opens.push(t.elapsed().as_secs_f64() * 1e3);
        let corpus = store.corpus();
        let t = Instant::now();
        std::hint::black_box(
            corpus
                .execute(&knn_requests[0])
                .map_err(|e| e.to_string())?,
        );
        colds.push(us_since(t));
        let t = Instant::now();
        std::hint::black_box(
            corpus
                .execute(&knn_requests[0])
                .map_err(|e| e.to_string())?,
        );
        warms.push(us_since(t));
    }
    out.metric("corpus.segment_open_ms", median(&opens), "ms", opens.len());
    out.metric(
        "corpus.first_query_cold_us",
        median(&colds),
        "us",
        colds.len(),
    );
    out.metric(
        "corpus.first_query_warm_us",
        median(&warms),
        "us",
        warms.len(),
    );

    let service = CorpusService::with_store(
        SegmentStore::open(&inputs.store).map_err(|e| format!("open store: {e}"))?,
        1,
    );
    let snapshot = service.snapshot();
    // Warm: touch every plan the probes reach, as the serve workloads do
    // before timing.
    let mut knn_responses = Vec::new();
    let (mut knn_evals, mut knn_partial, mut radius_evals, mut found) = (0u64, 0u64, 0u64, 0usize);
    for request in &knn_requests {
        let r = snapshot.execute(request).map_err(|e| e.to_string())?;
        knn_evals += r.cost.ted_evals;
        knn_partial += r.cost.partial_evals;
        found += matches(&r);
        knn_responses.push(r);
    }
    for request in &radius_requests {
        let r = snapshot.execute(request).map_err(|e| e.to_string())?;
        radius_evals += r.cost.ted_evals;
        found += matches(&r);
    }
    let n = inputs.probes.len();
    let knn_us = time_per_call(CALL_BUDGET_S, 8, 5, |i| {
        std::hint::black_box(snapshot.execute(&knn_requests[i % n]).ok());
    });
    out.metric("corpus.knn_us", knn_us, "us", n);
    out.metric(
        "corpus.knn_ted_evals",
        knn_evals as f64 / n as f64,
        "count",
        n,
    );
    out.metric(
        "corpus.knn_partial_evals",
        knn_partial as f64 / n as f64,
        "count",
        n,
    );
    let radius_us = time_per_call(CALL_BUDGET_S, 4, 5, |i| {
        std::hint::black_box(snapshot.execute(&radius_requests[i % n]).ok());
    });
    out.metric("corpus.radius_us", radius_us, "us", n);
    out.metric(
        "corpus.radius_ted_evals",
        radius_evals as f64 / n as f64,
        "count",
        n,
    );
    out.metric(
        "corpus.match_yield",
        found as f64 / (knn_evals + radius_evals).max(1) as f64,
        "ratio",
        2 * n,
    );
    let approx: Vec<QueryRequest> = knn_requests.iter().map(|r| r.clone().approx(0)).collect();
    let mut approx_evals = 0u64;
    for request in &approx {
        approx_evals += snapshot
            .execute(request)
            .map_err(|e| e.to_string())?
            .cost
            .ted_evals;
    }
    let approx_us = time_per_call(CALL_BUDGET_S, 4, 5, |i| {
        std::hint::black_box(snapshot.execute(&approx[i % n]).ok());
    });
    out.metric("corpus.knn_approx_us", approx_us, "us", n);
    out.metric(
        "corpus.knn_approx_ted_evals",
        approx_evals as f64 / n as f64,
        "count",
        n,
    );

    // --- core: JSON, TED ------------------------------------------------
    let bodies: Vec<String> = inputs.probes.iter().map(knn_body).collect();
    let json_us = time_per_call(CALL_BUDGET_S, 16, 5, |i| {
        std::hint::black_box(json::parse(&bodies[i % n]).ok());
    });
    out.metric("core.json_parse_us", json_us, "us", n);
    let docs: Vec<_> = bodies
        .iter()
        .map(|b| json::parse(b).map(|d| d.into_owned()))
        .collect::<Result<_, _>>()
        .map_err(|e| format!("parse body: {e}"))?;
    let decode_us = time_per_call(CALL_BUDGET_S, 16, 5, |i| {
        std::hint::black_box(QueryRequest::from_json_value(&docs[i % n], Some("knn")).ok());
    });
    out.metric("corpus.request_decode_us", decode_us, "us", n);
    let encode_us = time_per_call(CALL_BUDGET_S, 16, 5, |i| {
        std::hint::black_box(knn_responses[i % n].to_json());
    });
    out.metric("corpus.response_encode_us", encode_us, "us", n);
    // Probe/corpus pairs under the bound a k-NN traversal holds at the end:
    // the probe's k-th distance.
    let corpus = snapshot.corpus();
    let mut pair_rng = Rng::new(derive(ctx.seed, 9));
    let pairs: Vec<(usize, usize, usize)> = (0..n)
        .map(|i| {
            let bound = match &knn_responses[i].outcome {
                QueryOutcome::Matches(ms) => ms.last().map_or(8, |&(_, d)| d as usize),
                _ => 8,
            };
            (i, pair_rng.below(corpus.len()), bound)
        })
        .collect();
    for &(_, id, _) in &pairs {
        std::hint::black_box(corpus.plan(id));
    }
    let ted_us = time_per_call(CALL_BUDGET_S, 16, 5, |i| {
        let (p, id, bound) = pairs[i % n];
        let r = tree_edit_distance_bounded(&inputs.probes[p], corpus.plan(id), bound);
        std::hint::black_box(matches!(r, BoundedTed::Exceeded));
    });
    out.metric("core.ted_eval_us", ted_us, "us", n);

    // --- serve: handlers in process, HTTP codec -------------------------
    copy_dir(&inputs.store, &scratch).map_err(|e| format!("copy store: {e}"))?;
    let state = ServeState::from_service(
        CorpusService::with_store(
            SegmentStore::open(&scratch).map_err(|e| format!("open copy: {e}"))?,
            uplan_corpus::service::DEFAULT_PENDING_CAPACITY,
        ),
        net::DAEMON_THREADS,
    );
    let mut reader = state.service().reader();
    let raw_knn: Vec<Vec<u8>> = bodies
        .iter()
        .map(|b| request_bytes("POST", "/knn", b.as_bytes()))
        .collect();
    let parsed: Vec<HttpRequest> = raw_knn
        .iter()
        .map(|raw| HttpRequest::read_from(&mut BufReader::new(raw.as_slice())))
        .map(|r| r.ok().flatten().ok_or("captured request does not parse"))
        .collect::<Result<_, _>>()?;
    for req in &parsed {
        // Warm the handler's snapshot the way the daemon is warmed.
        std::hint::black_box(uplan_serve::handle(&state, &mut reader, req));
    }
    let read_us = time_per_call(CALL_BUDGET_S, 16, 5, |i| {
        let raw = &raw_knn[i % n];
        std::hint::black_box(HttpRequest::read_from(&mut BufReader::new(raw.as_slice())).ok());
    });
    out.metric("serve.http_read_us", read_us, "us", n);
    let handle_us = time_per_call(CALL_BUDGET_S, 8, 5, |i| {
        std::hint::black_box(uplan_serve::handle(&state, &mut reader, &parsed[i % n]));
    });
    out.metric("serve.handle_knn_us", handle_us, "us", n);
    let responses: Vec<HttpResponse> = parsed
        .iter()
        .map(|req| uplan_serve::handle(&state, &mut reader, req))
        .collect();
    let mut sink = Vec::with_capacity(1 << 16);
    let write_us = time_per_call(CALL_BUDGET_S, 16, 5, |i| {
        sink.clear();
        std::hint::black_box(responses[i % n].write_to(&mut sink).ok());
    });
    out.metric("serve.http_write_us", write_us, "us", n);
    let metrics_req = HttpRequest::read_from(&mut BufReader::new(
        request_bytes("GET", "/metrics", b"").as_slice(),
    ))
    .ok()
    .flatten()
    .ok_or("metrics request does not parse")?;
    let metrics_us = time_per_call(CALL_BUDGET_S, 4, 5, |_| {
        std::hint::black_box(uplan_serve::handle(&state, &mut reader, &metrics_req));
    });
    out.metric("obs.metrics_render_us", metrics_us, "us", 1);
    let ingest_reqs: Vec<HttpRequest> = inputs
        .bodies
        .iter()
        .map(|b| {
            HttpRequest::read_from(&mut BufReader::new(
                request_bytes("POST", "/ingest", b.as_bytes()).as_slice(),
            ))
            .ok()
            .flatten()
            .ok_or("ingest request does not parse")
        })
        .collect::<Result<_, _>>()?;
    let mut ingest_times = Vec::new();
    for req in &ingest_reqs {
        let t = Instant::now();
        let response = uplan_serve::handle(&state, &mut reader, req);
        ingest_times.push(us_since(t));
        out.check(response.status == 202, || {
            format!("in-process POST /ingest answered {}", response.status)
        });
    }
    out.metric(
        "serve.handle_ingest_us",
        median(&ingest_times),
        "us",
        ingest_times.len(),
    );
    drop(reader);
    drop(state);

    // --- corpus: submit, merge, segment append --------------------------
    let batches: Vec<Vec<UnifiedPlan>> = inputs
        .bodies
        .iter()
        .map(|b| staged(b))
        .collect::<Result<_, _>>()?;
    let (mut submits, mut merges) = (Vec::new(), Vec::new());
    copy_dir(&inputs.store, &scratch).map_err(|e| format!("copy store: {e}"))?;
    let service = CorpusService::with_store(
        SegmentStore::open(&scratch).map_err(|e| format!("open copy: {e}"))?,
        uplan_corpus::service::DEFAULT_PENDING_CAPACITY,
    );
    for round in batches.chunks(MERGE_EVERY) {
        for batch in round {
            let t = Instant::now();
            service
                .submit(batch.clone())
                .map_err(|e| format!("submit: {e}"))?;
            submits.push(us_since(t));
        }
        let t = Instant::now();
        std::hint::black_box(service.merge(net::DAEMON_THREADS));
        merges.push(t.elapsed().as_secs_f64() * 1e3);
    }
    drop(service);
    out.metric("corpus.submit_us", median(&submits), "us", submits.len());
    out.metric("corpus.merge_ms", median(&merges), "ms", merges.len());

    // One ingest batch appended: a merge's worth of traffic onto the served
    // store, or — for the ingest workload — the dump's plans onto a fresh
    // store, as the CLI does.
    let dump_plans = staged(&inputs.dump)?;
    let fresh = workload == "ingest_raw_100k";
    let append_batch: Vec<UnifiedPlan> = if fresh {
        dump_plans.clone()
    } else {
        batches[..MERGE_EVERY].iter().flatten().cloned().collect()
    };
    let (mut appends, mut per_plan, mut fresh_appends) = (Vec::new(), Vec::new(), Vec::new());
    for _ in 0..REPEATS {
        let (t_ms, bytes_pp) = time_append(&inputs.store, &scratch, &append_batch, fresh)?;
        appends.push(t_ms);
        per_plan.push(bytes_pp);
        let (t_ms, _) = time_append(&inputs.store, &scratch, &dump_plans, true)?;
        fresh_appends.push(t_ms);
    }
    out.metric(
        "corpus.segment_append_ms",
        median(&appends),
        "ms",
        appends.len(),
    );
    out.metric(
        "corpus.segment_bytes_per_plan",
        median(&per_plan),
        "B",
        per_plan.len(),
    );

    // --- convert + ingest chain on the workload's dump ------------------
    let records: Vec<&str> = inputs.dump.lines().collect();
    let payloads: Vec<String> = records
        .iter()
        .map(|r| payload(r))
        .collect::<Result<_, _>>()?;
    let sources: Vec<Source> = payloads
        .iter()
        .map(|p| detect(p).ok_or("undetectable record"))
        .collect::<Result<_, _>>()?;
    let r = records.len();
    let sniff_us = time_per_call(CALL_BUDGET_S, 64, 5, |i| {
        std::hint::black_box(sniff_framing(records[i % r]));
        std::hint::black_box(detect(&payloads[i % r]));
    });
    out.metric("convert.sniff_us", sniff_us, "us", r);
    let plans: Vec<UnifiedPlan> = payloads
        .iter()
        .zip(&sources)
        .map(|(p, &s)| convert(s, p).map_err(|e| format!("convert: {e}")))
        .collect::<Result<_, _>>()?;
    let record_us = time_per_call(CALL_BUDGET_S, 16, 5, |i| {
        std::hint::black_box(convert(sources[i % r], &payloads[i % r]).ok());
    });
    out.metric("convert.record_us", record_us, "us", r);
    let fp_us = time_per_call(CALL_BUDGET_S, 64, 5, |i| {
        std::hint::black_box(fingerprint(&plans[i % r]));
    });
    out.metric("core.fingerprint_us", fp_us, "us", r);
    let mut raw_rps = [0.0; 2];
    for (slot, threads) in [(0, 1), (1, 2)] {
        let t = Instant::now();
        let mut corpus = PlanCorpus::new();
        ingest_raw_with(
            &inputs.dump,
            &mut corpus,
            threads,
            &RawIngestOptions::default(),
        )
        .map_err(|e| format!("ingest_raw: {e}"))?;
        raw_rps[slot] = r as f64 / t.elapsed().as_secs_f64();
    }
    out.metric("convert.ingest_raw_t1_rps", raw_rps[0], "rec/s", 1);
    out.metric("convert.ingest_raw_t2_rps", raw_rps[1], "rec/s", 1);
    let mut par_ms = [0.0; 2];
    let mut evals_per_plan = 0.0;
    for (slot, threads) in [(0, 1), (1, 2)] {
        let t = Instant::now();
        let mut corpus = PlanCorpus::new();
        corpus.ingest_parallel(&plans, threads);
        par_ms[slot] = t.elapsed().as_secs_f64() * 1e3;
        evals_per_plan = corpus.index_evals() as f64 / corpus.len().max(1) as f64;
    }
    out.metric("corpus.ingest_parallel_t1_ms", par_ms[0], "ms", 1);
    out.metric("corpus.ingest_parallel_t2_ms", par_ms[1], "ms", 1);
    out.metric("corpus.index_evals_per_plan", evals_per_plan, "count", 1);

    // --- socket: a short traced k-NN loop against the real daemon --------
    copy_dir(&inputs.store, &scratch).map_err(|e| format!("copy store: {e}"))?;
    let (daemon, _) = Daemon::spawn(&ctx.repro, &scratch)?;
    for raw in &raw_knn {
        let _ = net::exchange(daemon.addr, raw);
    }
    let socket = closed_loop(
        daemon.addr,
        Duration::from_secs_f64(SOCKET_S),
        None,
        |i| (Kind::Knn, raw_knn[i % n].clone()),
        |_, _, reply| reply.status == 200,
    );
    daemon.shutdown()?;
    let connects: Vec<f64> = socket.samples.iter().map(|s| s.connect_us).collect();
    let knn_socket = median(&socket.latencies(Kind::Knn));
    out.metric("serve.connect_us", median(&connects), "us", connects.len());
    out.metric(
        "serve.knn_socket_p50_us",
        knn_socket,
        "us",
        socket.samples.len(),
    );
    out.metric(
        "serve.knn_p99_us",
        percentile(&socket.latencies(Kind::Knn), 99.0).unwrap_or(0.0),
        "us",
        socket.samples.len(),
    );
    out.metric(
        "serve.socket_share",
        1.0 - handle_us / knn_socket,
        "ratio",
        socket.samples.len(),
    );

    // --- accounting -------------------------------------------------------
    let get = |name: &str| {
        out.metrics
            .iter()
            .find(|m| m.name == name)
            .map_or(0.0, |m| m.value)
    };
    let knn_path = get("serve.connect_us")
        + get("serve.http_read_us")
        + get("core.json_parse_us")
        + get("corpus.request_decode_us")
        + get("corpus.knn_us")
        + get("corpus.response_encode_us")
        + get("serve.http_write_us");
    let mut walls = Vec::new();
    let cli_store = ctx.work.join("trace-ingest");
    for _ in 0..2 {
        walls.push(cli_ingest(ctx, &inputs.dump_path, &cli_store)?);
    }
    let cli_s = median(&walls);
    let chain_s = r as f64 / get("convert.ingest_raw_t2_rps") + median(&fresh_appends) / 1e3;
    out.metric("accounting.knn_share", knn_path / knn_socket, "ratio", 1);
    out.metric(
        "accounting.knn_unaccounted_us",
        knn_socket - knn_path,
        "us",
        1,
    );
    out.metric(
        "accounting.ingest_share",
        chain_s / cli_s,
        "ratio",
        walls.len(),
    );
    out.metric(
        "accounting.ingest_unaccounted_ms",
        (cli_s - chain_s) * 1e3,
        "ms",
        walls.len(),
    );
    out.attempted += socket.samples.len() as u64;
    out.failed += socket.failed();
    Ok(())
}
