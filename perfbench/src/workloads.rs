//! The three end-to-end workloads, each against the real `repro` binary:
//! a `corpus serve` daemon over TCP, or a `corpus ingest --raw` process.
//!
//! Every workload reports the same end-to-end metrics, measured on its own
//! traffic; `README.md` in this directory says which phase of which
//! workload each comes from and why the workloads were chosen.

use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use uplan_convert::{ingest_raw_sequential, ingest_raw_with, RawIngestOptions};
use uplan_core::formats::json::{self, JsonValue};
use uplan_core::UnifiedPlan;
use uplan_corpus::service::CorpusService;
use uplan_corpus::{PlanCorpus, QueryRequest, SegmentStore};

use crate::inputs::{self, RecordPool};
use crate::net::{self, closed_loop, request_bytes, Daemon, Kind, LoopResult, Reply};
use crate::util::{copy_dir, derive, dir_bytes, median, percentile, Outcome, Rng};

/// What every run needs: where the binary under test and the work
/// directory are, the seed, and the measuring time.
pub struct Ctx {
    pub repro: PathBuf,
    pub work: PathBuf,
    pub seed: u64,
    pub seconds: f64,
}

pub const KNN_K: usize = 5;
pub const RADIUS: u32 = 2;
/// Distinct probe plans per run (requests cycle through them).
pub const PROBES: usize = 1024;
/// Daemon start-ups per run; `setup_s` is their median.
const SETUP_SPAWNS: usize = 25;
/// Raw records per `POST /ingest` body: the plans a QPG campaign explains
/// in one stall window (`QpgConfig::default().stall_window` queries, one
/// plan each), so a campaign client posts once per window.
pub const INGEST_BATCH: usize = 12;
/// The client sends `POST /merge` after every this many ingests (an
/// assumption, see `README.md`).
pub const MERGE_EVERY: usize = 20;
/// Ingest requests in the write tail of the read-only workloads.
const TAIL_INGESTS: usize = MERGE_EVERY * TAIL_ROUNDS;
/// Merge rounds of the write tail: 3000 ingests, which keeps the tail long
/// enough (about 3 s) that a burst of load from other tenants moves its
/// median little.
const TAIL_ROUNDS: usize = 150;
/// Requests of each kind in every block of 100 of the mixed stream; see
/// `README.md` for which shares are measured and which are assumed.
const MIXED_BLOCK: [(MixedKind, usize); 6] = [
    (MixedKind::Knn, 40),
    (MixedKind::KnnRaw, 40),
    (MixedKind::Radius, 4),
    (MixedKind::Ingest, 10),
    (MixedKind::Stats, 3),
    (MixedKind::Metrics, 3),
];
/// Blocks of the mixed stream per `--seconds`, sized so that a run takes
/// about `--seconds` on the 2-core development host. The count, not the
/// clock, ends the run, so every run of one `--seconds` makes the same
/// ingests, merges and segment appends however fast the program is.
const MIXED_BLOCKS_PER_SECOND: f64 = 6.8;
/// Upper bound on the mixed loop's wall time on a much slower machine.
const MIXED_TIME_CAP: Duration = Duration::from_secs(120);
/// Records in the `ingest_raw_100k` dump.
const DUMP_RECORDS: usize = 100_000;
/// Share of `--seconds` the ingest workload spends on ingest processes;
/// the rest serves the store it wrote.
const INGEST_SHARE: f64 = 0.5;
const MIN_INGEST_RUNS: usize = 2;

pub fn knn_body(probe: &UnifiedPlan) -> String {
    QueryRequest::knn(KNN_K)
        .with_probe(probe.clone())
        .to_json_value()
        .to_compact()
}

fn radius_body(probe: &UnifiedPlan) -> String {
    QueryRequest::radius(RADIUS)
        .with_probe(probe.clone())
        .to_json_value()
        .to_compact()
}

/// A `k`-NN body whose probe is one raw dump record, converted by the
/// daemon on the query path.
fn knn_raw_body(record: &str) -> String {
    json::object([
        ("k", JsonValue::from(KNN_K)),
        ("probe_raw", JsonValue::from(record)),
    ])
    .to_compact()
}

/// `N distinct plans, M operations, max depth D` — the stats line the CLI
/// prints, and what the store oracles compare.
fn stats_line(corpus: &PlanCorpus) -> String {
    let stats = corpus.stats();
    format!(
        "{} distinct plans, {} operations, max depth {}",
        stats.distinct, stats.operations, stats.max_depth
    )
}

/// The offline answers of a read-only store: each body executed in process
/// exactly as the daemon's `/knn` and `/radius` handlers execute it.
fn expected_responses(store: &Path, bodies: &[(Kind, String)]) -> Result<Vec<Vec<u8>>, String> {
    let opened = SegmentStore::open(store).map_err(|e| format!("open {}: {e}", store.display()))?;
    let snapshot = CorpusService::with_store(opened, 1).snapshot();
    bodies
        .iter()
        .map(|(kind, body)| {
            let name = if *kind == Kind::Knn { "knn" } else { "radius" };
            let request = QueryRequest::from_json(body, Some(name)).map_err(|e| e.to_string())?;
            let response = snapshot.execute(&request).map_err(|e| e.to_string())?;
            Ok(response.to_json().into_bytes())
        })
        .collect()
}

/// Spawns the daemon `SETUP_SPAWNS` times and times each from spawn to
/// its first answered request; every daemon is shut down again.
fn setup_phase(ctx: &Ctx, out: &mut Outcome, store: &Path, first: &[u8]) -> Vec<f64> {
    let mut times = Vec::new();
    for _ in 0..SETUP_SPAWNS {
        out.attempted += 1;
        let result = Daemon::spawn(&ctx.repro, store).and_then(|(daemon, spawned)| {
            let reply = net::exchange(daemon.addr, first);
            let secs = spawned.elapsed().as_secs_f64();
            daemon.shutdown()?;
            match reply {
                Ok(r) if r.status == 200 => Ok(secs),
                Ok(r) => Err(format!("first request answered {}", r.status)),
                Err(e) => Err(format!("first request failed: {e}")),
            }
        });
        match result {
            Ok(secs) => times.push(secs),
            Err(e) => {
                out.failed += 1;
                out.problems.push(format!("setup: {e}"));
            }
        }
    }
    times
}

/// `POST /ingest` bodies `0..n` plus a `POST /merge` after every
/// `MERGE_EVERY`-th, as a closed loop; returns the loop and the ordinals
/// of the accepted bodies.
fn write_tail(
    addr: std::net::SocketAddr,
    body: &(dyn Fn(usize) -> String + Sync),
) -> (LoopResult, Vec<usize>) {
    let per_round = MERGE_EVERY + 1;
    let ordinal = |i: usize| i / per_round * MERGE_EVERY + i % per_round;
    let accepted = Mutex::new(Vec::new());
    let result = closed_loop(
        addr,
        Duration::from_secs(120),
        Some(TAIL_INGESTS / MERGE_EVERY * per_round),
        |i| {
            if i % per_round == MERGE_EVERY {
                (Kind::Merge, request_bytes("POST", "/merge", b""))
            } else {
                let body = body(ordinal(i));
                (
                    Kind::Ingest,
                    request_bytes("POST", "/ingest", body.as_bytes()),
                )
            }
        },
        |i, kind, reply| match kind {
            Kind::Ingest if reply.status == 202 => {
                accepted.lock().expect("accepted lock").push(ordinal(i));
                true
            }
            Kind::Ingest => false,
            _ => reply.status == 200,
        },
    );
    let mut accepted = accepted.into_inner().expect("accepted lock");
    accepted.sort_unstable();
    (result, accepted)
}

/// The store oracle: the daemon's store, reopened after shutdown, has the
/// stats of an offline append of every accepted ingest body onto a copy
/// of the store it started from.
fn check_store(
    out: &mut Outcome,
    work: &Path,
    base: &Path,
    served: &Path,
    bodies: impl Iterator<Item = String>,
) {
    let result = (|| -> Result<(String, String), String> {
        let served = SegmentStore::open(served).map_err(|e| format!("reopen served store: {e}"))?;
        let scratch = work.join("oracle-store");
        copy_dir(base, &scratch).map_err(|e| format!("copy store: {e}"))?;
        let mut offline = SegmentStore::open(&scratch).map_err(|e| format!("open copy: {e}"))?;
        let mut staging = PlanCorpus::new();
        for body in bodies {
            ingest_raw_with(&body, &mut staging, 2, &RawIngestOptions::default())
                .map_err(|e| format!("offline ingest: {e}"))?;
        }
        let plans: Vec<UnifiedPlan> = staging.iter().map(|(_, p)| p.clone()).collect();
        offline
            .append(&plans, 2)
            .map_err(|e| format!("offline append: {e}"))?;
        Ok((stats_line(served.corpus()), stats_line(offline.corpus())))
    })();
    match result {
        Ok((served, offline)) => out.check(served == offline, || {
            format!("store oracle: served store has {served}, offline append has {offline}")
        }),
        Err(e) => out.check(false, || format!("store oracle: {e}")),
    }
}

/// Adds the serve metrics shared by every workload: set-up from the
/// spawns, reads from `main`, writes from `writes` (the main loop itself
/// when ingests race the reads, else the write tail).
fn serve_metrics(
    out: &mut Outcome,
    setup: &[f64],
    main: &LoopResult,
    writes: &LoopResult,
    store_bytes_per_plan: f64,
    rss_mb: f64,
) {
    let knn = main.latencies(Kind::Knn);
    let radius = main.latencies(Kind::Radius);
    let ingest = writes.latencies(Kind::Ingest);
    let write_us: f64 =
        ingest.iter().sum::<f64>() + writes.latencies(Kind::Merge).iter().sum::<f64>();
    println!(
        "info: setup_s quartiles = {:?} s",
        [25.0, 50.0, 75.0].map(|p| percentile(setup, p).unwrap_or(0.0))
    );
    out.metric("setup_s", median(setup), "s", setup.len());
    out.metric(
        "throughput_rps",
        main.samples.len() as f64 / main.wall_s,
        "req/s",
        main.samples.len(),
    );
    out.metric("knn_p50_us", median(&knn), "us", knn.len());
    // p99 does not repeat within a tenth from run to run on a shared
    // 2-core machine, so it is printed here and gated nowhere; the traced
    // run reports it as `serve.knn_p99_us`.
    println!(
        "info: knn_p99_us = {} us (n={})",
        percentile(&knn, 99.0).unwrap_or(0.0),
        knn.len()
    );
    out.metric("radius_p50_us", median(&radius), "us", radius.len());
    out.metric("ingest_req_p50_us", median(&ingest), "us", ingest.len());
    out.metric(
        "ingest_records_per_s",
        (ingest.len() * INGEST_BATCH) as f64 / (write_us / 1e6),
        "rec/s",
        ingest.len(),
    );
    out.metric("store_bytes_per_plan", store_bytes_per_plan, "B", 1);
    out.metric("rss_peak_mb", rss_mb, "MiB", 1);
}

/// On-disk bytes per distinct plan of a store directory.
fn bytes_per_plan(store: &Path) -> Result<f64, String> {
    let opened = SegmentStore::open(store).map_err(|e| format!("open {}: {e}", store.display()))?;
    Ok(dir_bytes(store) as f64 / opened.corpus().len().max(1) as f64)
}

/// A read-only serving phase on a copy of `base`: set-up spawns, a closed
/// loop of 90% exact k-NN and 10% radius requests whose answers must be
/// byte-identical to offline execution, then the write tail.
fn serve_read_only(
    ctx: &Ctx,
    out: &mut Outcome,
    base: &Path,
    probes: &[UnifiedPlan],
    duration: Duration,
    ingest_body: &(dyn Fn(usize) -> String + Sync),
) -> Result<(), String> {
    let store = ctx.work.join("run-store");
    copy_dir(base, &store).map_err(|e| format!("copy store: {e}"))?;
    let bodies: Vec<(Kind, String)> = probes
        .iter()
        .flat_map(|p| [(Kind::Knn, knn_body(p)), (Kind::Radius, radius_body(p))])
        .collect();
    let expected = expected_responses(&store, &bodies)?;
    let requests: Vec<Vec<u8>> = bodies
        .iter()
        .map(|(kind, body)| {
            let path = if *kind == Kind::Knn {
                "/knn"
            } else {
                "/radius"
            };
            request_bytes("POST", path, body.as_bytes())
        })
        .collect();
    // The op sequence: probe p's k-NN or (one time in ten) its radius
    // query, with p drawn from the seeded traffic stream.
    let mut rng = Rng::new(derive(ctx.seed, inputs::SALT_TRAFFIC));
    let ops: Vec<usize> = (0..1 << 16)
        .map(|_| 2 * rng.below(probes.len()) + usize::from(rng.percent(10)))
        .collect();

    let setup = setup_phase(ctx, out, &store, &requests[0]);
    let (daemon, _) = Daemon::spawn(&ctx.repro, &store)?;
    // Warm-up: every distinct request once, so the timed loop sees a fully
    // decoded working set.
    let warm = closed_loop(
        daemon.addr,
        Duration::from_secs(120),
        Some(requests.len()),
        |i| (bodies[i].0, requests[i].clone()),
        |i, _, reply: &Reply| reply.status == 200 && reply.body == expected[i],
    );
    let main = closed_loop(
        daemon.addr,
        duration,
        None,
        |i| {
            let op = ops[i % ops.len()];
            (bodies[op].0, requests[op].clone())
        },
        |i, _, reply: &Reply| reply.status == 200 && reply.body == expected[ops[i % ops.len()]],
    );
    let (tail, accepted) = write_tail(daemon.addr, ingest_body);
    let exit = daemon.shutdown()?;
    out.attempted += (warm.samples.len() + main.samples.len() + tail.samples.len()) as u64;
    out.failed += warm.failed() + main.failed() + tail.failed();
    let queries_failed = warm.failed() + main.failed();
    if queries_failed > 0 {
        out.problems.push(format!(
            "{queries_failed} of {} query responses failed or differed from offline execution",
            warm.samples.len() + main.samples.len()
        ));
    }
    if tail.failed() > 0 {
        out.problems
            .push(format!("{} write-tail requests failed", tail.failed()));
    }
    check_store(
        out,
        &ctx.work,
        base,
        &store,
        accepted.iter().map(|&j| ingest_body(j)),
    );
    serve_metrics(
        out,
        &setup,
        &main,
        &tail,
        bytes_per_plan(&store)?,
        exit.peak_rss_mb,
    );
    Ok(())
}

/// `serve_query_10k`: read-only serving of the 10k-distinct-plan store.
pub fn serve_query_10k(ctx: &Ctx, out: &mut Outcome) -> Result<(), String> {
    let base = inputs::fixture_10k(&ctx.work)?;
    let probes = inputs::tpch_probes(ctx.seed, PROBES);
    let pool = RecordPool::new(ctx.seed);
    let body = |j: usize| pool.batch(ctx.seed, j, INGEST_BATCH);
    serve_read_only(
        ctx,
        out,
        &base,
        &probes,
        Duration::from_secs_f64(ctx.seconds),
        &body,
    )
}

/// The request kinds of the mixed stream, before probes are drawn.
#[derive(Debug, Clone, Copy)]
enum MixedKind {
    Knn,
    KnnRaw,
    Radius,
    Ingest,
    Stats,
    Metrics,
}

/// One operation of the mixed stream.
#[derive(Debug, Clone, Copy)]
enum MixedOp {
    Knn(usize),
    KnnRaw(usize),
    Radius(usize),
    Ingest(usize),
    Merge,
    Stats,
    Metrics,
}

/// `serve_mixed_100k`: reads and writes together on the lazily opened
/// 100k-observation store.
pub fn serve_mixed_100k(ctx: &Ctx, out: &mut Outcome) -> Result<(), String> {
    let base = inputs::fixture_100k(&ctx.work)?;
    let store = ctx.work.join("run-store");
    copy_dir(&base, &store).map_err(|e| format!("copy store: {e}"))?;
    let probes = inputs::tpch_probes(ctx.seed, PROBES);
    let pool = RecordPool::new(ctx.seed);
    let knn: Vec<Vec<u8>> = probes
        .iter()
        .map(|p| request_bytes("POST", "/knn", knn_body(p).as_bytes()))
        .collect();
    let radius: Vec<Vec<u8>> = probes
        .iter()
        .map(|p| request_bytes("POST", "/radius", radius_body(p).as_bytes()))
        .collect();
    let mut rng = Rng::new(derive(ctx.seed, inputs::SALT_TRAFFIC));
    let knn_raw: Vec<Vec<u8>> = (0..PROBES)
        .map(|_| request_bytes("POST", "/knn", knn_raw_body(pool.draw(&mut rng)).as_bytes()))
        .collect();
    // Fixed counts per block, in seeded order within each block.
    let template: Vec<MixedKind> = MIXED_BLOCK
        .iter()
        .flat_map(|&(kind, count)| std::iter::repeat_n(kind, count))
        .collect();
    let blocks = (MIXED_BLOCKS_PER_SECOND * ctx.seconds).ceil() as usize;
    let mut ops = Vec::new();
    let mut ingests = 0usize;
    for _ in 0..blocks {
        let mut block = template.clone();
        for i in (1..block.len()).rev() {
            block.swap(i, rng.below(i + 1));
        }
        for kind in block {
            let p = rng.below(PROBES);
            ops.push(match kind {
                MixedKind::Knn => MixedOp::Knn(p),
                MixedKind::KnnRaw => MixedOp::KnnRaw(p),
                MixedKind::Radius => MixedOp::Radius(p),
                MixedKind::Ingest => {
                    ingests += 1;
                    MixedOp::Ingest(ingests - 1)
                }
                MixedKind::Stats => MixedOp::Stats,
                MixedKind::Metrics => MixedOp::Metrics,
            });
            if matches!(kind, MixedKind::Ingest) && ingests.is_multiple_of(MERGE_EVERY) {
                ops.push(MixedOp::Merge);
            }
        }
    }
    let body = |j: usize| pool.batch(ctx.seed, j, INGEST_BATCH);

    let setup = setup_phase(ctx, out, &store, &knn[0]);
    let (daemon, _) = Daemon::spawn(&ctx.repro, &store)?;
    let accepted = Mutex::new(Vec::new());
    let main = closed_loop(
        daemon.addr,
        MIXED_TIME_CAP,
        Some(ops.len()),
        |i| match ops[i] {
            MixedOp::Knn(p) => (Kind::Knn, knn[p].clone()),
            MixedOp::KnnRaw(p) => (Kind::Knn, knn_raw[p].clone()),
            MixedOp::Radius(p) => (Kind::Radius, radius[p].clone()),
            MixedOp::Ingest(j) => (
                Kind::Ingest,
                request_bytes("POST", "/ingest", body(j).as_bytes()),
            ),
            MixedOp::Merge => (Kind::Merge, request_bytes("POST", "/merge", b"")),
            MixedOp::Stats => (Kind::Stats, request_bytes("GET", "/stats", b"")),
            MixedOp::Metrics => (Kind::Metrics, request_bytes("GET", "/metrics", b"")),
        },
        |i, kind, reply| match (kind, ops[i]) {
            (Kind::Ingest, MixedOp::Ingest(j)) if reply.status == 202 => {
                accepted.lock().expect("accepted lock").push(j);
                true
            }
            (Kind::Ingest, _) => false,
            _ => reply.status == 200,
        },
    );
    let exit = daemon.shutdown()?;
    let accepted = accepted.into_inner().expect("accepted lock");
    out.attempted += main.samples.len() as u64;
    out.failed += main.failed();
    if main.failed() > 0 {
        out.problems.push(format!(
            "{} of {} requests failed",
            main.failed(),
            main.samples.len()
        ));
    }
    out.check(main.samples.len() == ops.len(), || {
        format!(
            "mixed loop hit its {} s cap after {} of {} requests",
            MIXED_TIME_CAP.as_secs(),
            main.samples.len(),
            ops.len()
        )
    });
    check_store(
        out,
        &ctx.work,
        &base,
        &store,
        accepted.iter().map(|&j| body(j)),
    );
    serve_metrics(
        out,
        &setup,
        &main,
        &main,
        bytes_per_plan(&store)?,
        exit.peak_rss_mb,
    );
    Ok(())
}

/// The `ingest_raw_100k` dump for this seed and its in-process reference
/// (census, observation counters and stats of a sequential ingest), generated
/// once per seed; dumps of other seeds are removed.
pub fn dump_for_seed(ctx: &Ctx) -> Result<(PathBuf, Vec<String>), String> {
    let dump = ctx.work.join(format!("dump-{}.jsonl", ctx.seed));
    let reference = ctx.work.join(format!("dump-{}.ref", ctx.seed));
    if let Ok(entries) = std::fs::read_dir(&ctx.work) {
        for entry in entries.filter_map(Result::ok) {
            let name = entry.file_name().to_string_lossy().into_owned();
            let stem = format!("dump-{}.", ctx.seed);
            if name.starts_with("dump-") && !name.starts_with(&stem) {
                let _ = std::fs::remove_file(entry.path());
            }
        }
    }
    if !reference.is_file() {
        let pool = RecordPool::new(ctx.seed);
        let text = pool.dump(
            &mut Rng::new(derive(ctx.seed, inputs::SALT_DUMP)),
            DUMP_RECORDS,
        );
        let mut corpus = PlanCorpus::new();
        let report = ingest_raw_sequential(&text, &mut corpus)
            .map_err(|e| format!("reference ingest: {e}"))?;
        let lines = [
            report.census(),
            format!(
                "observed {} plans this run ({} fingerprint duplicates)",
                corpus.observed(),
                corpus.duplicates()
            ),
            stats_line(&corpus),
        ];
        std::fs::write(&dump, &text).map_err(|e| format!("write dump: {e}"))?;
        std::fs::write(&reference, lines.join("\n"))
            .map_err(|e| format!("write reference: {e}"))?;
    }
    let lines = std::fs::read_to_string(&reference).map_err(|e| format!("read reference: {e}"))?;
    Ok((dump, lines.lines().map(str::to_owned).collect()))
}

/// One `repro corpus ingest <dir> --raw <dump> --segmented --threads 2`:
/// wall seconds, exit, and stdout.
pub fn ingest_process(
    ctx: &Ctx,
    dump: &Path,
    dir: &Path,
) -> Result<(f64, net::Exit, String), String> {
    if dir.exists() {
        std::fs::remove_dir_all(dir).map_err(|e| format!("clear {}: {e}", dir.display()))?;
    }
    let start = Instant::now();
    let mut child = Command::new(&ctx.repro)
        .arg("corpus")
        .arg("ingest")
        .arg(dir)
        .arg("--raw")
        .arg(dump)
        .args(["--segmented", "--threads", &net::DAEMON_THREADS.to_string()])
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .map_err(|e| format!("cannot spawn ingest: {e}"))?;
    let peak = net::PeakRss::watch(&child);
    let mut text = String::new();
    let read =
        std::io::Read::read_to_string(child.stdout.as_mut().expect("stdout is piped"), &mut text);
    let exit = net::reap(child, peak).map_err(|e| format!("cannot wait for ingest: {e}"))?;
    let wall = start.elapsed().as_secs_f64();
    read.map_err(|e| format!("ingest stdout: {e}"))?;
    Ok((wall, exit, text))
}

/// `ingest_raw_100k`: a ~100k-record mixed-dialect dump into a fresh
/// segment store through the CLI, then the written store served.
pub fn ingest_raw_100k(ctx: &Ctx, out: &mut Outcome) -> Result<(), String> {
    let (dump, reference) = dump_for_seed(ctx)?;
    let dir = ctx.work.join("ingest-store");
    let started = Instant::now();
    let mut walls = Vec::new();
    let mut rss = Vec::new();
    let mut runs = 0;
    while runs < MIN_INGEST_RUNS || started.elapsed().as_secs_f64() < ctx.seconds * INGEST_SHARE {
        runs += 1;
        let (wall, exit, text) = ingest_process(ctx, &dump, &dir)?;
        out.attempted += 1;
        // The census line follows the `<dump> [jsonl]: ` prefix.
        let census = text
            .lines()
            .find_map(|l| l.split_once("]: ").map(|(_, c)| c.to_owned()))
            .unwrap_or_default();
        let ok = exit.success
            && census == reference[0]
            && text.lines().any(|l| l == reference[1])
            && text.lines().any(|l| l == reference[2]);
        if ok {
            walls.push(wall);
            rss.push(exit.peak_rss_mb);
        } else {
            out.failed += 1;
            out.problems.push(format!(
                "ingest output differs from the sequential reference:\n{text}\nexpected:\n{}",
                reference.join("\n")
            ));
        }
    }
    let base = ctx.work.join("ingest-base");
    if base.exists() {
        std::fs::remove_dir_all(&base).map_err(|e| format!("clear {}: {e}", base.display()))?;
    }
    std::fs::rename(&dir, &base).map_err(|e| format!("keep ingest store: {e}"))?;
    let store_bytes = bytes_per_plan(&base)?;

    // Serve what was written: probes and ingest bodies are dump records.
    let text = std::fs::read_to_string(&dump).map_err(|e| format!("read dump: {e}"))?;
    let records: Vec<&str> = text.lines().collect();
    let probes = inputs::dump_probes(ctx.seed, &records, PROBES)?;
    let body = |j: usize| inputs::dump_batch(ctx.seed, j, &records, INGEST_BATCH);
    let serve_s =
        (ctx.seconds - started.elapsed().as_secs_f64()).max(ctx.seconds * (1.0 - INGEST_SHARE));
    serve_read_only(
        ctx,
        out,
        &base,
        &probes,
        Duration::from_secs_f64(serve_s),
        &body,
    )?;
    // The ingest process, not the daemon, is this workload's subject: its
    // throughput, store size and memory replace the serve phase's.
    for metric in &mut out.metrics {
        match metric.name {
            "ingest_records_per_s" => {
                metric.value = DUMP_RECORDS as f64 / median(&walls);
                metric.samples = walls.len();
            }
            "store_bytes_per_plan" => metric.value = store_bytes,
            "rss_peak_mb" => {
                metric.value = median(&rss);
                metric.samples = rss.len();
            }
            _ => {}
        }
    }
    Ok(())
}
