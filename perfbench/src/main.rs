//! The repository benchmark: end-to-end runs of the plan-corpus daemon
//! and raw-dump ingest against the real `repro` binary, plus a separate
//! traced run timing each layer's public calls on the same inputs.
//!
//! ```text
//! bash perfbench/run.sh --workload <serve_query_10k|serve_mixed_100k|ingest_raw_100k>
//!                       --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! `--trace 0` prints the end-to-end metrics, `--trace 1` the per-layer
//! ones; each metric line names its unit and sample count, and the last
//! stdout line is the JSON result. `PERFBENCH_REPRO` names the `repro`
//! binary and `PERFBENCH_WORK` the directory for generated inputs
//! (`run.sh` builds the binary and sets both).

mod inputs;
mod layers;
mod net;
mod util;
mod workloads;

use std::path::PathBuf;

use util::Outcome;
use workloads::Ctx;

const WORKLOADS: [&str; 3] = ["serve_query_10k", "serve_mixed_100k", "ingest_raw_100k"];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, 0u64, 10.0f64, false);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad {flag} value {value:?}");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = value.parse().map_err(|_| bad())?,
            "--seconds" => seconds = value.parse().map_err(|_| bad())?,
            "--trace" => trace = value.parse::<u8>().map_err(|_| bad())? != 0,
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload:?} (one of {WORKLOADS:?})"
        ));
    }
    if !seconds.is_finite() || seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let Some(repro) = std::env::var_os("PERFBENCH_REPRO").map(PathBuf::from) else {
        eprintln!("perfbench: PERFBENCH_REPRO must name the repro binary (run.sh sets it)");
        std::process::exit(2);
    };
    let work = std::env::var_os("PERFBENCH_WORK")
        .map_or_else(|| PathBuf::from("perfbench/work"), PathBuf::from);
    if let Err(e) = std::fs::create_dir_all(&work) {
        eprintln!("perfbench: cannot create {}: {e}", work.display());
        std::process::exit(1);
    }
    let ctx = Ctx {
        repro,
        work,
        seed: args.seed,
        seconds: args.seconds,
    };
    let nproc = std::thread::available_parallelism().map_or(1, usize::from);
    println!(
        "meta: workload={} seed={} seconds={} trace={} nproc={nproc} client_connections={} \
         daemon_threads={} merge_threads={} flush_policy=no-fsync",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        net::CONNECTIONS,
        net::DAEMON_THREADS,
        net::DAEMON_THREADS,
    );
    let mut out = Outcome::default();
    let run = match (args.trace, args.workload.as_str()) {
        (false, "serve_query_10k") => workloads::serve_query_10k(&ctx, &mut out),
        (false, "serve_mixed_100k") => workloads::serve_mixed_100k(&ctx, &mut out),
        (false, _) => workloads::ingest_raw_100k(&ctx, &mut out),
        (true, workload) => layers::run(&ctx, workload, &mut out),
    };
    if let Err(e) = run {
        eprintln!("perfbench: {} failed: {e}", args.workload);
        std::process::exit(1);
    }
    for m in &out.metrics {
        println!("{} = {} {} (n={})", m.name, m.value, m.unit, m.samples);
    }
    println!(
        "error_share = {} ({} failed of {} attempted)",
        out.failed as f64 / out.attempted.max(1) as f64,
        out.failed,
        out.attempted
    );
    for problem in &out.problems {
        println!("problem: {problem}");
    }
    println!("{}", out.json_line());
}
