//! `repro` — regenerate every table and figure of the paper's evaluation.
//!
//! ```text
//! repro all            # everything (default budgets)
//! repro table1..table7 # individual tables
//! repro fig1..fig4     # individual figures
//! repro listing1|listing3|q11|effort|ablation
//! repro snapshot [path]   # quick hot-path microbench run → JSON (default
//!                         # BENCH_snapshot.json; pass BENCH_baseline.json
//!                         # explicitly only to re-baseline deliberately)
//! repro compare <baseline.json>...
//!                         # quick run diffed against committed snapshots;
//!                         # exits 1 on regression (UPLAN_BENCH_TOLERANCE
//!                         # overrides the 1.5x noise tolerance)
//! repro corpus <ingest|raw-fixture|raw-check|fixture-ingest|campaign|stats|cluster|
//!               diff|query|recall|open-gate|serve|salvage|mutate|compact|sources> ...
//!                         # manage persistent, TED-indexed plan corpora,
//!                         # each an append-only segment-store directory:
//!                         # parallel sharded ingest (--threads),
//!                         # mixed-source raw-dump ingest (ingest --raw,
//!                         # framed + source-sniffed per record, --lenient
//!                         # skip-and-report with --quarantine), corruption
//!                         # recovery (salvage) and seeded
//!                         # fault injection (mutate), serving, and the CI
//!                         # gates (fixture-ingest, raw-fixture + raw-check,
//!                         # mutate + salvage, recall, open-gate); see
//!                         # crates/bench/src/corpus_cli/mod.rs
//! ```
//!
//! Exit codes: 0 success; 1 operational failure (I/O, regression found);
//! 2 bad input (unknown command, unusable arguments or files).
//!
//! The global `--log-json <path>` flag (any position) opens a JSONL span
//! log for the run: every instrumented operation — ingest batches, epoch
//! merges, served requests — appends one line (see `uplan_obs::trace` for
//! the schema). `UPLAN_LOG` filters what is recorded (`RUST_LOG`-style);
//! unset, the flag itself enables debug-level spans.

use uplan_bench as experiments;

fn main() {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    // Strip the global --log-json flag before subcommand dispatch.
    if let Some(i) = args.iter().position(|a| a == "--log-json") {
        if i + 1 >= args.len() {
            eprintln!("--log-json needs a path");
            std::process::exit(2);
        }
        let path = args.remove(i + 1);
        args.remove(i);
        if let Err(e) = uplan_obs::init_json_log(std::path::Path::new(&path)) {
            eprintln!("cannot open log file {path}: {e}");
            std::process::exit(1);
        }
    }
    // The JSONL sink is buffered; spans written through it survive only
    // if flushed before the process exits, so every path funnels here.
    let code = run(&args);
    uplan_obs::flush_json_log();
    std::process::exit(code);
}

fn run(args: &[String]) -> i32 {
    let which = args.first().map(String::as_str).unwrap_or("all");
    if which == "snapshot" {
        let path = args
            .get(1)
            .map(String::as_str)
            .unwrap_or("BENCH_snapshot.json");
        return match experiments::snapshot::run(path) {
            Ok(summary) => experiments::print_report(&summary, 0),
            Err(e) => {
                eprintln!("snapshot failed: {e}");
                1
            }
        };
    }
    if which == "corpus" {
        return experiments::corpus_cli::run(&args[1..]);
    }
    if which == "compare" {
        let paths: Vec<String> = args[1..].to_vec();
        if paths.is_empty() {
            eprintln!("usage: repro compare <baseline.json>...");
            return 2;
        }
        let (report, failed) = experiments::compare::run(&paths);
        return experiments::print_report(&report, i32::from(failed));
    }
    let run = |name: &str| -> Option<String> {
        let output = match name {
            "table1" => experiments::table1(),
            "table2" => experiments::table2(),
            "table3" => experiments::table3(),
            "table4" => experiments::table4(),
            "table5" => experiments::table5(400, 250),
            "table6" => experiments::table6(2),
            "table7" => experiments::table7(),
            "fig1" => experiments::fig1(),
            "fig2" => experiments::fig2(),
            "fig3" => experiments::fig3(),
            "fig4" => experiments::fig4(2),
            "listing1" => experiments::listing1(),
            "listing3" => experiments::listing3(),
            "q11" => experiments::q11(4),
            "effort" => experiments::effort(),
            "ablation" => experiments::ablation(250),
            _ => return None,
        };
        Some(output)
    };
    let print = |name: &str, output: String| {
        experiments::print_report(
            &format!("\n================ {name} ================\n{output}"),
            0,
        )
    };
    if which == "all" {
        for name in [
            "table1", "table2", "table3", "table4", "table5", "table6", "table7", "fig1", "fig2",
            "fig3", "fig4", "listing1", "listing3", "q11", "effort", "ablation",
        ] {
            let code = print(name, run(name).expect("every listed experiment exists"));
            if code != 0 {
                return code;
            }
        }
        0
    } else {
        // An unknown name is bad input, not a successful no-op run.
        match run(which) {
            Some(output) => print(which, output),
            None => {
                eprintln!("unknown experiment {which:?} (see `repro` module docs for the list)");
                2
            }
        }
    }
}
