//! # uplan-bench — the reproduction harness
//!
//! One function per table/figure of the paper's evaluation; the `repro`
//! binary dispatches to them, and EXPERIMENTS.md records paper-vs-measured
//! for each. See DESIGN.md's per-experiment index for the mapping.
//!
//! [`microbench`] holds the hot-path benchmark bodies shared by the
//! `cargo bench` harnesses and the [`snapshot`] subcommand
//! (`cargo run -p uplan-bench -- snapshot`), which writes machine-readable
//! numbers for cross-PR performance tracking. [`compare`] diffs a fresh
//! quick-mode run against committed snapshots and exits non-zero on
//! regression — the CI bench gate (`repro compare BENCH_baseline.json`).

pub mod compare;
pub mod corpus_cli;
pub mod corpus_fixture;
pub mod experiments;
pub mod microbench;
pub mod snapshot;

pub use experiments::*;

/// Writes `text` and a newline to stdout. A reader that closed the pipe
/// early (`repro … | head`) ends the output quietly; any other write
/// failure is returned.
pub fn write_stdout(text: &str) -> std::io::Result<()> {
    use std::io::Write;
    let mut stdout = std::io::stdout().lock();
    match writeln!(stdout, "{text}").and_then(|()| stdout.flush()) {
        Err(e) if e.kind() == std::io::ErrorKind::BrokenPipe => Ok(()),
        written => written,
    }
}

/// Prints a command's finished report through [`write_stdout`] and returns
/// the command's exit code `code`, or 1 when stdout failed.
pub fn print_report(report: &str, code: i32) -> i32 {
    match write_stdout(report) {
        Ok(()) => code,
        Err(e) => {
            eprintln!("cannot write the report: {e}");
            1
        }
    }
}
