//! End-to-end tests of the `repro corpus` verbs, driven through the one
//! dispatch table the binary uses.

use std::collections::BTreeMap;

use uplan_convert::{convert, RawIngestOptions, Source};
use uplan_corpus::{AppendReport, PlanCorpus, QueryRequest, SegmentStore, MANIFEST_FILE};

use super::{run_inner, usage, CliError, VERBS};

fn strings(parts: &[&str]) -> Vec<String> {
    parts.iter().map(|s| s.to_string()).collect()
}

/// Runs one `repro corpus` command line.
fn cli(args: &[&str]) -> Result<String, CliError> {
    run_inner(&strings(args))
}

/// Per-process temp path: concurrent test runs (two checkouts, two CI
/// jobs) must not share fixture files.
fn temp(name: &str) -> String {
    std::env::temp_dir()
        .join(format!("{}_{name}", std::process::id()))
        .to_string_lossy()
        .into_owned()
}

/// Every file of a store directory, by name.
fn dir_bytes(dir: &str) -> BTreeMap<String, Vec<u8>> {
    std::fs::read_dir(dir)
        .unwrap()
        .map(|entry| {
            let entry = entry.unwrap();
            let name = entry.file_name().to_string_lossy().into_owned();
            (name, std::fs::read(entry.path()).unwrap())
        })
        .collect()
}

fn remove(paths: &[&String]) {
    for path in paths {
        let path = std::path::Path::new(path.as_str());
        if path.is_dir() {
            std::fs::remove_dir_all(path).ok();
        } else {
            std::fs::remove_file(path).ok();
        }
    }
}

const TIDB_PLAN: &str = "\
+-----------------------+---------+-----------+---------------+---------------+
| id                    | estRows | task      | access object | operator info |
+-----------------------+---------+-----------+---------------+---------------+
| TableReader_7         | 5.00    | root      |               |               |
| └─TableFullScan_5     | 100.00  | cop[tikv] | table:t0      |               |
+-----------------------+---------+-----------+---------------+---------------+
";

#[test]
fn usage_errors_do_not_panic() {
    assert!(run_inner(&[]).is_err());
    assert!(cli(&["frobnicate"]).is_err());
    assert!(cli(&["ingest", "out"]).is_err());
    assert!(cli(&["ingest", "out", "oracle", "file"]).is_err());
    // A missing store is operational (exit 1) for every reading verb,
    // like any unreadable input.
    for verb in [
        "stats",
        "query",
        "cluster",
        "diff",
        "recall",
        "open-gate",
        "compact",
        "serve",
    ] {
        let mut args = vec![verb, "/definitely/not/here"];
        match verb {
            "diff" => args.push("/definitely/not/here"),
            "query" => args.push("stats"),
            _ => {}
        }
        let err = cli(&args).unwrap_err();
        assert_eq!(err.code(), 1, "{verb}: {err}");
    }
    // A daemon without connection workers is a usage error (exit 2),
    // refused before the store is opened.
    let err = cli(&["serve", "/definitely/not/here", "--threads", "0"]).unwrap_err();
    assert_eq!(err.code(), 2, "{err}");
    assert!(err.to_string().contains("--threads at least 1"), "{err}");
    assert!(cli(&["campaign", "/no/dir/x", "db2"]).is_err());
    // Retired flags are rejected as unknown, not read as file names.
    for retired in ["--index", "--append", "--shards"] {
        let err = cli(&["ingest", "out", "--raw", "dump", retired]);
        assert_eq!(
            err.unwrap_err().to_string(),
            format!("unknown flag {retired}")
        );
    }
    // Queries run on the calling thread: no verb that queries takes a
    // thread count.
    let thread_counts: [&[&str]; 2] = [
        &["cluster", "/definitely/not/here", "--threads", "2"],
        &["query", "/definitely/not/here", "stats", "--threads", "2"],
    ];
    for args in thread_counts {
        let err = cli(args).unwrap_err();
        assert_eq!(err.to_string(), "unknown flag --threads", "{args:?}");
    }
}

#[test]
fn ingest_option_combinations_are_checked_before_any_dump_is_read() {
    // A clean dump: the bad combinations must fail before it is read,
    // and must not write a quarantine file or a store.
    let dump = temp("uplan_cli_flags.jsonl");
    cli(&["raw-fixture", &dump, "1"]).unwrap();
    let (out, quarantine) = (temp("uplan_cli_flags"), temp("uplan_cli_flags_q.jsonl"));
    let raw: &[&str] = &["ingest", &out, "--raw", &dump];
    let native: &[&str] = &["ingest", &out, "tidb-table", &dump];
    let q: &[&str] = &["--quarantine", &quarantine];
    let cases: [(&[&str], &[&str]); 6] = [
        (raw, q),
        (raw, &["--max-errors", "5"]),
        (raw, &["--max-errors", "5", "--quarantine", &quarantine]),
        (native, &["--lenient"]),
        (native, &["--lenient", "--quarantine", &quarantine]),
        (native, q),
    ];
    for (form, flags) in cases {
        let args = strings(&[form, flags].concat());
        let err = run_inner(&args).unwrap_err();
        assert_eq!(err.code(), 2, "{args:?}: {err}");
        assert_eq!(
            err.to_string(),
            "--max-errors and --quarantine need --lenient, which needs --raw",
            "{args:?}"
        );
        assert!(!std::path::Path::new(&quarantine).exists(), "{args:?}");
        assert!(!std::path::Path::new(&out).exists(), "{args:?}");
    }
    // With --lenient the same flags are accepted.
    let lenient = strings(&[raw, &["--lenient", "--max-errors", "5"], q].concat());
    run_inner(&lenient).unwrap();
    assert_eq!(std::fs::read_to_string(&quarantine).unwrap(), "");
    remove(&[&dump, &out, &quarantine]);
}

#[test]
fn raw_fixture_writes_identical_files_on_every_run() {
    let (a, b) = (
        temp("uplan_cli_fixture_a.jsonl"),
        temp("uplan_cli_fixture_b.jsonl"),
    );
    let first = cli(&["raw-fixture", &a, "2", "--dirty", "3"]).unwrap();
    let second = cli(&["raw-fixture", &b, "2", "--dirty", "3"]).unwrap();
    assert_eq!(first.replace(&a, &b), second);
    assert_eq!(std::fs::read(&a).unwrap(), std::fs::read(&b).unwrap());
    remove(&[&a, &b]);
}

#[test]
fn sources_lists_all_converters() {
    let listing = cli(&["sources"]).unwrap();
    assert_eq!(listing.lines().count(), Source::ALL.len());
    assert!(listing.contains("postgres-text"));
}

#[test]
fn ingest_stats_cluster_diff_round_trip() {
    // Two tiny explain files through the TiDB table converter.
    let plan_b = TIDB_PLAN.replace("t0", "t1");
    let file_a = temp("uplan_cli_a.explain");
    let file_b = temp("uplan_cli_b.explain");
    std::fs::write(&file_a, TIDB_PLAN).unwrap();
    std::fs::write(&file_b, &plan_b).unwrap();

    let left = temp("uplan_cli_left");
    let report = cli(&["ingest", &left, "tidb-table", &file_a, &file_b, &file_a]).unwrap();
    // Same skeleton, different name_object values: structurally equal
    // under default fingerprints → 3 observed, 1 distinct.
    assert!(
        report.contains("observed 3 plans this run (2 fingerprint duplicates)"),
        "{report}"
    );
    assert!(report.contains("1 distinct plans"), "{report}");

    let right = temp("uplan_cli_right");
    cli(&["ingest", &right, "tidb-table", &file_a]).unwrap();

    let stats = cli(&["stats", &left]).unwrap();
    assert!(stats.contains("1 distinct"), "{stats}");

    let clustered = cli(&["cluster", &left, "1"]).unwrap();
    assert!(clustered.contains("1 clusters over 1 plans"), "{clustered}");
    let dot = cli(&["cluster", &left, "--dot"]).unwrap();
    assert!(dot.starts_with("digraph"), "{dot}");
    // Flag-first invocations must still honor the radius argument.
    let dot_first = cli(&["cluster", &left, "--dot", "5"]).unwrap();
    assert!(dot_first.contains("radius 5"), "{dot_first}");
    assert!(cli(&["cluster", &left, "--dot", "nope"]).is_err());

    let diffed = cli(&["diff", &left, &right, "1"]).unwrap();
    assert!(diffed.contains("shared fingerprints: 1"), "{diffed}");

    remove(&[&file_a, &file_b, &left, &right]);
}

#[test]
fn fixture_ingest_is_thread_count_invariant_and_indexed_loads_are_eval_free() {
    let out1 = temp("uplan_cli_fx1");
    let out4 = temp("uplan_cli_fx4");
    let r1 = cli(&["fixture-ingest", &out1, "300", "--threads", "1"]).unwrap();
    let r4 = cli(&["fixture-ingest", &out4, "300", "--threads", "4"]).unwrap();
    // Every line except the `wrote …` trailer (which names the thread
    // count) is identical — the same invariant the CI corpus-scale job
    // diffs — and so is every written file.
    let strip = |r: &str| {
        r.lines()
            .filter(|l| !l.starts_with("wrote "))
            .collect::<Vec<_>>()
            .join("\n")
    };
    assert_eq!(strip(&r1), strip(&r4));
    assert_eq!(dir_bytes(&out1), dir_bytes(&out4));

    let stats = cli(&["stats", &out4]).unwrap();
    assert!(
        stats.contains("index: persisted (0 TED evaluations on load)"),
        "{stats}"
    );

    // Flag errors are reported, not panicked.
    assert!(cli(&["fixture-ingest"]).is_err());
    assert!(cli(&["fixture-ingest", &out1, "--threads"]).is_err());
    assert!(cli(&["fixture-ingest", &out1, "--seed", "zz"]).is_err());
    for retired in ["--index", "--segmented", "--shards"] {
        let err = cli(&["fixture-ingest", &out1, retired]).unwrap_err();
        assert_eq!(err.to_string(), format!("unknown flag {retired}"));
    }

    remove(&[&out1, &out4]);
}

#[test]
fn raw_fixture_ingests_identically_batched_and_sequential() {
    let dump = temp("uplan_cli_raw.jsonl");
    let report = cli(&["raw-fixture", &dump, "2"]).unwrap();
    assert!(report.contains("22 mixed-source plan lines"), "{report}");

    // The gate command agrees with itself end to end.
    let checked = cli(&["raw-check", &dump]).unwrap();
    assert!(
        checked.contains("raw ingest == sequential per-source conversion"),
        "{checked}"
    );
    // All nine dialects appear in the census.
    for source in Source::ALL {
        assert!(
            checked.contains(source.name()),
            "{source:?} missing from {checked}"
        );
    }

    // `ingest --raw` writes byte-identical stores for 1 and 4 threads.
    let out1 = temp("uplan_cli_raw_t1");
    let out4 = temp("uplan_cli_raw_t4");
    let r1 = cli(&["ingest", &out1, "--raw", &dump, "--threads", "1"]).unwrap();
    cli(&["ingest", &out4, "--raw", &dump, "--threads", "4"]).unwrap();
    assert!(r1.contains("raw-ingested 22 plan line(s)"), "{r1}");
    assert_eq!(dir_bytes(&out1), dir_bytes(&out4));
    let stats = cli(&["stats", &out4]).unwrap();
    assert!(stats.contains("persisted (0 TED evaluations"), "{stats}");

    // Usage errors stay errors.
    assert!(cli(&["ingest", &out1, "--raw"]).is_err());
    assert!(cli(&["raw-check", "/definitely/not/here"]).is_err());

    remove(&[&dump, &out1, &out4]);
}

#[test]
fn salvage_and_mutate_agree_on_exact_expectations() {
    let intact = temp("uplan_cli_slv");
    cli(&["fixture-ingest", &intact, "400", "--batches", "2"]).unwrap();

    // An intact store salvages losslessly.
    let report = cli(&["salvage", &intact]).unwrap();
    assert!(report.contains("0 dropped; 2 of 2 segment(s)"), "{report}");
    assert!(report.contains("index: persisted"), "{report}");

    // Every fault op: the salvage outcome matches the printed
    // expectation exactly.
    for (op, seed) in [
        ("truncate", "0x5"),
        ("truncate", "0x2"),
        ("bitflip", "0xB"),
        ("bitflip", "0x51"),
        ("delete", "0x0"),
        ("delete", "0x1"),
    ] {
        let damaged = temp(&format!("uplan_cli_slv_{op}_{seed}"));
        let mutated = cli(&["mutate", &intact, &damaged, "--op", op, "--seed", seed]).unwrap();
        let expectation = mutated
            .lines()
            .find_map(|l| l.strip_prefix("expect-recoverable: "))
            .unwrap_or_else(|| panic!("no expectation in {mutated}"));
        // "N of M plans" — must reappear verbatim in the salvage
        // report (Ok for N > 0, Input error for N == 0).
        let printed = match cli(&["salvage", &damaged]) {
            Ok(report) => report,
            Err(CliError::Input(message)) => message,
            Err(other) => panic!("{op} seed {seed}: {other}"),
        };
        assert!(
            printed.contains(&format!("salvaged {expectation}")),
            "{op} seed {seed}: expected {expectation:?} in {printed:?}"
        );
        remove(&[&damaged]);
    }

    // `--out` writes the survivors as a new store, never over one.
    let recovered = temp("uplan_cli_slv_out");
    cli(&["salvage", &intact, "--out", &recovered]).unwrap();
    let stats = cli(&["stats", &recovered]).unwrap();
    assert!(stats.contains("segments: 1"), "{stats}");
    let again = cli(&["salvage", &intact, "--out", &recovered]).unwrap_err();
    assert_eq!(again.code(), 2, "{again}");

    // Exit codes: unreadable paths are operational (1), bad
    // arguments and unrecoverable stores are input (2).
    let missing = cli(&["salvage", "/definitely/not/here"]).unwrap_err();
    assert_eq!(missing.code(), 1, "{missing}");
    let usage = cli(&["mutate", &intact]).unwrap_err();
    assert_eq!(usage.code(), 2, "{usage}");
    let bad_op = cli(&["mutate", &intact, "/tmp/x", "--op", "scramble"]).unwrap_err();
    assert_eq!(bad_op.code(), 2, "{bad_op}");
    remove(&[&intact, &recovered]);
}

/// A regular file where a store belongs is bad input (exit 2) for
/// every verb that reads a store, and the message points legacy corpus
/// files at their migration path.
#[test]
fn reading_verbs_refuse_regular_files() {
    let file = temp("uplan_cli_not_a_store.uplanc");
    std::fs::write(&file, b"UPLN").unwrap();
    for verb in ["stats", "salvage", "open-gate", "serve"] {
        let err = cli(&[verb, &file]).unwrap_err();
        assert_eq!(err.code(), 2, "{verb}: {err}");
        let message = err.to_string();
        assert!(message.contains("not a segment store"), "{verb}: {message}");
        assert!(message.contains("an older `repro`"), "{verb}: {message}");
    }
    // `import` is not a verb.
    let err = cli(&["import", &file, "/tmp/x"]).unwrap_err();
    assert_eq!(err.code(), 2, "{err}");
    assert!(err.to_string().starts_with("usage:"), "{err}");
    remove(&[&file]);
}

#[test]
fn lenient_raw_ingest_matches_the_valid_subset_end_to_end() {
    let dump = temp("uplan_cli_dirty.jsonl");
    let report = cli(&["raw-fixture", &dump, "2", "--dirty", "6", "--seed", "0x7"]).unwrap();
    assert!(report.contains("injected 6 garbage line(s)"), "{report}");

    // Strict ingest of the dirty dump is a bad-input failure (2)...
    let out = temp("uplan_cli_dirty");
    let strict = cli(&["ingest", &out, "--raw", &dump]).unwrap_err();
    assert_eq!(strict.code(), 2, "{strict}");

    // ...lenient ingest skips exactly the injected lines, quarantines
    // them replayably, and the gate proves valid-subset byte-identity.
    let quarantine = temp("uplan_cli_dirty_q.jsonl");
    let lenient = cli(&[
        "ingest",
        &out,
        "--raw",
        &dump,
        "--lenient",
        "--quarantine",
        &quarantine,
        "--threads",
        "4",
    ])
    .unwrap();
    assert!(
        lenient.contains("raw-ingested 22 plan line(s)"),
        "{lenient}"
    );
    assert!(
        lenient.contains("lenient: 6 record(s) skipped"),
        "{lenient}"
    );
    assert_eq!(
        std::fs::read_to_string(&quarantine)
            .unwrap()
            .lines()
            .count(),
        6
    );

    let checked = cli(&["raw-check", &dump, "--lenient"]).unwrap();
    assert!(
        checked.contains("lenient ingest == strict ingest of the valid subset"),
        "{checked}"
    );
    // A --max-errors bound below the garbage count aborts.
    let bounded = cli(&[
        "ingest",
        &out,
        "--raw",
        &dump,
        "--lenient",
        "--max-errors",
        "3",
    ])
    .unwrap_err();
    assert!(bounded.to_string().contains("max-errors 3"), "{bounded}");

    remove(&[&dump, &out, &quarantine]);
}

/// The staging-corpus algorithm `ingest --raw` once ran, kept as the
/// oracle: every dump into one staging corpus, whose plans are then
/// appended to the store at `dir` (created when it is not one yet).
fn staged_raw_append(dir: &str, dumps: &[&String], options: &RawIngestOptions) -> AppendReport {
    let mut staging = PlanCorpus::new();
    for dump in dumps {
        let text = std::fs::read_to_string(dump).unwrap();
        uplan_convert::ingest_raw_with(&text, &mut staging, 1, options).unwrap();
    }
    let plans: Vec<uplan_core::UnifiedPlan> =
        staging.iter().map(|(_, plan)| plan.clone()).collect();
    let mut store = if SegmentStore::is_store_dir(dir) {
        SegmentStore::open(dir).unwrap()
    } else {
        SegmentStore::create(dir, PlanCorpus::new()).unwrap()
    };
    store.append(&plans, 1).unwrap()
}

/// `ingest --raw` of two dumps that share plans, into a fresh store and
/// into one that already holds some of them: exact session, append and
/// lenient lines, and every store file equal to the staging oracle's.
#[test]
fn raw_ingest_of_several_dumps_matches_the_staging_oracle() {
    let (d1, d2, d3) = (
        temp("uplan_cli_pin_d1.jsonl"),
        temp("uplan_cli_pin_d2.jsonl"),
        temp("uplan_cli_pin_d3.jsonl"),
    );
    cli(&["raw-fixture", &d1, "1"]).unwrap();
    cli(&["raw-fixture", &d2, "2"]).unwrap();
    cli(&["raw-fixture", &d3, "3", "--dirty", "2", "--seed", "0x9"]).unwrap();
    // Segment sizes are not pinned here: the expected append line takes
    // them from the oracle's append of the same dumps.
    for (label, held, admitted) in [
        ("fresh", None, "29 of 29 plan(s) admitted, 0 duplicate(s)"),
        (
            "held",
            Some(&d1),
            "18 of 29 plan(s) admitted, 11 duplicate(s)",
        ),
    ] {
        let ingested = temp(&format!("uplan_cli_pin_{label}"));
        let oracle = temp(&format!("uplan_cli_pin_{label}_oracle"));
        if let Some(held) = held {
            for dir in [&ingested, &oracle] {
                cli(&["ingest", dir, "--raw", held]).unwrap();
            }
        }
        let report = cli(&[
            "ingest",
            &ingested,
            "--raw",
            &d2,
            &d3,
            "--lenient",
            "--threads",
            "2",
        ])
        .unwrap();
        let lines: Vec<&str> = report.lines().collect();
        assert_eq!(lines[0], "raw-ingested 55 plan line(s) from 2 dump(s)");
        assert_eq!(lines[1], "lenient: 2 record(s) skipped");
        let skipped = format!("{d3}: skipped 2 — line 15 (classify), line 22 (tidb-table convert)");
        assert_eq!(lines[4], skipped);
        assert_eq!(
            lines[5],
            "observed 55 plans this run (26 fingerprint duplicates)"
        );
        let staged = staged_raw_append(&oracle, &[&d2, &d3], &RawIngestOptions::lenient());
        let appended = format!(
            "appended segment {} ({} bytes): {admitted}",
            staged.segment_id.unwrap(),
            staged.segment_bytes
        );
        assert_eq!(lines[6], appended, "{label}");
        assert_eq!(lines[7], "29 distinct plans, 288 operations, max depth 14");
        assert_eq!(dir_bytes(&ingested), dir_bytes(&oracle), "{label}");
        remove(&[&ingested, &oracle]);
    }
    remove(&[&d1, &d2, &d3]);
}

/// A lenient run over several dirty dumps quarantines every skipped
/// record of the run, in dump order, and the file replays to exactly
/// those failures.
#[test]
fn quarantine_holds_every_skipped_record_of_a_multi_dump_run() {
    let (a, b) = (temp("uplan_cli_q_a.jsonl"), temp("uplan_cli_q_b.jsonl"));
    for (dump, dirty, seed) in [(&a, "2", "0x3"), (&b, "3", "0x4")] {
        cli(&["raw-fixture", dump, "2", "--dirty", dirty, "--seed", seed]).unwrap();
    }
    let out = temp("uplan_cli_q_store");
    let quarantine = temp("uplan_cli_q.jsonl");
    let lenient_ingest = |dumps: &[&String]| {
        remove(&[&out]);
        let mut args = strings(&["ingest", &out, "--raw"]);
        args.extend(dumps.iter().map(|d| d.to_string()));
        args.extend(strings(&["--lenient", "--quarantine", &quarantine]));
        let report = run_inner(&args).unwrap();
        (report, std::fs::read_to_string(&quarantine).unwrap())
    };
    let (report, quarantined) = lenient_ingest(&[&a, &b]);
    assert!(report.contains("lenient: 5 record(s) skipped"), "{report}");
    assert_eq!(quarantined.lines().count(), 5);
    // In dump order: each dump's quarantine, concatenated.
    let (_, of_a) = lenient_ingest(&[&a]);
    let (_, of_b) = lenient_ingest(&[&b]);
    assert_eq!(quarantined, format!("{of_a}{of_b}"));
    std::fs::write(&quarantine, &quarantined).unwrap();

    let replay = temp("uplan_cli_q_replay");
    let replayed = cli(&["ingest", &replay, "--raw", &quarantine, "--lenient"]).unwrap();
    assert!(
        replayed.starts_with(
            "raw-ingested 0 plan line(s) from 1 dump(s)\nlenient: 5 record(s) skipped"
        ),
        "{replayed}"
    );
    remove(&[&a, &b, &out, &quarantine, &replay]);
}

#[test]
fn source_parse_errors_name_the_accepted_sources() {
    let err = cli(&["ingest", "out", "oracle", "file"])
        .unwrap_err()
        .to_string();
    assert!(err.contains("unknown source"), "{err}");
    assert!(err.contains("postgres-text"), "{err}");
    // Case-insensitive prefixes resolve when unambiguous...
    assert_eq!(Source::parse("TIDB"), Ok(Source::TidbTable));
    assert_eq!(Source::parse("Mongo"), Ok(Source::MongoJson));
    // ...and ambiguous ones say which candidates matched.
    let err = Source::parse("Postgres").unwrap_err();
    assert!(err.contains("ambiguous"), "{err}");
    assert!(err.contains("postgres-text"), "{err}");
    assert!(err.contains("postgres-json"), "{err}");
}

/// A campaign's store reopens, and two runs write identical stores
/// although minidb measures a fresh planning time for every plan.
#[test]
fn campaign_writes_a_loadable_corpus() {
    let (first, second) = (temp("uplan_cli_campaign"), temp("uplan_cli_campaign_2"));
    for out in [&first, &second] {
        let report = cli(&["campaign", out, "postgres", "80", "1"]).unwrap();
        assert_eq!(
            report,
            format!(
                "campaign on PostgreSQL: 80 queries, 6 mutations, 0 oracle failures\n\
                 observed 80 plans this run (75 fingerprint duplicates)\n\
                 5 distinct plans, 17 operations, max depth 3\n\
                 wrote {out}"
            )
        );
    }
    assert_eq!(dir_bytes(&first), dir_bytes(&second));
    let corpus = SegmentStore::open(&first).unwrap().into_corpus();
    assert_eq!(corpus.len(), 5);
    remove(&[&first, &second]);
}

/// The segmented lifecycle end to end: fixture-ingest a batched store
/// (byte-identical across thread counts), append with `ingest`,
/// census with `stats`, query lazily, compact, salvage.
#[test]
fn segmented_store_lifecycle_through_the_cli() {
    let dir1 = temp("uplan_cli_seg_t1");
    let dir4 = temp("uplan_cli_seg_t4");
    for (dir, threads) in [(&dir1, "1"), (&dir4, "4")] {
        let report = cli(&[
            "fixture-ingest",
            dir,
            "600",
            "--batches",
            "3",
            "--threads",
            threads,
        ])
        .unwrap();
        assert!(report.contains("segmented x3"), "{report}");
        assert!(report.contains("batch 2:"), "{report}");
    }
    // The directories are byte-identical across thread counts.
    assert_eq!(dir_bytes(&dir1), dir_bytes(&dir4));

    // stats prints the per-segment byte census.
    let stats = cli(&["stats", &dir1]).unwrap();
    assert!(stats.contains("segments: 3"), "{stats}");
    assert!(stats.contains("segment   0:"), "{stats}");
    assert!(stats.contains("persisted (0 TED evaluations"), "{stats}");
    assert!(stats.contains("on disk:"), "{stats}");

    // Lazy queries answer identically to the in-RAM corpus.
    let mut in_ram = PlanCorpus::new();
    in_ram.ingest_parallel(&crate::corpus_fixture::derived_stream(600, 0x5eed_cafe), 1);
    let probe = crate::corpus_fixture::derived_stream(1, 0x004e_ca11).remove(0);
    let probe_file = temp("uplan_cli_seg_probe.json");
    std::fs::write(&probe_file, uplan_core::formats::unified::to_json(&probe)).unwrap();
    let from_dir = cli(&[
        "query",
        &dir1,
        "knn",
        "--k",
        "5",
        "--probe",
        &probe_file,
        "--json",
    ])
    .unwrap();
    let from_ram = in_ram
        .execute(&QueryRequest::knn(5).with_probe(probe))
        .unwrap()
        .to_json();
    assert_eq!(from_dir, from_ram, "lazy and in-RAM answers diverged");

    // ingest into the store appends a new segment (no --append needed).
    let explain = temp("uplan_cli_seg.explain");
    std::fs::write(&explain, TIDB_PLAN).unwrap();
    let appended = cli(&["ingest", &dir1, "tidb-table", &explain]).unwrap();
    assert!(appended.contains("appended segment 3"), "{appended}");
    assert!(appended.contains("1 of 1 plan(s) admitted"), "{appended}");
    // Re-ingesting the same file appends nothing.
    let dup = cli(&["ingest", &dir1, "tidb-table", &explain]).unwrap();
    assert!(
        dup.contains("no segment (batch was all duplicates)"),
        "{dup}"
    );

    // Salvage of the intact store is lossless.
    let salvaged = cli(&["salvage", &dir1]).unwrap();
    assert!(salvaged.contains("0 dropped"), "{salvaged}");
    assert!(
        salvaged.contains("4 of 4 segment(s) recovered"),
        "{salvaged}"
    );
    assert!(salvaged.contains("manifest intact"), "{salvaged}");

    // Compaction folds the four segments into one; queries agree.
    let compacted = cli(&["compact", &dir1]).unwrap();
    assert!(compacted.contains("4 segment(s) -> 1"), "{compacted}");
    let stats = cli(&["stats", &dir1]).unwrap();
    assert!(stats.contains("segments: 1"), "{stats}");
    let after = cli(&[
        "query",
        &dir1,
        "knn",
        "--k",
        "5",
        "--probe",
        &probe_file,
        "--json",
    ])
    .unwrap();
    assert_eq!(after, from_ram, "compaction changed answers");

    // compact rejects non-stores.
    assert!(cli(&["compact", &probe_file]).is_err());

    remove(&[&dir1, &dir4, &probe_file, &explain]);
}

/// `open-gate` proves answer/cost identity between the lazy store
/// (three appended batches) and a one-shot ingest of its plans; the
/// speedup floor itself is CI's concern (tiny
/// fixtures cannot honour a 5x decode gap, so the floor is lowered
/// to exercise the pass path and raised to exercise the failure).
#[test]
fn open_gate_checks_identity_and_enforces_the_floor() {
    let dir = temp("uplan_cli_open_gate_store");
    cli(&["fixture-ingest", &dir, "600", "--batches", "3"]).unwrap();

    let report = cli(&["open-gate", &dir, "--probes", "4", "--min-speedup", "0"]).unwrap();
    assert!(
        report.contains("answers and QueryCost identical to a one-shot ingest"),
        "{report}"
    );
    assert!(report.contains("open-and-first-query"), "{report}");

    // An unreachable floor fails operationally (exit 1), naming the gate.
    let failed = cli(&[
        "open-gate",
        &dir,
        "--probes",
        "1",
        "--min-speedup",
        "1000000",
    ])
    .unwrap_err();
    match failed {
        CliError::Operational(message) => {
            assert!(message.contains("lazy open gate FAILED"), "{message}")
        }
        other => panic!("expected an operational failure, got {other:?}"),
    }
    // A second positional (the retired monolithic argument) is a usage
    // error (exit 2).
    assert!(matches!(
        cli(&["open-gate", &dir, &dir]).unwrap_err(),
        CliError::Input(_)
    ));

    remove(&[&dir]);
}

/// `query --probe-raw` answers exactly like `--probe` with the
/// converted plan; a file repeating one record is one plan, and two
/// distinct records are a usage error (exit 2).
#[test]
fn query_probe_raw_answers_like_its_converted_probe() {
    let dir = temp("uplan_cli_probe_raw_store");
    let (raw, twice, two, plan) = (
        temp("uplan_cli_probe_raw.jsonl"),
        temp("uplan_cli_probe_raw_twice.jsonl"),
        temp("uplan_cli_probe_raw_two.jsonl"),
        temp("uplan_cli_probe_raw_plan.json"),
    );
    cli(&["fixture-ingest", &dir, "50"]).unwrap();
    let record = r#"[{"Plan": {"Node Type": "Hash Join", "Plans": [{"Node Type": "Seq Scan", "Relation Name": "orders"}, {"Node Type": "Hash", "Plans": [{"Node Type": "Seq Scan", "Relation Name": "lineitem"}]}]}}]"#;
    let other = r#"[{"Plan": {"Node Type": "Seq Scan", "Relation Name": "nation"}}]"#;
    std::fs::write(&raw, format!("{record}\n")).unwrap();
    std::fs::write(&twice, format!("{record}\n{record}\n")).unwrap();
    std::fs::write(&two, format!("{record}\n{other}\n")).unwrap();
    let converted = convert(Source::PostgresJson, record).unwrap();
    std::fs::write(&plan, uplan_core::formats::unified::to_json(&converted)).unwrap();

    let knn =
        |flag: &str, file: &str| cli(&["query", &dir, "knn", "--k", "3", flag, file, "--json"]);
    let expected = knn("--probe", &plan).unwrap();
    assert!(expected.contains("\"matches\""), "{expected}");
    assert_eq!(knn("--probe-raw", &raw).unwrap(), expected);
    assert_eq!(knn("--probe-raw", &twice).unwrap(), expected);
    let err = knn("--probe-raw", &two).unwrap_err();
    assert_eq!(err.code(), 2, "{err}");
    assert_eq!(
        err.to_string(),
        format!("{two}: raw probe must hold exactly one plan record, got 2")
    );
    // Both probes is a usage error (exit 2), like the daemon's 400, refused
    // before either file is read: the missing raw file is never opened.
    let both = [
        "--probe",
        &plan,
        "--probe-raw",
        "/definitely/not/here.jsonl",
    ];
    let err = cli(&[&["query", &dir, "knn", "--k", "3"], &both[..]].concat()).unwrap_err();
    assert_eq!(err.code(), 2, "{err}");
    assert_eq!(
        err.to_string(),
        "send one probe: --probe and --probe-raw are mutually exclusive"
    );
    remove(&[&dir, &raw, &twice, &two, &plan]);
}

/// Both gate verbs refuse an empty probe set (exit 2) instead of
/// panicking or passing vacuously.
#[test]
fn gate_verbs_reject_zero_probes() {
    let dir = temp("uplan_cli_zero_probes");
    cli(&["fixture-ingest", &dir, "50"]).unwrap();
    for verb in ["open-gate", "recall"] {
        let err = cli(&[verb, &dir, "--probes", "0"]).unwrap_err();
        assert_eq!(err.code(), 2, "{verb}: {err}");
        assert!(err.to_string().contains("--probes"), "{verb}: {err}");
    }
    remove(&[&dir]);
}

/// The top-level usage lists exactly the dispatch table, and every verb
/// that takes arguments answers none with its own usage (exit 2).
#[test]
fn every_listed_verb_without_arguments_prints_its_own_usage() {
    let listed = usage();
    for (verb, _) in VERBS {
        assert!(listed.contains(verb), "{verb} missing from {listed}");
        // `sources` takes no arguments: without any it lists the sources.
        if verb != "sources" {
            let err = cli(&[verb]).unwrap_err();
            assert_eq!(err.code(), 2, "{verb}: {err}");
            let own = format!("usage: repro corpus {verb} ");
            assert!(err.to_string().starts_with(&own), "{verb}: {err}");
        }
    }
}

/// A directory with neither a manifest nor a segment file holds no store
/// (exit 2); segment files without a manifest still salvage, the manifest
/// rebuilt from their deltas.
#[test]
fn salvage_tells_an_empty_directory_from_a_store_without_a_manifest() {
    let dir = temp("uplan_cli_slv_empty");
    std::fs::create_dir_all(&dir).unwrap();
    let err = cli(&["salvage", &dir]).unwrap_err();
    assert_eq!(err.code(), 2, "{err}");
    assert_eq!(err.to_string(), format!("{dir} holds no segment store"));

    let store = temp("uplan_cli_slv_no_manifest");
    cli(&["fixture-ingest", &store, "100", "--batches", "2"]).unwrap();
    std::fs::remove_file(std::path::Path::new(&store).join(MANIFEST_FILE)).unwrap();
    let report = cli(&["salvage", &store]).unwrap();
    let rebuilt = "2 of 2 segment(s) recovered, manifest rebuilt from segment deltas";
    assert!(report.contains(rebuilt), "{report}");
    remove(&[&dir, &store]);
}
