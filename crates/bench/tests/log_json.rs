//! `repro --log-json <path>`: the flag is stripped before dispatch, turns
//! on debug-level spans when `UPLAN_LOG` is unset, and the buffered log is
//! flushed before the process exits.

use std::path::Path;
use std::process::{Command, Output};

use uplan_core::formats::json;

fn repro(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(args)
        .env_remove("UPLAN_LOG")
        .output()
        .expect("repro starts")
}

fn path_str(path: &Path) -> &str {
    path.to_str().expect("temp paths are UTF-8")
}

#[test]
fn log_json_records_the_ingest_span_of_a_raw_ingest() {
    let dir = std::env::temp_dir().join(format!("uplan_log_json_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let (dump, store, log) = (
        dir.join("dump.jsonl"),
        dir.join("store"),
        dir.join("log.jsonl"),
    );
    let fixture = repro(&["corpus", "raw-fixture", path_str(&dump), "1"]);
    assert!(fixture.status.success(), "{fixture:?}");

    let ingest = repro(&[
        "--log-json",
        path_str(&log),
        "corpus",
        "ingest",
        path_str(&store),
        "--raw",
        path_str(&dump),
    ]);
    let stdout = String::from_utf8(ingest.stdout).unwrap();
    assert!(ingest.status.success(), "{stdout}");
    let printed: i64 = stdout
        .strip_prefix("raw-ingested ")
        .and_then(|rest| rest.split(' ').next())
        .and_then(|n| n.parse().ok())
        .unwrap_or_else(|| panic!("no line count in {stdout}"));
    assert!(printed > 0, "{stdout}");

    let text = std::fs::read_to_string(&log).expect("the log was written");
    let lines: Vec<json::JsonValue> = text
        .lines()
        .map(|line| json::parse(line).unwrap_or_else(|e| panic!("{e}: {line}")))
        .collect();
    let spans = |target: &str, name: &str| {
        lines
            .iter()
            .filter(|line| {
                line.get("target").and_then(|t| t.as_str()) == Some(target)
                    && line.get("span").and_then(|s| s.as_str()) == Some(name)
            })
            .collect::<Vec<_>>()
    };
    let ingest_spans = spans("convert.ingest", "ingest");
    assert_eq!(ingest_spans.len(), 1, "{text}");
    let fields = ingest_spans[0].get("fields").expect("ingest span fields");
    assert_eq!(fields.get("lines").and_then(|v| v.as_int()), Some(printed));
    // Batch spans are debug-level: present only through the flag's bump.
    assert!(!spans("convert.ingest", "batch").is_empty(), "{text}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn a_trailing_log_json_without_a_path_is_refused() {
    let output = repro(&["corpus", "stats", "nowhere", "--log-json"]);
    assert_eq!(output.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(stderr.contains("--log-json needs a path"), "{stderr}");
}
