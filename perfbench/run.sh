#!/usr/bin/env bash
# Builds the `repro` binary under test and the `perfbench` binary from this
# checkout (release profile), then runs `perfbench` with the given arguments:
#
#   bash perfbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#
# Both binaries go to `$CARGO_TARGET_DIR` (default `target/`). Build output
# goes to stderr; the last stdout line is the JSON result.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
target="${CARGO_TARGET_DIR:-target}"
repro="$target/release/repro"
bench="$target/release/perfbench"
stamp="$target/perfbench.sources"
# Outside a git checkout, the `uplan-obs` build script asks cargo to re-run
# it on every build, which recompiles most of the workspace each time. So
# cargo runs only when the sources differ from those of the last build.
sources="$(find Cargo.toml Cargo.lock crates src perfbench/Cargo.toml perfbench/Cargo.lock \
    perfbench/src -type f -print0 | sort -z | xargs -0 sha256sum | sha256sum)"
if [[ ! -x "$repro" || ! -x "$bench" || "$(cat "$stamp" 2>/dev/null)" != "$sources" ]]; then
    cargo build --release --quiet --offline -p uplan-bench --bin repro --target-dir "$target" >&2
    cargo build --release --quiet --offline --manifest-path perfbench/Cargo.toml \
        --target-dir "$target" >&2
    printf '%s' "$sources" > "$stamp"
fi
# Generated fixtures, dumps and references are made by the code under test,
# so they are cached per source hash; caches of other sources are removed.
key="${sources:0:16}"
mkdir -p perfbench/work
find perfbench/work -mindepth 1 -maxdepth 1 ! -name "$key" -exec rm -rf {} +
export PERFBENCH_REPRO="$repro"
export PERFBENCH_WORK="perfbench/work/$key"
exec "$bench" "$@"
