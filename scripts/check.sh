#!/usr/bin/env bash
# Local CI gate: formatting, lints, and the tier-1 test suite.
# Fully offline — every dependency is a workspace member.
#
#   scripts/check.sh          # fmt + clippy + build + test (debug, then
#                             # the interpreter oracles, the clock
#                             # engines' oracles and the answer corpus in
#                             # release) + dcbench; DCATCH_SOAK=1 appends
#                             # the fault soak and the synth recall gate
#   scripts/check.sh soak     # seeded fault soak only: the fault_soak test
#                             # suite plus `dcatch faults all` across a
#                             # fixed seed set — every run must complete or
#                             # degrade to a classified failure
#   scripts/check.sh stream   # streaming-mode smoke: one benchmark run
#                             # offline and with --streaming in separate
#                             # processes must agree byte-for-byte on every
#                             # detection-relevant report section, the
#                             # trigger verdicts included
#   scripts/check.sh synth    # protocol-fuzzer recall gate: 50 scenarios
#                             # per protocol; fails if planted-bug recall
#                             # drops below SYNTH_BASELINE.json
#   scripts/check.sh dcbench  # builds dcbench/ (BENCHMARK.json's package,
#                             # which root tier-1 does not) against the
#                             # crates' public items and runs its tests:
#                             # all four workloads at --size smoke
#
# "Same answers" is the test `answers` (dcatch), the paper's timing-free
# tables included: a moved answer is written to target/answers/.
set -euo pipefail
cd "$(dirname "$0")/.."

dcbench() {
    echo "== dcbench (builds against crates/, four workloads at --size smoke) =="
    cargo test --release --offline --manifest-path dcbench/Cargo.toml
}

if [[ "${1:-}" == "dcbench" ]]; then
    dcbench
    exit 0
fi

soak() {
    echo "== fault soak (fixed seeds) =="
    cargo test --offline -q -p dcatch --test fault_soak
    cargo run --offline -q --bin dcatch -- faults all --seeds 1,7,42,1011
    echo "Fault soak passed."
}

if [[ "${1:-}" == "soak" ]]; then
    soak
    exit 0
fi

synth_recall() {
    sy_dir="$(mktemp -d)"
    trap 'rm -rf "$sy_dir"' EXIT
    echo "== synth recall gate (50 scenarios/protocol vs SYNTH_BASELINE.json) =="
    cargo run --offline --release -q --bin dcatch -- synth --seed 1 --count 50 \
        --jobs 4 --quarantine "$sy_dir/q" --json --out "$sy_dir/soak.json"
    python3 - "$sy_dir/soak.json" SYNTH_BASELINE.json <<'PY'
import json, sys
doc = json.load(open(sys.argv[1]))
base = json.load(open(sys.argv[2]))
fps = errors = 0
for p in doc["synth"]["protocols"]:
    name, planted, detected = p["protocol"], p["planted"], p["detected"]
    recall = detected / planted if planted else 1.0
    floor = base["recall_floor"][name]
    assert recall >= floor, (
        f"{name}: recall {detected}/{planted} = {recall:.3f} "
        f"dropped below the committed baseline {floor:.3f}")
    fps += p["false_positives"]
    errors += p["errors"]
    print(f"  {name:8} recall {detected}/{planted} (floor {floor:.2f})")
assert fps <= base["max_false_positives"], f"{fps} false positives"
assert errors <= base["max_errors"], f"{errors} pipeline errors"
print("synth recall gate ok")
PY
}

if [[ "${1:-}" == "synth" ]]; then
    synth_recall
    exit 0
fi

if [[ "${1:-}" == "stream" ]]; then
    st_dir="$(mktemp -d)"
    trap 'rm -rf "$st_dir"' EXIT
    echo "== streaming equivalence smoke (offline vs --streaming, cross-process) =="
    cargo run --offline --release -q --bin dcatch -- detect MR-3274 \
        --json --scrub-timings --out "$st_dir/offline.json"
    cargo run --offline --release -q --bin dcatch -- detect MR-3274 \
        --json --scrub-timings --streaming --out "$st_dir/streaming.json"
    # project the detection-relevant subset of each report (stage timings,
    # span shapes, metrics, and the streaming section itself legitimately
    # differ between modes) and byte-compare
    project() {
        python3 - "$1" "$2" <<'PY'
import json, sys
doc = json.load(open(sys.argv[1]))
# `trace.reach_bytes` is the offline index's size: it differs by design
out = [{"id": b["id"], "trace_bytes": b["trace"]["bytes"],
        "trace_stats": b["trace"]["stats"], "candidates": b["candidates"],
        "verdicts": b["verdicts"], "detected_known_bug": b["detected_known_bug"]}
       for b in doc["benchmarks"]]
json.dump(out, open(sys.argv[2], "w"), indent=1, sort_keys=True)
PY
    }
    project "$st_dir/offline.json" "$st_dir/offline.proj.json"
    project "$st_dir/streaming.json" "$st_dir/streaming.proj.json"
    cmp "$st_dir/offline.proj.json" "$st_dir/streaming.proj.json"
    echo "Streaming smoke passed."
    exit 0
fi

echo "== cargo fmt --check =="
cargo fmt --all --check

echo "== cargo clippy (warnings are errors) =="
cargo clippy --offline --workspace --all-targets -- -D warnings

echo "== cargo build --release =="
cargo build --offline --release

echo "== cargo test =="
cargo test --offline -q

echo "== interpreter oracles, release build =="
# the debug suite above re-derives every action list the step loop reuses
# and asserts they agree; release compiles that check out, and must match
# the same recorded executions, verdicts and scheduler work without it —
# release is the build dcbench measures, so the heap-map oracle (`--lib`)
# and the allocation bounds run in it too — the simulator's, the online
# detector's and the HB build's — and so does the pin of the scheduler's
# random stream (`dcatch-obs --lib`)
cargo test --offline --release -q -p dcatch-sim --lib --test step_oracle --test semantics \
    --test fault_fuzz --test sched_work --test alloc_budget
cargo test --offline --release -q -p dcatch-detect -p dcatch-hb --test alloc_budget
cargo test --offline --release -q -p dcatch-obs --lib
# the fork oracle: a shared or forked ordering equals a fresh run
cargo test --offline --release -q -p dcatch --test trigger_farm --test triggering \
    --test fork_oracle

echo "== answer corpus, release build =="
# debug-only assertions compile out here; the answers must not move
cargo test --offline --release -q -p dcatch --test answers --test tables

echo "== clock engines and their oracles, release build =="
# likewise: in debug every record a `FrontierEngine` places asserts that its
# clock covers the tail of the slot it extends; without the assert the slot
# oracles, online ≡ offline and the state bounds must hold all the same
cargo test --offline --release -q -p dcatch-hb --lib --test proptests
cargo test --offline --release -q -p dcatch --test scan_oracle --test streaming

echo "== reachability engine equivalence (matrix vs chain clocks) =="
# also part of the suite above; named here so a failure is unmistakable.
# DCATCH_SOAK=1 widens it from 48 to 192 random DAGs.
cargo test --offline -q -p dcatch-hb --test proptests chain_clocks_agree_with_bit_matrix

dcbench

if [[ "${DCATCH_SOAK:-0}" == "1" ]]; then
    soak
    synth_recall
fi

echo "All checks passed."
