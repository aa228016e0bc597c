#!/usr/bin/env bash
# Local CI gate: formatting, lints, and the tier-1 test suite.
# Fully offline — every dependency is a workspace member.
#
#   scripts/check.sh          # fmt + clippy + build + test (debug, then
#                             # the interpreter oracles and the clock
#                             # engines' oracles in release) + the
#                             # smokes below that are cheap (timeline,
#                             # trigger farm, synth, dcbench;
#                             # DCATCH_SOAK=1 appends the fault soak)
#   scripts/check.sh soak     # seeded fault soak only: the fault_soak test
#                             # suite plus `dcatch faults all` across a
#                             # fixed seed set — every run must complete or
#                             # degrade to a classified failure
#   scripts/check.sh stream   # streaming-mode smoke: one benchmark run
#                             # offline and with --streaming in separate
#                             # processes must agree byte-for-byte on every
#                             # detection-relevant report section, and the
#                             # streambench subcommand must find its
#                             # planted racer pair in bounded memory
#   scripts/check.sh degrade  # resource-governor smoke: `detect all` under
#                             # a deliberately tiny memory budget must exit
#                             # 0 with a clean schema-v7 report (no errors,
#                             # no OOM, >0 recorded degradation steps), and
#                             # a fresh-journal run must byte-match an
#                             # all-skipped `--resume` of the same journal
#   scripts/check.sh synth    # protocol-fuzzer smoke: a fixed-seed synth
#                             # batch must be byte-deterministic across two
#                             # runs, exit 0, and quarantine nothing; under
#                             # DCATCH_SOAK=1 it additionally runs 50
#                             # scenarios per protocol and fails if planted-
#                             # bug recall drops below SYNTH_BASELINE.json
#   scripts/check.sh dcbench  # builds dcbench/ (BENCHMARK.json's package,
#                             # which root tier-1 does not) against the
#                             # crates' public items and runs its tests:
#                             # all four workloads at --size smoke
#   scripts/check.sh same <path-to-parent-dcatch>
#                             # "same answers" against a release build of the
#                             # parent commit (git clone it into a scratch
#                             # directory and `cargo build --release` there):
#                             # runs a fixed command list on both binaries and
#                             # `cmp`s each output, exit status appended —
#                             # `detect all --scrub-timings --json` selective
#                             # with triggering, `--full-tracing --no-trigger`
#                             # at `--scale 8` and `48`, `--reachability
#                             # matrix --scale 4`, `--reachability clocks`;
#                             # the governor's rungs (`--mem-budget 2k`:
#                             # sampled tracing; `256` full-traced: index →
#                             # streaming under a window cap; `--time-budget
#                             # 0`: loop-sync and triggering skipped; `--budget
#                             # 4096 --mem-budget 1g`: the user's index ceiling
#                             # under a governor; a governed `synth` batch);
#                             # the four `--streaming` variants; `faults all`;
#                             # `synth --seed 1 --count 8`; `trace <ID>
#                             # --full-tracing --scale 4` on each of the seven
#                             # miniatures (every record kind, as on-disk
#                             # lines); `streambench --records 200000 --json`;
#                             # and `explain --json` on every object the
#                             # parent's `detect all --no-trigger` reports.
#                             # Every output is compared raw, except
#                             # streambench's wall-clock `elapsed_ns`, the one
#                             # field two runs of one binary disagree on, and,
#                             # on the lines that trigger, the re-runs' work:
#                             # `sim_*` counters, `trigger_runs_decided_total`,
#                             # `faults_injected` (synth text: `faults=N`) —
#                             # a re-run stops once its verdict is decided.
#                             # Exits non-zero naming the first differing
#                             # command
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

if [[ "${1:-}" == "same" ]]; then
    parent="${2:?usage: scripts/check.sh same <path-to-parent-dcatch>}"
    [[ -x "$parent" ]] || { echo "no executable at $parent" >&2; exit 2; }
    parent="$(realpath "$parent")"
    cargo build --offline --release -q --bin dcatch
    change="$PWD/target/release/dcatch"
    sa_dir="$(mktemp -d)"
    trap 'rm -rf "$sa_dir"' EXIT
    mkdir "$sa_dir/parent" "$sa_dir/change"
    n=0
    # same [-i SED] <dcatch arguments…>; `-i` runs the sed script SED
    # (extended regular expressions) over both outputs before comparing
    same() {
        local scrub="" side
        if [[ "$1" == -i ]]; then
            scrub="$2"
            shift 2
        fi
        n=$((n + 1))
        for side in parent change; do
            # a failing command is compared too: its exit status joins its output
            (cd "$sa_dir/$side" && "${!side}" "$@" >"$n.out" 2>&1) ||
                echo "exit $?" >>"$sa_dir/$side/$n.out"
            if [[ -n "$scrub" ]]; then
                sed -E -i "$scrub" "$sa_dir/$side/$n.out"
            fi
        done
        if ! cmp -s "$sa_dir/parent/$n.out" "$sa_dir/change/$n.out"; then
            echo "DIFFERS from the parent: dcatch $*" >&2
            diff "$sa_dir/parent/$n.out" "$sa_dir/change/$n.out" | head -20 >&2
            exit 1
        fi
        echo "same: dcatch $*"
    }
    echo "== same answers as $parent =="
    # A trigger re-run stops once its verdict is decided, so on the lines
    # that trigger, how much the re-runs simulated — the `sim_*` counters,
    # the decided-run count, the faults the re-runs injected — is no answer;
    # the verdicts are, and stay compared.
    rerun='/"(sim_[a-z_]*_total|trigger_runs_decided_total|faults_injected)":/d'
    same -i "$rerun" detect all --scrub-timings --json
    same detect all --scrub-timings --json --full-tracing --no-trigger --scale 8
    same detect all --scrub-timings --json --full-tracing --no-trigger --scale 48
    same -i "$rerun" detect all --scrub-timings --json --reachability matrix --scale 4
    same -i "$rerun" detect all --scrub-timings --json --reachability clocks
    same -i "$rerun" detect all --scrub-timings --json --mem-budget 2k
    same detect all --scrub-timings --json --mem-budget 256 --full-tracing --no-trigger --scale 8
    same detect all --scrub-timings --json --time-budget 0
    same -i "$rerun" detect all --scrub-timings --json --budget 4096 --mem-budget 1g
    same faults all
    same -i 's/faults=[0-9]+/faults=N/' synth --seed 1 --count 8
    same -i "$rerun" synth --seed 1 --count 4 --mem-budget 8k --no-shrink --json
    same -i "$rerun" detect all --scrub-timings --json --streaming
    same -i "$rerun" detect all --scrub-timings --json --streaming --stream-window 2
    same -i "$rerun" detect all --scrub-timings --json --streaming --mem-budget 16k
    # the one run whose list has both a governor step and the cap's own event
    same -i "$rerun" detect all --scrub-timings --json --streaming --stream-window 2 --mem-budget 16k
    for id in CA-1011 HB-4539 HB-4729 MR-3274 MR-4637 ZK-1144 ZK-1270; do
        same trace "$id" --full-tracing --scale 4
    done
    same -i '/"elapsed_ns":/d' streambench --records 200000 --json
    id=""
    "$parent" detect all --no-trigger | while read -r line; do
        case "$line" in
        "== "*) id="${line#== }" && id="${id%% *}" ;;
        *" on \`"*) obj="${line#* on \`}" && echo "$id ${obj%%\`*}" ;;
        esac
    done | sort -u >"$sa_dir/objects"
    while read -r id obj; do
        same explain "$id" "$obj" --json
    done <"$sa_dir/objects"
    echo "Same answers: $n commands."
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

synth_smoke() {
    local sy_dir="$1"
    mkdir -p "$sy_dir"
    echo "== synth smoke (fixed seed, byte-deterministic, zero discrepancies) =="
    cargo run --offline --release -q --bin dcatch -- synth --seed 1 --count 3 \
        --quarantine "$sy_dir/q" --json --out "$sy_dir/s1.json"
    cargo run --offline --release -q --bin dcatch -- synth --seed 1 --count 3 \
        --quarantine "$sy_dir/q" --json --out "$sy_dir/s2.json"
    cmp "$sy_dir/s1.json" "$sy_dir/s2.json"
    if [[ -d "$sy_dir/q" ]] && [[ -n "$(ls -A "$sy_dir/q")" ]]; then
        echo "synth smoke quarantined cases:" >&2
        ls "$sy_dir/q" >&2
        exit 1
    fi
    echo "synth smoke ok: byte-deterministic, nothing quarantined"
    if [[ "${DCATCH_SOAK:-0}" == "1" ]]; then
        echo "== synth recall gate (50 scenarios/protocol vs SYNTH_BASELINE.json) =="
        cargo run --offline --release -q --bin dcatch -- synth --seed 1 --count 50 \
            --jobs 4 --quarantine "$sy_dir/soak-q" --json --out "$sy_dir/soak.json"
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
    fi
}

if [[ "${1:-}" == "synth" ]]; then
    sy_dir="$(mktemp -d)"
    trap 'rm -rf "$sy_dir"' EXIT
    synth_smoke "$sy_dir"
    echo "Synth smoke passed."
    exit 0
fi

if [[ "${1:-}" == "degrade" ]]; then
    dd_dir="$(mktemp -d)"
    trap 'rm -rf "$dd_dir"' EXIT
    echo "== governor degrade smoke (2 KiB budget, schema v7, exit 0) =="
    cargo run --offline --release -q --bin dcatch -- detect all --mem-budget 2k \
        --json --scrub-timings --out "$dd_dir/degrade.json"
    python3 - "$dd_dir/degrade.json" <<'PY'
import json, sys
doc = json.load(open(sys.argv[1]))
assert doc["schema_version"] == 7, f"schema {doc['schema_version']}"
steps = doc["degradations"]["governor_degradations"]
assert steps > 0, "a 2 KiB budget must force degradation steps"
for b in doc["benchmarks"]:
    assert b.get("error") is None, f"{b['id']} errored"
    assert b.get("oom") is None, f"{b['id']} hit OOM despite the governor"
print(f"degrade smoke ok: {steps} degradation steps, zero errors, zero OOM")
PY
    echo "== resume determinism (fresh journal vs all-skipped resume) =="
    cargo run --offline --release -q --bin dcatch -- detect all --jobs 1 --json \
        --scrub-timings --resume "$dd_dir/journal.jsonl" --out "$dd_dir/r1.json"
    cargo run --offline --release -q --bin dcatch -- detect all --jobs 1 --json \
        --scrub-timings --resume "$dd_dir/journal.jsonl" --out "$dd_dir/r2.json"
    cmp "$dd_dir/r1.json" "$dd_dir/r2.json"
    echo "Degrade smoke passed."
    exit 0
fi

if [[ "${1:-}" == "stream" ]]; then
    st_dir="$(mktemp -d)"
    trap 'rm -rf "$st_dir"' EXIT
    echo "== streaming equivalence smoke (offline vs --streaming, cross-process) =="
    cargo run --offline --release -q --bin dcatch -- detect MR-3274 --no-trigger \
        --json --scrub-timings --out "$st_dir/offline.json"
    cargo run --offline --release -q --bin dcatch -- detect MR-3274 --no-trigger \
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
    python3 - "$st_dir/streaming.json" <<'PY'
import json, sys
doc = json.load(open(sys.argv[1]))
s = doc["benchmarks"][0]["streaming"]
assert s is not None, "streaming run must report window stats"
assert s["records_forced"] == 0, f"unbounded window force-evicted: {s}"
print(f"streaming section ok: {s}")
PY
    echo "== streambench smoke (planted pair in bounded memory) =="
    cargo run --offline --release -q --bin dcatch -- streambench --records 60000 \
        --json --out "$st_dir/sb.json"
    python3 - "$st_dir/sb.json" <<'PY'
import json, sys
doc = json.load(open(sys.argv[1]))
assert doc["planted_pair_found"], f"planted pair missing: {doc}"
assert doc["records_forced"] == 0, f"force-evicted: {doc}"
assert doc["window_peak"] * 20 < doc["records"], (
    f"window {doc['window_peak']} not bounded against {doc['records']} records")
print(f"streambench ok: {doc['records']} records, window peak {doc['window_peak']}")
PY
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
# and the allocation bounds run in it too
cargo test --offline --release -q -p dcatch-sim --lib --test step_oracle --test semantics \
    --test fault_fuzz --test sched_work --test alloc_budget
cargo test --offline --release -q -p dcatch --test trigger_farm --test triggering

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

echo "== timeline smoke (generate + validate + byte determinism) =="
# `dcatch timeline` validates the trace-event document before writing it;
# generating twice and comparing pins the byte-determinism guarantee.
tl_dir="$(mktemp -d)"
trap 'rm -rf "$tl_dir"' EXIT
cargo run --offline --release -q --bin dcatch -- timeline HB-4729 --out "$tl_dir/a.trace.json"
cargo run --offline --release -q --bin dcatch -- timeline HB-4729 --out "$tl_dir/b.trace.json"
cmp "$tl_dir/a.trace.json" "$tl_dir/b.trace.json"

echo "== trigger farm smoke (--trigger-jobs byte determinism) =="
# the triggering farm must produce byte-identical reports for any worker
# count; --scrub-timings zeroes the only legitimately nondeterministic part
cargo run --offline --release -q --bin dcatch -- detect ZK-1144 --json --scrub-timings \
    --trigger-jobs 1 --out "$tl_dir/t1.json"
cargo run --offline --release -q --bin dcatch -- detect ZK-1144 --json --scrub-timings \
    --trigger-jobs 2 --out "$tl_dir/t2.json"
cmp "$tl_dir/t1.json" "$tl_dir/t2.json"

synth_smoke "$tl_dir/synth"

dcbench

if [[ "${DCATCH_SOAK:-0}" == "1" ]]; then
    soak
fi

echo "All checks passed."
