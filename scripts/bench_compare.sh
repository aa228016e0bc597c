#!/usr/bin/env bash
# Compares two BENCH_*.json documents (baseline vs. current) and fails
# when any shared entry's mean regresses by more than 25%.
#
#   scripts/bench_compare.sh BENCH_hbgraph_baseline.json BENCH_hbgraph.json
#
# Shared boxes drift by 1.3–3× over minutes, so raw wall-clock ratios
# would flag phantom regressions. Three guards keep the gate honest:
#   * every ratio is divided by the *median* ratio across shared entries
#     — ambient drift lifts the whole suite and cancels out, while a code
#     regression moves specific entries and survives normalization. The
#     `calibration_ns` spin-loop probe is the second, code-independent
#     witness of the drift: when the two disagree in direction (one says
#     faster, the other slower or unchanged), it is the *code* that moved
#     most entries, not the box, and the probe is what gets divided out —
#     otherwise a change that speeds up most of a suite would be read as
#     ambient drift and flag the entries it did not touch;
#   * an entry only fails when *both* its mean and its min regress past
#     the threshold — a transient load spike inflates the mean while the
#     fastest sample stays honest, a genuine slowdown moves both;
#   * sub-0.5ms entries are jitter-dominated and never fail the gate.
# Entries present on only one side are reported but do not fail the
# comparison (benches gain entries over time). Improvements print their
# speed-up so refreshed baselines are easy to sanity-check.
#
# The `reachability` group additionally gates the two-engine trade-off
# within the *current* document: chain clocks must use at least 4x less
# memory than the bit matrix at the largest size (bytes are deterministic,
# so this is a hard failure), and their build+query mean at the smallest
# size is reported against the 1.15x target (timing is jittery at these
# sizes, so a miss only warns).
#
# The `streaming` group is likewise gated within the current document
# (its bytes are deterministic): at the largest size where both modes ran,
# the online detector's peak resident bytes must undercut the offline
# mode's materialized footprint (trace + reachability index) by >=8x, and
# the online footprint must stay sublinear in the trace -- growing by at
# most a quarter of the record-count growth across the online sweep.
#
# The `profile_overhead` group is likewise gated within the current
# document: `--profile` only adds post-processing (the pipeline itself is
# identical either way), so the *extra* cost it introduces — building the
# profiled report + timeline (`report_profiled`) minus the plain report
# build (`report`) that `--json` always pays — must stay within 5% of the
# end-to-end detect_all/jobs1 mean, by the same dual mean+min rule.
#
# The `governor_overhead` group gates the resource governor within the
# current document: with budgets far above any real footprint the
# governor's bracket (install, per-stage probes, uninstall) is all that
# runs, so the `enabled` entry must stay within 3% of `baseline` over the
# same detect-all workload, by the same dual mean+min rule.
#
# The `trigger_parallel` group gates the triggering farm within the
# current document: each entry's `bytes` carries a checksum of the
# (pair, verdict) outcomes, and the checksum must be identical across
# every `--trigger-jobs` count of the same benchmark (determinism is the
# farm's hard contract — fail on any mismatch). The tjobsN-vs-tjobs1
# speed-up is printed but soft: it tracks the machine's core count, and a
# 1-core box legitimately shows ~1.0x.
set -euo pipefail

if [[ $# -ne 2 ]]; then
    echo "usage: $0 <baseline.json> <current.json>" >&2
    exit 2
fi

python3 - "$1" "$2" <<'PY'
import json
import re
import statistics
import sys

THRESHOLD = 1.25  # fail on >25% mean regression
NOISE_FLOOR_NS = 500_000  # sub-0.5ms entries are jitter-dominated: report only
MEMORY_RATIO = 4.0  # clocks must beat the matrix by this factor at the top size
TIME_RATIO = 1.15  # clocks build+query target at the smallest size (soft)
PROFILE_RATIO = 1.05  # --profile may cost at most 5% on detect-all
STREAM_MEMORY_RATIO = 8.0  # online must beat the offline footprint by this factor
STREAM_SUBLINEAR = 4.0  # online bytes may grow at most 1/4 as fast as records
GOVERNOR_RATIO = 1.03  # an idle governor may cost at most 3% on detect-all

def entries(path):
    with open(path) as f:
        doc = json.load(f)
    out = {}
    for group in doc["groups"]:
        for entry in group["entries"]:
            out[(group["name"], entry["name"])] = (
                entry["mean_ns"],
                entry["min_ns"],
                entry.get("bytes"),
            )
    return out, doc.get("calibration_ns")

base_path, cur_path = sys.argv[1], sys.argv[2]
(base, base_cal), (cur, cur_cal) = entries(base_path), entries(cur_path)

shared = sorted(base.keys() & cur.keys())
# suite-median ratio = ambient machine drift between the two captures
drift = statistics.median(cur[k][0] / base[k][0] for k in shared) if shared else 1.0
probe = cur_cal / base_cal if base_cal and cur_cal else None

def direction(ratio):
    return 0 if abs(ratio - 1.0) <= 0.05 else (1 if ratio > 1.0 else -1)

if probe is not None and direction(probe) != direction(drift):
    print(
        f"  suite median {drift:.2f}x but calibration probe {probe:.2f}x — they disagree "
        f"in direction, so the code moved most entries: normalizing by the probe"
    )
    drift = probe
elif abs(drift - 1.0) > 0.05:
    witness = f", calibration probe {probe:.2f}x" if probe is not None else ""
    print(f"  ambient drift {drift:.2f}x (suite median{witness}) — normalized out")

failed = []
for key in sorted(base.keys() | cur.keys()):
    label = "/".join(key)
    if key not in base:
        print(f"  new       {label}: {cur[key][0] / 1e6:.2f} ms (no baseline)")
        continue
    if key not in cur:
        print(f"  missing   {label}: present only in {base_path}")
        continue
    (b_mean, b_min, _), (c_mean, c_min, _) = base[key], cur[key]
    ratio = (c_mean / drift) / b_mean if b_mean else float("inf")
    min_ratio = (c_min / drift) / b_min if b_min else float("inf")
    if ratio > THRESHOLD and min_ratio > THRESHOLD:
        if b_mean < NOISE_FLOOR_NS:
            print(
                f"  noisy     {label}: {b_mean / 1e6:.2f} ms -> {c_mean / 1e6:.2f} ms "
                f"({ratio:.2f}x) below the 0.5 ms noise floor — not failed"
            )
            continue
        failed.append(label)
        print(f"  REGRESSED {label}: {b_mean / 1e6:.2f} ms -> {c_mean / 1e6:.2f} ms ({ratio:.2f}x)")
    elif ratio > THRESHOLD:
        print(
            f"  noisy     {label}: mean {b_mean / 1e6:.2f} ms -> {c_mean / 1e6:.2f} ms "
            f"({ratio:.2f}x) but min {min_ratio:.2f}x — load spike, not failed"
        )
    elif ratio < 1.0:
        print(f"  ok        {label}: {b_mean / 1e6:.2f} ms -> {c_mean / 1e6:.2f} ms ({1 / ratio:.2f}x faster)")
    else:
        print(f"  ok        {label}: {b_mean / 1e6:.2f} ms -> {c_mean / 1e6:.2f} ms ({ratio:.2f}x)")

# --- reachability engine gate (current document only) ---
sizes = {}
for (group, name), (mean, _mn, nbytes) in cur.items():
    m = re.fullmatch(r"(matrix|clocks)_(\d+)rec", name)
    if group == "reachability" and m:
        sizes.setdefault(int(m.group(2)), {})[m.group(1)] = (mean, nbytes)
paired = {n: e for n, e in sizes.items() if "matrix" in e and "clocks" in e}
if paired:
    largest, smallest = max(paired), min(paired)
    m_bytes, c_bytes = paired[largest]["matrix"][1], paired[largest]["clocks"][1]
    if m_bytes and c_bytes:
        ratio = m_bytes / c_bytes
        line = (
            f"reachability@{largest}rec memory: clocks {c_bytes} vs "
            f"matrix {m_bytes} bytes ({ratio:.1f}x smaller)"
        )
        if ratio < MEMORY_RATIO:
            failed.append(line)
            print(f"  ENGINES   {line} — below the {MEMORY_RATIO:.0f}x floor")
        else:
            print(f"  engines   {line}")
    m_mean, c_mean = paired[smallest]["matrix"][0], paired[smallest]["clocks"][0]
    t_ratio = c_mean / m_mean if m_mean else float("inf")
    verdict = "ok" if t_ratio <= TIME_RATIO else f"above the {TIME_RATIO}x target (soft)"
    print(
        f"  engines   reachability@{smallest}rec build+query: clocks "
        f"{c_mean / 1e6:.2f} ms vs matrix {m_mean / 1e6:.2f} ms ({t_ratio:.2f}x) — {verdict}"
    )

# --- streaming window gate (current document only) ---
stream = {}
for (group, name), (mean, _mn, nbytes) in cur.items():
    m = re.fullmatch(r"(online|offline)_(\d+)rec", name)
    if group == "streaming" and m:
        stream.setdefault(int(m.group(2)), {})[m.group(1)] = (mean, nbytes)
stream_paired = {n: e for n, e in stream.items() if "online" in e and "offline" in e}
if stream_paired:
    largest = max(stream_paired)
    off_bytes = stream_paired[largest]["offline"][1]
    on_bytes = stream_paired[largest]["online"][1]
    if off_bytes and on_bytes:
        ratio = off_bytes / on_bytes
        line = (
            f"streaming@{largest}rec memory: online {on_bytes} vs "
            f"offline {off_bytes} bytes ({ratio:.0f}x smaller)"
        )
        if ratio < STREAM_MEMORY_RATIO:
            failed.append(line)
            print(f"  STREAMING {line} — below the {STREAM_MEMORY_RATIO:.0f}x floor")
        else:
            print(f"  streaming {line}")
online_sizes = sorted(n for n, e in stream.items() if "online" in e and e["online"][1])
if len(online_sizes) >= 2:
    lo, hi = online_sizes[0], online_sizes[-1]
    size_ratio = hi / lo
    bytes_ratio = stream[hi]["online"][1] / stream[lo]["online"][1]
    line = (
        f"streaming window: {stream[lo]['online'][1]} bytes at {lo}rec -> "
        f"{stream[hi]['online'][1]} bytes at {hi}rec "
        f"({bytes_ratio:.2f}x bytes over {size_ratio:.0f}x records)"
    )
    if bytes_ratio > size_ratio / STREAM_SUBLINEAR:
        failed.append(line)
        print(f"  STREAMING {line} — window is not sublinear in the trace")
    else:
        print(f"  streaming {line}")

# --- --profile overhead gate (current document only) ---
pipeline = cur.get(("detect_all", "jobs1"))
plain = cur.get(("profile_overhead", "report"))
profiled = cur.get(("profile_overhead", "report_profiled"))
if pipeline and plain and profiled:
    budget = PROFILE_RATIO - 1.0  # the extra fraction --profile may cost
    extra_mean = max(0.0, profiled[0] - plain[0])
    extra_min = max(0.0, profiled[1] - plain[1])
    mean_frac = extra_mean / pipeline[0] if pipeline[0] else float("inf")
    min_frac = extra_min / pipeline[1] if pipeline[1] else float("inf")
    line = (
        f"profile overhead: +{extra_mean / 1e6:.2f} ms post-processing on a "
        f"{pipeline[0] / 1e6:.2f} ms detect-all run "
        f"(mean {mean_frac:.1%}, min {min_frac:.1%})"
    )
    if mean_frac > budget and min_frac > budget:
        failed.append(line)
        print(f"  PROFILE   {line} — above the {budget:.0%} budget")
    elif mean_frac > budget:
        print(f"  profile   {line} — mean above {budget:.0%} but min honest: load spike, not failed")
    else:
        print(f"  profile   {line}")

# --- resource-governor overhead gate (current document only) ---
gov_base = cur.get(("governor_overhead", "baseline"))
gov_on = cur.get(("governor_overhead", "enabled"))
if gov_base and gov_on:
    budget = GOVERNOR_RATIO - 1.0
    mean_ratio = gov_on[0] / gov_base[0] if gov_base[0] else float("inf")
    min_ratio = gov_on[1] / gov_base[1] if gov_base[1] else float("inf")
    line = (
        f"governor overhead: enabled {gov_on[0] / 1e6:.2f} ms vs baseline "
        f"{gov_base[0] / 1e6:.2f} ms (mean {mean_ratio - 1.0:+.1%}, min {min_ratio - 1.0:+.1%})"
    )
    if mean_ratio > GOVERNOR_RATIO and min_ratio > GOVERNOR_RATIO:
        failed.append(line)
        print(f"  GOVERNOR  {line} — above the {budget:.0%} budget")
    elif mean_ratio > GOVERNOR_RATIO:
        print(f"  governor  {line} — mean above {budget:.0%} but min honest: load spike, not failed")
    else:
        print(f"  governor  {line}")

# --- trigger farm gate (current document only) ---
farm = {}
for (group, name), (mean, _mn, nbytes) in cur.items():
    m = re.fullmatch(r"(.+)_tjobs(\d+)", name)
    if group == "trigger_parallel" and m:
        farm.setdefault(m.group(1), {})[int(m.group(2))] = (mean, nbytes)
for bench_id, by_jobs in sorted(farm.items()):
    if 1 not in by_jobs:
        continue
    serial_mean, serial_sum = by_jobs[1]
    for n, (mean, checksum) in sorted(by_jobs.items()):
        if n == 1:
            continue
        if checksum != serial_sum:
            line = (
                f"trigger_parallel/{bench_id}: verdict checksum differs "
                f"between tjobs1 ({serial_sum}) and tjobs{n} ({checksum})"
            )
            failed.append(line)
            print(f"  FARM      {line}")
            continue
        speedup = serial_mean / mean if mean else float("inf")
        print(
            f"  farm      trigger_parallel/{bench_id} tjobs{n}: verdicts identical, "
            f"{speedup:.2f}x vs tjobs1 (soft; tracks core count)"
        )

if failed:
    print(f"{len(failed)} gate failure{'' if len(failed) == 1 else 's'} vs {base_path}")
    sys.exit(1)
print(f"no >25% regressions vs {base_path}")
PY
