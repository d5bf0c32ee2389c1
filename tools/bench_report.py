#!/usr/bin/env python3
"""Runs the host-time microbenchmarks and distills BENCH_microbench.json.

Usage:
    tools/bench_report.py [--bench PATH] [--out PATH] [--min-time SECS]
                          [--baseline BIN] [--label NAME]
    tools/bench_report.py --check [REPORT.json] [--max-regress PCT]

Runs bench/microbench (built by the normal cmake build) with JSON output and
writes a compact report: one entry per benchmark with the items/sec or
bytes/sec rate google-benchmark computed, so successive runs can be compared
with a diff. Host-time numbers only -- virtual-time results live in the
table benches, not here.

Each run also appends a labelled snapshot of the rates to the report's
`history` array (carried forward from the existing file), so the checked-in
json accumulates one line per PR instead of losing the trend on overwrite.

`--check` compares a fresh run against the checked-in report and exits
nonzero only if a paper-relevant benchmark regressed by more than
--max-regress percent (default 20): a coarse gate that catches real control-
plane regressions without flaking on shared-runner noise.
"""

import argparse
import datetime
import json
import os
import subprocess
import sys

# Benchmarks that stand in for paper-relevant hot paths; the CI perf-smoke
# gate only fails on these. Matched by prefix so Arg variants are covered.
PAPER_BENCHES = (
    "BM_NullSyscall",
    "BM_RpcRoundTrip",
    "BM_BulkTransferMB",
    "BM_UserMemLoop",
    "BM_InterpAluLoop",
    "BM_InterpMemLoop",
    "BM_HardFaultRoundTrip",
    "BM_TraceOverhead",
    "BM_TraceBinOverhead",
    "BM_FlightRecorder",
)

# --stats-json schema versions this script knows how to distill. 1 is the
# unversioned original (no "schema" key); 2 added the observability-pipeline
# counters (trace_bin_*, flight_dumps, metrics_samples). Anything else is
# rejected rather than silently mis-read.
KNOWN_STATS_SCHEMAS = (1, 2)

# BM_Interp*/N argument -> interpreter engine, mirroring BenchEngine() in
# bench/microbench.cc. Snapshots carry this map plus per-benchmark engine
# speedups so the history shows which engine produced which rate.
INTERP_ENGINE_ARGS = {"0": "switch", "1": "threaded", "2": "jit"}

# google-benchmark reports real_time/cpu_time in each benchmark's time_unit
# (BM_ThreadScale and BM_MpScale use ms); the report stores nanoseconds.
NS_PER_TIME_UNIT = {"ns": 1, "us": 1e3, "ms": 1e6, "s": 1e9}


def interp_speedups(rates):
    """Per-benchmark jit/threaded speedups over the switch baseline."""
    out = {}
    for name, rate in rates.items():
        base, _, arg = name.rpartition("/")
        if not base.startswith("BM_Interp") or arg not in INTERP_ENGINE_ARGS:
            continue
        engine = INTERP_ENGINE_ARGS[arg]
        if engine == "switch" or not rate:
            continue
        switch_rate = rates.get(f"{base}/0")
        threaded_rate = rates.get(f"{base}/1")
        entry = out.setdefault(base, {})
        if switch_rate:
            entry[f"{engine}_vs_switch"] = round(rate / switch_rate, 3)
        if engine == "jit" and threaded_rate:
            entry["jit_vs_threaded"] = round(rate / threaded_rate, 3)
    return out


def distill_stats(path):
    """Distills a fluke_run --stats-json snapshot to the headline numbers."""
    with open(path) as f:
        s = json.load(f)
    schema = s.get("schema", 1)
    if schema not in KNOWN_STATS_SCHEMAS:
        known = ", ".join(str(v) for v in KNOWN_STATS_SCHEMAS)
        raise SystemExit(
            f"{path}: unknown --stats-json schema {schema!r} (this script "
            f"understands schemas {known}); refusing to distill counters "
            f"whose meaning may have changed")
    out = {
        "virtual_time_ms": s.get("virtual_time_ns", 0) / 1e6,
        "syscalls": s.get("syscalls"),
        "syscall_restarts": s.get("syscall_restarts"),
        "context_switches": s.get("context_switches"),
        "soft_faults": s.get("soft_faults"),
        "hard_faults": s.get("hard_faults"),
        "trace_events_recorded": s.get("trace_events_recorded"),
        "user_instructions": s.get("user_instructions"),
        "interp_block_charges": s.get("interp_block_charges"),
        "interp_predecodes": s.get("interp_predecodes"),
        "jit_compiles": s.get("jit_compiles"),
        "jit_block_entries": s.get("jit_block_entries"),
        "jit_deopts": s.get("jit_deopts"),
        "jit_bytes": s.get("jit_bytes"),
    }
    if schema >= 2:
        for key in ("trace_bin_chunks", "trace_bin_bytes", "flight_dumps",
                    "metrics_samples"):
            out[key] = s.get(key)
    for hist in ("probe_hist", "block_hist"):
        h = s.get(hist) or {}
        if h.get("count"):
            out[hist] = {k: h.get(k) for k in
                         ("count", "avg_ns", "p50_ns", "p95_ns", "max_ns")}
    return s.get("config", "unknown"), out


def find_default_bench(repo_root):
    for rel in ("build/bench/microbench", "bench/microbench"):
        p = os.path.join(repo_root, rel)
        if os.path.isfile(p) and os.access(p, os.X_OK):
            return p
    return None


def run_bench(bench, min_time):
    cmd = [
        bench,
        "--benchmark_format=json",
        f"--benchmark_min_time={min_time}",
    ]
    proc = subprocess.run(cmd, capture_output=True, text=True)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"benchmark run failed ({proc.returncode})")
    return json.loads(proc.stdout)


def to_ns(value, unit):
    if value is None:
        return None
    if unit not in NS_PER_TIME_UNIT:
        raise SystemExit(f"unknown benchmark time_unit {unit!r}")
    return value * NS_PER_TIME_UNIT[unit]


def distill(raw):
    out = []
    for b in raw.get("benchmarks", []):
        if b.get("run_type") == "aggregate":
            continue
        unit = b.get("time_unit", "ns")
        entry = {
            "name": b["name"],
            "real_time_ns": to_ns(b.get("real_time"), unit),
            "cpu_time_ns": to_ns(b.get("cpu_time"), unit),
            "iterations": b.get("iterations"),
        }
        if "items_per_second" in b:
            entry["items_per_second"] = b["items_per_second"]
        if "bytes_per_second" in b:
            entry["bytes_per_second"] = b["bytes_per_second"]
        # User counters exported by BM_ThreadScale (per-thread blocked-frame
        # memory and wakeup throughput, the paper's 100k-thread scaling axes),
        # BM_MpScale (host time per c1m run and the MP epoch/cross-CPU
        # traffic that produced it),
        # and BM_CkptOverhead (generations committed, serial-pause p95, and
        # how often a user write beat the background drain to a marked page).
        # ... and BM_TraceBinOverhead / BM_FlightRecorder (on-disk bytes per
        # trace event, host ms to cut one postmortem bundle).
        for counter in ("bytes_per_thread", "wakeups_per_vsec",
                        "host_ms_per_run", "mp_epochs", "cross_cpu_ipc",
                        "ckpt_generations", "ckpt_pause_p95_ns",
                        "ckpt_cow_saves", "bytes_per_event", "bundle_ms"):
            if counter in b:
                entry[counter] = b[counter]
        out.append(entry)
    return out


def rate_of(entry):
    return entry.get("items_per_second") or entry.get("bytes_per_second")


def default_label(repo_root):
    try:
        proc = subprocess.run(
            ["git", "-C", repo_root, "rev-parse", "--short", "HEAD"],
            capture_output=True, text=True,
        )
        if proc.returncode == 0:
            return proc.stdout.strip()
    except OSError:
        pass
    return "unlabelled"


def load_existing(path):
    if not os.path.isfile(path):
        return {}
    try:
        with open(path) as f:
            return json.load(f)
    except (OSError, ValueError):
        return {}


def check(report_path, bench, min_time, max_regress):
    old = load_existing(report_path)
    if not old.get("benchmarks"):
        raise SystemExit(f"no checked-in report at {report_path}")
    old_rates = {e["name"]: rate_of(e) for e in old["benchmarks"]}
    new = distill(run_bench(bench, min_time))
    failures = []
    for e in new:
        name = e["name"]
        if not name.startswith(PAPER_BENCHES):
            continue
        old_rate = old_rates.get(name)
        new_rate = rate_of(e)
        if not old_rate or not new_rate:
            continue
        change = (new_rate / old_rate - 1.0) * 100.0
        flag = ""
        if change < -max_regress:
            failures.append(name)
            flag = "  <-- REGRESSION"
        print(f"{name:40s} {change:+7.1f}%{flag}")
    if failures:
        print(f"\nFAIL: {len(failures)} benchmark(s) regressed more than "
              f"{max_regress}% vs {report_path}: {', '.join(failures)}")
        return 1
    print(f"\nOK: no paper-relevant benchmark regressed more than {max_regress}%")
    return 0


def main():
    repo_root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--bench", default=None, help="path to the microbench binary")
    ap.add_argument(
        "--out",
        default=os.path.join(repo_root, "BENCH_microbench.json"),
        help="output JSON path",
    )
    ap.add_argument("--min-time", default="1.0", help="per-benchmark min time (s)")
    ap.add_argument(
        "--baseline",
        default=None,
        help="optional second microbench binary (e.g. a pre-change build); "
        "its results are recorded under 'baseline' with per-benchmark "
        "speedup ratios",
    )
    ap.add_argument(
        "--label",
        default=None,
        help="snapshot label for the history array (default: git short hash)",
    )
    ap.add_argument(
        "--check",
        nargs="?",
        const="",
        default=None,
        metavar="REPORT",
        help="compare a fresh run against the checked-in report (default "
        "--out) and fail on paper-relevant regressions; writes nothing",
    )
    ap.add_argument(
        "--max-regress",
        type=float,
        default=20.0,
        help="--check failure threshold, percent (default 20)",
    )
    ap.add_argument(
        "--stats-json",
        action="append",
        default=None,
        metavar="FILE",
        help="ingest a fluke_run --stats-json snapshot into the report's "
        "kernel_stats map (keyed by config label); repeatable",
    )
    args = ap.parse_args()

    bench = args.bench or find_default_bench(repo_root)
    if bench is None:
        raise SystemExit(
            "microbench binary not found; build it first:\n"
            "  cmake -B build -S . && cmake --build build -j"
        )

    if args.check is not None:
        report_path = args.check or args.out
        raise SystemExit(check(report_path, bench, args.min_time, args.max_regress))

    raw = run_bench(bench, args.min_time)
    existing = load_existing(args.out)
    # "compiler" and "build_type" describe the simulator build (microbench
    # adds them); "library_build_type" describes google-benchmark's.
    report = {
        "context": {
            k: raw.get("context", {}).get(k)
            for k in ("date", "host_name", "num_cpus", "mhz_per_cpu",
                      "compiler", "build_type", "library_build_type")
        },
        "benchmarks": distill(raw),
    }
    if args.stats_json:
        stats = dict(existing.get("kernel_stats", {}))
        for path in args.stats_json:
            label, distilled = distill_stats(path)
            stats[label] = distilled
            print(f"ingested kernel stats for [{label}] from {path}")
        report["kernel_stats"] = stats

    if args.baseline:
        base = distill(run_bench(args.baseline, args.min_time))
        report["baseline"] = base
        rates = {}
        for e in base:
            rates[e["name"]] = rate_of(e)
        speedups = {}
        for e in report["benchmarks"]:
            new_rate = rate_of(e)
            old_rate = rates.get(e["name"])
            if new_rate and old_rate:
                speedups[e["name"]] = round(new_rate / old_rate, 3)
        report["speedup_vs_baseline"] = speedups

    # Accumulate the trend: carry the existing history forward and append
    # this run as a labelled snapshot of just the headline rates.
    history = list(existing.get("history", []))
    snapshot = {
        "label": args.label or default_label(repo_root),
        "date": datetime.datetime.now().isoformat(timespec="seconds"),
        "rates": {e["name"]: rate_of(e) for e in report["benchmarks"]},
        "interp_engine_args": INTERP_ENGINE_ARGS,
    }
    speedups = interp_speedups(snapshot["rates"])
    if speedups:
        snapshot["interp_speedups"] = speedups
    thread_scale = {
        e["name"]: {"bytes_per_thread": e["bytes_per_thread"],
                    "wakeups_per_vsec": e.get("wakeups_per_vsec")}
        for e in report["benchmarks"] if "bytes_per_thread" in e
    }
    if thread_scale:
        snapshot["thread_scale"] = thread_scale
    if "speedup_vs_baseline" in report:
        snapshot["speedup_vs_baseline"] = report["speedup_vs_baseline"]
    history.append(snapshot)
    report["history"] = history

    with open(args.out, "w") as f:
        json.dump(report, f, indent=2)
        f.write("\n")
    print(f"wrote {args.out} ({len(report['benchmarks'])} benchmarks, "
          f"{len(history)} history snapshots)")


if __name__ == "__main__":
    main()
