#!/usr/bin/env python3
"""Host-time benchmark of the Fluke simulator.

Builds hostbench_driver from the checkout's sources, then runs one workload
for --seconds as a series of fresh driver processes (one repetition each),
checks every repetition's virtual results, and prints one JSON object as the
last line of stdout:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones (wall time at the 10th
percentile of the repetitions, set-up and memory at their medians); with
--trace 1 they are the per-layer ones, computed from spans the driver
records around each call into kern and workloads. Traced runs
alternate traced and untraced repetitions, so the tracing overhead is
measured in the same run, and write every span to .bench_out/.

Usage:
    python3 hostbench/run.py --workload apps|c1m|mp|ckpt --seed N
                             --seconds S --trace 0|1 [--smoke] [--pins FILE]

--smoke shrinks c1m/mp/ckpt to 1008 clients and apps to two configurations,
and runs two repetitions regardless of --seconds; hostbench/test_run.py uses
it. --pins replaces hostbench/pinned.json (the tests point it at a tampered
copy).
"""

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("apps", "c1m", "mp", "ckpt")
VARIANTS = 8  # seed % VARIANTS picks the sweep delay / checkpoint phase
MIN_REPS = 3
SMOKE_REPS = 2
CHILD_TIMEOUT_S = 60


def log(msg):
    print(msg, file=sys.stderr, flush=True)


# --------------------------------------------------------------------------
# Build and context.
# --------------------------------------------------------------------------

def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "hostbench")


def build():
    """Configures (once) and builds the driver; returns its path or None."""
    bdir = build_dir()
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.exists(os.path.join(bdir, "Makefile")):
        steps.append(["cmake", "-S", HERE, "-B", bdir, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", bdir, "-j", jobs, "--target", "hostbench_driver"])
    for cmd in steps:
        try:
            r = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                               text=True, timeout=840)
        except (OSError, subprocess.TimeoutExpired) as e:
            log(f"hostbench: {' '.join(cmd)}: {e}")
            return None
        if r.returncode != 0:
            log(r.stdout[-4000:])
            log(f"hostbench: build step failed: {' '.join(cmd)}")
            return None
    exe = os.path.join(bdir, "hostbench_driver")
    return exe if os.path.exists(exe) else None


def source_digest():
    """SHA-256 over the simulator and benchmark sources: a revision stand-in
    for checkouts that are not git repositories."""
    h = hashlib.sha256()
    for top in ("src", "hostbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()[:16]


def git_revision():
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return None
    try:
        r = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True,
                           text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return r.stdout.strip() if r.returncode == 0 else None


# --------------------------------------------------------------------------
# Repetitions.
# --------------------------------------------------------------------------

# Checked operations per repetition (the driver's and check_rep's), all
# counted as failed when a repetition produces no result.
OPS_PER_REP = {"apps": 15, "c1m": 2, "mp": 2, "ckpt": 5}


def run_rep(exe, workload, variant, traced, smoke, run_id):
    cmd = [exe, "--workload", workload, "--variant", str(variant),
           "--trace", "1" if traced else "0", "--run-id", run_id]
    if smoke:
        cmd.append("--smoke")
    spawn_ns = time.monotonic_ns()
    try:
        r = subprocess.run(cmd, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return None, f"{run_id}: timed out after {CHILD_TIMEOUT_S} s"
    lines = r.stdout.strip().splitlines()
    if r.returncode != 0 or not lines:
        return None, f"{run_id}: exit {r.returncode}: {r.stderr.strip()[-500:]}"
    try:
        rep = json.loads(lines[-1])
    except json.JSONDecodeError as e:
        return None, f"{run_id}: unreadable result: {e}"
    rep["launch_ns"] = rep["main_ns"] - spawn_ns
    return rep, None


def check_rep(rep, pins, smoke, reference):
    """Checks a repetition's virtual results; returns (attempted, failed, errors).

    apps: every app x config run completed with the pinned virtual elapsed
    time and context-switch count. mp: the pinned MpDigest for the variant.
    c1m/mp/ckpt: the virtual counters equal the first repetition's."""
    w = rep["workload"]
    errors = []
    if w == "apps":
        runs = rep["virtual"]["apps"]
        failed = 0
        for run in runs:
            want = pins["apps"].get(run["config"], {}).get(run["app"])
            got = [run["elapsed_ns"], run["context_switches"]]
            if not run["completed"] or want != got:
                failed += 1
                errors.append(f"{run['config']} {run['app']}: completed={run['completed']} "
                              f"[elapsed_ns, context_switches] = {got}, pinned {want}")
        return len(runs), failed, errors
    virt = rep["virtual"]
    ok = True
    if w == "mp":
        want = pins["mp_digest"]["smoke" if smoke else "full"][rep["variant"]]
        if virt.get("mp_digest") != want:
            ok = False
            errors.append(f"mp digest {virt.get('mp_digest')}, pinned {want}")
    if reference is not None and virt != reference:
        ok = False
        diff = {k: (virt.get(k), reference.get(k)) for k in set(virt) | set(reference)
                if virt.get(k) != reference.get(k)}
        errors.append(f"virtual results differ from the first repetition: {diff}")
    return 1, 0 if ok else 1, errors


# --------------------------------------------------------------------------
# Metrics.
# --------------------------------------------------------------------------

def median(xs):
    return statistics.median(xs) if xs else 0.0


def low(xs):
    """The repetition at the 10th percentile. The host's other tenants only
    ever add time, and on this kind of shared host they add up to 2x for
    seconds at a time; the fast tail is what the simulator itself costs."""
    xs = sorted(xs)
    return xs[int(0.1 * len(xs))]


def ratio(a, b):
    return a / b if b else 0.0


def span_tree(spans):
    """Per-span duration and self time (duration minus its children's)."""
    dur = [s["end_ns"] - s["start_ns"] for s in spans]
    self_ns = list(dur)
    for s, d in zip(spans, dur):
        if s["parent"] >= 0:
            self_ns[s["parent"]] -= d
    return dur, self_ns


def under(spans, i, name):
    """True when span i lies inside a span called `name`."""
    p = spans[i]["parent"]
    while p >= 0:
        if spans[p]["name"] == name:
            return True
        p = spans[p]["parent"]
    return False


def layer_values(rep):
    """Per-layer metrics of one traced repetition."""
    spans = rep["spans"]
    st = rep["stats"]
    dur, self_ns = span_tree(spans)

    def total(*names, outside=None):
        return sum(dur[i] for i, s in enumerate(spans)
                   if s["name"] in names and not (outside and under(spans, i, outside)))

    def one(name, detail):
        for s, d in zip(spans, dur):
            if s["name"] == name and s["detail"] == detail:
                return d, s.get("delta", {})
        return 0, {}

    virt = rep["virtual"]
    run_ns = total("kern.RunUntilThreadDone") or rep["wall_ns"]
    memtest_np, memtest_np_d = one("workloads.RunMemtest", "Process NP")
    perf_np, perf_np_d = one("workloads.RunFlukeperf", "Process NP")
    perf_fp, perf_fp_d = one("workloads.RunFlukeperf", "Process FP")
    wall_self = {"kern": 0, "workloads": 0, "bench": 0}
    for i, s in enumerate(spans):
        if s["name"] == "bench.wall" or under(spans, i, "bench.wall"):
            wall_self[s["name"].split(".")[0]] += self_ns[i]
    traced_wall = total("bench.wall")
    return {
        "uvm.instructions": st.get("user_instructions", 0),
        "uvm.ns_per_instr": ratio(memtest_np, memtest_np_d.get("user_instructions", 0)),
        "uvm.jit_block_entries": st.get("jit_block_entries", 0),
        "uvm.jit_deopt_ratio": ratio(st.get("jit_deopts", 0), st.get("jit_block_entries", 0)),
        "workloads.apps.memtest_ms": total("workloads.RunMemtest") / 1e6,
        "workloads.apps.flukeperf_ms": total("workloads.RunFlukeperf") / 1e6,
        "workloads.apps.gcc_ms": total("workloads.RunGcc") / 1e6,
        "kern.fast_ns_per_syscall": ratio(perf_np, perf_np_d.get("syscalls", 0)),
        "kern.slow_ns_per_syscall": ratio(perf_fp, perf_fp_d.get("syscalls", 0)),
        "kern.syscalls": st.get("syscalls", 0),
        "kern.fast_ratio": ratio(st.get("syscall_fast_entries", 0), st.get("syscalls", 0)),
        "kern.ipc_fast_handoffs": st.get("ipc_fast_handoffs", 0),
        "kern.frames_allocated": st.get("frames_allocated", 0),
        "kern.context_switches": st.get("context_switches", 0),
        "kern.ns_per_syscall": ratio(run_ns, st.get("syscalls", 0)),
        "kern.timer_arms": st.get("timer_arms", 0),
        "kern.timer_cancels": st.get("timer_cancels", 0),
        "kern.timer_cascades": st.get("timer_cascades", 0),
        "kern.sched_picks": st.get("sched_bitmap_scans", 0),
        "kern.hard_faults": st.get("hard_faults", 0),
        "kern.soft_faults": st.get("soft_faults", 0),
        "kern.tlb_hit_ratio": ratio(st.get("tlb_hits", 0),
                                    st.get("tlb_hits", 0) + st.get("tlb_misses", 0)),
        "kern.mp.epochs": st.get("mp_epochs", 0),
        "kern.mp.cross_cpu_ipc": st.get("cross_cpu_ipc", 0),
        "kern.mp.barrier_waits": st.get("mp_barrier_waits", 0),
        "kern.mp.ns_per_epoch": ratio(run_ns, st.get("mp_epochs", 0)),
        "kern.boot_ms": total("kern.Kernel", outside="bench.wall") / 1e6,
        "workloads.build_ms": total("workloads.BuildC1mWorkload") / 1e6,
        "kern.run_ms": total("kern.RunUntilThreadDone") / 1e6,
        "kern.teardown_ms": total("kern.~Kernel") / 1e6,
        "kern.retained_kb": rep["retained_bytes"] / 1024,
        "workloads.ckpt.mark_ms": total("workloads.ConcurrentCkpt.Begin",
                                        "workloads.ConcurrentCkpt.Finish",
                                        "kern.CkptDrainAll") / 1e6,
        "workloads.ckpt.serialize_ms": total("workloads.SerializeMachine") / 1e6,
        "workloads.ckpt.commit_ms": total("workloads.CommitGeneration",
                                          "workloads.ImageDigest") / 1e6,
        "workloads.ckpt.image_mb": virt.get("image_bytes", 0) / (1 << 20),
        "workloads.ckpt.generations": virt.get("generations_committed", 0),
        "workloads.ckpt.cow_ratio": ratio(st.get("ckpt_cow_saves", 0),
                                          st.get("ckpt_mark_pages", 0)),
        "workloads.ckpt.recover_ms": total("workloads.RecoverLatest",
                                           "workloads.RestoreMachine") / 1e6,
        "workloads.ckpt.restore_ms": total("workloads.RestoreMachine") / 1e6,
        # Generation 1 is full and every later one a delta on the one before.
        "workloads.ckpt.chain_len": virt.get("recovered_generation", 0),
        "kern.self_ms": wall_self["kern"] / 1e6,
        "workloads.self_ms": wall_self["workloads"] / 1e6,
        "bench.self_ms": wall_self["bench"] / 1e6,
        "bench.traced_wall_ms": traced_wall / 1e6,
    }


def end_to_end(reps):
    """wall_ms: the 10th-percentile repetition; for apps, the sum over the 15
    app runs of each run's 10th-percentile time. setup_s and peak_rss_mb:
    medians. apps has no set-up outside its entry points, so its setup_s is
    the driver process's launch (spawn to main)."""
    if reps[0]["calls_ns"]:
        wall_ns = sum(low(times) for times in zip(*(r["calls_ns"] for r in reps)))
    else:
        wall_ns = low([r["wall_ns"] for r in reps])
    setups = [r["launch_ns"] if r["workload"] == "apps" else r["setup_ns"] for r in reps]
    return {
        "wall_ms": wall_ns / 1e6,
        "sim_mips": median([r["instructions"] for r in reps]) / wall_ns * 1e3,
        "setup_s": median(setups) / 1e9,
        "peak_rss_mb": median([r["peak_rss_kb"] for r in reps]) / 1024,
    }


def per_layer(traced, untraced, tax_base):
    """Per-layer values of the median traced repetition (one repetition, so
    the self times partition its traced wall exactly). The tracing overhead
    compares traced and untraced walls with the end-to-end estimator."""
    traced = sorted(traced, key=lambda r: r["wall_ns"])
    values = layer_values(traced[(len(traced) - 1) // 2])
    values["bench.trace_overhead_ms"] = (
        (low([r["wall_ns"] for r in traced]) - low([r["wall_ns"] for r in untraced])) / 1e6
        if untraced else 0.0)
    values["kern.mp.tax"] = 0.0
    if tax_base:
        mp_reps = traced + untraced
        mp = median([ratio(r["wall_ns"], r["stats"].get("syscalls", 0)) for r in mp_reps])
        c1m = median([ratio(r["wall_ns"], r["stats"].get("syscalls", 0)) for r in tax_base])
        values["kern.mp.tax"] = ratio(mp, c1m)
    return values


# --------------------------------------------------------------------------
# Main.
# --------------------------------------------------------------------------

def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true")
    ap.add_argument("--pins", default=os.path.join(HERE, "pinned.json"))
    args = ap.parse_args()

    with open(args.pins) as f:
        pins = json.load(f)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    exe = build()
    if exe is None:
        log("hostbench: no driver binary; giving up")
        return 2

    variant = args.seed % VARIANTS
    # In a traced run, every other repetition is untraced (tracing overhead);
    # the mp run also times c1m repetitions, the base of kern.mp.tax.
    if args.trace:
        plan = [(args.workload, True), (args.workload, False)]
        if args.workload == "mp":
            plan.append(("c1m", False))
    else:
        plan = [(args.workload, False)]
    min_reps = SMOKE_REPS if args.smoke else MIN_REPS

    reps, errors = [], []
    attempted = failed = 0
    references = {}
    start = time.monotonic()
    i = 0
    while True:
        cycles = i // len(plan)
        if cycles >= min_reps and (args.smoke or time.monotonic() - start >= args.seconds):
            break
        workload, traced = plan[i % len(plan)]
        run_id = f"{workload}-seed{args.seed}-rep{i}"
        i += 1
        rep, err = run_rep(exe, workload, variant, traced, args.smoke, run_id)
        if rep is None:
            attempted += OPS_PER_REP[workload]
            failed += OPS_PER_REP[workload]
            errors.append(err)
            continue
        a, f, errs = check_rep(rep, pins, args.smoke, references.get(workload))
        references.setdefault(workload, rep["virtual"])
        attempted += rep["attempted"] + a
        failed += rep["failed"] + f
        errors += [f"{run_id}: {e}" for e in rep["errors"] + errs]
        reps.append(rep)

    own = [r for r in reps if r["workload"] == args.workload]
    for e in errors[:20]:
        log(f"hostbench: FAILED {e}")
    if not own:
        log("hostbench: no repetition produced a result")
        return 1
    context = {
        "workload": args.workload, "seed": args.seed, "variant": variant,
        "seconds": args.seconds, "trace": args.trace, "smoke": args.smoke,
        "repetitions": len(own),
        "compiler": own[0]["compiler"],
        "build_type": own[0]["build_type"],
        "nproc": os.cpu_count(),
        "git_revision": git_revision(),
        "source_digest": source_digest(),
        "absent_counters": sorted({k for r in own for k in r["absent"]}),
    }
    print(json.dumps({"context": context}))

    if args.trace:
        traced = [r for r in own if r["traced"]]
        untraced = [r for r in own if not r["traced"]]
        tax_base = [r for r in reps if r["workload"] == "c1m"] if args.workload == "mp" else []
        values = per_layer(traced, untraced, tax_base)
        wanted = spec["per_layer"]
        out_dir = os.path.join(ROOT, ".bench_out")
        os.makedirs(out_dir, exist_ok=True)
        path = os.path.join(out_dir, f"spans-{args.workload}-seed{args.seed}.json")
        with open(path, "w") as f:
            json.dump({"context": context, "spans": [s for r in traced for s in r["spans"]]}, f)
        log(f"hostbench: wrote {path}")
    else:
        values = end_to_end(own)
        wanted = spec["end_to_end"]
    metrics = {m["name"]: {"value": float(values[m["name"]]), "unit": m["unit"]} for m in wanted}

    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
