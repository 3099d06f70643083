"""acamsim benchmark: three closed-loop workloads, one caller, one thread.

Run from the root of a checkout (the directory holding ``src/acamsim``):

    python3 bench/run.py --workload tree_batch --seed 1 --seconds 20 --trace 0

Each run starts fresh child processes: several that only time set-up
(``setup_s`` is their median) and one that sets up, then repeats the
workload's operation until ``--seconds`` of operation time have passed. The
children run with the BLAS thread variables set to 1, pinned to one CPU
beside a host-speed sampler (``hostspeed.py``); timings are the child's CPU
time scaled to the nominal host speed. The last line of standard output is
one JSON object: ``correct`` (every operation of the run), ``attempted``
and ``failed`` (the first operations, which every run makes, so the counts
repeat for a seed) and ``metrics``, the end-to-end metrics with ``--trace 0`` and the per-layer metrics with
``--trace 1``. Lines before it print every metric by name and unit, the
failures by cause and a SHA-256 digest of the answers, which is the same
for every run with the same seed.
"""

from __future__ import annotations

import argparse
import compileall
import hashlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time

import hostspeed
import spans
import workloads

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
OUT_DIR = os.path.join(BENCH_DIR, "out")
SETUP_REPEATS = 5          # set-up-only child processes per run
SETUP_SPEED_MIX = ("scalar", "interp")   # set-up is imports and small calls
RUN_TIMEOUT_S = 170
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
WORKLOADS = {c.name: c for c in (workloads.TreeBatch, workloads.RuleChurn,
                                 workloads.CliSession)}


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--role", choices=("setup", "main"), help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        ap.error("--seed must be non-negative and --seconds positive")
    return args


# ---------------------------------------------------------------------------
# parent: orchestrates the child processes and prints the result
# ---------------------------------------------------------------------------

def parent(args) -> int:
    start = time.monotonic()
    src = os.path.join(os.getcwd(), "src")
    if not os.path.isfile(os.path.join(src, "acamsim", "__init__.py")):
        print("error: run from the root of an acamsim checkout "
              "(no src/acamsim here)", file=sys.stderr)
        return 2
    # compile once up front, so that no timed import pays for byte-compiling
    compileall.compile_dir(os.path.join(src, "acamsim"), quiet=1)
    env = dict(os.environ, PYTHONPATH=src, PYTHONHASHSEED="0")
    env.update({var: "1" for var in THREAD_VARS})
    base = [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
            "--seed", str(args.seed), "--seconds", str(args.seconds),
            "--trace", str(args.trace)]

    def child(role):
        left = RUN_TIMEOUT_S - (time.monotonic() - start)
        proc = subprocess.run(base + ["--role", role], env=env, capture_output=True,
                              text=True, timeout=max(left, 1.0))
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            sys.stderr.write(proc.stderr)
            raise RuntimeError(f"{role} child exited with {proc.returncode}")
        return json.loads(lines[-1])

    try:
        setups = [child("setup") for _ in range(SETUP_REPEATS)]
        result = child("main")
    except (RuntimeError, subprocess.TimeoutExpired) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    setups.append(result)
    setup_s = statistics.median(s["setup_s"] for s in setups)
    setup_wall_s = statistics.median(s["setup_wall_s"] for s in setups)

    w = args.workload
    print(f"# {w} seed={args.seed} seconds={args.seconds:g} trace={args.trace}")
    print(f"{w} setup_s {setup_s:.6f} s  (median of {len(setups)} fresh processes)")
    print(f"{w} wall.setup_s {setup_wall_s:.6f} s  (not host-corrected)")
    for name, value, unit, note in result["report"]:
        print(f"{w} {name} {value:.6g} {unit}" + (f"  ({note})" if note else ""))
    for cause, n in sorted(result["causes"].items()):
        print(f"{w} count.{cause} {n}")
    print(f"{w} run.attempted {result['all_attempted']}  run.failed {result['all_failed']}"
          f"  (every operation of this run; the JSON counts the first "
          f"{result['digest_ops']})")
    print(f"{w} answer_digest sha256:{result['digest']}  "
          f"(first {result['digest_ops']} operations)")
    for message in result["fatal"]:
        print(f"{w} WRONG {message}")

    if args.trace:
        measured = result["per_layer"]
        for name, (value, unit) in measured.items():
            print(f"{w} {name} {value:.6g} {unit}")
    else:
        measured = dict(result["end_to_end"], setup_s=(setup_s, "s"))
    with open("BENCHMARK.json") as fh:
        declared = json.load(fh)["per_layer" if args.trace else "end_to_end"]
    metrics = {}
    for m in declared:
        value, unit = measured[m["name"]]
        if unit != m["unit"]:
            raise ValueError(f"{m['name']} measured in {unit}, declared in {m['unit']}")
        metrics[m["name"]] = {"value": value, "unit": unit}
    print(json.dumps({"correct": result["correct"], "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0


# ---------------------------------------------------------------------------
# children
# ---------------------------------------------------------------------------

def percentile(values, q):
    """Linear-interpolation percentile (numpy's default method)."""
    s = sorted(values)
    pos = (len(s) - 1) * q / 100
    lo = int(pos)
    hi = min(lo + 1, len(s) - 1)
    return s[lo] + (s[hi] - s[lo]) * (pos - lo)


class Pass:
    """Operations run back to back: their timings and checked answers."""

    def __init__(self):
        self.tally = workloads.Tally()
        self.ops: list[hostspeed.Timed] = []
        self.inputs = 0

    @property
    def cpu_s(self):
        return sum(t.cpu for t in self.ops)

    @property
    def wall_s(self):
        return sum(t.end - t.start for t in self.ops)


def run_ops(wl, ops, p: Pass, digest=None, tracer=None):
    for i in ops:
        x = wl.inputs(i)
        if tracer is not None:
            tracer.op = i
        with hostspeed.Timed() as timed:
            out = wl.run(i, x)
        if tracer is not None:
            tracer.op = -1
        p.ops.append(timed)
        p.inputs += wl.n_inputs(x)
        answers = wl.check(i, x, out, p.tally)
        if digest is not None:
            digest.update(("\n".join(answers) + "\n").encode())


def child(args) -> int:
    # The sampler must share the measured process's CPU (see hostspeed.py).
    cpu = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    workdir = os.path.join(OUT_DIR, f"work-{args.workload}-{os.getpid()}")
    try:
        wl = WORKLOADS[args.workload](args.seed, workdir)
        with hostspeed.Sampler(SETUP_SPEED_MIX, cpu) as sampler:
            with hostspeed.Timed() as timed:
                wl.setup()
            sampler.stop()
        setup = {"setup_s": sampler.corrected(timed), "setup_wall_s": timed.end - timed.start}
        if args.role == "setup":
            print(json.dumps(setup))
            return 0
        with hostspeed.Sampler(wl.speed_mix, cpu) as sampler:
            result = measure(wl, args, sampler)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    result.update(setup)
    print(json.dumps(result))
    return 0


def measure(wl, args, sampler) -> dict:
    # The first `digest_ops` operations always run; the digest and the
    # failure fractions cover exactly those, so they repeat for a seed.
    digest = hashlib.sha256()
    first = Pass()
    run_ops(wl, range(wl.digest_ops), first, digest)
    untraced, traced, tracer = [first], [], None
    if args.trace:
        tracer = trace_passes(wl, args, untraced, traced)
        probes = wl.ts_probe()
    else:
        rest = Pass()
        i = wl.digest_ops
        while first.cpu_s + rest.cpu_s < args.seconds or i % wl.block:
            run_ops(wl, [i], rest)
            i += 1
        untraced.append(rest)
    sampler.stop()

    timings = [t for p in untraced for t in p.ops]
    op_s = [sampler.corrected(t) for t in timings]
    inputs = sum(p.inputs for p in untraced)
    t = first.tally
    fail_frac = t.failed / t.attempted
    error_frac = t.wrong / t.completed if t.completed else 0.0
    rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    e2e = {
        "inputs_per_s": (inputs / sum(op_s), "1/s"),
        "op_p50_ms": (percentile(op_s, 50) * 1e3, "ms"),
        "op_p90_ms": (percentile(op_s, 90) * 1e3, "ms"),
        "peak_rss_mib": (rss_mib, "MiB"),
    }
    wall_s = [x.end - x.start for x in timings]
    report = workload_report(wl, e2e, op_s, inputs, fail_frac, error_frac, sampler)
    report += [("wall.inputs_per_s", inputs / sum(wall_s), "1/s", "not host-corrected"),
               ("wall.op_p50_ms", percentile(wall_s, 50) * 1e3, "ms", "not host-corrected"),
               ("host_speed_factor", sum(op_s) / sum(x.cpu for x in timings), "ratio",
                f"nominal/measured {'+'.join(wl.speed_mix)} reference time")]
    per_layer = None
    if tracer is not None:
        repeats = len(traced)
        summary = tracer.summary(nested=(("tables.lower_to_conductances", "cli.cmd_classify"),))
        per_layer = layer_metrics(summary, repeats, sum(p.wall_s for p in traced), t, wl)
        corrected = [sum(sampler.corrected(x) for p in ps for x in p.ops)
                     for ps in (untraced, traced)]
        per_layer["trace.overhead_frac"] = (corrected[1] / corrected[0] - 1.0, "ratio")
        per_layer.update({k: (v, "ratio" if k.endswith("frac") else "count")
                          for k, v in probes.items()})
    passes = untraced + traced
    return {
        "end_to_end": e2e, "per_layer": per_layer, "report": report,
        "causes": dict(t.causes), "digest": digest.hexdigest(), "digest_ops": wl.digest_ops,
        "correct": all(p.tally.fatal_count == 0 for p in passes),
        "fatal": [m for p in passes for m in p.tally.fatal][:5],
        # The JSON counts cover the first `digest_ops` operations, which
        # every run performs whatever its speed, so they repeat for a seed.
        "attempted": t.attempted, "failed": t.failed,
        "all_attempted": sum(p.tally.attempted for p in passes),
        "all_failed": sum(p.tally.failed for p in passes),
    }


def workload_report(wl, e2e, op_s, inputs, fail_frac, error_frac, sampler):
    """The end-to-end metrics under the names a user of each workload reads."""
    n = len(op_s)
    rate = e2e["inputs_per_s"][0]
    rows = []
    if wl.name == "tree_batch":
        rows += [("classify_per_s", rate, "1/s", f"{inputs} inputs in {n} calls"),
                 ("batch_p50_ms", e2e["op_p50_ms"][0], "ms", f"n={n}"),
                 ("batch_p90_ms", e2e["op_p90_ms"][0], "ms", f"n={n}")]
    elif wl.name == "rule_churn":
        rows += [("tables_per_s", n / sum(op_s), "1/s", f"{n} tables"),
                 ("turnaround_p50_ms", e2e["op_p50_ms"][0], "ms", f"n={n}"),
                 ("turnaround_p90_ms", e2e["op_p90_ms"][0], "ms", f"n={n}")]
    else:
        command_s = {c: sum(sampler.corrected(log[c]) for log in wl.command_log[:n])
                     for c in wl.command_log[0]}
        rows += [("classify_per_s", n * workloads.SESSION_ROWS / command_s["classify"],
                  "1/s", f"{n * workloads.SESSION_ROWS} CLI lines"),
                 ("search_per_s", n * workloads.SESSION_VALUES / command_s["search"],
                  "1/s", f"{n * workloads.SESSION_VALUES} CLI values"),
                 ("session_p50_ms", e2e["op_p50_ms"][0], "ms", f"n={n}")]
        rows += [(f"command.{c}.s", s / n, "s", "per session") for c, s in command_s.items()]
    rows += [("inputs_per_s", rate, "1/s", "all answers, BENCHMARK.json"),
             ("op_p50_ms", e2e["op_p50_ms"][0], "ms", ""),
             ("op_p90_ms", e2e["op_p90_ms"][0], "ms", ""),
             ("peak_rss_mib", e2e["peak_rss_mib"][0], "MiB", "ru_maxrss"),
             ("fail_frac", fail_frac, "ratio", f"first {wl.digest_ops} operations"),
             ("decision_error_frac", error_frac, "ratio",
              f"first {wl.digest_ops} operations")]
    return rows


def trace_passes(wl, args, untraced, traced):
    """Untraced then traced passes over the first operations.

    Both run the same operations the same number of times, so the traced
    counts repeat exactly for a seed and the time difference is the
    tracing overhead. Returns the tracer, with its spans written out.
    """
    ops = range(wl.digest_ops)
    repeats = max(1, int(args.seconds / 2 / untraced[0].cpu_s))
    for _ in range(repeats - 1):
        untraced.append(Pass())
        run_ops(wl, ops, untraced[-1])
    tracer = spans.Tracer()
    tracer.install()
    try:
        for _ in range(repeats):
            traced.append(Pass())
            run_ops(wl, ops, traced[-1], tracer=tracer)
    finally:
        tracer.uninstall()
    os.makedirs(OUT_DIR, exist_ok=True)
    tracer.write(os.path.join(OUT_DIR, f"spans-{wl.name}.csv"))
    return tracer


def layer_metrics(summary, repeats, t_traced, tally, wl) -> dict:
    by_name, counts = summary["by_name"], summary["counts"]
    empty = {"calls": 0, "total_s": 0.0, "excl_s": 0.0, "self_s": 0.0}

    def s(name):
        return by_name.get(name, empty)

    def per(num, den, scale=1.0):
        return num / den * scale if den else 0.0

    def c(key):
        return counts.get(key, 0) / repeats

    def calls(name):
        return s(name)["calls"] / repeats

    def per_call(name, scale):
        return per(s(name)["total_s"], s(name)["calls"], scale)

    cell_evals = c("array.cell_evals")
    lower = s("tables.lower_to_conductances")
    classify_lines = wl.digest_ops * workloads.SESSION_ROWS if wl.name == "cli_session" else 0
    lowerings_in_classify = summary["nested"][("tables.lower_to_conductances",
                                               "cli.cmd_classify")] / repeats
    m = {
        "devices.curves.ns_per_cell_eval":
            (per(summary["curves_from_array_s"] / repeats, cell_evals, 1e9), "ns"),
        "devices.program.calls": (calls("devices.program_memristor"), "count"),
        "devices.program.pulses_per_write":
            (per(c("devices.program.pulses"), calls("devices.program_memristor")), "pulses"),
        "devices.program.us_per_write": (per_call("devices.program_memristor", 1e6), "us"),
        "cell.conductance_from_bounds.calls": (calls("cell.conductance_from_bounds"), "count"),
        "cell.conductance_from_bounds.us_per_call":
            (per_call("cell.conductance_from_bounds", 1e6), "us"),
        "cell.achievable_window.calls": (calls("cell.achievable_window"), "count"),
        "array.search_many.calls": (calls("array.search_many"), "count"),
        "array.search_many.self_s": (s("array.search_many")["self_s"] / repeats, "s"),
        "array.cell_evals": (cell_evals, "count"),
        "array.ns_per_cell_eval":
            (per(s("array.row_conductances")["total_s"] / repeats, cell_evals, 1e9), "ns"),
        "array.match_ratio": (per(c("array.search_many.matched_pairs"),
                                  c("array.search_many.pairs")), "ratio"),
        "array.search_many.peak_mib":
            (summary["peak_mib"].get("array.search_many", 0.0), "MiB"),
        "array.search.calls": (calls("array.search"), "count"),
        "array.search.us_per_call":
            (per_call("array.search", 1e6), "us"),
        "array.make_array.us_per_cell":
            (per(s("array.make_array")["total_s"] / repeats,
                 c("array.make_array.cells"), 1e6), "us"),
        "array.sweep_column.ms":
            (per_call("array.sweep_column", 1e3), "ms"),
        "tables.compile_rules.us_per_row":
            (per(s("tables.compile_rules")["total_s"] / repeats,
                 c("tables.compile_rules.rows"), 1e6), "us"),
        "tables.lower.calls": (calls("tables.lower_to_conductances"), "count"),
        "tables.lower.cells": (c("tables.lower.cells"), "count"),
        "tables.lower.us_per_cell":
            (per(lower["total_s"] / repeats, c("tables.lower.cells"), 1e6), "us"),
        "tables.encode_integer.us_per_value":
            (per_call("tables.encode_integer", 1e6), "us"),
        "tables.default_level_family.calls": (calls("tables.default_level_family"), "count"),
        "trees.tree_to_cam.ms":
            (per_call("trees.tree_to_cam", 1e3), "ms"),
        "trees.classify_many.calls": (calls("trees.classify_many"), "count"),
        "trees.encode_many.us_per_input":
            (per(s("trees.encode_many")["total_s"] / repeats,
                 c("trees.encode_many.inputs"), 1e6), "us"),
        "trees.decode.us_per_input":
            (per(s("trees.classify_many")["excl_s"] / repeats,
                 c("trees.classify_many.inputs"), 1e6), "us"),
        "cost.compare.ms":
            (per_call("cost.compare_range_implementations", 1e3), "ms"),
        "cli.classify.lowerings_per_line": (per(lowerings_in_classify, classify_lines), "ratio"),
        "cli.classify.error_lines":
            (sum(v for k, v in tally.causes.items() if k.startswith("ambiguous")
                 or k == "domain_error") if wl.name == "cli_session" else 0, "count"),
        "cli.classify.wrong_labels":
            (sum(v for k, v in tally.causes.items() if k.startswith("wrong_label"))
             if wl.name == "cli_session" else 0, "count"),
    }
    for command in ("compile", "search", "classify", "sweep", "cost"):
        m[f"cli.{command}.s"] = (s(f"cli.cmd_{command}")["total_s"] / repeats, "s")
    for layer, self_s in summary["by_layer"].items():
        m[f"layer.{layer}.self_s"] = (self_s / repeats, "s")
        m[f"layer.{layer}.self_frac"] = (self_s / t_traced, "ratio")
    m["trace.spans"] = (summary["spans"] / repeats, "count")
    return m


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.role is None:
        return parent(args)
    return child(args)


if __name__ == "__main__":
    sys.exit(main())
