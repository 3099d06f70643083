"""The three benchmark workloads: inputs from the seed, operations, checks.

A workload object is built from the seed before acamsim is imported (its
constructor uses only the standard library), so ``setup`` can time the
import. ``setup`` ends at the first answer. ``inputs(i)`` makes the inputs
of operation ``i`` from (seed, i) alone, so operation ``i`` is the same in
every run with that seed, however many operations a run gets through.
``run`` is the only timed part. ``check`` compares the answers with
references that do not come from acamsim (range containment, tree
traversal) and returns the answers as canonical text for the digest.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
import re

import hostspeed

LATTICE = 16                    # thresholds and test inputs sit on k/16 steps
N_FEATURES = 4
TREE_DEPTH = 6
TREE_LEAVES = 38                # the ROADMAP's 38 x 4 reference table
BATCH = 16384                   # tree_batch inputs per classify_many call
RULE_WIDTH = 16
RULES_PER_TABLE = range(1, 17)
CHURN_BITS = (2, 4)
SEARCHES_PER_TABLE = 64
PROGRAM_TOL = 1e-6              # the CLI's program-and-verify settings
PROGRAM_MAX_PULSES = 100
REFERENCE_RULE = (385, 58630, 16)
SESSION_VALUES = 1000
SESSION_ROWS = 1000
TS_PROBE_INPUTS = 2000
TS_PROBE_LINES = 50


class Tally:
    """Answers attempted, failed and wrong, with failure causes."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.completed = 0
        self.wrong = 0
        self.causes: dict[str, int] = {}
        self.fatal: list[str] = []   # first few answers that fail the run
        self.fatal_count = 0

    def fail_run(self, message: str):
        self.fatal_count += 1
        if len(self.fatal) < 5:
            self.fatal.append(message)

    def cause(self, name: str, n: int = 1):
        self.causes[name] = self.causes.get(name, 0) + n


# ---------------------------------------------------------------------------
# seeded decision trees (standard library only)
# ---------------------------------------------------------------------------

def make_tree_spec(seed: int) -> dict:
    """Random tree: depth <= 6, 4 features, thresholds on a 1/16 lattice.

    Redrawn until it has exactly TREE_LEAVES leaves, so every seed gives a
    table of the same size and run-to-run spread comes from the inputs, not
    from the table size. Feature domains have power-of-two widths, so every
    threshold and lattice midpoint is exact in binary floating point.
    """
    rng = random.Random(f"acamsim-bench-tree-{seed}")
    features = [{"name": f"f{i}", "lo": rng.choice((0.0, -8.0, 16.0)),
                 "width": rng.choice((1.0, 4.0, 64.0))} for i in range(N_FEATURES)]
    while True:
        leaves = []

        def grow(depth, box):
            open_features = [f for f in range(N_FEATURES) if box[f][1] - box[f][0] > 1]
            if depth == TREE_DEPTH or not open_features or rng.random() < 0.1:
                leaves.append(1)
                return {"label": f"leaf{len(leaves) - 1:02d}"}
            f = rng.choice(open_features)
            lo, hi = box[f]
            k = rng.randrange(lo + 1, hi)
            left, right = list(box), list(box)
            left[f], right[f] = (lo, k), (k, hi)
            return {"feature": f, "k": k, "left": grow(depth + 1, left),
                    "right": grow(depth + 1, right)}

        root = grow(0, [(0, LATTICE)] * N_FEATURES)
        if len(leaves) == TREE_LEAVES:
            return {"features": features, "root": root}


def threshold(spec: dict, node: dict) -> float:
    f = spec["features"][node["feature"]]
    return f["lo"] + node["k"] * f["width"] / LATTICE


def tree_doc(spec: dict) -> dict:
    """The tree in the CLI's JSON format."""

    def emit(node):
        if "label" in node:
            return {"label": node["label"]}
        return {"feature": node["feature"], "threshold": threshold(spec, node),
                "left": emit(node["left"]), "right": emit(node["right"])}

    return {"features": [{"name": f["name"], "lo": f["lo"],
                          "hi": f["lo"] + f["width"]} for f in spec["features"]],
            "root": emit(spec["root"])}


def near_threshold(spec: dict, x) -> bool:
    """Whether ``x`` lies within half a lattice step of a threshold on its path.

    This is the guard band of the ``trees`` module docstring: outside it the
    compiled table must agree with traversal.
    """
    node = spec["root"]
    while "label" not in node:
        f = spec["features"][node["feature"]]
        theta = threshold(spec, node)
        if abs(x[node["feature"]] - theta) < 0.5 * f["width"] / LATTICE:
            return True
        node = node["left"] if x[node["feature"]] < theta else node["right"]
    return False


def lattice_inputs(np, spec: dict, rng, n: int):
    k = rng.integers(0, LATTICE, size=(n, N_FEATURES))
    lo = np.array([f["lo"] for f in spec["features"]])
    width = np.array([f["width"] for f in spec["features"]])
    return lo + (k + 0.5) * width / LATTICE


def _match_error_cause(message: str) -> str:
    m = re.search(r"(\d+) rows matched", message)
    if m is None:
        return "domain_error"
    return "ambiguous_zero_rows" if m.group(1) == "0" else "ambiguous_several_rows"


class Workload:
    name = ""
    digest_ops = 1   # operations always run, and covered by the digest
    block = 1        # a run stops only at a multiple of this many operations
    speed_mix: tuple[str, ...] = ()   # host-speed reference (see hostspeed.py)

    def __init__(self, seed: int, workdir: str):
        self.seed = seed
        self.workdir = workdir
        self.tree_spec = make_tree_spec(seed)

    def _import(self):
        import numpy as np
        import acamsim  # the package imports every module but the CLI
        self.np = np
        self.ac = acamsim
        self.p = acamsim.cell.calibrated_defaults()
        self.tree = self._build_tree(self.tree_spec)

    def _build_tree(self, spec):
        trees = self.ac.trees

        def build(node):
            if "label" in node:
                return trees.TreeLeaf(node["label"])
            return trees.TreeNode(node["feature"], threshold(spec, node),
                                  build(node["left"]), build(node["right"]))

        doc = tree_doc(spec)
        features = tuple(trees.FeatureSpec(f["name"], f["lo"], f["hi"])
                         for f in doc["features"])
        return trees.DecisionTree(features, build(spec["root"]))

    def count_wrong_label(self, tally: Tally, x):
        tally.wrong += 1
        near = near_threshold(self.tree_spec, x)
        tally.cause("wrong_label_near_threshold" if near else "wrong_label_outside_guard")

    def rng(self, i: int, stream: int = 0):
        return self.np.random.default_rng([self.seed, stream, i])

    def ts_probe(self) -> dict:
        """Two known ``ts`` defects, measured as counts (traced runs only).

        The tree is compiled for the ``ts`` cell and searched on lattice
        midpoints, counting inputs no row matches; then the CLI classifies a
        few lines with ``--variant ts`` and the lines that got a label are
        counted.
        """
        import acamsim.cli  # noqa: F401  (only cli_session imports it in set-up)
        np, ac = self.np, self.ac
        tp = ac.devices.TsDeviceParams()
        tt = ac.trees.tree_to_cam(self.tree, self.p, variant="ts", ts=tp)
        cells = ac.tables.lower_to_conductances(tt.table, self.p, variant="ts", ts=tp)
        a = ac.array.make_array(cells, variant="ts", ts_params=tp)
        xs = lattice_inputs(np, self.tree_spec,
                            self.rng(0, stream=3), TS_PROBE_INPUTS)
        matched = ac.array.search_many(a, tt.encode_many(xs), self.p)
        zero = int((matched.sum(axis=1) == 0).sum())

        d = os.path.join(self.workdir, "ts_probe")
        os.makedirs(d, exist_ok=True)
        tree_path = os.path.join(d, "tree.json")
        rows_path = os.path.join(d, "rows.csv")
        with open(tree_path, "w") as fh:
            json.dump(tree_doc(self.tree_spec), fh)
        with open(rows_path, "w") as fh:
            fh.writelines(",".join(repr(v) for v in x) + "\n"
                          for x in xs[:TS_PROBE_LINES].tolist())
        run_cli(ac, ["--out", d, "compile", tree_path, "--variant", "ts"])
        run_cli(ac, ["--out", d, "classify", os.path.join(d, "table.json"),
                     rows_path, "--variant", "ts"])
        with open(os.path.join(d, "labels.csv")) as fh:
            labels = fh.read().splitlines()[1:]
        return {"trees.ts_zero_match_frac": zero / TS_PROBE_INPUTS,
                "cli.classify_ts.ok_lines": sum(not s.startswith("ERROR")
                                                for s in labels)}


def run_cli(ac, argv) -> int:
    """``acamsim.cli.main`` in-process, with its printed output discarded."""
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        return ac.cli.main(argv)


# ---------------------------------------------------------------------------
# tree_batch: compile once, classify many lattice inputs per call
# ---------------------------------------------------------------------------

class TreeBatch(Workload):
    name = "tree_batch"
    digest_ops = 4
    speed_mix = ("vector",)

    def setup(self):
        self._import()
        self.tt = self.ac.trees.tree_to_cam(self.tree, self.p, variant="mosfet")
        x0 = lattice_inputs(self.np, self.tree_spec, self.rng(0, stream=1), 1)
        self.ac.trees.classify_many(self.tt, x0, self.p)

    def inputs(self, i):
        return lattice_inputs(self.np, self.tree_spec, self.rng(i), BATCH)

    def n_inputs(self, xs):
        return len(xs)

    def run(self, i, xs):
        try:
            return self.ac.trees.classify_many(self.tt, xs, self.p)
        except self.ac.errors.AcamError as e:
            return e

    def check(self, i, xs, out, tally: Tally) -> list[str]:
        n = len(xs)
        tally.attempted += n
        if isinstance(out, Exception):
            tally.failed += n
            cause = _match_error_cause(str(out))
            tally.cause(cause, n)
            tally.fail_run(f"batch {i} raised {type(out).__name__}: {out}")
            return [f"!{cause}"] * n
        tally.completed += n
        for x, label in zip(xs.tolist(), out):
            want = self.tree.classify(x)
            if label != want:
                self.count_wrong_label(tally, x)
                tally.fail_run(f"batch {i}: {x} -> {label}, traversal gives {want}")
        return list(out)


# ---------------------------------------------------------------------------
# rule_churn: rules -> table -> conductances -> programmed cells -> searches
# ---------------------------------------------------------------------------

class RuleChurn(Workload):
    name = "rule_churn"
    # Every block of 32 tables holds each (rules per table, bits per cell)
    # pair once, in seeded order, and a run stops only at a block boundary:
    # all runs measure the same mix of table sizes.
    block = len(RULES_PER_TABLE) * len(CHURN_BITS)
    digest_ops = block
    speed_mix = ("scalar", "interp")

    def setup(self):
        self._import()
        self.tp = self.ac.devices.TsDeviceParams()
        lo, hi, width = REFERENCE_RULE
        rules = [self.ac.tables.RangeRule(lo, hi, width, "ref")]
        values = self.rng(0, stream=1).integers(0, 1 << RULE_WIDTH, size=1)
        self.run(-1, (rules, 4, "mosfet", values))  # operation -1: set-up

    def inputs(self, i):
        b, j = divmod(i, self.block)
        slot = int(self.rng(b, stream=2).permutation(self.block)[j])
        n_rules = RULES_PER_TABLE[slot % len(RULES_PER_TABLE)]
        bits = CHURN_BITS[slot // len(RULES_PER_TABLE)]
        variant = "ts" if i % 4 == 3 else "mosfet"
        rng = self.rng(i)
        ends = self.np.sort(rng.integers(0, 1 << RULE_WIDTH, size=(n_rules, 2)), axis=1)
        rules = [self.ac.tables.RangeRule(int(lo), int(hi), RULE_WIDTH, f"r{k}")
                 for k, (lo, hi) in enumerate(ends)]
        values = rng.integers(0, 1 << RULE_WIDTH, size=SEARCHES_PER_TABLE)
        return rules, bits, variant, values

    def n_inputs(self, x):
        return len(x[3])

    def run(self, i, x):
        rules, bits, variant, values = x
        ac, p = self.ac, self.p
        ts = self.tp if variant == "ts" else None
        try:
            table = ac.tables.compile_rules(rules, bits)
            cells = ac.tables.lower_to_conductances(table, p, variant=variant, ts=ts)
            programmed = []
            for ri, row in enumerate(cells):
                new_row = []
                for ci, c in enumerate(row):
                    g = [ac.devices.program_memristor(
                            target, (self.seed, i + 1, ri, ci, k), tol=PROGRAM_TOL,
                            max_iters=PROGRAM_MAX_PULSES, p=p).state.g
                         for k, target in enumerate((c.g_m1, c.g_m2))]
                    new_row.append(ac.cell.CellConfig(*g))
                programmed.append(new_row)
            a = ac.array.make_array(programmed, variant=variant, ts_params=ts)
            family = ac.tables.default_level_family(1 << bits, p, variant, ts)
            stim = [ac.tables.encode_integer(int(v), table, family) for v in values]
            return table.labels(), ac.array.search_many(a, self.np.array(stim), p)
        except ac.errors.AcamError as e:
            return e

    def check(self, i, x, out, tally: Tally) -> list[str]:
        rules, bits, variant, values = x
        tally.attempted += len(values)
        if isinstance(out, Exception):
            tally.failed += len(values)
            cause = type(out).__name__
            tally.cause(cause, len(values))
            tally.fail_run(f"table {i} raised {cause}: {out}")
            return [f"!{cause}"] * len(values)
        labels, matched = out
        tally.completed += len(values)
        answers = []
        for v, row in zip(values.tolist(), matched):
            got = sorted(labels[r] for r in self.np.nonzero(row)[0])
            want = sorted(r.label for r in rules if r.lo <= v <= r.hi)
            if got != want:
                tally.wrong += 1
                tally.cause(f"wrong_rows_{bits}bit_{variant}")
            answers.append(f"{v}:{';'.join(got)}")
        tally.cause(f"searches_{bits}bit_{variant}", len(values))
        return answers


# ---------------------------------------------------------------------------
# cli_session: the acamsim command run in-process, as a user would
# ---------------------------------------------------------------------------

class CliSession(Workload):
    name = "cli_session"
    digest_ops = 1
    speed_mix = ("scalar", "interp")

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        os.makedirs(workdir, exist_ok=True)
        self.rules_path = os.path.join(workdir, "rules.jsonl")
        self.tree_path = os.path.join(workdir, "tree.json")
        self.values_path = os.path.join(workdir, "values.txt")
        self.rows_path = os.path.join(workdir, "rows.csv")
        lo, hi, width = REFERENCE_RULE
        with open(self.rules_path, "w") as fh:
            fh.write(json.dumps({"lo": lo, "hi": hi, "width_bits": width,
                                 "label": "ref"}) + "\n")
        with open(self.tree_path, "w") as fh:
            json.dump(tree_doc(self.tree_spec), fh)
        self.command_log: list[dict] = []   # timing of each command, per run()

    def _dir(self, name):
        return os.path.join(self.workdir, name)

    def setup(self):
        self._import()
        import acamsim.cli  # noqa: F401
        with open(self.values_path, "w") as fh:
            fh.write(f"{REFERENCE_RULE[0]}\n")
        self._compile()
        run_cli(self.ac, ["--out", self._dir("search"), "search",
                          os.path.join(self._dir("rule"), "table.json"),
                          self.values_path])

    def _compile(self):
        return max(run_cli(self.ac, ["--out", self._dir("rule"), "compile",
                                  self.rules_path, "--bits", "4"]),
                run_cli(self.ac, ["--out", self._dir("tree"), "compile",
                                  self.tree_path]))

    def inputs(self, i):
        rng = self.rng(i)
        values = rng.integers(0, 1 << REFERENCE_RULE[2], size=SESSION_VALUES).tolist()
        lo = self.np.array([f["lo"] for f in self.tree_spec["features"]])
        width = self.np.array([f["width"] for f in self.tree_spec["features"]])
        rows = (lo + rng.random((SESSION_ROWS, N_FEATURES)) * width).tolist()
        with open(self.values_path, "w") as fh:
            fh.writelines(f"{v}\n" for v in values)
        with open(self.rows_path, "w") as fh:
            fh.writelines(",".join(repr(v) for v in x) + "\n" for x in rows)
        return values, rows

    def n_inputs(self, x):
        return len(x[0]) + len(x[1])

    def run(self, i, x):
        codes, timings = {}, {}
        steps = (
            ("compile", self._compile),
            ("search", lambda: run_cli(self.ac, [
                "--out", self._dir("search"), "search",
                os.path.join(self._dir("rule"), "table.json"), self.values_path])),
            ("classify", lambda: run_cli(self.ac, [
                "--out", self._dir("classify"), "classify",
                os.path.join(self._dir("tree"), "table.json"), self.rows_path])),
            ("sweep", lambda: run_cli(self.ac, [
                "--out", self._dir("sweep"), "sweep",
                os.path.join(self._dir("rule"), "table.json"),
                "--column", "0", "--step", "1"])),
            ("cost", lambda: run_cli(self.ac, [
                "--out", self._dir("cost"), "cost", "--rule",
                ",".join(map(str, REFERENCE_RULE)), "--tcam-baseline-cells", "336"])),
        )
        for name, step in steps:
            with hostspeed.Timed() as timings[name]:
                codes[name] = step()
        self.command_log.append(timings)
        return codes

    def _read(self, name, file):
        with open(os.path.join(self._dir(name), file)) as fh:
            return fh.read().splitlines()[1:]

    def check(self, i, x, codes, tally: Tally) -> list[str]:
        values, rows = x
        tally.attempted += len(values) + len(rows)
        answers = []
        bad = [c for c, code in codes.items() if code != 0]
        if bad:
            tally.fail_run(f"session {i}: commands {bad} exited non-zero")
            tally.failed += len(values) + len(rows)
            return [f"!exit:{bad}"]
        lo, hi, _ = REFERENCE_RULE
        lines = self._read("search", "search.csv")
        for v, line in zip(values, lines):
            value, _, labels = line.partition(",")
            got = labels.split(";") if labels else []
            want = ["ref"] if lo <= v <= hi else []
            if int(value) != v or got != want:
                tally.wrong += 1
                tally.cause("wrong_search")
                tally.fail_run(f"session {i}: search {v} -> {got}, rule gives {want}")
            answers.append(line)
        if len(lines) != len(values):
            tally.fail_run(f"session {i}: {len(lines)} search lines for {len(values)} values")
        tally.completed += len(values)
        labels = self._read("classify", "labels.csv")
        if len(labels) != len(rows):
            tally.fail_run(f"session {i}: {len(labels)} labels for {len(rows)} rows")
        for xrow, label in zip(rows, labels):
            if label.startswith("ERROR:"):
                tally.failed += 1
                cause = _match_error_cause(label)
                tally.cause(cause)
                answers.append(f"!{cause}")
                continue
            tally.completed += 1
            if label != self.tree.classify(xrow):
                self.count_wrong_label(tally, xrow)
            answers.append(label)
        sweep = self._read("sweep", "sweep.csv")
        answers += [",".join(s.split(",")[k] for k in (0, 1, 3)) for s in sweep]
        return answers
