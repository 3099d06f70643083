"""Command-line entry point.

Subcommands: calibrate, compile, sweep, search, classify, cost. Outputs are
machine-first (JSON/CSV) with text grids beside them; there is no plotting.
Exit codes: 0 success, 2 parse/input error, 3 domain error, 4 convergence
error. ``search`` and ``classify`` lower their table once and answer the whole
input file with one batched array search. ``compile`` records the cell
variant in a tree table and ``classify`` searches with that variant; a
``--variant`` that contradicts it is a domain error. ``classify`` reports an
input line it cannot classify as an ``ERROR:`` label naming the line, counts
such lines on stderr, and still exits 0. All commands are deterministic for
a fixed --seed.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from .array import make_array, search_many, sweep_column
from .cell import (CellConfig, VoltageInterval, calibrate,
                   calibrated_defaults)
from .cost import (AreaParams, EnergyParams, baseline_comparison,
                   compare_range_implementations, energy_per_search,
                   REFERENCE_TCAM_CELLS)
from .devices import DeviceParams, TsDeviceParams, program_memristor
from .errors import (AcamError, CalibrationError, DomainError, ParseError,
                     ProgrammingError)
from .tables import (CamTable, RangeRule, compile_rules, default_level_family,
                     encode_integer, family_from_json_dict,
                     family_to_json_dict, format_grid, lower_to_conductances,
                     parse_rules_jsonl, table_from_json_dict,
                     table_to_json_dict)
from .trees import (FeatureSpec, TreeTable, _decode, tree_from_json_dict,
                    tree_to_cam)

EXIT_PARSE = 2
EXIT_DOMAIN = 3
EXIT_CONVERGENCE = 4


def _read_json(path: str):
    try:
        with open(path) as fh:
            return json.load(fh)
    except FileNotFoundError as e:
        raise ParseError(f"{path}: no such file") from e
    except json.JSONDecodeError as e:
        raise ParseError(f"{path}: line {e.lineno}: {e.msg}") from e


def _read_text(path: str) -> str:
    try:
        with open(path) as fh:
            return fh.read()
    except FileNotFoundError as e:
        raise ParseError(f"{path}: no such file") from e


def _read_input_lines(path: str, parse) -> list:
    """Non-blank lines of ``path`` as (1-based line number, ``parse(line)``).

    A line that ``parse`` rejects with ValueError is a :class:`ParseError`
    naming the file and the line.
    """
    out = []
    for lineno, raw in enumerate(_read_text(path).splitlines(), 1):
        raw = raw.strip()
        if not raw:
            continue
        try:
            out.append((lineno, parse(raw)))
        except ValueError as e:
            raise ParseError(f"{path}: line {lineno}: {e}") from e
    return out


def _write(path: str, text: str):
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    with open(path, "w") as fh:
        fh.write(text)


def _dump_json(doc) -> str:
    return json.dumps(doc, indent=2) + "\n"


def _load_config(args) -> dict:
    path = args.config or os.environ.get("ACAM_CONFIG")
    if not path:
        return {}
    doc = _read_json(path)
    if not isinstance(doc, dict):
        raise ParseError(f"{path}: config must be a JSON object")
    return doc


def _device_params(args, config: dict) -> DeviceParams:
    if getattr(args, "device_params", None):
        return DeviceParams.from_json_dict(_read_json(args.device_params))
    if "device" in config:
        return DeviceParams.from_json_dict(config["device"])
    return calibrated_defaults()


def _energy_params(args, config: dict) -> EnergyParams:
    ep = EnergyParams.from_json_dict(config.get("energy", {}))
    if getattr(args, "no_dac", False):
        ep = ep.without_dac()
    return ep


def _area_params(config: dict) -> AreaParams:
    return AreaParams.from_json_dict(config.get("area", {}))


def _out_path(args, name: str) -> str:
    return os.path.join(args.out, name)


def _maybe_program(cells, p, seed):
    """Replace target conductances by program-and-verify results."""
    out = []
    for ri, row in enumerate(cells):
        new_row = []
        for ci, c in enumerate(row):
            r1 = program_memristor(c.g_m1, (seed, ri, ci, 0), tol=1e-6,
                                   max_iters=100, p=p)
            r2 = program_memristor(c.g_m2, (seed, ri, ci, 1), tol=1e-6,
                                   max_iters=100, p=p)
            new_row.append(CellConfig(r1.state.g, r2.state.g))
        out.append(new_row)
    return out


def _table_array(table: CamTable, p, args):
    """Array storing ``table`` lowered for ``--variant`` (programmed with
    write noise under ``--program-noise``)."""
    ts = TsDeviceParams() if args.variant == "ts" else None
    cells = lower_to_conductances(table, p, variant=args.variant, ts=ts)
    if args.program_noise:
        cells = _maybe_program(cells, p, args.seed)
    return make_array(cells, variant=args.variant, ts_params=ts)


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_calibrate(args) -> int:
    doc = _read_json(args.anchors)
    if not isinstance(doc, list):
        raise ParseError(f"{args.anchors}: anchors must be a JSON list")
    anchors = []
    for i, entry in enumerate(doc):
        try:
            anchors.append((CellConfig(entry["g_m1_uS"] * 1e-6,
                                       entry["g_m2_uS"] * 1e-6),
                            VoltageInterval(entry["lo_V"], entry["hi_V"])))
        except (KeyError, TypeError) as e:
            raise ParseError(f"{args.anchors}: anchor {i}: bad entry ({e})") from e
    result = calibrate(anchors)
    out = _out_path(args, "device_params.json")
    _write(out, _dump_json(result.params.to_json_dict()))
    print(f"calibrated {len(anchors)} anchors -> {out}")
    for i, r in enumerate(result.residuals):
        print(f"anchor {i}: residual {r * 1e3:.3f} mV")
    print(f"max residual {result.max_residual * 1e3:.3f} mV")
    return 0


def _load_table_or_tree(path: str):
    """A compile input is either a rules JSONL file or a tree JSON document.

    A document that parses as one JSON object with a "root" key is a tree;
    anything else is treated as JSON-lines range rules.
    """
    text = _read_text(path)
    if text.lstrip().startswith("{"):
        try:
            doc = json.loads(text)
        except json.JSONDecodeError:
            doc = None  # several objects -> rules, parsed per line below
        if isinstance(doc, dict) and "root" in doc:
            return None, tree_from_json_dict(doc)
    try:
        return parse_rules_jsonl(text), None
    except DomainError as e:
        raise ParseError(str(e)) from e


def cmd_compile(args, config) -> int:
    rules, tree = _load_table_or_tree(args.input)
    p = _device_params(args, config)
    if tree is not None:
        ts = TsDeviceParams() if args.variant == "ts" else None
        tt = tree_to_cam(tree, p, variant=args.variant, ts=ts,
                         bits_per_cell=args.bits)
        doc = {
            "kind": "tree_table",
            "variant": tt.variant,
            "window": {"lo_V": tt.window.lo, "hi_V": tt.window.hi},
            "features": [{"name": f.name, "lo": f.lo, "hi": f.hi}
                         for f in tt.features],
            "table": table_to_json_dict(tt.table),
        }
        if tt.family is not None:
            doc["family"] = family_to_json_dict(tt.family)
        grid = format_grid(tt.table)
    else:
        bits = None if args.ternary else args.bits
        if not args.ternary and bits is None:
            raise DomainError("compile needs --bits K or --ternary")
        table = compile_rules(rules, bits)
        doc = {"kind": "cam_table", "table": table_to_json_dict(table)}
        grid = format_grid(table)
        n = table.n_rows
        print(f"{n} rows x {table.n_cols} cells "
              f"({'ternary' if bits is None else f'{bits}-bit'})"
              if n else "empty table")
    _write(_out_path(args, "table.json"), _dump_json(doc))
    _write(_out_path(args, "table.txt"), grid + ("\n" if grid else ""))
    if grid:
        print(grid)
    return 0


def _load_compiled(path: str):
    """The table of a compiled table document, and the document."""
    doc = _read_json(path)
    if not isinstance(doc, dict) or "table" not in doc:
        raise ParseError(f"{path}: not a compiled table document")
    return table_from_json_dict(doc["table"]), doc


def cmd_sweep(args, config) -> int:
    p = _device_params(args, config)
    step = args.step * 1e-3
    if args.cell:
        g1, g2 = (float(x) * 1e-6 for x in args.cell.split(","))
        cells = [[CellConfig(g1, g2)] * args.cols]
        if args.program_noise:
            cells = _maybe_program(cells, p, args.seed)
        a = make_array(cells, variant=args.variant)
    else:
        if not args.table:
            raise DomainError("sweep needs a table file or --cell G1_US,G2_US")
        table, _ = _load_compiled(args.table)
        a = _table_array(table, p, args)
    if not (0 <= args.column < a.cols):
        raise DomainError(f"--column {args.column} outside [0, {a.cols})")
    samples = sweep_column(a, args.column, p, step=step)
    lines = ["v_dl,row,v_ml,matched"]
    lines += [f"{v:.6f},{row},{v_ml:.6f},{int(m)}" for v, row, v_ml, m in samples]
    csv = "\n".join(lines) + "\n"
    _write(_out_path(args, "sweep.csv"), csv)
    band = [v for v, row, _, m in samples if row == 0 and m]
    if band:
        print(f"row 0 match band: [{min(band):.4f}, {max(band):.4f}] V "
              f"({len(band)} grid points)")
    else:
        print("warning: no matching point on the sweep grid "
              "(step may exceed the match band)", file=sys.stderr)
        print("row 0 match band: empty")
    print(f"wrote {_out_path(args, 'sweep.csv')}")
    return 0


def cmd_search(args, config) -> int:
    p = _device_params(args, config)
    table, _ = _load_compiled(args.table)
    if table.bits_per_cell is None:
        raise DomainError("search needs a digit table (compile with --bits)")
    a = _table_array(table, p, args)
    family = default_level_family(1 << table.bits_per_cell, p,
                                  a.variant, a.ts_params)
    values = [v for _, v in _read_input_lines(args.inputs, int)]
    stim = np.array([encode_integer(v, table, family) for v in values])
    matched = search_many(a, stim.reshape(len(values), a.cols), p)
    labels = table.labels()
    lines_out = ["value,matched_labels"]
    lines_out += [f"{v},{';'.join(labels[r] for r in np.flatnonzero(row))}"
                  for v, row in zip(values, matched)]
    csv = "\n".join(lines_out) + "\n"
    _write(_out_path(args, "search.csv"), csv)
    print(csv, end="")
    return 0


def _parse_features(line: str) -> list[float]:
    return [float(x) for x in line.split(",")]


def _classify_rows(tt: TreeTable, a, feats: list, p) -> list:
    """(label, None) or (None, failure reason) per feature row, from one
    ``search_many`` call over the rows that can be encoded."""
    nf = len(tt.features)
    fits = np.array([len(x) == nf for x in feats], dtype=bool)
    xs = np.array([x if ok else [0.0] * nf for x, ok in zip(feats, fits)])
    xs = xs.reshape(len(feats), nf)
    codes = tt._reject_codes(xs, fits)
    encodable = np.flatnonzero(codes == 0).tolist()
    labels, wrong = _decode(tt.table,
                            search_many(a, tt.encode_many(xs[encodable]), p))
    out = [(None, tt._reject_reason(c)) if c else None for c in codes.tolist()]
    for j, i in enumerate(encodable):
        if j not in wrong:
            out[i] = (labels[j], None)
            continue
        matched = " ".join(str(r) for r in wrong[j]) or "none"
        out[i] = (None, f"{len(wrong[j])} rows matched (expected exactly 1; "
                        f"matched rows: {matched})")
    return out


def cmd_classify(args, config) -> int:
    p = _device_params(args, config)
    table, doc = _load_compiled(args.table)
    if doc.get("kind") != "tree_table":
        raise DomainError("classify needs a compiled tree table")
    # documents written before compile recorded the variant do not carry it
    variant = doc.get("variant", args.variant or "mosfet")
    if args.variant not in (None, variant):
        raise DomainError(f"table was compiled for --variant {variant}, "
                          f"not --variant {args.variant}")
    ts = TsDeviceParams() if variant == "ts" else None
    family = family_from_json_dict(doc["family"]) if "family" in doc else None
    try:
        features = tuple(FeatureSpec(f["name"], float(f["lo"]), float(f["hi"]))
                         for f in doc["features"])
        window = VoltageInterval(float(doc["window"]["lo_V"]),
                                 float(doc["window"]["hi_V"]))
    except (KeyError, TypeError, ValueError) as e:
        raise ParseError(f"{args.table}: bad \"features\" or \"window\" "
                         f"in tree table ({type(e).__name__}: {e})") from e
    tt = TreeTable(table=table, features=features, window=window,
                   family=family, variant=variant, ts=ts)
    rows = _read_input_lines(args.inputs, _parse_features)
    cells = lower_to_conductances(table, p, family=family, variant=variant,
                                  ts=ts)
    if args.program_noise:
        cells = _maybe_program(cells, p, args.seed)
    a = make_array(cells, variant=variant, ts_params=ts)
    results = _classify_rows(tt, a, [x for _, x in rows], p)
    lines = ["label"]
    failed = 0
    for (lineno, _), (label, reason) in zip(rows, results):
        if reason is None:
            lines.append(label)
            continue
        failed += 1
        # labels.csv has a single column: no commas inside a label
        lines.append(f"ERROR:line {lineno}: {reason}".replace(",", ";"))
    csv = "\n".join(lines) + "\n"
    _write(_out_path(args, "labels.csv"), csv)
    print(csv, end="")
    print(f"classify: {failed} of {len(rows)} lines failed", file=sys.stderr)
    return 0


def cmd_cost(args, config) -> int:
    ep = _energy_params(args, config)
    ap = _area_params(config)
    if args.rule:
        lo, hi, width = (int(x) for x in args.rule.split(","))
        rule = RangeRule(lo, hi, width, "rule")
        bits = args.compare_bits or [3, 4, 8]
        baseline_cells = args.tcam_baseline_cells
        report = compare_range_implementations(rule, bits, ap, ep,
                                               tcam_cells=baseline_cells)
        report = baseline_comparison(report)
    else:
        if args.table:
            table, _ = _load_compiled(args.table)
            rows, cols = table.n_rows, table.n_cols
        elif args.rows and args.cols:
            rows, cols = args.rows, args.cols
        else:
            raise DomainError("cost needs --rule, a table file, or --rows/--cols")
        report = energy_per_search(rows, cols, ep)
    text = report.to_text()
    _write(_out_path(args, "cost.json"), _dump_json(report.to_json_dict()))
    _write(_out_path(args, "cost.txt"), text + "\n")
    print(text)
    return 0


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="acamsim",
        description="Analog CAM behavioral simulator and table compiler")
    ap.add_argument("--config", help="JSON config with device/energy/area "
                    "sections (or set ACAM_CONFIG)")
    ap.add_argument("--seed", type=int, default=0,
                    help="seed for stochastic steps (default 0)")
    ap.add_argument("--out", default=".", help="output directory")
    sub = ap.add_subparsers(dest="command", required=True)

    c = sub.add_parser("calibrate", help="fit device parameters to anchors")
    c.add_argument("anchors", help="JSON list of "
                   "{g_m1_uS, g_m2_uS, lo_V, hi_V} anchor points")

    c = sub.add_parser("compile", help="compile rules (JSONL) or a tree (JSON)")
    c.add_argument("input")
    c.add_argument("--bits", type=int, help="bits per analog cell")
    c.add_argument("--ternary", action="store_true", help="compile to TCAM rows")
    c.add_argument("--device-params", help="device parameter JSON file")
    c.add_argument("--variant", choices=["mosfet", "ts"], default="mosfet")

    c = sub.add_parser("sweep", help="sweep one column's DL and dump CSV")
    c.add_argument("table", nargs="?", help="compiled table JSON")
    c.add_argument("--cell", help="single stored cell G1_US,G2_US instead of a table")
    c.add_argument("--cols", type=int, default=1,
                   help="replicate --cell across this many columns")
    c.add_argument("--column", type=int, default=0, help="column index to sweep")
    c.add_argument("--step", type=float, default=1.0, help="sweep step in mV")
    c.add_argument("--device-params", help="device parameter JSON file")
    c.add_argument("--variant", choices=["mosfet", "ts"], default="mosfet")
    c.add_argument("--program-noise", action="store_true")

    c = sub.add_parser("search", help="search integer inputs against a table")
    c.add_argument("table", help="compiled digit-table JSON")
    c.add_argument("inputs", help="file with one integer per line")
    c.add_argument("--device-params", help="device parameter JSON file")
    c.add_argument("--variant", choices=["mosfet", "ts"], default="mosfet")
    c.add_argument("--program-noise", action="store_true")

    c = sub.add_parser("classify", help="classify feature vectors with a tree table")
    c.add_argument("table", help="compiled tree-table JSON")
    c.add_argument("inputs", help="CSV of feature vectors, one per line")
    c.add_argument("--device-params", help="device parameter JSON file")
    c.add_argument("--variant", choices=["mosfet", "ts"],
                   help="must match the variant the table was compiled for "
                        "(default: that variant)")
    c.add_argument("--program-noise", action="store_true")

    c = sub.add_parser("cost", help="energy/area report")
    c.add_argument("table", nargs="?", help="compiled table JSON")
    c.add_argument("--rows", type=int)
    c.add_argument("--cols", type=int)
    c.add_argument("--rule", help="LO,HI,WIDTH_BITS range comparison report")
    c.add_argument("--compare-bits", type=int, nargs="*",
                   help="bits-per-cell options for --rule (default 3 4 8)")
    c.add_argument("--tcam-baseline-cells", type=int,
                   help="published TCAM cell count to compare against "
                        f"(reference comparison uses {REFERENCE_TCAM_CELLS})")
    c.add_argument("--no-dac", action="store_true",
                   help="zero the DAC line item (analog-input mode)")

    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        config = _load_config(args)
        if args.command == "calibrate":
            return cmd_calibrate(args)
        if args.command == "compile":
            return cmd_compile(args, config)
        if args.command == "sweep":
            return cmd_sweep(args, config)
        if args.command == "search":
            return cmd_search(args, config)
        if args.command == "classify":
            return cmd_classify(args, config)
        if args.command == "cost":
            return cmd_cost(args, config)
        raise DomainError(f"unknown command {args.command}")
    except ParseError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_PARSE
    except (ProgrammingError, CalibrationError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_CONVERGENCE
    except AcamError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_DOMAIN


if __name__ == "__main__":
    sys.exit(main())
