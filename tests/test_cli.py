import json
import os
from dataclasses import replace

import pytest

import acamsim.cli
import acamsim.trees
from acamsim.cell import calibrated_defaults
from acamsim.cli import main
from acamsim.devices import TsDeviceParams
from acamsim.errors import AmbiguousMatchError, DomainError
from acamsim.tables import range_to_digits, RangeRule
from acamsim.trees import classify_many, tree_from_json_dict, tree_to_cam

ANCHORS = [
    {"g_m1_uS": 40, "g_m2_uS": 80, "lo_V": 0.37, "hi_V": 0.42},
    {"g_m1_uS": 20, "g_m2_uS": 80, "lo_V": 0.33, "hi_V": 0.43},
]

RULE_LINE = '{"lo": 385, "hi": 58630, "width_bits": 16, "label": "accept"}\n'

# Two 4-bit rules and the table.json that ``compile --ternary`` wrote for
# them before ternary tables became 1-bit digit tables.
TERNARY_RULES = ('{"lo": 3, "hi": 12, "width_bits": 4, "label": "a"}\n'
                 '{"lo": 9, "hi": 14, "width_bits": 4, "label": "b"}\n')
OLD_TERNARY_TABLE = {"kind": "cam_table", "table": {
    "width_bits": 4, "bits_per_cell": None, "rows": [
        {"word": {"kind": "ternary", "symbols": symbols}, "label": label}
        for symbols, label in [("0011", "a"), ("01XX", "a"), ("10XX", "a"),
                               ("1100", "a"), ("1001", "b"), ("101X", "b"),
                               ("110X", "b"), ("1110", "b")]]}}

TREE_DOC = {
    "features": [{"name": "x", "lo": 0.0, "hi": 1.0},
                 {"name": "y", "lo": 0.0, "hi": 1.0}],
    "root": {"feature": 0, "threshold": 0.5,
             "left": {"label": "A"},
             "right": {"feature": 1, "threshold": 0.25,
                       "left": {"label": "B"}, "right": {"label": "C"}}},
}


# Lattice points, the dead zones below the x split at 0.5 and at the domain
# edges (no row matches there), and every kind of per-line failure.
MIXED_LINES = (
    [f"{(i + 0.5) / 16!r},{(j + 0.5) / 16!r}" for i in range(16)
     for j in range(0, 16, 5)]
    + [f"{0.47 + k * 1e-3!r},0.9" for k in range(31)]
    + ["0.0,0.1", "0.0005,0.6", "0.9995,0.9", "1.0,1.0", "",
       "1.5,0.2", "-0.1,0.5", "0.5,1.25", "   ",
       "0.5", "0.1,0.2,0.3", "nan,0.5", "0.5,inf", "-inf,2.0", "",
       "0.2,0.9", "0.8,0.1"])


def compile_tree(tmp_path, name, *flags) -> str:
    """Compile ``TREE_DOC`` into ``tmp_path/name`` and return its table."""
    tree = tmp_path / "tree.json"
    tree.write_text(json.dumps(TREE_DOC))
    out = str(tmp_path / name)
    assert main(["--out", out, "compile", str(tree), *flags]) == 0
    return os.path.join(out, "table.json")


def per_line_labels(tt, text, p):
    """labels.csv and the failure count from one ``classify_many`` call per
    line, with errors written as the per-line CLI wrote them."""
    lines, failed = ["label"], 0
    for lineno, raw in enumerate(text.splitlines(), 1):
        raw = raw.strip()
        if not raw:
            continue
        x = [float(v) for v in raw.split(",")]
        try:
            lines.append(classify_many(tt, [x], p)[0])
            continue
        except AmbiguousMatchError as e:
            matched = " ".join(str(r) for r in e.matched_rows) or "none"
            reason = (f"{len(e.matched_rows)} rows matched "
                      f"(expected exactly 1; matched rows: {matched})")
        except DomainError as e:
            reason = str(e)
        failed += 1
        lines.append(f"ERROR:line {lineno}: {reason}".replace(",", ";"))
    return lines, failed


@pytest.fixture
def anchors_file(tmp_path):
    path = tmp_path / "anchors.json"
    path.write_text(json.dumps(ANCHORS))
    return str(path)


@pytest.fixture
def rules_file(tmp_path):
    path = tmp_path / "rules.jsonl"
    path.write_text(RULE_LINE)
    return str(path)


class TestCalibrate:
    def test_writes_params_and_residuals(self, tmp_path, anchors_file, capsys):
        out = str(tmp_path / "out")
        assert main(["--out", out, "calibrate", anchors_file]) == 0
        text = capsys.readouterr().out
        assert "residual" in text
        doc = json.loads((tmp_path / "out" / "device_params.json").read_text())
        assert doc["v_slhi_V"] == 0.5
        assert 300 < doc["beta_uS_per_V"] < 400

    def test_malformed_json_reports_line(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('[{"g_m1_uS": 40,\n  broken\n]')
        code = main(["--out", str(tmp_path), "calibrate", str(bad)])
        assert code == 2
        assert "line" in capsys.readouterr().err

    def test_single_anchor_is_domain_error(self, tmp_path, capsys):
        path = tmp_path / "one.json"
        path.write_text(json.dumps(ANCHORS[:1]))
        assert main(["--out", str(tmp_path), "calibrate", str(path)]) == 3

    def test_unfittable_anchors_is_convergence_error(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps([
            {"g_m1_uS": 40, "g_m2_uS": 80, "lo_V": 0.2, "hi_V": 0.6},
            {"g_m1_uS": 20, "g_m2_uS": 80, "lo_V": 0.5, "hi_V": 0.55},
        ]))
        assert main(["--out", str(tmp_path), "calibrate", str(path)]) == 4


class TestCompile:
    def test_four_bit_grid(self, tmp_path, rules_file, capsys):
        out = str(tmp_path / "c")
        assert main(["--out", out, "compile", rules_file, "--bits", "4"]) == 0
        text = capsys.readouterr().out
        assert "6 rows x 4 cells" in text
        doc = json.loads((tmp_path / "c" / "table.json").read_text())
        assert len(doc["table"]["rows"]) == 6
        grid = (tmp_path / "c" / "table.txt").read_text()
        assert len(grid.splitlines()) == 6

    def test_ternary_matches_library_expansion(self, tmp_path, rules_file, capsys):
        out = str(tmp_path / "t")
        assert main(["--out", out, "compile", rules_file, "--ternary"]) == 0
        doc = json.loads((tmp_path / "t" / "table.json").read_text())
        expect = len(range_to_digits(RangeRule(385, 58630, 16), 1))
        assert len(doc["table"]["rows"]) == expect
        assert doc["table"]["bits_per_cell"] == 1
        assert capsys.readouterr().out.startswith(f"{expect} rows x 16 cells "
                                                  "(1-bit)\n")

    def test_bits_and_ternary_exclusive(self, tmp_path, rules_file, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--out", str(tmp_path), "compile", rules_file, "--bits", "4",
                  "--ternary"])
        assert exc.value.code == 2
        assert "not allowed with argument --bits" in capsys.readouterr().err

    def test_old_ternary_table_equals_one_bit_table(self, tmp_path):
        rules = tmp_path / "rules.jsonl"
        rules.write_text(TERNARY_RULES)
        new = tmp_path / "new"
        assert main(["--out", str(new), "compile", str(rules), "--bits",
                     "1"]) == 0
        old = tmp_path / "old"
        old.mkdir()
        (old / "table.json").write_text(json.dumps(OLD_TERNARY_TABLE))
        values = tmp_path / "values.txt"
        values.write_text("".join(f"{v}\n" for v in range(16)))
        for d in (old, new):
            table = str(d / "table.json")
            for argv in (["sweep", table, "--column", "2"],
                         ["search", table, str(values), "--variant", "ts"],
                         ["cost", table]):
                assert main(["--out", str(d), *argv]) == 0
        for name in ("sweep.csv", "search.csv", "cost.json", "cost.txt"):
            assert (old / name).read_bytes() == (new / name).read_bytes()

    def test_empty_rules_compile_to_empty_table(self, tmp_path):
        empty = tmp_path / "empty.jsonl"
        empty.write_text("\n")
        out = str(tmp_path / "e")
        assert main(["--out", out, "compile", str(empty), "--bits", "4"]) == 0
        doc = json.loads((tmp_path / "e" / "table.json").read_text())
        assert doc["table"]["rows"] == []

    def test_missing_bits_flag_is_domain_error(self, tmp_path, rules_file):
        assert main(["--out", str(tmp_path), "compile", rules_file]) == 3

    @pytest.mark.parametrize("line, field", [
        ('{"lo": 1.5, "hi": 2.9, "width_bits": 4}', "lo"),
        ('{"lo": true, "hi": 3, "width_bits": 4}', "lo"),
        ('{"lo": "2", "hi": 3, "width_bits": 4.7}', "lo"),
        ('{"lo": 2, "hi": 3, "width_bits": 4.7}', "width_bits"),
    ])
    def test_non_integer_rule_bound_is_parse_error(self, tmp_path, capsys,
                                                   line, field):
        path = tmp_path / "rules.jsonl"
        path.write_text(line + "\n")
        assert main(["--out", str(tmp_path / "o"), "compile", str(path),
                     "--bits", "4"]) == 2
        assert capsys.readouterr().err == (
            f'error: rules line 1: "{field}" must be an integer\n')
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("name, doc", [
        ("threshold.json", {**TREE_DOC, "root": {**TREE_DOC["root"],
                                                 "threshold": "abc"}}),
        ("lo.json", {**TREE_DOC, "features": [{"name": "x", "lo": "zz",
                                                "hi": 1.0}]}),
        ("features.json", {**TREE_DOC, "features": 7}),
        ("root.json", {**TREE_DOC, "root": [1, 2]}),
        ("feature.json", {**TREE_DOC, "root": {**TREE_DOC["root"],
                                               "feature": float("inf")}}),
        ("hi.jsonl", {"lo": 1, "hi": "x", "width_bits": 8}),
        ("list.jsonl", [1, 2]),
        ("inf.jsonl", {"lo": float("inf"), "hi": 2, "width_bits": 8}),
        ("float_feature.json", {**TREE_DOC, "root": {**TREE_DOC["root"],
                                                     "feature": 1.9}}),
        ("bool_feature.json", {**TREE_DOC, "root": {**TREE_DOC["root"],
                                                    "feature": True}}),
        ("string_threshold.json", {**TREE_DOC, "root": {
            **TREE_DOC["root"], "threshold": "0.5"}}),
        ("domain.json", {**TREE_DOC, "features": [
            {"name": "x", "lo": False, "hi": "1"}, TREE_DOC["features"][1]]}),
        ("label.json", {**TREE_DOC, "root": {**TREE_DOC["root"],
                                             "left": {"label": ["R"]}}}),
    ])
    def test_wrongly_typed_input_is_parse_error(self, tmp_path, capsys, name,
                                                doc):
        path = tmp_path / name
        path.write_text(json.dumps(doc) + "\n")
        assert main(["--out", str(tmp_path / "o"), "compile", str(path),
                     "--bits", "4"]) == 2
        err = capsys.readouterr().err
        where = "rules line 1: " if name.endswith("l") else f"{path}: bad tree ("
        assert err.startswith(f"error: {where}") and err.count("\n") == 1

    @pytest.mark.parametrize("change, message", [
        ({"features": [{"name": "x", "lo": float("-inf"), "hi": float("inf")}]},
         "feature 'x' domain must be finite"),
        ({"features": [{"name": "x", "lo": 1.0, "hi": 1.0}]},
         "feature 'x' domain must have lo < hi"),
        ({"root": {"feature": 0, "threshold": 0.5, "left": {"label": "A"}}},
         "tree node missing field 'right'"),
    ])
    def test_invalid_tree_is_domain_error(self, tmp_path, capsys, change,
                                          message):
        path = tmp_path / "tree.json"
        path.write_text(json.dumps({**TREE_DOC, **change}))
        assert main(["--out", str(tmp_path / "o"), "compile", str(path)]) == 3
        assert capsys.readouterr().err == f"error: {message}\n"


class TestSweep:
    def test_single_cell_band(self, tmp_path, capsys):
        out = str(tmp_path / "s")
        assert main(["--out", out, "sweep", "--cell", "40,80",
                     "--step", "1"]) == 0
        text = capsys.readouterr().out
        csv = (tmp_path / "s" / "sweep.csv").read_text().splitlines()
        assert csv[0] == "v_dl,row,v_ml,matched"
        band = [float(line.split(",")[0]) for line in csv[1:]
                if line.endswith(",1")]
        assert min(band) == pytest.approx(0.37, abs=0.01)
        assert max(band) == pytest.approx(0.42, abs=0.01)

    def test_coarse_step_warns_on_empty_band(self, tmp_path, capsys):
        out = str(tmp_path / "s2")
        assert main(["--out", out, "sweep", "--cell", "40,80",
                     "--step", "90"]) == 0
        err = capsys.readouterr().err
        assert "warning" in err

    def test_wide_array_band_shift_small(self, tmp_path):
        def band(out, cols):
            main(["--out", out, "sweep", "--cell", "20,80", "--cols",
                  str(cols), "--step", "1"])
            rows = (tmp_path / out.split("/")[-1] / "sweep.csv").read_text()
            vs = [float(line.split(",")[0])
                  for line in rows.splitlines()[1:]
                  if line.split(",")[1] == "0" and line.endswith(",1")]
            return min(vs), max(vs)

        lo1, hi1 = band(str(tmp_path / "w1"), 1)
        lo64, hi64 = band(str(tmp_path / "w64"), 64)
        assert abs(lo64 - lo1) <= 0.020
        assert abs(hi64 - hi1) <= 0.020

    def test_ts_variant_sweep(self, tmp_path):
        from acamsim.cell import (CellConfig, calibrated_defaults,
                                  conductance_from_bounds)
        from acamsim.devices import TsDeviceParams
        p = calibrated_defaults()
        cell = CellConfig(*conductance_from_bounds(0.33, 0.43, p, "ts",
                                                   TsDeviceParams()))
        out = str(tmp_path / "ts")
        assert main(["--out", out, "sweep", "--cell",
                     f"{cell.g_m1 * 1e6:.4f},{cell.g_m2 * 1e6:.4f}",
                     "--variant", "ts", "--step", "1"]) == 0
        csv = (tmp_path / "ts" / "sweep.csv").read_text().splitlines()
        band = [float(line.split(",")[0]) for line in csv[1:]
                if line.endswith(",1")]
        assert min(band) == pytest.approx(0.33, abs=0.005)
        assert max(band) == pytest.approx(0.43, abs=0.005)

    @pytest.mark.parametrize("step", ["0", "-1", "nan", "inf"])
    def test_non_positive_step_is_domain_error(self, tmp_path, capsys, step):
        assert main(["--out", str(tmp_path / "s"), "sweep", "--cell", "40,80",
                     f"--step={step}"]) == 3
        assert capsys.readouterr().err == "error: step must be positive\n"

    @pytest.mark.parametrize("step", ["1e-9", "0.0099"])
    def test_step_below_cap_is_domain_error(self, tmp_path, capsys, step):
        # the cap is checked before the grid is allocated (1e-9 mV: 7 TiB)
        assert main(["--out", str(tmp_path / "s"), "sweep", "--cell", "40,80",
                     "--step", step]) == 3
        assert capsys.readouterr().err == (
            "error: step must be at least 1e-05 V: a sweep holds at most "
            "100001 grid points\n")
        assert not (tmp_path / "s" / "sweep.csv").exists()

    @pytest.mark.parametrize("source", ["cell", "table"])
    def test_csv_equals_per_sample_format(self, tmp_path, rules_file, capsys,
                                          source):
        from acamsim.array import make_array, sweep_column
        from acamsim.cell import CellConfig
        from acamsim.tables import lower_to_conductances, table_from_json_dict

        p = calibrated_defaults()
        out = tmp_path / "sc"
        if source == "cell":
            a = make_array([[CellConfig(40 * 1e-6, 80 * 1e-6)] * 3])
            args, step = ["--cell", "40,80", "--cols", "3", "--column", "1"], 1.25
        else:
            main(["--out", str(out), "compile", rules_file, "--bits", "4"])
            doc = json.loads((out / "table.json").read_text())
            a = make_array(lower_to_conductances(
                table_from_json_dict(doc["table"]), p))
            args, step = [str(out / "table.json"), "--column", "1"], 0.5
        capsys.readouterr()
        assert main(["--out", str(out), "sweep", *args, "--step", str(step)]) == 0
        grid, v_ml, matched = sweep_column(a, 1, p, step=step * 1e-3)
        want = ["v_dl,row,v_ml,matched"]
        for i, v in enumerate(grid.tolist()):  # the per-sample text
            for r in range(a.rows):
                want.append(f"{v:.6f},{r},{v_ml[i, r]:.6f},{int(matched[i, r])}")
        assert a.rows == (1 if source == "cell" else 6)
        assert (out / "sweep.csv").read_text() == "\n".join(want) + "\n"
        band = [v for v, m in zip(grid.tolist(), matched[:, 0]) if m]
        assert capsys.readouterr().out.startswith(
            f"row 0 match band: [{min(band):.4f}, {max(band):.4f}] V "
            f"({len(band)} grid points)\n")

    def test_step_not_dividing_one_volt(self, tmp_path):
        out = tmp_path / "s"
        assert main(["--out", str(out), "sweep", "--cell", "40,80",
                     "--step", "0.37"]) == 0
        csv = (out / "sweep.csv").read_text().splitlines()[1:]
        assert [float(line.split(",")[0]) for line in csv[-2:]] == [
            0.99937, 0.99974]
        assert len(csv) == 2703

    def test_table_sweep(self, tmp_path, rules_file):
        out = str(tmp_path / "s3")
        main(["--out", out, "compile", rules_file, "--bits", "4"])
        table = os.path.join(out, "table.json")
        assert main(["--out", out, "sweep", table, "--column", "3",
                     "--step", "2"]) == 0
        assert (tmp_path / "s3" / "sweep.csv").exists()

    def test_tree_table_follows_recorded_variant(self, tmp_path, capsys):
        table = compile_tree(tmp_path, "st", "--variant", "ts")
        got = {}
        for name, flags in (("unset", []), ("ts", ["--variant", "ts"])):
            out = tmp_path / name
            assert main(["--out", str(out), "sweep", table, "--column", "0",
                         "--step", "5", *flags]) == 0
            got[name] = (out / "sweep.csv").read_bytes()
        assert got["unset"] == got["ts"]
        capsys.readouterr()
        assert main(["--out", str(tmp_path / "m"), "sweep", table,
                     "--variant", "mosfet"]) == 3
        assert capsys.readouterr().err == (
            "error: table was compiled for --variant ts, not --variant mosfet\n")


class TestSearch:
    def test_endpoint_membership(self, tmp_path, rules_file, capsys):
        out = str(tmp_path / "q")
        main(["--out", out, "compile", rules_file, "--bits", "4"])
        values = tmp_path / "values.txt"
        values.write_text("385\n384\n58630\n58631\n")
        assert main(["--out", out, "search", os.path.join(out, "table.json"),
                     str(values)]) == 0
        lines = (tmp_path / "q" / "search.csv").read_text().splitlines()
        assert lines[1] == "385,accept"
        assert lines[2] == "384,"
        assert lines[3] == "58630,accept"
        assert lines[4] == "58631,"

    def test_ts_variant_search(self, tmp_path, rules_file):
        out = str(tmp_path / "qt")
        main(["--out", out, "compile", rules_file, "--bits", "4"])
        values = tmp_path / "values.txt"
        values.write_text("385\n384\n30000\n")
        assert main(["--out", out, "search", os.path.join(out, "table.json"),
                     str(values), "--variant", "ts"]) == 0
        lines = (tmp_path / "qt" / "search.csv").read_text().splitlines()
        assert lines[1] == "385,accept"
        assert lines[2] == "384,"
        assert lines[3] == "30000,accept"


    def test_tree_table_follows_recorded_variant(self, tmp_path, capsys):
        table = compile_tree(tmp_path, "qv", "--variant", "ts", "--bits", "2")
        values = tmp_path / "values.txt"
        values.write_text("1\n2\n3\n")
        got = {}
        for name, flags in (("unset", []), ("ts", ["--variant", "ts"])):
            out = tmp_path / name
            assert main(["--out", str(out), "search", table, str(values),
                         *flags]) == 0
            got[name] = (out / "search.csv").read_bytes()
        assert got["unset"] == got["ts"]
        capsys.readouterr()
        assert main(["--out", str(tmp_path / "m"), "search", table,
                     str(values), "--variant", "mosfet"]) == 3
        assert capsys.readouterr().err == (
            "error: table was compiled for --variant ts, not --variant mosfet\n")

    @pytest.mark.parametrize("variant", ["mosfet", "ts"])
    def test_ternary_table_agrees_with_containment(self, tmp_path, variant):
        import random

        rules = tmp_path / "rules.jsonl"
        rules.write_text(RULE_LINE + '{"lo": 1000, "hi": 40000, '
                         '"width_bits": 16, "label": "mid"}\n')
        out = tmp_path / "qt"
        assert main(["--out", str(out), "compile", str(rules),
                     "--ternary"]) == 0
        values = [0, 384, 385, 999, 1000, 40000, 40001, 58630, 58631, 65535]
        values += random.Random(7).sample(range(1 << 16), 300)
        (tmp_path / "values.txt").write_text("".join(f"{v}\n" for v in values))
        assert main(["--out", str(out), "search", str(out / "table.json"),
                     str(tmp_path / "values.txt"), "--variant", variant]) == 0
        spans = [(385, 58630, "accept"), (1000, 40000, "mid")]
        want = ["value,matched_labels"] + [
            f"{v}," + ";".join(lb for lo, hi, lb in spans if lo <= v <= hi)
            for v in values]
        assert (out / "search.csv").read_text().splitlines() == want

    def test_batch_output_equals_scalar_search(self, tmp_path, rules_file):
        import numpy as np
        from acamsim.array import make_array, search_many
        from acamsim.cell import calibrated_defaults
        from acamsim.tables import (default_level_family, encode_integer,
                                    lower_to_conductances, table_from_json_dict)

        out = str(tmp_path / "qb")
        main(["--out", out, "compile", rules_file, "--bits", "4"])
        values = [385, 384, 58630, 58631, 0, 65535]
        values += np.random.default_rng(2).integers(0, 1 << 16, 200).tolist()
        (tmp_path / "values.txt").write_text("".join(f"{v}\n" for v in values))
        assert main(["--out", out, "search", os.path.join(out, "table.json"),
                     str(tmp_path / "values.txt")]) == 0
        doc = json.loads((tmp_path / "qb" / "table.json").read_text())
        table = table_from_json_dict(doc["table"])
        p = calibrated_defaults()
        a = make_array(lower_to_conductances(table, p))
        family = default_level_family(16, p)
        want = ["value,matched_labels"]
        for v in values:  # one search per value
            hit = search_many(a, [encode_integer(v, table, family)], p)[0]
            want.append(f"{v},{';'.join(table.rows[i][1] for i in np.flatnonzero(hit))}")
        assert (tmp_path / "qb" / "search.csv").read_text() == "\n".join(want) + "\n"

    def test_empty_multi_row_and_out_of_range_inputs(self, tmp_path, capsys):
        rules = tmp_path / "rules.jsonl"
        rules.write_text(RULE_LINE + '{"lo": 1000, "hi": 40000, '
                         '"width_bits": 16, "label": "mid"}\n')
        out = tmp_path / "qm"
        main(["--out", str(out), "compile", str(rules), "--bits", "4"])
        table = str(out / "table.json")
        values = tmp_path / "values.txt"
        got = {}
        for name, text in (("empty", ""),
                           ("multi", "385\n1000\n20000\n384\n+7\n 40000 \n")):
            values.write_text(text)
            assert main(["--out", str(out / name), "search", table,
                         str(values)]) == 0
            got[name] = (out / name / "search.csv").read_text()
        assert got["empty"] == "value,matched_labels\n"
        assert got["multi"].splitlines() == [
            "value,matched_labels", "385,accept", "1000,accept;mid",
            "20000,accept;mid", "384,", "7,", "40000,accept;mid"]
        values.write_text("385\n70000\n-1\n")
        capsys.readouterr()
        assert main(["--out", str(out / "bad"), "search", table,
                     str(values)]) == 3
        assert capsys.readouterr().err == (
            "error: value 70000 not representable in 4 base-16 digits\n")
        assert not (out / "bad" / "search.csv").exists()

    @pytest.mark.parametrize("command", ["search", "sweep"])
    def test_empty_table_is_domain_error(self, tmp_path, capsys, command):
        rules = tmp_path / "rules.jsonl"
        rules.write_text("")
        out = str(tmp_path / "e")
        assert main(["--out", out, "compile", str(rules), "--bits", "4"]) == 0
        assert capsys.readouterr().out == "empty table\n"
        values = tmp_path / "values.txt"
        values.write_text("385\n")
        table = os.path.join(out, "table.json")
        args = [table, str(values)] if command == "search" else [table]
        assert main(["--out", out, command, *args]) == 3
        assert capsys.readouterr().err == "error: table has no rows\n"

    def test_non_positive_g_min_is_domain_error(self, tmp_path, rules_file,
                                                capsys):
        out = str(tmp_path / "g")
        main(["--out", out, "compile", rules_file, "--bits", "4"])
        values = tmp_path / "values.txt"
        values.write_text("385\n")
        dev = tmp_path / "dev.json"
        for g_min in (0.0, -1.0):
            doc = calibrated_defaults().to_json_dict()
            dev.write_text(json.dumps({**doc, "g_min_uS": g_min}))
            capsys.readouterr()
            assert main(["--out", out, "search", os.path.join(out, "table.json"),
                         str(values), "--device-params", str(dev)]) == 3
            assert capsys.readouterr().err == "error: g_min must be positive\n"

    def test_non_integer_line_is_parse_error(self, tmp_path, rules_file,
                                             capsys):
        out = str(tmp_path / "qp")
        main(["--out", out, "compile", rules_file, "--bits", "4"])
        values = tmp_path / "values.txt"
        values.write_text("385\n\nabc\n")
        capsys.readouterr()
        assert main(["--out", out, "search", os.path.join(out, "table.json"),
                     str(values)]) == 2
        assert "values.txt: line 3" in capsys.readouterr().err
        assert not (tmp_path / "qp" / "search.csv").exists()


class TestClassify:
    def test_labels_match_traversal(self, tmp_path, capsys):
        tree = tmp_path / "tree.json"
        tree.write_text(json.dumps(TREE_DOC))
        out = str(tmp_path / "k")
        assert main(["--out", out, "compile", str(tree)]) == 0
        inputs = tmp_path / "in.csv"
        inputs.write_text("0.2,0.9\n0.8,0.1\n0.8,0.9\n")
        assert main(["--out", out, "classify", os.path.join(out, "table.json"),
                     str(inputs)]) == 0
        lines = (tmp_path / "k" / "labels.csv").read_text().splitlines()
        assert lines == ["label", "A", "B", "C"]

    def test_quantized_tree_round_trips_through_files(self, tmp_path):
        tree = tmp_path / "tree.json"
        tree.write_text(json.dumps(TREE_DOC))
        out = str(tmp_path / "kq")
        assert main(["--out", out, "compile", str(tree), "--bits", "4"]) == 0
        doc = json.loads((tmp_path / "kq" / "table.json").read_text())
        assert "family" in doc
        inputs = tmp_path / "in.csv"
        inputs.write_text("0.2,0.9\n0.8,0.1\n0.8,0.9\n")
        assert main(["--out", out, "classify", os.path.join(out, "table.json"),
                     str(inputs)]) == 0
        lines = (tmp_path / "kq" / "labels.csv").read_text().splitlines()
        assert lines == ["label", "A", "B", "C"]

    def test_out_of_domain_marks_row(self, tmp_path):
        tree = tmp_path / "tree.json"
        tree.write_text(json.dumps(TREE_DOC))
        out = str(tmp_path / "k2")
        main(["--out", out, "compile", str(tree)])
        inputs = tmp_path / "in.csv"
        inputs.write_text("2.0,0.5\n")
        assert main(["--out", out, "classify", os.path.join(out, "table.json"),
                     str(inputs)]) == 0
        lines = (tmp_path / "k2" / "labels.csv").read_text().splitlines()
        assert lines[1].startswith("ERROR:")

    def test_non_numeric_field_is_parse_error(self, tmp_path, capsys):
        tree = tmp_path / "tree.json"
        tree.write_text(json.dumps(TREE_DOC))
        out = str(tmp_path / "kp")
        main(["--out", out, "compile", str(tree)])
        inputs = tmp_path / "in.csv"
        inputs.write_text("0.2,0.9\n0.8,x\n")
        capsys.readouterr()
        assert main(["--out", out, "classify", os.path.join(out, "table.json"),
                     str(inputs)]) == 2
        assert "in.csv: line 2" in capsys.readouterr().err

    @pytest.mark.parametrize("change", [
        lambda d: d.pop("features"),
        lambda d: d.pop("window"),
        lambda d: d.update(features=7),
        lambda d: d.update(features=["x"]),
        lambda d: d["features"][0].pop("hi"),
        lambda d: d["features"][1].update(lo="low"),
        lambda d: d["window"].pop("lo_V"),
        lambda d: d.update(window=[0.3, 0.6]),
        lambda d: d["window"].update(hi_V=None),
    ])
    def test_malformed_features_or_window_is_parse_error(self, tmp_path,
                                                         capsys, change):
        doc = json.loads(open(compile_tree(tmp_path, "ok")).read())
        change(doc)
        table = tmp_path / "bad.json"
        table.write_text(json.dumps(doc))
        inputs = tmp_path / "in.csv"
        inputs.write_text("0.2,0.9\n")
        out = tmp_path / "kb"
        capsys.readouterr()
        assert main(["--out", str(out), "classify", str(table),
                     str(inputs)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {table}: ") and err.count("\n") == 1
        assert not (out / "labels.csv").exists()

    def test_tree_table_without_features_is_parse_error(self, tmp_path, capsys):
        table = tmp_path / "bare.json"
        table.write_text(json.dumps({"kind": "tree_table", "table": {
            "width_bits": None, "bits_per_cell": None, "rows": []}}))
        inputs = tmp_path / "in.csv"
        inputs.write_text("0.2,0.9\n")
        assert main(["--out", str(tmp_path / "kf"), "classify", str(table),
                     str(inputs)]) == 2
        assert "bare.json" in capsys.readouterr().err

    def test_ts_variant_labels_lines(self, tmp_path):
        tree = tmp_path / "tree.json"
        tree.write_text(json.dumps(TREE_DOC))
        out = str(tmp_path / "kt")
        assert main(["--out", out, "compile", str(tree), "--variant", "ts"]) == 0
        inputs = tmp_path / "in.csv"
        inputs.write_text("0.2,0.9\n0.8,0.1\n0.8,0.9\n")
        assert main(["--out", out, "classify", os.path.join(out, "table.json"),
                     str(inputs), "--variant", "ts"]) == 0
        lines = (tmp_path / "kt" / "labels.csv").read_text().splitlines()
        assert lines == ["label", "A", "B", "C"]

    def test_failures_name_line_and_matched_rows(self, tmp_path, capsys):
        # two rows both covering the whole window: every input matches both
        from acamsim.cell import achievable_window, calibrated_defaults
        w = achievable_window(calibrated_defaults())
        word = {"kind": "intervals", "intervals": [{"lo_V": w.lo, "hi_V": w.hi}]}
        doc = {"kind": "tree_table",
               "window": {"lo_V": w.lo, "hi_V": w.hi},
               "features": [{"name": "x", "lo": 0.0, "hi": 1.0}],
               "table": {"width_bits": None, "bits_per_cell": None,
                         "rows": [{"word": word, "label": "a"},
                                  {"word": word, "label": "b"}]}}
        table = tmp_path / "table.json"
        table.write_text(json.dumps(doc))
        inputs = tmp_path / "in.csv"
        inputs.write_text("0.5\n\n2.0\n0.25\n")
        out = str(tmp_path / "kf")
        capsys.readouterr()
        assert main(["--out", out, "classify", str(table), str(inputs)]) == 0
        lines = (tmp_path / "kf" / "labels.csv").read_text().splitlines()
        assert lines == [
            "label",
            "ERROR:line 1: 2 rows matched (expected exactly 1; matched rows: 0 1)",
            "ERROR:line 3: feature vector outside encoded domain",
            "ERROR:line 4: 2 rows matched (expected exactly 1; matched rows: 0 1)",
        ]
        assert capsys.readouterr().err == "classify: 3 of 3 lines failed\n"

    def test_random_trees_match_traversal_oracle(self, tmp_path):
        import random
        from test_trees import random_tree_doc

        rng = random.Random(5)
        for k in range(3):
            nf = rng.randint(1, 3)
            doc = random_tree_doc(rng, nf, max_depth=4)
            tree = tree_from_json_dict(doc)
            tree_file = tmp_path / f"t{k}.json"
            tree_file.write_text(json.dumps(doc))
            out = str(tmp_path / f"o{k}")
            assert main(["--out", out, "compile", str(tree_file)]) == 0
            xs = [[(rng.randrange(16) + 0.5) / 16 for _ in range(nf)]
                  for _ in range(30)]
            inputs = tmp_path / f"in{k}.csv"
            inputs.write_text("\n".join(",".join(str(v) for v in x)
                                        for x in xs) + "\n")
            assert main(["--out", out, "classify",
                         os.path.join(out, "table.json"), str(inputs)]) == 0
            got = (tmp_path / f"o{k}" / "labels.csv").read_text().splitlines()[1:]
            want = [tree.classify(x) for x in xs]
            assert got == want

    @pytest.mark.parametrize("variant", ["mosfet", "ts"])
    def test_batch_labels_equal_per_line_classification(self, tmp_path,
                                                        capsys, variant):
        table = compile_tree(tmp_path, "kd", "--variant", variant)
        text = "\n".join(MIXED_LINES) + "\n"
        inputs = tmp_path / "mixed.csv"
        inputs.write_text(text)
        p = calibrated_defaults()
        ts = TsDeviceParams() if variant == "ts" else None
        tt = tree_to_cam(tree_from_json_dict(TREE_DOC), p, variant=variant,
                         ts=ts)
        want, failed = per_line_labels(tt, text, p)
        # the file reaches every kind of per-line failure
        for reason in ("0 rows matched", "outside encoded domain",
                       "non-finite value", "must be n x 2"):
            assert any(reason in line for line in want), reason
        capsys.readouterr()
        assert main(["--out", str(tmp_path / "kd"), "classify", table,
                     str(inputs), "--variant", variant]) == 0
        got = (tmp_path / "kd" / "labels.csv").read_text().splitlines()
        assert got == want
        n = sum(1 for line in MIXED_LINES if line.strip())
        assert capsys.readouterr().err == (
            f"classify: {failed} of {n} lines failed\n")

    def test_classifies_with_the_recorded_variant(self, tmp_path):
        table = compile_tree(tmp_path, "kv", "--variant", "ts")
        doc = json.loads((tmp_path / "kv" / "table.json").read_text())
        assert doc["variant"] == "ts"
        text = "\n".join(MIXED_LINES) + "\n"
        inputs = tmp_path / "mixed.csv"
        inputs.write_text(text)
        got = {}
        for name, flags in (("unset", []), ("ts", ["--variant", "ts"])):
            out = tmp_path / name
            assert main(["--out", str(out), "classify", table, str(inputs),
                         *flags]) == 0
            got[name] = (out / "labels.csv").read_bytes()
        assert got["unset"] == got["ts"]
        p = calibrated_defaults()
        tt = tree_to_cam(tree_from_json_dict(TREE_DOC), p, variant="ts",
                         ts=TsDeviceParams())
        lines = got["unset"].decode().splitlines()
        assert lines == per_line_labels(tt, text, p)[0]
        xs = [[0.2, 0.9], [0.8, 0.1], [0.8, 0.9]]
        (tmp_path / "in.csv").write_text("0.2,0.9\n0.8,0.1\n0.8,0.9\n")
        assert main(["--out", str(tmp_path / "few"), "classify", table,
                     str(tmp_path / "in.csv")]) == 0
        few = (tmp_path / "few" / "labels.csv").read_text().splitlines()
        assert few[1:] == classify_many(tt, xs, p) == ["A", "B", "C"]

    def test_contradicting_variant_is_domain_error(self, tmp_path, capsys):
        table = compile_tree(tmp_path, "kx", "--variant", "ts")
        inputs = tmp_path / "in.csv"
        inputs.write_text("0.2,0.9\n0.8,0.1\n")
        out = tmp_path / "kx" / "classified"
        capsys.readouterr()
        assert main(["--out", str(out), "classify", table, str(inputs),
                     "--variant", "mosfet"]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ("error: table was compiled for --variant ts, "
                                "not --variant mosfet\n")
        assert not (out / "labels.csv").exists()

    @pytest.mark.parametrize("variant", ["mosfet", "ts"])
    def test_unrecorded_variant_follows_the_flag(self, tmp_path, capsys,
                                                 variant):
        # a table written before compile recorded the variant
        table = compile_tree(tmp_path, "ko", "--variant", variant)
        doc = json.loads((tmp_path / "ko" / "table.json").read_text())
        del doc["variant"]
        old = tmp_path / "old.json"
        old.write_text(json.dumps(doc))
        inputs = tmp_path / "in.csv"
        inputs.write_text("0.2,0.9\n0.8,0.1\n0.8,0.9\n")
        flags = ["--variant", variant] if variant == "ts" else []
        assert main(["--out", str(tmp_path / "o"), "classify", str(old),
                     str(inputs), *flags]) == 0
        lines = (tmp_path / "o" / "labels.csv").read_text().splitlines()
        assert lines == ["label", "A", "B", "C"]
        if variant == "ts":
            # without the flag it is read as a mosfet table, which cannot
            # store the ts window
            capsys.readouterr()
            assert main(["--out", str(tmp_path / "m"), "classify", str(old),
                         str(inputs)]) == 3
            assert "outside" in capsys.readouterr().err
            assert not (tmp_path / "m" / "labels.csv").exists()

    def test_lowers_and_searches_once_per_file(self, tmp_path, monkeypatch):
        table = compile_tree(tmp_path, "kl")
        inputs = tmp_path / "in.csv"
        inputs.write_text("".join(f"{(k % 16 + 0.5) / 16},{(k // 16 + 0.5) / 16}\n"
                                  for k in range(200)))
        calls = {"lower_to_conductances": 0, "search_words": 0}

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        for module in (acamsim.cli, acamsim.trees):
            for name in calls:
                monkeypatch.setattr(module, name,
                                    counted(name, getattr(module, name)))
        assert main(["--out", str(tmp_path / "kl"), "classify", table,
                     str(inputs)]) == 0
        assert calls == {"lower_to_conductances": 1, "search_words": 1}

    def test_program_noise_programs_every_cell_once(self, tmp_path,
                                                    monkeypatch):
        table = compile_tree(tmp_path, "kn")
        inputs = tmp_path / "in.csv"
        inputs.write_text("0.2,0.9\n0.8,0.1\n0.8,0.9\n" * 10)
        calls = []
        program = acamsim.cli.program_memristor

        def counted(*args, **kwargs):
            calls.append(args)
            return program(*args, **kwargs)

        monkeypatch.setattr(acamsim.cli, "program_memristor", counted)
        argv = ["--seed", "4", "--out", str(tmp_path / "kn"), "classify",
                table, str(inputs)]
        assert main(argv) == 0
        assert calls == []
        rows, cols = 3, 2
        for invocation in (1, 2):
            assert main(argv + ["--program-noise"]) == 0
            assert len(calls) == invocation * 2 * rows * cols
        # row by row, g1 before g2 in each cell
        assert [seed for _, seed, *_ in calls] == 2 * [
            (4, r, c, k) for r in range(rows) for c in range(cols)
            for k in (0, 1)]
        labels = (tmp_path / "kn" / "labels.csv").read_text().splitlines()
        assert labels == ["label"] + ["A", "B", "C"] * 10

    def test_empty_inputs_give_empty_output(self, tmp_path):
        tree = tmp_path / "tree.json"
        tree.write_text(json.dumps(TREE_DOC))
        out = str(tmp_path / "k3")
        main(["--out", out, "compile", str(tree)])
        inputs = tmp_path / "in.csv"
        inputs.write_text("")
        assert main(["--out", out, "classify", os.path.join(out, "table.json"),
                     str(inputs)]) == 0
        assert (tmp_path / "k3" / "labels.csv").read_text() == "label\n"


class TestParser:
    def test_built_once_per_process(self):
        assert acamsim.cli.build_parser() is acamsim.cli.build_parser()

    def test_command_is_looked_up_at_call_time(self, monkeypatch):
        acamsim.cli.build_parser()  # built before the command is replaced
        calls = []

        def fake(args, config):
            calls.append((args.table, args.inputs))
            return 7

        monkeypatch.setattr(acamsim.cli, "cmd_search", fake)
        assert main(["search", "t.json", "v.txt"]) == 7
        assert calls == [("t.json", "v.txt")]

    def test_consecutive_calls_do_not_leak_flags(self, tmp_path, rules_file,
                                                 monkeypatch):
        import subprocess
        import sys

        out = tmp_path / "lk"
        main(["--out", str(out), "compile", rules_file, "--bits", "4"])
        values = tmp_path / "values.txt"
        values.write_text("385\n384\n30000\n58631\n")
        argv = ["search", str(out / "table.json"), str(values)]
        assert main(["--seed", "3", "--out", str(out / "ts"), *argv,
                     "--variant", "ts", "--program-noise"]) == 0
        seen = []
        search = acamsim.cli.cmd_search

        def spy(args, config):
            seen.append((args.seed, args.variant, args.program_noise))
            return search(args, config)

        monkeypatch.setattr(acamsim.cli, "cmd_search", spy)
        assert main(["--out", str(out / "plain"), *argv]) == 0
        assert seen == [(0, None, False)]
        env = dict(os.environ, PYTHONPATH=os.path.dirname(
            os.path.dirname(acamsim.cli.__file__)))
        subprocess.run([sys.executable, "-c", "import sys; from acamsim.cli "
                        "import main; sys.exit(main())", "--out",
                        str(out / "fresh"), *argv], env=env, check=True,
                       capture_output=True)
        assert ((out / "plain" / "search.csv").read_bytes()
                == (out / "fresh" / "search.csv").read_bytes())


class TestSeed:
    @pytest.fixture
    def command(self, request, tmp_path, rules_file):
        """Arguments of each --program-noise command, after global flags."""
        inputs = tmp_path / "in.txt"
        if request.param == "sweep":
            return ["sweep", "--cell", "40,80", "--program-noise"]
        if request.param == "search":
            out = str(tmp_path / "rules")
            assert main(["--out", out, "compile", rules_file, "--bits", "4"]) == 0
            inputs.write_text("385\n1000\n")
            return ["search", os.path.join(out, "table.json"), str(inputs),
                    "--program-noise"]
        inputs.write_text("0.2,0.9\n0.8,0.1\n")
        return ["classify", compile_tree(tmp_path, "tree"), str(inputs),
                "--program-noise"]

    @pytest.mark.parametrize("command", ["sweep", "search", "classify"],
                             indirect=True)
    def test_negative_seed_is_domain_error(self, tmp_path, capsys, command):
        capsys.readouterr()
        assert main(["--seed", "-1", "--out", str(tmp_path / "o")]
                    + command) == 3
        err = capsys.readouterr().err
        assert err.startswith("error: seed (-1, 0, 0, 0) is not a valid")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("command", ["sweep", "search", "classify"],
                             indirect=True)
    def test_seed_beyond_32_bits_programs(self, tmp_path, command):
        assert main(["--seed", str(2 ** 32 + 1), "--out", str(tmp_path / "o")]
                    + command) == 0


class TestCost:
    def test_reference_array_total(self, tmp_path, capsys):
        out = str(tmp_path / "c1")
        assert main(["--out", out, "cost", "--rows", "86", "--cols", "12"]) == 0
        doc = json.loads((tmp_path / "c1" / "cost.json").read_text())
        assert doc["energy_total_fJ"] == pytest.approx(539.9)

    def test_no_dac(self, tmp_path):
        out = str(tmp_path / "c2")
        assert main(["--out", out, "cost", "--rows", "86", "--cols", "12",
                     "--no-dac"]) == 0
        doc = json.loads((tmp_path / "c2" / "cost.json").read_text())
        assert doc["energy_total_fJ"] == pytest.approx(487.8)
        assert doc["energy_breakdown_fJ"]["dac"] == 0.0

    def test_range_report_against_published_baseline(self, tmp_path, capsys):
        out = str(tmp_path / "c3")
        assert main(["--out", out, "cost", "--rule", "385,58630,16",
                     "--tcam-baseline-cells", "336"]) == 0
        text = capsys.readouterr().out
        assert "14.0x" in text and "18.8x" in text
        doc = json.loads((tmp_path / "c3" / "cost.json").read_text())
        o4 = [o for o in doc["options"] if o["bits_per_cell"] == 4][0]
        assert o4["transistor_reduction"] >= 37.0
        assert list(doc) == ["rule", "tcam_baseline", "options",
                             "published_baselines"]
        assert list(doc["published_baselines"]) == [
            "sram_tcam_fJ_per_bit", "memristor_tcam_fJ_per_bit",
            "sram_tcam_advantage", "memristor_tcam_advantage"]

    @pytest.mark.parametrize("argv, message", [
        (["--rule", "385,58630,16", "--tcam-baseline-cells", "0"],
         "tcam_cells must be at least 1, got 0"),
        (["--rule", "385,58630,16", "--tcam-baseline-cells", "-5"],
         "tcam_cells must be at least 1, got -5"),
        (["--rows", "0", "--cols", "4"], "rows and cols must be at least 1"),
        (["--rule", "385,58630,16", "--tcam-baseline-cells", "5"],
         "tcam_cells must be a multiple of the rule width 16, got 5"),
        (["--rule", "385,58630,16", "--tcam-baseline-cells", "40"],
         "tcam_cells must be a multiple of the rule width 16, got 40"),
    ])
    def test_bad_counts_are_domain_errors(self, tmp_path, capsys, argv,
                                          message):
        assert main(["--out", str(tmp_path / "o"), "cost", *argv]) == 3
        assert capsys.readouterr().err == f"error: {message}\n"

    def test_table_cost(self, tmp_path, rules_file):
        out = str(tmp_path / "c4")
        main(["--out", out, "compile", rules_file, "--bits", "4"])
        assert main(["--out", out, "cost",
                     os.path.join(out, "table.json")]) == 0
        doc = json.loads((tmp_path / "c4" / "cost.json").read_text())
        assert doc["rows"] == 6 and doc["cols"] == 4


class TestFlagValues:
    """A comma-separated flag value of the wrong shape is a parse error."""

    @pytest.mark.parametrize("argv, message", [
        (["cost", "--rule", "1,2"], "--rule '1,2': expected LO,HI,WIDTH"),
        (["cost", "--rule", "a,b,16"], "--rule 'a,b,16': expected LO,HI,WIDTH"),
        (["cost", "--rule", "1,2,16,4"],
         "--rule '1,2,16,4': expected LO,HI,WIDTH"),
        (["cost", "--rule", "1.5,2,16"],
         "--rule '1.5,2,16': expected LO,HI,WIDTH"),
        (["sweep", "--cell", "40"], "--cell '40': expected G1_US,G2_US"),
        (["sweep", "--cell", "40,x"], "--cell '40,x': expected G1_US,G2_US"),
        (["sweep", "--cell", "40,80,"], "--cell '40,80,': expected G1_US,G2_US"),
    ])
    def test_bad_value_exits_2_naming_flag_and_form(self, tmp_path, capsys,
                                                    argv, message):
        out = tmp_path / "o"
        assert main(["--out", str(out), *argv]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()


class TestDeterminism:
    def test_repeated_invocations_are_byte_identical(self, tmp_path, rules_file):
        outputs = []
        for name in ("r1", "r2"):
            out = str(tmp_path / name)
            main(["--seed", "9", "--out", out, "compile", rules_file,
                  "--bits", "4"])
            main(["--seed", "9", "--out", out, "sweep",
                  os.path.join(out, "table.json"), "--column", "1",
                  "--step", "2", "--program-noise"])
            main(["--seed", "9", "--out", out, "cost", "--rule",
                  "385,58630,16", "--tcam-baseline-cells", "336"])
            blob = b""
            for fname in ("table.json", "table.txt", "sweep.csv", "cost.json",
                          "cost.txt"):
                blob += (tmp_path / name / fname).read_bytes()
            outputs.append(blob)
        assert outputs[0] == outputs[1]


class TestConfig:
    def test_config_file_overrides_device_params(self, tmp_path, capsys):
        config = tmp_path / "config.json"
        from acamsim.cell import calibrated_defaults
        p = replace(calibrated_defaults(), g_off=1e-9)
        config.write_text(json.dumps({"device": p.to_json_dict()}))
        out = str(tmp_path / "cfg")
        assert main(["--config", str(config), "--out", out, "sweep",
                     "--cell", "40,80", "--step", "1"]) == 0

    def test_env_var_fallback(self, tmp_path, monkeypatch):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"energy": {"dac_fJ": 0.0}}))
        monkeypatch.setenv("ACAM_CONFIG", str(config))
        out = str(tmp_path / "env")
        assert main(["--out", out, "cost", "--rows", "86", "--cols", "12"]) == 0
        doc = json.loads((tmp_path / "env" / "cost.json").read_text())
        assert doc["energy_total_fJ"] == pytest.approx(487.8)

    def test_bad_config_is_parse_error(self, tmp_path, capsys):
        config = tmp_path / "config.json"
        config.write_text("[1, 2]")
        out = str(tmp_path / "bad")
        assert main(["--config", str(config), "--out", out, "cost",
                     "--rows", "2", "--cols", "2"]) == 2

    @pytest.mark.parametrize("section", [
        {"energy": {"dac_fJ": "abc"}},
        {"energy": {"scaling_modes": "x"}},
        {"energy": {"ref_rows": "many"}},
        {"area": []},
        {"area": {"area_tcam_cell_um2": None}},
    ])
    def test_malformed_cost_section_is_parse_error(self, tmp_path, capsys,
                                                   section):
        config = tmp_path / "config.json"
        config.write_text(json.dumps(section))
        capsys.readouterr()
        assert main(["--config", str(config), "--out", str(tmp_path / "o"),
                     "cost", "--rule", "385,58630,16"]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {config}: bad ") and err.count("\n") == 1

    @pytest.mark.parametrize("value, code", [
        ("abc", 2), ([0.3], 2), (None, 2), (1e6, 3), (-0.3, 3),
        pytest.param({"g_on_uS": float("nan")}, 3, id="g_on_nan-3"),
        pytest.param({"swing_mV_per_dec": float("inf")}, 3, id="swing_inf-3"),
    ])
    def test_device_section_shape_and_invariants(self, tmp_path, capsys,
                                                 value, code):
        # g_off above g_on or below 0, or any non-finite field (a dict sets
        # that field), is a domain error, a non-number a parse error
        doc = replace(calibrated_defaults(), g_off=1e-9).to_json_dict()
        doc.update(value if isinstance(value, dict) else {"g_off_uS": value})
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"device": doc}))
        capsys.readouterr()
        assert main(["--config", str(config), "--out", str(tmp_path / "o"),
                     "sweep", "--cell", "40,80"]) == code
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert (str(config) in err) == (code == 2)


def _broken_copy(tmp_path, table: str, change) -> str:
    doc = json.loads(open(table).read())
    change(doc)
    path = tmp_path / "broken.json"
    path.write_text(json.dumps(doc))
    return str(path)


class TestMalformedCompiledDocument:
    """A compiled document of the wrong shape is a parse error naming it."""

    def _assert_parse_error(self, capsys, argv, path):
        capsys.readouterr()
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}: bad ") and err.count("\n") == 1

    @pytest.mark.parametrize("change", [
        lambda f: f.pop("n_levels"),
        lambda f: f.pop("levels"),
        lambda f: f["levels"].pop(3),   # indices no longer run 0 .. n - 1
    ])
    def test_malformed_family(self, tmp_path, capsys, change):
        table = _broken_copy(tmp_path, compile_tree(tmp_path, "q", "--bits", "4"),
                             lambda d: change(d["family"]))
        inputs = tmp_path / "in.csv"
        inputs.write_text("0.2,0.9\n")
        self._assert_parse_error(capsys, ["--out", str(tmp_path / "o"),
                                          "classify", table, str(inputs)], table)

    @pytest.mark.parametrize("command", ["classify", "sweep", "cost"])
    def test_table_without_rows(self, tmp_path, capsys, command):
        table = _broken_copy(tmp_path, compile_tree(tmp_path, "t"),
                             lambda d: d["table"].pop("rows"))
        inputs = tmp_path / "in.csv"
        inputs.write_text("0.2,0.9\n")
        argv = ["--out", str(tmp_path / "o"), command, table]
        self._assert_parse_error(
            capsys, argv + ([str(inputs)] if command == "classify" else []),
            table)

    def test_old_ternary_row_with_bad_symbol(self, tmp_path, capsys):
        table = tmp_path / "table.json"
        table.write_text(json.dumps({"kind": "cam_table", "table": {
            "width_bits": 3, "bits_per_cell": None, "rows": [
                {"word": {"kind": "ternary", "symbols": "01F"},
                 "label": "a"}]}}))
        self._assert_parse_error(capsys, ["--out", str(tmp_path / "o"),
                                          "sweep", str(table)], table)

    def test_digit_without_hi(self, tmp_path, capsys, rules_file):
        out = str(tmp_path / "r")
        assert main(["--out", out, "compile", rules_file, "--bits", "4"]) == 0
        table = _broken_copy(
            tmp_path, os.path.join(out, "table.json"),
            lambda d: d["table"]["rows"][0]["word"]["digits"][0].pop("hi"))
        values = tmp_path / "values.txt"
        values.write_text("385\n")
        self._assert_parse_error(capsys, ["--out", out, "search", table,
                                          str(values)], table)
