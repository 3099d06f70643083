import json
import os

import pytest

import acamsim.cli
import acamsim.trees
from acamsim.cell import calibrated_defaults
from acamsim.cli import main
from acamsim.devices import TsDeviceParams
from acamsim.errors import AmbiguousMatchError, DomainError
from acamsim.tables import range_to_ternary, RangeRule
from acamsim.trees import classify_many, tree_from_json_dict, tree_to_cam

ANCHORS = [
    {"g_m1_uS": 40, "g_m2_uS": 80, "lo_V": 0.37, "hi_V": 0.42},
    {"g_m1_uS": 20, "g_m2_uS": 80, "lo_V": 0.33, "hi_V": 0.43},
]

RULE_LINE = '{"lo": 385, "hi": 58630, "width_bits": 16, "label": "accept"}\n'

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
        expect = len(range_to_ternary(RangeRule(385, 58630, 16)))
        assert len(doc["table"]["rows"]) == expect

    def test_empty_rules_compile_to_empty_table(self, tmp_path):
        empty = tmp_path / "empty.jsonl"
        empty.write_text("\n")
        out = str(tmp_path / "e")
        assert main(["--out", out, "compile", str(empty), "--bits", "4"]) == 0
        doc = json.loads((tmp_path / "e" / "table.json").read_text())
        assert doc["table"]["rows"] == []

    def test_missing_bits_flag_is_domain_error(self, tmp_path, rules_file):
        assert main(["--out", str(tmp_path), "compile", rules_file]) == 3


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
        from acamsim.cell import (VoltageInterval, calibrated_defaults,
                                  conductance_from_bounds)
        from acamsim.devices import TsDeviceParams
        p = calibrated_defaults()
        cell = conductance_from_bounds(VoltageInterval(0.33, 0.43), p, "ts",
                                       TsDeviceParams())
        out = str(tmp_path / "ts")
        assert main(["--out", out, "sweep", "--cell",
                     f"{cell.g_m1 * 1e6:.4f},{cell.g_m2 * 1e6:.4f}",
                     "--variant", "ts", "--step", "1"]) == 0
        csv = (tmp_path / "ts" / "sweep.csv").read_text().splitlines()
        band = [float(line.split(",")[0]) for line in csv[1:]
                if line.endswith(",1")]
        assert min(band) == pytest.approx(0.33, abs=0.005)
        assert max(band) == pytest.approx(0.43, abs=0.005)

    def test_table_sweep(self, tmp_path, rules_file):
        out = str(tmp_path / "s3")
        main(["--out", out, "compile", rules_file, "--bits", "4"])
        table = os.path.join(out, "table.json")
        assert main(["--out", out, "sweep", table, "--column", "3",
                     "--step", "2"]) == 0
        assert (tmp_path / "s3" / "sweep.csv").exists()


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


    def test_batch_output_equals_scalar_search(self, tmp_path, rules_file):
        import numpy as np
        from acamsim.array import make_array, search
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
        for v in values:
            hit = search(a, np.array(encode_integer(v, table, family)), p)
            want.append(f"{v},{';'.join(table.rows[i][1] for i in hit.matched_rows())}")
        assert (tmp_path / "qb" / "search.csv").read_text() == "\n".join(want) + "\n"

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
        from acamsim.trees import tree_to_json_dict
        from test_trees import make_random_tree

        rng = random.Random(5)
        for k in range(3):
            nf = rng.randint(1, 3)
            tree = make_random_tree(rng, nf, max_depth=4)
            tree_file = tmp_path / f"t{k}.json"
            tree_file.write_text(json.dumps(tree_to_json_dict(tree)))
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
        calls = {"lower_to_conductances": 0, "search_many": 0}

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
        assert calls == {"lower_to_conductances": 1, "search_many": 1}

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
        assert {seed[0] for _, seed, *_ in calls} == {4}
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

    def test_table_cost(self, tmp_path, rules_file):
        out = str(tmp_path / "c4")
        main(["--out", out, "compile", rules_file, "--bits", "4"])
        assert main(["--out", out, "cost",
                     os.path.join(out, "table.json")]) == 0
        doc = json.loads((tmp_path / "c4" / "cost.json").read_text())
        assert doc["rows"] == 6 and doc["cols"] == 4


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
        p = calibrated_defaults().with_(g_off=1e-9)
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
