import pytest
from hypothesis import given, settings, strategies as st

from acamsim.cost import (AreaParams, EnergyParams, MEMRISTOR_TCAM_FJ_PER_BIT,
                          REFERENCE_TCAM_CELLS, SRAM_TCAM_FJ_PER_BIT,
                          compare_range_implementations, energy_per_search)
from acamsim.errors import DomainError
from acamsim.tables import RangeRule

REFERENCE_RULE = RangeRule(385, 58630, 16, "accept")


class TestEnergyPerSearch:
    def test_reference_array_breakdown(self):
        r = energy_per_search(86, 12, EnergyParams())
        assert r.total == pytest.approx(539.9, abs=1e-9)
        assert r.breakdown == {"ml_precharge": 102.9, "slhi_driver": 298.5,
                               "other": 86.4, "dac": 52.1}
        assert r.per_cell == pytest.approx(0.523, abs=0.001)

    def test_dac_share_near_ten_percent(self):
        r = energy_per_search(86, 12, EnergyParams())
        assert r.breakdown["dac"] / r.total == pytest.approx(0.097, abs=0.002)

    def test_no_dac_total(self):
        r = energy_per_search(86, 12, EnergyParams().without_dac())
        assert r.total == pytest.approx(487.8, abs=1e-9)

    @settings(max_examples=50, deadline=None)
    @given(st.integers(1, 2000), st.integers(1, 256))
    def test_total_equals_sum_of_parts(self, rows, cols):
        r = energy_per_search(rows, cols, EnergyParams())
        assert r.total == pytest.approx(sum(r.breakdown.values()), rel=1e-12)
        assert r.per_cell == pytest.approx(r.total / (rows * cols), rel=1e-12)

    def test_scaling_modes(self):
        ep = EnergyParams()
        half_rows = energy_per_search(43, 12, ep)
        assert half_rows.breakdown["ml_precharge"] == pytest.approx(102.9 / 2)
        assert half_rows.breakdown["dac"] == pytest.approx(52.1)  # per column
        assert half_rows.breakdown["other"] == pytest.approx(86.4)  # fixed
        half_cols = energy_per_search(86, 6, ep)
        assert half_cols.breakdown["dac"] == pytest.approx(52.1 / 2)

    def test_assumptions_surfaced(self):
        r = energy_per_search(86, 12, EnergyParams())
        assert r.assumptions["other"] == "fixed"
        assert "scaling assumptions" in r.to_text()

    def test_invalid_size_rejected(self):
        with pytest.raises(DomainError):
            energy_per_search(0, 12, EnergyParams())


class TestRangeComparison:
    def test_published_baseline_reductions(self):
        rep = compare_range_implementations(
            REFERENCE_RULE, [3, 4, 8], AreaParams(), EnergyParams(),
            tcam_cells=REFERENCE_TCAM_CELLS)
        assert rep.tcam_cells == 336
        assert rep.tcam_transistors == 5376
        assert rep.tcam_area_um2 == pytest.approx(235.20)
        o4 = rep.option(4)
        assert o4.cells == 24
        assert o4.cell_reduction == pytest.approx(14.0)
        assert o4.transistors == 144
        assert o4.transistor_reduction == pytest.approx(37.33, abs=0.01)
        assert o4.area_um2 == pytest.approx(12.48)
        assert o4.area_reduction == pytest.approx(18.8, abs=0.1)
        # published table energy is quoted per-cell-rounded (12.48 fJ)
        assert o4.energy_fj == pytest.approx(12.48, rel=0.01)
        assert o4.per_tcam_bit_fj == pytest.approx(0.037, abs=0.001)
        o3 = rep.option(3)
        assert o3.cells == 54
        assert rep.option(8).cells == 6

    def test_compiled_baseline_is_our_own_expansion(self):
        rep = compare_range_implementations(REFERENCE_RULE, [4], AreaParams(),
                                            EnergyParams())
        assert rep.tcam_baseline == "compiled"
        assert rep.tcam_cells == rep.tcam_rows * 16

    @pytest.mark.parametrize("tcam_cells", [0, -5])
    def test_tcam_cells_below_one_rejected(self, tcam_cells):
        with pytest.raises(DomainError, match="tcam_cells must be at least 1"):
            compare_range_implementations(REFERENCE_RULE, [4], AreaParams(),
                                          EnergyParams(), tcam_cells=tcam_cells)

    def test_tcam_cells_must_be_whole_rows(self):
        for cells in (5, 40):
            with pytest.raises(DomainError,
                               match="multiple of the rule width 16, got"):
                compare_range_implementations(REFERENCE_RULE, [4], AreaParams(),
                                              EnergyParams(), tcam_cells=cells)
        rep = compare_range_implementations(REFERENCE_RULE, [4], AreaParams(),
                                            EnergyParams(), tcam_cells=336)
        assert (rep.tcam_rows, rep.tcam_cells) == (21, 336)

    def test_ratio_identities(self):
        ap = AreaParams()
        rep = compare_range_implementations(REFERENCE_RULE, [4], ap,
                                            EnergyParams(), tcam_cells=336)
        o = rep.option(4)
        assert o.area_reduction == pytest.approx(
            (rep.tcam_cells * ap.area_tcam_cell)
            / (o.cells * ap.area_acam_cell), rel=1e-12)
        assert o.transistor_reduction == pytest.approx(
            (rep.tcam_cells * 16) / (o.cells * 6), rel=1e-12)


class TestBaselineComparison:
    def test_published_constants_and_ratio(self):
        rep = compare_range_implementations(REFERENCE_RULE, [4], AreaParams(),
                                            EnergyParams(), tcam_cells=336)
        per_bit = rep.option(4).per_tcam_bit_fj
        assert rep.baselines["sram_tcam_fJ_per_bit"] == 0.165
        assert rep.baselines["memristor_tcam_fJ_per_bit"] == 0.17
        assert rep.baselines["sram_tcam_advantage"] == pytest.approx(
            SRAM_TCAM_FJ_PER_BIT / per_bit, rel=1e-12)
        assert rep.baselines["sram_tcam_advantage"] == pytest.approx(4.46, rel=0.02)

    def test_equal_per_bit_gives_unity_and_no_option_gives_na(self):
        # every fJ of the reference array in one component: the per-cell
        # figure is the SRAM TCAM per-bit energy, and so is the per-bit
        # figure of a table compared with its own cell count (the 1-bit
        # table, whose cell count is whole TCAM rows)
        ep = EnergyParams(e_ml_precharge=SRAM_TCAM_FJ_PER_BIT * 86 * 12,
                          e_slhi_driver=0.0, e_other=0.0, e_dac=0.0)
        cells = compare_range_implementations(
            REFERENCE_RULE, [1], AreaParams(), ep).option(1).cells
        rep = compare_range_implementations(REFERENCE_RULE, [1], AreaParams(),
                                            ep, tcam_cells=cells)
        assert rep.baselines["sram_tcam_advantage"] == pytest.approx(1.0)
        assert rep.baselines["memristor_tcam_advantage"] == pytest.approx(
            MEMRISTOR_TCAM_FJ_PER_BIT / SRAM_TCAM_FJ_PER_BIT)
        none = compare_range_implementations(REFERENCE_RULE, [], AreaParams(),
                                             EnergyParams())
        assert none.baselines == {
            "sram_tcam_fJ_per_bit": SRAM_TCAM_FJ_PER_BIT,
            "memristor_tcam_fJ_per_bit": MEMRISTOR_TCAM_FJ_PER_BIT,
            "sram_tcam_advantage": "n/a", "memristor_tcam_advantage": "n/a"}


class TestSerialization:
    def test_energy_params_round_trip(self):
        ep = EnergyParams(e_dac=10.0, mode_dac="fixed")
        back = EnergyParams.from_json_dict(ep.to_json_dict())
        assert back == ep

    def test_defaults_from_empty_document(self):
        assert EnergyParams.from_json_dict({}) == EnergyParams()
        assert AreaParams.from_json_dict({}) == AreaParams()

    def test_unknown_keys_are_ignored(self):
        ep = EnergyParams.from_json_dict(
            {"dac_fJ": 1.0, "bogus_fJ": 2.0,
             "scaling_modes": {"dac": "fixed", "bogus": "per_row"}})
        assert ep == EnergyParams(e_dac=1.0, mode_dac="fixed")

    def test_energy_params_json_keys(self):
        assert list(EnergyParams().to_json_dict()) == [
            "ml_precharge_fJ", "slhi_driver_fJ", "other_fJ", "dac_fJ",
            "ref_rows", "ref_cols", "scaling_modes"]
        assert EnergyParams().to_json_dict()["scaling_modes"] == {
            "ml_precharge": "per_cell", "slhi_driver": "per_cell",
            "other": "fixed", "dac": "per_column"}

    def test_area_params_round_trip(self):
        ap = AreaParams(area_acam_cell=0.6)
        assert AreaParams.from_json_dict(ap.to_json_dict()) == ap

    def test_report_json_and_text(self):
        rep = compare_range_implementations(
            REFERENCE_RULE, [4], AreaParams(), EnergyParams(), tcam_cells=336)
        doc = rep.to_json_dict()
        assert doc["tcam_baseline"]["cells"] == 336
        assert doc["options"][0]["cell_reduction"] == pytest.approx(14.0)
        text = rep.to_text()
        assert "14.0x" in text
        assert "TCAM baseline (published)" in text

    def test_invalid_params_rejected(self):
        with pytest.raises(DomainError):
            EnergyParams(e_dac=-1.0)
        with pytest.raises(DomainError):
            EnergyParams(mode_dac="per_banana")
        with pytest.raises(DomainError):
            EnergyParams(ref_rows=0)
        with pytest.raises(DomainError):
            AreaParams(area_tcam_cell=0.0)
