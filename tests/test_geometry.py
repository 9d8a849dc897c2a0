"""Tests for unit-cell parameters and adiabatic taper schedules."""

import dataclasses

import numpy as np
import pytest

from hypothesis import given
from hypothesis import strategies as st

from omx import geometry


class TestUnitCellParams:
    def test_valid_cell(self):
        cell = geometry.UnitCellParams(a=448.0, w=92.0, r=167.0, u_y=356.0,
                                       fillet=25.0, d=70.0, h=194.5)
        assert cell.a == 448.0

    def test_defect_must_fit_in_cell(self):
        with pytest.raises(ValueError):
            geometry.UnitCellParams(a=448.0, w=92.0, r=167.0, u_y=356.0,
                                    fillet=25.0, d=448.0, h=194.5)
        with pytest.raises(ValueError):
            geometry.UnitCellParams(a=448.0, w=92.0, r=167.0, u_y=356.0,
                                    fillet=25.0, d=70.0, h=500.0)

    def test_positive_lengths_required(self):
        with pytest.raises(ValueError):
            geometry.UnitCellParams(a=448.0, w=0.0, r=167.0, u_y=356.0,
                                    fillet=25.0, d=70.0, h=194.5)


class TestTaperValue:
    def test_index_zero_is_exactly_v0(self):
        assert geometry.taper_value(0, 76.0, 123.0, 3.68, 2.55) == 76.0
        assert geometry.taper_value(0.0, 194.5, 217.6, 4.2, 2.55) == 194.5

    def test_midpoint_at_delta_x(self):
        # at n = delta_x the exponent is exactly -1: v = vN - (vN-v0)/2
        assert geometry.taper_value(3.68, 76.0, 123.0, 3.68, 2.55) == 99.5
        mid_h = geometry.taper_value(4.2, 194.5, 217.6, 4.2, 2.55)
        assert mid_h == pytest.approx((194.5 + 217.6) / 2.0, rel=1e-15)

    def test_approaches_far_endpoint_from_inside(self):
        v17 = geometry.taper_value(17, 76.0, 123.0, 3.68, 2.55)
        assert abs(v17 - 123.0) < 1e-12
        assert v17 < 123.0

    def test_vectorized_matches_scalar(self):
        # numpy's vectorized power may differ from the scalar path by 1 ulp
        idx = np.arange(18)
        table = geometry.taper_value(idx, 70.0, 122.0, 4.2, 2.55)
        scalar = [geometry.taper_value(int(n), 70.0, 122.0, 4.2, 2.55) for n in idx]
        np.testing.assert_allclose(table, scalar, rtol=1e-14)

    def test_fractional_indices_allowed(self):
        a = geometry.taper_value(2.0, 70.0, 122.0, 4.2, 2.55)
        b = geometry.taper_value(2.5, 70.0, 122.0, 4.2, 2.55)
        c = geometry.taper_value(3.0, 70.0, 122.0, 4.2, 2.55)
        assert a < b < c

    def test_monotone_over_full_schedule(self):
        for design in geometry.DESIGN_PRESETS.values():
            idx = np.arange(18)
            d = geometry.taper_value(idx, design.d0, design.d17, design.delta_x, design.m_exp)
            h = geometry.taper_value(idx, design.h0, design.h17, design.delta_x, design.m_exp)
            assert np.all(np.diff(d) > 0)
            assert np.all(np.diff(h) > 0)

    def test_reversed_endpoints_taper_downward(self):
        idx = np.arange(18)
        v = geometry.taper_value(idx, 122.0, 70.0, 4.2, 2.55)
        assert v[0] == 122.0
        assert np.all(np.diff(v) < 0)

    def test_power_of_two_scaling_is_exact(self):
        idx = np.arange(18)
        base = geometry.taper_value(idx, 76.0, 123.0, 3.68, 2.55)
        for s in (0.5, 2.0, 4.0):
            scaled = geometry.taper_value(idx, s * 76.0, s * 123.0, 3.68, 2.55)
            np.testing.assert_array_equal(scaled, s * base)

    @given(st.floats(min_value=0.1, max_value=10.0))
    def test_general_scaling(self, s):
        idx = np.arange(1, 18)
        base = geometry.taper_value(idx, 76.0, 123.0, 3.68, 2.55)
        scaled = geometry.taper_value(idx, s * 76.0, s * 123.0, 3.68, 2.55)
        np.testing.assert_allclose(scaled, s * base, rtol=5e-15)

    def test_validation(self):
        with pytest.raises(ValueError):
            geometry.taper_value(1, 70.0, 122.0, 0.0, 2.55)
        with pytest.raises(ValueError):
            geometry.taper_value(1, 70.0, 122.0, 4.2, -1.0)
        with pytest.raises(ValueError):
            geometry.taper_value(-1, 70.0, 122.0, 4.2, 2.55)


class TestDesignPresets:
    def test_tabulated_values(self):
        a = geometry.DESIGN_PRESETS["A"]
        assert (a.a, a.w, a.r, a.u_y, a.fillet) == (448.0, 92.0, 167.0, 356.0, 25.0)
        assert (a.d0, a.h0, a.d17, a.h17) == (70.0, 194.5, 122.0, 217.6)
        assert (a.delta_x, a.m_exp) == (4.2, 2.55)
        b = geometry.DESIGN_PRESETS["B"]
        assert (b.a, b.w, b.r, b.u_y, b.fillet) == (448.0, 93.0, 172.0, 359.0, 25.0)
        assert (b.d0, b.h0, b.d17, b.h17) == (76.0, 196.9, 123.0, 231.0)
        assert (b.delta_x, b.m_exp) == (3.68, 2.55)


class TestSchedule:
    def test_generate_from_label(self):
        schedule = geometry.generate_schedule("B")
        assert schedule.n_cells == 17
        assert schedule.total_cells == 35
        assert schedule.values["d"][0] == 76.0
        assert schedule.values["h"][0] == 196.9
        assert schedule.delta_x == 3.68

    def test_generate_from_params(self):
        design = geometry.DESIGN_PRESETS["A"]
        schedule = geometry.generate_schedule(design, n_cells=17)
        np.testing.assert_array_equal(
            schedule.values["d"],
            geometry.taper_value(np.arange(18), 70.0, 122.0, 4.2, 2.55),
        )

    def test_unknown_label(self):
        with pytest.raises(KeyError):
            geometry.generate_schedule("Z")

    def test_unknown_label_is_named_as_every_spec_is(self):
        with pytest.raises(KeyError) as exc:
            geometry.generate_schedule("Z")
        assert exc.value.args == ("Z: unknown design preset or file",)

    def test_generate_from_a_design_file(self, tmp_path):
        design = dataclasses.replace(geometry.DESIGN_PRESETS["A"], label="wide", d17=130.0)
        path = tmp_path / "wide.json"
        geometry.save_design(design, path)
        schedule = geometry.generate_schedule(str(path))
        expected = geometry.generate_schedule(design)
        for name in ("d", "h"):
            np.testing.assert_array_equal(schedule.values[name], expected.values[name])
        assert schedule.values["d"][-1] == pytest.approx(130.0, rel=1e-9)

    def test_cells_are_valid_unit_cells(self):
        schedule = geometry.generate_schedule("B")
        first = schedule.cell(0)
        last = schedule.cell(17)
        assert isinstance(first, geometry.UnitCellParams)
        assert first.d == 76.0 and first.h == 196.9
        assert last.d == pytest.approx(123.0, abs=1e-12)
        assert first.a == last.a == 448.0

    def test_cell_index_range(self):
        schedule = geometry.generate_schedule("A")
        with pytest.raises(ValueError):
            schedule.cell(-1)
        with pytest.raises(ValueError):
            schedule.cell(18)

    def test_schedule_envelope_validation(self):
        good = geometry.generate_schedule("A")
        with pytest.raises(ValueError):
            geometry.TaperSchedule(
                n_cells=17, delta_x=4.2, m_exp=2.55,
                endpoints=good.endpoints,
                values={"d": good.values["d"][:-1], "h": good.values["h"]},
                constants=good.constants,
            )
        bad_start = dict(good.values)
        bad_start["d"] = np.concatenate([[71.0], good.values["d"][1:]])
        with pytest.raises(ValueError):
            geometry.TaperSchedule(
                n_cells=17, delta_x=4.2, m_exp=2.55,
                endpoints=good.endpoints, values=bad_start,
                constants=good.constants,
            )
        escaped = dict(good.values)
        escaped["d"] = np.concatenate([good.values["d"][:-1], [130.0]])
        with pytest.raises(ValueError):
            geometry.TaperSchedule(
                n_cells=17, delta_x=4.2, m_exp=2.55,
                endpoints=good.endpoints, values=escaped,
                constants=good.constants,
            )


class TestScheduleCsv:
    def test_round_trip_is_lossless(self, tmp_path):
        schedule = geometry.generate_schedule("B")
        path = tmp_path / "schedule.csv"
        geometry.write_schedule_csv(path, schedule)
        idx, d, h = geometry.read_schedule_csv(path)
        np.testing.assert_array_equal(idx, np.arange(18))
        np.testing.assert_array_equal(d, schedule.values["d"])
        np.testing.assert_array_equal(h, schedule.values["h"])

    def test_header_check(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("n,d,h\n0,70,194.5\n")
        with pytest.raises(ValueError):
            geometry.read_schedule_csv(path)

    def test_header_only_file(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("cell_index,d_nm,h_nm\n")
        idx, d, h = geometry.read_schedule_csv(path)
        assert idx.size == d.size == h.size == 0


class TestDesignSerialization:
    def test_json_round_trip(self):
        for design in geometry.DESIGN_PRESETS.values():
            data = geometry.design_to_json(design)
            assert data["a_nm"] == design.a
            back = geometry.design_from_json(data)
            assert back == design

    def test_save_and_load(self, tmp_path):
        path = tmp_path / "design.json"
        geometry.save_design(geometry.DESIGN_PRESETS["A"], path)
        loaded = geometry.load_design(path)
        assert loaded == geometry.DESIGN_PRESETS["A"]

    def test_save_with_swapped_arguments_is_a_type_error(self, tmp_path):
        path = tmp_path / "design.json"
        with pytest.raises(TypeError, match=r"save_design\(design, path\) takes a "
                                            r"DesignParams first, got \w*Path"):
            geometry.save_design(path, geometry.DESIGN_PRESETS["A"])
        assert not path.exists()
