"""Tests for the closed-form optomechanics layer."""

import dataclasses
import json
import math
import warnings

import numpy as np
import pytest

from hypothesis import given
from hypothesis import strategies as st

from omx import core, fitkit, geometry, pulsed, spectra
from omx.constants import HBAR, K_B, TWO_PI, angular_to_hz, hz_to_angular


class TestUnits:
    def test_hz_angular_round_trip(self):
        assert hz_to_angular(1.0) == TWO_PI
        assert angular_to_hz(TWO_PI) == 1.0

    @given(st.floats(min_value=1e-3, max_value=1e15))
    def test_round_trip_is_near_lossless(self, f):
        assert angular_to_hz(hz_to_angular(f)) == pytest.approx(f, rel=1e-15)


class TestModeValidation:
    def test_optical_requires_positive_omega(self):
        with pytest.raises(ValueError):
            core.OpticalMode(-1.0, 1.0, 0.5)

    def test_extrinsic_rate_bounded_by_total(self):
        with pytest.raises(ValueError):
            core.OpticalMode(1.0, 1.0, 2.0)
        with pytest.raises(ValueError):
            core.OpticalMode(1.0, 1.0, 0.0)

    def test_mechanical_linewidth_below_resonance(self):
        with pytest.raises(ValueError):
            core.MechanicalMode(1e6, 2e6)
        with pytest.raises(ValueError):
            core.MechanicalMode(1e6, 0.0)

    def test_device_requires_positive_g0(self):
        opt = core.OpticalMode.from_hz(190e12, 1e9, 3e8)
        mech = core.MechanicalMode.from_hz(7e9, 2e5)
        with pytest.raises(ValueError):
            core.Device(opt, mech, g0=0.0)

    def test_quality_factors(self):
        opt = core.OpticalMode.from_hz(200e12, 1e9, 3e8)
        mech = core.MechanicalMode.from_hz(8e9, 2e5)
        assert opt.q_opt == pytest.approx(2e5)
        assert mech.q_m == pytest.approx(4e4)

    def test_with_kappa_replaces_only_decay(self, device_a):
        wider = device_a.with_kappa(2 * device_a.optical.kappa)
        assert wider.optical.kappa == 2 * device_a.optical.kappa
        assert wider.optical.kappa_e == device_a.optical.kappa_e
        assert wider.optical.omega_c == device_a.optical.omega_c
        assert wider.g0 == device_a.g0


class TestDrive:
    def test_exactly_one_of_power_or_override(self, device_a):
        opt = device_a.optical
        with pytest.raises(ValueError):
            core.Drive(opt.omega_c, 0.0)
        with pytest.raises(ValueError):
            core.Drive(opt.omega_c, 0.0, on_chip_power=1e-6, n_c_override=10.0)

    def test_at_detuning_sets_laser_frequency(self, device_a):
        delta = -device_a.mechanical.omega_m
        drive = core.Drive.at_detuning(device_a.optical, delta, on_chip_power=1e-6)
        assert drive.omega_l == device_a.optical.omega_c + delta
        assert drive.detuning == delta

    def test_negative_power_rejected(self, device_a):
        with pytest.raises(ValueError):
            core.Drive.at_detuning(device_a.optical, 0.0, on_chip_power=-1e-6)


class TestThermalOccupancy:
    def test_anchor_at_3_kelvin(self):
        n = core.thermal_occupancy(hz_to_angular(7.436e9), 3.0)
        assert n == pytest.approx(7.916292876006752, rel=1e-12)

    def test_deep_freeze_is_negligible(self):
        n = core.thermal_occupancy(hz_to_angular(7.259e9), 0.010)
        assert 0 < n < 1e-15

    def test_zero_temperature(self):
        assert core.thermal_occupancy(hz_to_angular(7.436e9), 0.0) == 0.0

    def test_sub_microkelvin_clamps_to_zero(self):
        assert core.thermal_occupancy(hz_to_angular(7.436e9), 1e-9) == 0.0

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            core.thermal_occupancy(-1.0, 1.0)
        with pytest.raises(ValueError):
            core.thermal_occupancy(hz_to_angular(7.436e9), -0.1)
        with pytest.raises(ValueError):
            core.thermal_occupancy(float("nan"), 1.0)

    def test_inverse_anchor(self):
        t = core.temperature_from_occupancy(hz_to_angular(7.436e9), 0.35)
        assert t == pytest.approx(0.2643637691252469, rel=1e-12)

    def test_inverse_rejects_nonpositive_occupancy(self):
        with pytest.raises(ValueError):
            core.temperature_from_occupancy(hz_to_angular(7.436e9), 0.0)

    @given(
        st.floats(min_value=1e6, max_value=1e11),
        st.floats(min_value=1e-3, max_value=300.0),
    )
    def test_round_trip_through_temperature(self, f_hz, temp):
        omega = hz_to_angular(f_hz)
        n = core.thermal_occupancy(omega, temp)
        if n > 0:
            assert core.temperature_from_occupancy(omega, n) == pytest.approx(temp, rel=1e-9)

    @given(st.floats(min_value=1e-2, max_value=10.0))
    def test_monotone_in_temperature(self, temp):
        omega = hz_to_angular(7.436e9)
        assert core.thermal_occupancy(omega, 1.5 * temp) > core.thermal_occupancy(omega, temp)


class TestIntracavityPhotons:
    def test_red_detuned_reference_power(self, device_b):
        drive = core.Drive.at_detuning(
            device_b.optical, -device_b.mechanical.omega_m, on_chip_power=7.4e-6
        )
        n_c = core.intracavity_photons(device_b.optical, drive)
        assert n_c == pytest.approx(33.90398017079051, rel=1e-12)

    def test_detuning_sign_enters_through_laser_frequency(self, device_b):
        opt = device_b.optical
        omega_m = device_b.mechanical.omega_m
        red = core.intracavity_photons(
            opt, core.Drive.at_detuning(opt, -omega_m, on_chip_power=7.4e-6)
        )
        blue = core.intracavity_photons(
            opt, core.Drive.at_detuning(opt, +omega_m, on_chip_power=7.4e-6)
        )
        # same Lorentzian weight; only hbar*omega_l differs
        assert red != blue
        assert blue / red == pytest.approx(
            (opt.omega_c - omega_m) / (opt.omega_c + omega_m), rel=1e-12
        )

    def test_high_power_operating_point(self, device_a):
        drive = core.Drive.at_detuning(
            device_a.optical, -device_a.mechanical.omega_m, on_chip_power=9.4e-3
        )
        n_c = core.intracavity_photons(device_a.optical, drive)
        assert n_c == pytest.approx(61170.99535898172, rel=1e-12)

    def test_override_passes_through(self, device_a):
        drive = core.Drive.at_detuning(device_a.optical, 0.0, n_c=123.25)
        assert core.intracavity_photons(device_a.optical, drive) == 123.25

    def test_linear_in_power(self, device_a):
        opt = device_a.optical
        delta = -device_a.mechanical.omega_m
        one = core.intracavity_photons(
            opt, core.Drive.at_detuning(opt, delta, on_chip_power=1e-6)
        )
        three = core.intracavity_photons(
            opt, core.Drive.at_detuning(opt, delta, on_chip_power=3e-6)
        )
        assert three == pytest.approx(3 * one, rel=1e-15)

    def test_maximal_on_resonance_and_even_lorentzian_weight(self, device_a):
        opt = device_a.optical
        power = 1e-6

        def photons(delta):
            return core.intracavity_photons(
                opt, core.Drive.at_detuning(opt, delta, on_chip_power=power)
            )

        peak = photons(0.0)
        for delta in (0.1 * opt.kappa, opt.kappa, 10.0 * opt.kappa):
            assert photons(delta) < peak
            assert photons(-delta) < peak
            # the Lorentzian weight is even; only the photon energy
            # hbar*omega_l breaks the symmetry, so rescale it away
            lhs = photons(delta) * (opt.omega_c + delta)
            rhs = photons(-delta) * (opt.omega_c - delta)
            assert lhs == pytest.approx(rhs, rel=1e-12)


class TestCooperativityAndBackaction:
    def test_reference_values(self, device_a):
        assert core.cooperativity(device_a, 100.0) == pytest.approx(
            1.9703907766990292, rel=1e-12
        )
        assert core.cooperativity(device_a, 4800.0) == pytest.approx(
            94.5787572815534, rel=1e-12
        )

    def test_linear_in_photon_number(self, device_a):
        c1 = core.cooperativity(device_a, 17.0)
        c2 = core.cooperativity(device_a, 34.0)
        assert c2 == pytest.approx(2 * c1, rel=1e-15)

    def test_negative_photon_number_rejected(self, device_a):
        with pytest.raises(ValueError):
            core.cooperativity(device_a, -1.0)
        with pytest.raises(ValueError):
            core.backaction(device_a, -1.0, 0.0)

    def test_field_enhanced_coupling(self, device_a):
        res = core.backaction(device_a, 8e4, -device_a.mechanical.omega_m)
        assert res.g == pytest.approx(device_a.g0 * math.sqrt(8e4), rel=1e-15)

    def test_red_detuning_cools(self, device_a):
        res = core.backaction(device_a, 1000.0, -device_a.mechanical.omega_m)
        assert res.gamma_opt > 0
        assert res.gamma_eff > device_a.mechanical.gamma_0
        # counter-rotating sideband pulls the frequency down at Delta = -omega_m
        assert res.spring_shift < 0

    def test_blue_detuning_amplifies(self, device_a):
        res = core.backaction(device_a, 1000.0, +device_a.mechanical.omega_m)
        assert res.gamma_opt < 0
        assert res.gamma_eff < device_a.mechanical.gamma_0

    def test_red_blue_damping_antisymmetry(self, device_a):
        red = core.backaction(device_a, 500.0, -device_a.mechanical.omega_m)
        blue = core.backaction(device_a, 500.0, +device_a.mechanical.omega_m)
        assert blue.gamma_opt == pytest.approx(-red.gamma_opt, rel=1e-12)

    def test_sideband_resolved_limit(self, device_a):
        """Exact two-sideband damping approaches 4 g^2 / kappa as kappa/omega_m -> 0."""
        exact = core.backaction(device_a, 1000.0, -device_a.mechanical.omega_m).gamma_opt
        limit = core.resolved_sideband_damping(device_a, 1000.0)
        ratio = device_a.optical.kappa / (4 * device_a.mechanical.omega_m)
        assert abs(exact - limit) / limit < 2 * ratio**2
        assert exact < limit  # counter-rotating sideband always subtracts

    def test_zero_photons_is_bare_mechanics(self, device_a):
        res = core.backaction(device_a, 0.0, -device_a.mechanical.omega_m)
        assert res.gamma_opt == 0.0
        assert res.gamma_eff == device_a.mechanical.gamma_0


class TestHeatingModel:
    def test_reference_occupancy(self, device_a):
        n_m = core.heating_model_occupancy(device_a, core.DEFAULT_HEATING, 4800.0)
        assert n_m == pytest.approx(0.41031794170810193, rel=1e-12)

    def test_bath_occupancy_factorization(self, device_a):
        """n_m * (1 + C) recovers the bare bath occupancy."""
        n_c = 4800.0
        n_m = core.heating_model_occupancy(device_a, core.DEFAULT_HEATING, n_c)
        bath = n_m * (1.0 + core.cooperativity(device_a, n_c))
        assert bath == pytest.approx(39.21767895878525, rel=1e-12)

    def test_zero_photons_returns_base_occupancy(self, device_a):
        assert core.heating_model_occupancy(device_a, core.DEFAULT_HEATING, 0.0) == 7.95

    def test_heating_free_model_is_pure_cooling(self, device_a):
        n_c = 250.0
        n_m = core.heating_model_occupancy(device_a, core.ZERO_HEATING, n_c)
        assert n_m == pytest.approx(7.95 / (1.0 + core.cooperativity(device_a, n_c)), rel=1e-15)

    @given(st.floats(min_value=1e-2, max_value=1e6))
    def test_heating_free_model_monotone_decreasing(self, n_c):
        device = core.DEVICE_PRESETS["A"]
        lo = core.heating_model_occupancy(device, core.ZERO_HEATING, n_c)
        hi = core.heating_model_occupancy(device, core.ZERO_HEATING, 2 * n_c)
        assert hi < lo

    def test_heating_params_reject_negative(self):
        with pytest.raises(ValueError):
            core.HeatingParams(n_th0=-1.0)
        with pytest.raises(ValueError):
            core.HeatingParams(n_th0=7.95, alpha_sat=-0.1)


class TestCoolingCurve:
    def test_grid_validation(self, device_a):
        with pytest.raises(ValueError):
            core.cooling_curve(device_a, core.ZERO_HEATING, [])
        with pytest.raises(ValueError):
            core.cooling_curve(device_a, core.ZERO_HEATING, [0.0, 1.0])
        with pytest.raises(ValueError):
            core.cooling_curve(device_a, core.ZERO_HEATING, [2.0, 1.0])

    def test_columns_are_consistent(self, device_a):
        grid = np.geomspace(0.1, 1e4, 41)
        table = core.cooling_curve(device_a, core.DEFAULT_HEATING, grid)
        assert table.n_c.shape == table.n_m.shape == table.gamma_eff.shape
        i = 17
        assert table.cooperativity[i] == pytest.approx(
            core.cooperativity(device_a, grid[i]), rel=1e-15
        )
        assert table.n_m[i] == pytest.approx(
            core.heating_model_occupancy(device_a, core.DEFAULT_HEATING, grid[i]), rel=1e-15
        )

    def test_linewidth_broadens_monotonically(self, device_a):
        table = core.cooling_curve(device_a, core.ZERO_HEATING, np.geomspace(1, 1e4, 31))
        assert np.all(np.diff(table.gamma_eff) > 0)

    def test_pure_cooling_occupancy_decreases(self, device_a):
        table = core.cooling_curve(device_a, core.ZERO_HEATING, np.geomspace(1, 1e4, 31))
        assert np.all(np.diff(table.n_m) < 0)

    def test_overflowing_coupling_is_named(self, device_a):
        with pytest.raises(ValueError, match=r"n_c = 1e\+300 overflows the coupling g0\^2 n_c"):
            core.cooling_curve(device_a, core.ZERO_HEATING, [1.0, 1e300])

    def test_overflowing_term_raises_without_a_warning(self, device_a):
        # g0^2 n_c is finite here, but g^2 kappa is not
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=r"n_c = 1e\+290 overflows the cooling curve"):
                core.cooling_curve(device_a, core.ZERO_HEATING, [1.0, 1e290])

    def test_overflowing_squared_coupling_is_named(self, device_a):
        # g0^2 n_c is finite here, but libm's pow of (g0 sqrt(n_c))^2 is not
        with pytest.raises(ValueError, match=r"n_c = 5\.609268658512203e\+294 overflows the "
                                             r"cooling curve \([A-Za-z]"):
            core.cooling_curve(device_a, core.ZERO_HEATING, [1.0, 5.609268658512203e+294])


def same_bits(array, scalars) -> bool:
    """``array`` holds, element by element, exactly the floats ``scalars``."""
    want = np.array(scalars, dtype=float)
    return array.shape == want.shape and array.tobytes() == want.tobytes()


# positive finite grids, small enough that no term overflows: a few drawn
# points, or a geometric grid of up to 2000 (numpy's x**2 and log1p differ from
# libm's in the last bit on roughly one point in a thousand)
GRIDS = st.one_of(
    st.lists(st.floats(min_value=1e-8, max_value=1e12), min_size=1, max_size=40),
    st.builds(lambda lo, decades, n: np.geomspace(lo, lo * 10.0**decades, n).tolist(),
              st.floats(min_value=1e-8, max_value=1e4), st.floats(min_value=0.0, max_value=8.0),
              st.integers(min_value=1, max_value=2000)),
)


class TestArrayNative:
    """An array argument gives the bits of the per-element scalar call."""

    @given(GRIDS)
    def test_cooperativity(self, values):
        device = core.DEVICE_PRESETS["A"]
        assert same_bits(core.cooperativity(device, np.array(values)),
                         [core.cooperativity(device, n) for n in values])

    @given(GRIDS, st.sampled_from([-1.0, -0.5, 0.0, 1.0]))
    def test_backaction(self, values, detuning_in_omega_m):
        device = core.DEVICE_PRESETS["B"]
        detuning = detuning_in_omega_m * device.mechanical.omega_m
        arrays = core.backaction(device, np.array(values), detuning)
        scalars = [core.backaction(device, n, detuning) for n in values]
        for field in dataclasses.fields(core.BackactionResult):
            assert same_bits(getattr(arrays, field.name),
                             [getattr(s, field.name) for s in scalars]), field.name

    @given(GRIDS)
    def test_heating_model_occupancy(self, values):
        device = core.DEVICE_PRESETS["A"]
        assert same_bits(
            core.heating_model_occupancy(device, core.DEFAULT_HEATING, np.array(values)),
            [core.heating_model_occupancy(device, core.DEFAULT_HEATING, n) for n in values])

    @given(GRIDS)
    def test_temperature_from_occupancy(self, values):
        omega_m = core.DEVICE_PRESETS["A"].mechanical.omega_m
        assert same_bits(core.temperature_from_occupancy(omega_m, np.array(values)),
                         [core.temperature_from_occupancy(omega_m, n) for n in values])

    def test_cooling_curve_matches_scalar_calls(self, device_a):
        grid = np.geomspace(0.01, 1e4, 2001)
        curve = core.cooling_curve(device_a, core.DEFAULT_HEATING, grid)
        omega_m = device_a.mechanical.omega_m
        points = [core.backaction(device_a, n, -omega_m) for n in grid.tolist()]
        assert same_bits(curve.cooperativity, [p.cooperativity for p in points])
        assert same_bits(curve.gamma_eff, [p.gamma_eff for p in points])
        assert same_bits(curve.n_m, [core.heating_model_occupancy(
            device_a, core.DEFAULT_HEATING, n) for n in grid.tolist()])
        # the effective temperature keeps libm's log1p
        t_eff = core.temperature_from_occupancy(omega_m, curve.n_m)
        assert same_bits(t_eff, [HBAR * omega_m / (K_B * math.log1p(1.0 / n))
                                 for n in curve.n_m.tolist()])

    def test_scalars_stay_python_floats(self, device_a):
        assert type(core.cooperativity(device_a, 10.0)) is float
        assert type(core.backaction(device_a, 10.0, 0.0).gamma_eff) is float
        assert type(core.temperature_from_occupancy(1e10, 0.5)) is float

    def test_array_inputs_are_validated(self, device_a):
        with pytest.raises(ValueError, match="n_c must be >= 0"):
            core.heating_model_occupancy(device_a, core.ZERO_HEATING, [1.0, -1.0])
        with pytest.raises(ValueError, match="occupancy must be finite, got nan"):
            core.temperature_from_occupancy(1e10, [0.5, math.nan])
        with pytest.raises(ValueError, match="occupancy must be positive"):
            core.temperature_from_occupancy(1e10, np.array([0.5, 0.0]))

    @pytest.mark.parametrize("occupancy", [1e301, np.array([0.5, 1e301, 2.0])],
                             ids=["scalar", "array"])
    def test_a_temperature_beyond_the_float_range_names_the_occupancy(self, occupancy):
        """log1p(1/n) * kB underflows to 0 for n = 1e301: the scalar call divided by
        zero and the array gave inf with a warning; both raise the same error."""
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=r"^occupancy 1e\+301 has a temperature "
                                                 r"beyond the float range$"):
                core.temperature_from_occupancy(1e10, occupancy)
            # T grows with the frequency too: n = 1e290 is in range at 1e10 rad/s, not at 1e300
            assert math.isfinite(core.temperature_from_occupancy(1e10, 1e290))
            with pytest.raises(ValueError, match="occupancy 1e\\+290 has a temperature"):
                core.temperature_from_occupancy(1e300, 1e290)


class TestPresetsAndSerialization:
    def test_preset_parameters_in_hz(self, device_a, device_b):
        assert angular_to_hz(device_a.optical.kappa) == pytest.approx(0.8e9, rel=1e-12)
        assert angular_to_hz(device_a.mechanical.omega_m) == pytest.approx(7.436e9, rel=1e-12)
        assert angular_to_hz(device_a.g0) == pytest.approx(901e3, rel=1e-12)
        assert angular_to_hz(device_a.g0_alt) == pytest.approx(860e3, rel=1e-12)
        assert angular_to_hz(device_b.optical.kappa) == pytest.approx(1.1e9, rel=1e-12)
        assert angular_to_hz(device_b.mechanical.omega_m) == pytest.approx(7.259e9, rel=1e-12)
        assert angular_to_hz(device_b.g0) == pytest.approx(889e3, rel=1e-12)
        assert device_b.g0_alt is None

    def test_both_presets_sideband_resolved(self, device_a, device_b):
        assert device_a.sideband_resolved
        assert device_b.sideband_resolved

    def test_json_round_trip(self, device_a, device_b):
        for dev in (device_a, device_b):
            back = core.device_from_json(device_to_json_copy := core.device_to_json(dev))
            assert isinstance(device_to_json_copy, dict)
            assert back.optical.omega_c == pytest.approx(dev.optical.omega_c, rel=1e-15)
            assert back.optical.kappa == pytest.approx(dev.optical.kappa, rel=1e-15)
            assert back.mechanical.omega_m == pytest.approx(dev.mechanical.omega_m, rel=1e-15)
            assert back.g0 == pytest.approx(dev.g0, rel=1e-15)
            assert back.label == dev.label

    def test_save_and_load_by_path(self, tmp_path, device_b):
        path = tmp_path / "chip.json"
        core.save_device(device_b, path)
        loaded = core.load_device(str(path))
        assert loaded.mechanical.omega_m == pytest.approx(
            device_b.mechanical.omega_m, rel=1e-15
        )

    def test_load_by_label_and_search_dir_shadowing(self, tmp_path, device_a):
        assert core.load_device("A") is core.DEVICE_PRESETS["A"]
        # a file named after a preset label takes precedence
        data = core.device_to_json(device_a)
        data["g0_hz"] = 5e5
        (tmp_path / "A.json").write_text(json.dumps(data))
        shadowed = core.load_device("A", search_dir=tmp_path)
        assert angular_to_hz(shadowed.g0) == pytest.approx(5e5, rel=1e-12)

    def test_unknown_label_raises(self):
        with pytest.raises(KeyError):
            core.load_device("definitely-not-a-device")


_DEV = core.DEVICE_PRESETS["A"]
_TRAIN = dict(tau=80e-9, rep_rate=188e3, peak_power=7.4e-6, detuning_sign="blue", n_pulses=10)


@pytest.mark.parametrize("name,call", [
    ("n_th0", lambda: core.HeatingParams(n_th0=math.nan)),
    ("on_chip_power", lambda: core.Drive.at_detuning(_DEV.optical, 0.0, on_chip_power=math.nan)),
    ("n_c", lambda: core.Drive.at_detuning(_DEV.optical, 0.0, n_c=math.nan)),
    ("peak_power", lambda: pulsed.PulseTrain(**{**_TRAIN, "peak_power": math.nan})),
    ("dark_rate", lambda: pulsed.DetectionChain(dark_rate=math.nan)),
    ("delta", lambda: pulsed.HeatingKernel(delta=math.nan, tau_th=1e-6)),
    ("tau_th", lambda: pulsed.HeatingKernel(delta=0.03, tau_th=math.inf)),
    ("n_c", lambda: pulsed.scattering_probability(_DEV, math.nan, 80e-9)),
    ("n_c", lambda: spectra.normal_modes(_DEV, math.nan, -_DEV.mechanical.omega_m)),
    ("area", lambda: spectra.LorentzianComponent(1.0, 1.0, math.nan)),
    ("freq", lambda: spectra.SpectrumTrace(np.array([-np.inf, np.inf]), np.zeros(2))),
    ("delta_x", lambda: geometry.taper_value(2, 1.0, 2.0, math.nan, 2.0)),
    ("delta_x", lambda: dataclasses.replace(geometry.DESIGN_PRESETS["A"], delta_x=math.nan)),
    ("window", lambda: pulsed.histogram(pulsed.ClickStream([0], [1e-9], [1]), 4e-9, 10,
                                        math.inf)),
    ("kappa", lambda: fitkit.fit_g0_from_linewidths([1.0, 2.0], [3.0, 4.0], math.nan, 1.0,
                                                    "red")),
])
def test_non_finite_argument_is_rejected_by_name(name, call):
    with pytest.raises(ValueError, match=f"^{name}.* must be finite"):
        call()
