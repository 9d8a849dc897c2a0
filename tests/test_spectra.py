"""Tests for coherent-response spectra: reflection, hybridization, PSD helpers."""

import numpy as np
import pytest

from hypothesis import given
from hypothesis import strategies as st

from omx import core, spectra
from omx.constants import TWO_PI, angular_to_hz, hz_to_angular


def high_q_device() -> core.Device:
    """Device with a very narrow mechanical line (clean transparency window)."""
    base = core.DEVICE_PRESETS["A"]
    omega_m = base.mechanical.omega_m
    return core.Device(
        optical=core.OpticalMode(base.optical.omega_c, 0.1 * omega_m, 0.036 * omega_m),
        mechanical=core.MechanicalMode(omega_m, TWO_PI * 10e3),
        g0=base.g0,
        label="high-q",
    )


def photons_for_cooperativity(device: core.Device, c: float) -> float:
    return c * device.optical.kappa * device.mechanical.gamma_0 / (4.0 * device.g0**2)


def window_grid(device: core.Device, c: float, halfwidths: float = 10.0, n: int = 20001):
    gamma_eff = device.mechanical.gamma_0 * (1.0 + c)
    omega_m = device.mechanical.omega_m
    return np.linspace(
        omega_m - halfwidths * gamma_eff, omega_m + halfwidths * gamma_eff, n
    )


def half_max_width(x: np.ndarray, y: np.ndarray) -> float:
    """FWHM of a single peak by linear interpolation at the half level."""
    floor = 0.5 * (y[0] + y[-1])
    half = 0.5 * (floor + y.max())
    above = y >= half
    i1 = int(np.argmax(above))
    i2 = len(y) - 1 - int(np.argmax(above[::-1]))

    def crossing(i, j):
        return x[i] + (half - y[i]) * (x[j] - x[i]) / (y[j] - y[i])

    return crossing(i2, i2 + 1) - crossing(i1, i1 - 1)


def reflection_formula(device: core.Device, n_c: float, detuning: float, omega):
    """omit_reflection's docstring formula written out in plain numpy expressions."""
    g2 = device.g0**2 * n_c
    kappa, kappa_e = device.optical.kappa, device.optical.kappa_e
    gamma0, omega_m = device.mechanical.gamma_0, device.mechanical.omega_m
    if detuning <= 0:
        chi_o = 1.0 / (kappa / 2.0 - 1j * (detuning + omega))
        chi_m = 1.0 / (gamma0 / 2.0 - 1j * (omega - omega_m))
        return 1.0 - kappa_e * chi_o / (1.0 + g2 * chi_o * chi_m)
    chi_o = 1.0 / (kappa / 2.0 + 1j * (omega - detuning))
    chi_m = 1.0 / (gamma0 / 2.0 + 1j * (omega - omega_m))
    return 1.0 - kappa_e * chi_o / (1.0 - g2 * chi_o * chi_m)


class TestReflectionMap:
    """One broadcast over detunings gives the bits of the formula per detuning."""

    @pytest.mark.parametrize("detunings_in_omega_m", [
        [-1.5, -1.0, -0.5], [0.5, 1.0, 1.5], [-1.0, 0.0, 0.25, -0.25, 1.0],
    ])
    def test_rows_equal_the_formula(self, device_a, detunings_in_omega_m):
        omega_m = device_a.mechanical.omega_m
        detunings = omega_m * np.array(detunings_in_omega_m)
        omega = np.linspace(0.8 * omega_m, 1.2 * omega_m, 2001)
        r = spectra.omit_reflection_map(device_a, 3000.0, detunings, omega)
        assert r.shape == (detunings.size, omega.size)
        for k, detuning in enumerate(detunings.tolist()):
            want = reflection_formula(device_a, 3000.0, detuning, omega)
            assert r[k].tobytes() == want.tobytes()
            trace = spectra.omit_reflection(device_a, 3000.0, detuning, omega)
            assert trace.values.tobytes() == want.tobytes()

    def test_checks_n_c(self, device_a):
        omega = np.array([1.0, 2.0])
        for n_c, text in ((np.nan, "finite"), (-1.0, ">= 0"), (1e300, "overflows")):
            with pytest.raises(ValueError, match=text):
                spectra.omit_reflection_map(device_a, n_c, [0.0], omega)


class TestSpectrumTrace:
    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            spectra.SpectrumTrace(np.arange(4.0), np.arange(5.0))

    def test_non_increasing_grid_rejected(self):
        with pytest.raises(ValueError):
            spectra.SpectrumTrace(np.array([1.0, 1.0, 2.0]), np.zeros(3))

    def test_nan_step_rejected(self):
        with pytest.raises(ValueError, match="strictly increasing"):
            spectra.SpectrumTrace(np.array([1.0, np.nan, 2.0]), np.zeros(3))

    def test_step_beyond_the_float_range_is_increasing(self):
        trace = spectra.SpectrumTrace(np.array([-1.5e308, 1.5e308]), np.zeros(2))
        assert trace.freq[1] > trace.freq[0]

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            spectra.SpectrumTrace(np.arange(3.0), np.zeros(3), kind="nope")

    def test_complex_detection_and_magnitude(self):
        tr = spectra.SpectrumTrace(np.arange(3.0), np.array([1j, 1.0 + 0j, -1j]))
        assert tr.is_complex
        assert np.allclose(tr.magnitude(), 1.0)
        real = spectra.SpectrumTrace(np.arange(3.0), np.array([1.0, -2.0, 3.0]))
        assert not real.is_complex
        assert np.allclose(real.magnitude(), [1.0, 2.0, 3.0])


class TestReflection:
    def test_zero_coupling_is_bare_cavity(self, device_a):
        omega_m = device_a.mechanical.omega_m
        kappa = device_a.optical.kappa
        grid = np.linspace(omega_m - 2 * kappa, omega_m + 2 * kappa, 4001)
        tr = spectra.omit_reflection(device_a, 0.0, -omega_m, grid)
        chi_o = 1.0 / (kappa / 2.0 - 1j * (-omega_m + grid))
        bare = 1.0 - device_a.optical.kappa_e * chi_o
        assert np.max(np.abs(tr.values - bare)) < 1e-12

    def test_trace_kind_and_validation(self, device_a):
        grid = np.linspace(1e9, 2e9, 11)
        tr = spectra.omit_reflection(device_a, 10.0, -device_a.mechanical.omega_m, grid)
        assert tr.kind == "omit_reflection"
        assert tr.is_complex
        with pytest.raises(ValueError):
            spectra.omit_reflection(device_a, -1.0, 0.0, grid)

    def test_transparency_window_opens_at_mechanical_frequency(self):
        dev = high_q_device()
        omega_m = dev.mechanical.omega_m
        c = 10.0
        grid = window_grid(dev, c)
        coupled = spectra.omit_reflection(dev, photons_for_cooperativity(dev, c), -omega_m, grid)
        bare = spectra.omit_reflection(dev, 0.0, -omega_m, grid)
        mid = len(grid) // 2
        assert coupled.magnitude()[mid] > bare.magnitude()[mid] + 0.5

    def test_window_width_tracks_cooperativity(self):
        dev = high_q_device()
        c = 10.0
        grid = window_grid(dev, c)
        tr = spectra.omit_reflection(dev, photons_for_cooperativity(dev, c), -dev.mechanical.omega_m, grid)
        width = half_max_width(grid, tr.magnitude() ** 2)
        assert width == pytest.approx(dev.mechanical.gamma_0 * (1.0 + c), rel=0.01)

    @given(
        st.floats(min_value=0.0, max_value=6.0),
        st.floats(min_value=0.5, max_value=1.5),
    )
    def test_red_detuned_reflection_is_passive(self, log10_nc, detuning_frac):
        device = core.DEVICE_PRESETS["B"]
        omega_m = device.mechanical.omega_m
        grid = np.linspace(0.2 * omega_m, 1.8 * omega_m, 2001)
        tr = spectra.omit_reflection(device, 10.0**log10_nc, -detuning_frac * omega_m, grid)
        assert np.max(tr.magnitude()) <= 1.0 + 1e-12

    def test_blue_detuning_shows_gain_above_unit_cooperativity(self):
        dev = high_q_device()
        grid = window_grid(dev, 2.0)
        gain = spectra.omit_reflection(dev, photons_for_cooperativity(dev, 2.0),
                                       +dev.mechanical.omega_m, grid)
        assert np.max(gain.magnitude()) > 1.0
        weak = spectra.omit_reflection(dev, photons_for_cooperativity(dev, 0.1),
                                       +dev.mechanical.omega_m, grid)
        assert np.max(weak.magnitude()) < 1.0


class TestNormalModes:
    def test_reference_splitting(self, device_a):
        dev = device_a.with_kappa(hz_to_angular(870e6))
        g_target = hz_to_angular(254.8e6)
        n_c = (g_target / dev.g0) ** 2
        modes = spectra.normal_modes(dev, n_c, -dev.mechanical.omega_m)
        assert angular_to_hz(modes.splitting) == pytest.approx(265625223.559, rel=1e-9)
        assert modes.above_threshold

    def test_eigenvalue_sum_matches_matrix_trace(self, device_a):
        for n_c, frac in ((10.0, 1.0), (1e4, 0.8), (8e4, 1.2)):
            detuning = -frac * device_a.mechanical.omega_m
            modes = spectra.normal_modes(device_a, n_c, detuning)
            trace = (
                1j * detuning
                - device_a.optical.kappa / 2.0
                - 1j * device_a.mechanical.omega_m
                - device_a.mechanical.gamma_0 / 2.0
            )
            total = modes.eigenvalues[0] + modes.eigenvalues[1]
            assert abs(total - trace) <= 1e-9 * abs(trace)

    def test_below_threshold_modes_are_degenerate(self, device_a):
        dev = device_a.with_kappa(hz_to_angular(870e6))
        modes = spectra.normal_modes(dev, 1.0, -dev.mechanical.omega_m)
        assert modes.splitting == 0.0
        assert not modes.above_threshold

    def test_deep_strong_coupling_splitting_approaches_2g(self, device_a):
        dev = device_a.with_kappa(0.05 * device_a.mechanical.omega_m)
        n_c = (10.0 * dev.optical.kappa / dev.g0) ** 2  # 4g/kappa = 40
        g = dev.g0 * np.sqrt(n_c)
        modes = spectra.normal_modes(dev, n_c, -dev.mechanical.omega_m)
        assert modes.splitting == pytest.approx(2 * g, rel=1e-3)

    def test_negative_photon_number_rejected(self, device_a):
        with pytest.raises(ValueError):
            spectra.normal_modes(device_a, -0.5, 0.0)


class TestExtractSplitting:
    def test_requires_enough_samples(self, device_a):
        grid = np.linspace(1e9, 2e9, 4)
        tr = spectra.omit_reflection(device_a, 0.0, -device_a.mechanical.omega_m, grid)
        with pytest.raises(ValueError):
            spectra.extract_splitting(tr)

    def test_single_dip_returns_none(self, device_a):
        omega_m = device_a.mechanical.omega_m
        grid = np.linspace(omega_m - device_a.optical.kappa, omega_m + device_a.optical.kappa, 2001)
        tr = spectra.omit_reflection(device_a, 0.0, -omega_m, grid)
        assert spectra.extract_splitting(tr) is None

    def test_hybridized_dips_separated_by_2g(self, device_a):
        dev = device_a.with_kappa(0.05 * device_a.mechanical.omega_m,
                                  0.018 * device_a.mechanical.omega_m)
        n_c = (1.5 * dev.optical.kappa / dev.g0) ** 2  # 4g/kappa = 6
        g = dev.g0 * np.sqrt(n_c)
        grid = np.linspace(dev.mechanical.omega_m - 3 * g, dev.mechanical.omega_m + 3 * g, 4001)
        tr = spectra.omit_reflection(dev, n_c, -dev.mechanical.omega_m, grid)
        split = spectra.extract_splitting(tr)
        assert split is not None
        assert split == pytest.approx(2 * g, rel=0.02)


class TestRefineMinimum:
    """A minimum on the grid's edge, or with no upward curvature, keeps its
    grid point."""

    FREQ = np.array([1.0, 2.0, 4.0, 5.0])

    @pytest.mark.parametrize("i", [0, 3])
    def test_grid_edge(self, i):
        assert spectra._refine_minimum(self.FREQ, np.array([3.0, 1.0, 1.0, 3.0]), i) == self.FREQ[i]

    @pytest.mark.parametrize("mag", [[2.0, 2.0, 2.0, 2.0], [1.0, 3.0, 2.0, 0.0]],
                             ids=["flat", "downward"])
    def test_no_upward_curvature(self, mag):
        assert spectra._refine_minimum(self.FREQ, np.array(mag), 1) == 2.0


class TestPsdHelpers:
    def test_component_validation(self):
        with pytest.raises(ValueError):
            spectra.LorentzianComponent(center=1.0, fwhm=0.0, area=1.0)
        with pytest.raises(ValueError):
            spectra.LorentzianComponent(center=1.0, fwhm=1.0, area=-1.0)
        with pytest.raises(ValueError):
            spectra.psd_model(np.arange(5.0), [])

    def test_single_line_normalization(self):
        comp = spectra.LorentzianComponent(center=0.0, fwhm=2.0, area=3.5)
        grid = np.linspace(-4000.0, 4000.0, 400001)
        tr = spectra.psd_model(grid, [comp])
        integral = np.trapezoid(tr.values, grid)
        assert integral == pytest.approx(comp.area, rel=1e-3)
        peak = 2.0 * comp.area / (np.pi * comp.fwhm)
        assert tr.values.max() == pytest.approx(peak, rel=1e-9)

    def test_offset_and_superposition(self):
        comps = [
            spectra.LorentzianComponent(center=-5.0, fwhm=1.0, area=2.0),
            spectra.LorentzianComponent(center=+5.0, fwhm=1.0, area=4.0),
        ]
        grid = np.linspace(-10.0, 10.0, 2001)
        tr = spectra.psd_model(grid, comps, offset=0.25)
        separate = sum(
            spectra.psd_model(grid, [c]).values for c in comps
        )
        assert np.allclose(tr.values, separate + 0.25, rtol=1e-12)

    def test_occupancy_from_area_ratio(self):
        anchor = (2.0, 1.0, 10.0)
        assert spectra.occupancy_from_areas(2.0, 1.0, anchor) == pytest.approx(10.0)
        assert spectra.occupancy_from_areas(1.0, 1.0, anchor) == pytest.approx(5.0)
        # calibration tone divides out drifts in overall gain
        assert spectra.occupancy_from_areas(4.0, 2.0, anchor) == pytest.approx(10.0)
        with pytest.raises(ValueError):
            spectra.occupancy_from_areas(0.0, 1.0, anchor)
        with pytest.raises(ValueError):
            spectra.occupancy_from_areas(1.0, 1.0, (1.0, -1.0, 10.0))


class TestTraceCsv:
    def test_complex_round_trip(self, tmp_path, device_b):
        omega_m = device_b.mechanical.omega_m
        grid = np.linspace(omega_m - 1e9, omega_m + 1e9, 301)
        tr = spectra.omit_reflection(device_b, 42.0, -omega_m, grid)
        path = tmp_path / "trace.csv"
        spectra.write_trace_csv(path, tr)
        back = spectra.read_trace_csv(path, kind="omit_reflection")
        assert back.kind == "omit_reflection"
        assert back.is_complex
        np.testing.assert_allclose(back.freq, tr.freq, rtol=1e-15)
        np.testing.assert_allclose(back.values, tr.values, rtol=1e-15)

    def test_real_round_trip(self, tmp_path):
        grid = np.linspace(1e6, 2e6, 101)
        tr = spectra.psd_model(grid, [spectra.LorentzianComponent(1.5e6, 1e4, 2.0)])
        path = tmp_path / "psd.csv"
        spectra.write_trace_csv(path, tr)
        back = spectra.read_trace_csv(path, kind="psd")
        assert not back.is_complex
        np.testing.assert_allclose(back.values, tr.values, rtol=1e-15)

    def test_unrecognized_header_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("frequency,amplitude\n1.0,2.0\n")
        with pytest.raises(ValueError):
            spectra.read_trace_csv(path)
