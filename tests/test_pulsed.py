"""Tests for pulsed sideband thermometry: kernels, click simulation, estimator."""

import math
import warnings

import numpy as np
import pytest

from hypothesis import given
from hypothesis import strategies as st

from omx import core, pulsed


REF_KERNEL = pulsed.HeatingKernel(delta=0.05, tau_th=2e-6)


def quiet_simulate(*args, **kwargs):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return pulsed.simulate_clicks(*args, **kwargs)


def flat_kernel(n_m: float) -> pulsed.HeatingKernel:
    """Kernel with no pulse-to-pulse heating: occupancy pinned at n_m."""
    return pulsed.HeatingKernel(delta=0.0, tau_th=0.0, n_base=n_m)


def code(label: str) -> int:
    return pulsed.LABELS.index(label)


def stream(pulse_index, t, labels) -> pulsed.ClickStream:
    """Click stream from per-click label names."""
    return pulsed.ClickStream(pulse_index, t, [code(l) for l in labels])


def photons_for_rate(device: core.Device, lam: float, tau: float) -> float:
    """Photon number making eta*p_s = lam at unit efficiency."""
    return lam * device.optical.kappa / (4.0 * device.g0**2 * tau)


class TestValidation:
    def test_pulse_train(self):
        with pytest.raises(ValueError):
            pulsed.PulseTrain(tau=1e-5, rep_rate=188e3, peak_power=1e-6,
                              detuning_sign="blue", n_pulses=10)
        with pytest.raises(ValueError):
            pulsed.PulseTrain(tau=80e-9, rep_rate=188e3, peak_power=1e-6,
                              detuning_sign="violet", n_pulses=10)
        with pytest.raises(ValueError):
            pulsed.PulseTrain(tau=80e-9, rep_rate=188e3, peak_power=1e-6,
                              detuning_sign="red", n_pulses=0)
        with pytest.raises(ValueError):
            pulsed.PulseTrain(tau=80e-9, rep_rate=188e3, peak_power=-1.0,
                              detuning_sign="red", n_pulses=10)

    def test_detection_chain(self):
        with pytest.raises(ValueError):
            pulsed.DetectionChain(eta=1.5)
        with pytest.raises(ValueError):
            pulsed.DetectionChain(dark_rate=-1.0)
        with pytest.raises(ValueError):
            pulsed.DetectionChain(window=0.0)
        chain = pulsed.DetectionChain(eta=0.05, dark_rate=10.0, window=100e-9)
        assert chain.dark_per_pulse == pytest.approx(1e-6, rel=1e-12)

    def test_heating_kernel(self):
        with pytest.raises(ValueError):
            pulsed.HeatingKernel(delta=-0.1, tau_th=1e-6)
        with pytest.raises(ValueError):
            pulsed.HeatingKernel(delta=0.1, tau_th=-1e-6)

    def test_click_stream(self):
        with pytest.raises(ValueError):
            stream([0], [-1e-9], ["blue"])
        with pytest.raises(ValueError):
            stream([0], [np.nan], ["blue"])
        with pytest.raises(ValueError):
            pulsed.ClickStream([0], [1e-9], [len(pulsed.LABELS)])
        with pytest.raises(ValueError):
            pulsed.ClickStream([0], [1e-9], [-1])
        with pytest.raises(ValueError):
            stream([-1], [1e-9], ["blue"])
        with pytest.raises(ValueError):
            pulsed.ClickStream([0, 1], [1e-9], [code("blue")])
        clicks = stream([0, 2], [1e-9, 2e-9], ["blue", "dark"])
        assert len(clicks) == 2
        assert clicks.pulse_index.dtype == np.int64
        assert clicks.t.dtype == np.float64
        assert clicks.label.dtype == np.int8
        assert clicks == stream([0, 2], [1e-9, 2e-9], ["blue", "dark"])
        assert clicks != stream([0, 2], [1e-9, 2e-9], ["blue", "red"])


class TestScatteringProbability:
    def test_reference_operating_point(self, device_b):
        drive = core.Drive.at_detuning(
            device_b.optical, -device_b.mechanical.omega_m, on_chip_power=7.4e-6
        )
        n_c = core.intracavity_photons(device_b.optical, drive)
        p_s = pulsed.scattering_probability(device_b, n_c, 80e-9)
        assert p_s == pytest.approx(0.048976908559239425, rel=1e-12)
        assert 0.040 <= p_s <= 0.060

    def test_linear_in_photons_and_time(self, device_b):
        base = pulsed.scattering_probability(device_b, 10.0, 40e-9)
        assert pulsed.scattering_probability(device_b, 20.0, 40e-9) == pytest.approx(
            2 * base, rel=1e-15
        )
        assert pulsed.scattering_probability(device_b, 10.0, 80e-9) == pytest.approx(
            2 * base, rel=1e-15
        )

    def test_zero_cases_and_validation(self, device_b):
        assert pulsed.scattering_probability(device_b, 0.0, 80e-9) == 0.0
        assert pulsed.scattering_probability(device_b, 10.0, 0.0) == 0.0
        with pytest.raises(ValueError):
            pulsed.scattering_probability(device_b, -1.0, 80e-9)

    def test_warns_when_single_scattering_marginal(self, device_b):
        with pytest.warns(UserWarning):
            pulsed.scattering_probability(device_b, 1e4, 80e-9)


class TestSteadyStateOccupancy:
    def test_no_kick_returns_baseline(self):
        assert pulsed.steady_state_prepulse_occupancy(flat_kernel(0.37), 1e6) == 0.37

    def test_instant_relaxation(self):
        kernel = pulsed.HeatingKernel(delta=0.2, tau_th=0.0, n_base=0.1)
        assert pulsed.steady_state_prepulse_occupancy(kernel, 1e6) == pytest.approx(0.3)

    def test_slow_repetition_fully_relaxes(self):
        kernel = pulsed.HeatingKernel(delta=0.2, tau_th=1e-6, n_base=0.0)
        n = pulsed.steady_state_prepulse_occupancy(kernel, 1.0)
        assert n == pytest.approx(kernel.delta, rel=1e-12)

    def test_fast_repetition_accumulates(self):
        kernel = pulsed.HeatingKernel(delta=0.01, tau_th=1e-5, n_base=0.0)
        # rep_rate * tau_th = 100: occupancy integrates to ~delta*R*tau_th
        n = pulsed.steady_state_prepulse_occupancy(kernel, 1e7)
        assert n == pytest.approx(kernel.delta * 1e7 * kernel.tau_th, rel=0.01)

    @given(st.floats(min_value=2e4, max_value=1e8))
    def test_monotone_in_rep_rate(self, rep_rate):
        # below ~1e4 Hz the relaxation factor saturates to full decay in
        # double precision, so strict growth is only visible above it
        kernel = REF_KERNEL
        lo = pulsed.steady_state_prepulse_occupancy(kernel, rep_rate)
        hi = pulsed.steady_state_prepulse_occupancy(kernel, 1.7 * rep_rate)
        assert hi > lo

    def test_invalid_rep_rate(self):
        with pytest.raises(ValueError):
            pulsed.steady_state_prepulse_occupancy(REF_KERNEL, 0.0)


class TestHeatingKernelFit:
    def test_default_kernel_is_the_anchor_fit(self):
        assert pulsed.default_kernel() == pulsed.fit_heating_kernel(
            pulsed.DEFAULT_KERNEL_ANCHORS)

    def test_two_point_reproduces_anchors(self):
        kernel = pulsed.default_kernel()
        for rate, occ in pulsed.DEFAULT_KERNEL_ANCHORS:
            back = pulsed.steady_state_prepulse_occupancy(kernel, rate)
            assert back == pytest.approx(occ, rel=1e-9)

    def test_two_point_recovers_synthetic_kernel(self):
        points = [
            (r, pulsed.steady_state_prepulse_occupancy(REF_KERNEL, r))
            for r in (2e5, 4e6)
        ]
        fitted = pulsed.fit_heating_kernel(points)
        assert fitted.delta == pytest.approx(REF_KERNEL.delta, rel=1e-9)
        assert fitted.tau_th == pytest.approx(REF_KERNEL.tau_th, rel=1e-9)

    def test_multi_point_noiseless_recovery(self):
        rates = np.geomspace(1e5, 5e6, 7)
        points = [(r, pulsed.steady_state_prepulse_occupancy(REF_KERNEL, r)) for r in rates]
        fitted = pulsed.fit_heating_kernel(points)
        assert fitted.delta == pytest.approx(REF_KERNEL.delta, rel=1e-6)
        assert fitted.tau_th == pytest.approx(REF_KERNEL.tau_th, rel=1e-6)

    def test_multi_point_noisy_recovery(self):
        """2% multiplicative noise on 9 points: both parameters land within
        15% of truth for every one of 100 seeded repetitions."""
        rates = np.geomspace(1e5, 5e6, 9)
        clean = [pulsed.steady_state_prepulse_occupancy(REF_KERNEL, r) for r in rates]
        for seed in range(100):
            rng = np.random.default_rng(seed)
            noisy = [
                (r, n * (1.0 + 0.02 * rng.standard_normal()))
                for r, n in zip(rates, clean)
            ]
            fitted = pulsed.fit_heating_kernel(noisy)
            assert abs(fitted.delta / REF_KERNEL.delta - 1.0) < 0.15
            assert abs(fitted.tau_th / REF_KERNEL.tau_th - 1.0) < 0.15

    def test_nonbaseline_offset(self):
        kernel = pulsed.HeatingKernel(delta=0.03, tau_th=3e-6, n_base=0.02)
        points = [
            (r, pulsed.steady_state_prepulse_occupancy(kernel, r)) for r in (1e5, 2e6)
        ]
        fitted = pulsed.fit_heating_kernel(points, n_base=0.02)
        assert fitted.n_base == 0.02
        assert fitted.delta == pytest.approx(kernel.delta, rel=1e-9)
        assert fitted.tau_th == pytest.approx(kernel.tau_th, rel=1e-9)

    def test_degenerate_inputs_rejected(self):
        with pytest.raises(ValueError):
            pulsed.fit_heating_kernel([(1e5, 0.1)])
        with pytest.raises(ValueError):
            pulsed.fit_heating_kernel([(1e5, 0.1), (1e5, 0.2)])
        # occupancy must grow with rep rate
        with pytest.raises(ValueError):
            pulsed.fit_heating_kernel([(1e5, 0.2), (1e6, 0.1)])
        # growth faster than the rate ratio has no solution
        with pytest.raises(ValueError):
            pulsed.fit_heating_kernel([(1e5, 0.1), (2e5, 0.5)])
        # occupancy at or below baseline
        with pytest.raises(ValueError):
            pulsed.fit_heating_kernel([(1e5, 0.1), (1e6, 0.2)], n_base=0.1)


class TestSimulateClicks:
    def setup_method(self):
        self.device = core.DEVICE_PRESETS["B"]
        self.tau = 80e-9
        self.chain = pulsed.DetectionChain(eta=1.0, dark_rate=50.0, window=self.tau)
        self.n_c = photons_for_rate(self.device, 0.05, self.tau)

    def train(self, sign: str, n_pulses: int) -> pulsed.PulseTrain:
        return pulsed.PulseTrain(tau=self.tau, rep_rate=188e3, peak_power=1.0,
                                 detuning_sign=sign, n_pulses=n_pulses)

    def test_fixed_seed_reproducible(self):
        a = quiet_simulate(self.device, self.train("blue", 30_000), self.chain,
                           flat_kernel(0.4), self.n_c, seed=7)
        b = quiet_simulate(self.device, self.train("blue", 30_000), self.chain,
                           flat_kernel(0.4), self.n_c, seed=7)
        assert a == b

    def test_worker_count_does_not_change_stream(self):
        n_pulses = 3 * pulsed.BLOCK_PULSES + 517
        kwargs = dict(kernel=flat_kernel(0.4), n_c=self.n_c, seed=3)
        serial = quiet_simulate(self.device, self.train("blue", n_pulses),
                                self.chain, workers=1, **kwargs)
        threaded = quiet_simulate(self.device, self.train("blue", n_pulses),
                                  self.chain, workers=4, **kwargs)
        assert serial == threaded

    def test_different_seeds_differ(self):
        a = quiet_simulate(self.device, self.train("blue", 30_000), self.chain,
                           flat_kernel(0.4), self.n_c, seed=0)
        b = quiet_simulate(self.device, self.train("blue", 30_000), self.chain,
                           flat_kernel(0.4), self.n_c, seed=1)
        assert a != b

    def test_ground_state_red_train_is_dark_only(self):
        noisy_chain = pulsed.DetectionChain(eta=1.0, dark_rate=5000.0, window=self.tau)
        clicks = quiet_simulate(self.device, self.train("red", 50_000), noisy_chain,
                                flat_kernel(0.0), self.n_c, seed=2)
        assert len(clicks) > 0
        assert np.all(clicks.label == code("dark"))

    def test_stream_layout_and_time_ranges(self):
        n_pulses = pulsed.BLOCK_PULSES + 123
        clicks = quiet_simulate(self.device, self.train("blue", n_pulses), self.chain,
                                flat_kernel(0.4), self.n_c, seed=5)
        indices = clicks.pulse_index
        assert np.all(np.diff(indices) >= 0)
        assert 0 <= indices.min() and indices.max() < n_pulses
        dark = clicks.label == code("dark")
        limit = np.where(dark, self.chain.window, self.tau)
        assert np.all((0.0 <= clicks.t) & (clicks.t <= limit))
        assert set(np.unique(clicks.label).tolist()) <= {code("blue"), code("dark")}
        # within a pulse, sideband clicks come before dark clicks
        same_pulse = np.diff(indices) == 0
        assert not np.any(same_pulse & dark[:-1] & ~dark[1:])

    def test_blue_rate_matches_expectation(self):
        n_m, n_pulses = 0.4, 200_000
        clicks = quiet_simulate(self.device, self.train("blue", n_pulses), self.chain,
                                flat_kernel(n_m), self.n_c, seed=11)
        mu = 0.05 * (n_m + 1.0) + self.chain.dark_per_pulse
        total = len(clicks)
        assert abs(total - n_pulses * mu) < 5 * math.sqrt(n_pulses * mu)

    def test_sideband_ratio_tracks_occupancy(self):
        n_m, n_pulses = 0.5, 400_000
        blue = quiet_simulate(self.device, self.train("blue", n_pulses), self.chain,
                              flat_kernel(n_m), self.n_c, seed=21)
        red = quiet_simulate(self.device, self.train("red", n_pulses), self.chain,
                             flat_kernel(n_m), self.n_c, seed=22)
        nb = np.count_nonzero(blue.label == code("blue"))
        nr = np.count_nonzero(red.label == code("red"))
        expected = (n_m + 1.0) / n_m
        ratio = nb / nr
        sigma = ratio * math.sqrt(1.0 / nb + 1.0 / nr)
        assert abs(ratio - expected) < 5 * sigma

    def test_warns_when_count_rate_saturates(self):
        heavy_n_c = photons_for_rate(self.device, 0.8, self.tau)
        with pytest.warns(UserWarning):
            pulsed.simulate_clicks(self.device, self.train("blue", 100), self.chain,
                                   flat_kernel(1.0), heavy_n_c, seed=0)


class TestEstimateOccupancy:
    def test_analytic_count_ratio(self):
        chain = pulsed.DetectionChain(eta=0.05, dark_rate=0.0, window=80e-9)
        result = pulsed.estimate_occupancy(242_600, 10_000, 1_000_000, chain)
        assert result.n_m == pytest.approx(0.04299226139294927, rel=1e-12)
        assert result.n_m == pytest.approx(0.0430, abs=5e-4)
        assert result.stderr > 0
        assert not result.clamped

    def test_click_streams_count_like_totals(self):
        chain = pulsed.DetectionChain(eta=0.05, dark_rate=0.0, window=80e-9)
        # dark labels are simulation metadata: they still count as detections
        blue = stream(list(range(500)) + list(range(10)), [1e-9] * 500 + [2e-9] * 10,
                      ["blue"] * 500 + ["dark"] * 10)
        red = stream(range(100), [1e-9] * 100, ["red"] * 100)
        from_streams = pulsed.estimate_occupancy(blue, red, 10_000, chain)
        from_totals = pulsed.estimate_occupancy(510, 100, 10_000, chain)
        assert from_streams.n_m == from_totals.n_m
        assert from_streams.counts_blue == 510

    def test_dark_correction_is_exact(self):
        clean_chain = pulsed.DetectionChain(eta=0.05, dark_rate=0.0, window=100e-9)
        noisy_chain = pulsed.DetectionChain(eta=0.05, dark_rate=10.0, window=100e-9)
        n_pulses = 1_000_000  # exactly one expected dark count per million pulses
        dark_counts = int(noisy_chain.dark_per_pulse * n_pulses)
        clean = pulsed.estimate_occupancy(5000, 500, n_pulses, clean_chain)
        corrected = pulsed.estimate_occupancy(5000 + dark_counts, 500 + dark_counts,
                                              n_pulses, noisy_chain)
        assert corrected.n_m == pytest.approx(clean.n_m, rel=1e-12)
        assert corrected.dark_estimate == pytest.approx(dark_counts)

    def test_zero_red_counts_gives_ground_state(self):
        chain = pulsed.DetectionChain(eta=0.05, dark_rate=0.0, window=80e-9)
        result = pulsed.estimate_occupancy(1000, 0, 10_000, chain)
        assert result.n_m == 0.0
        assert result.stderr > 0  # variance floored at one count

    def test_sub_dark_red_rate_clamps(self):
        chain = pulsed.DetectionChain(eta=0.05, dark_rate=100.0, window=1e-6)
        result = pulsed.estimate_occupancy(5000, 5, 100_000, chain)
        assert result.clamped
        assert result.n_m == 0.0

    def test_unresolvable_asymmetry_rejected(self):
        chain = pulsed.DetectionChain(eta=0.05, dark_rate=0.0, window=80e-9)
        with pytest.raises(ValueError):
            pulsed.estimate_occupancy(100, 100, 10_000, chain)
        with pytest.raises(ValueError):
            pulsed.estimate_occupancy(100, 200, 10_000, chain)

    def test_invalid_pulse_count(self):
        chain = pulsed.DetectionChain()
        with pytest.raises(ValueError):
            pulsed.estimate_occupancy(10, 5, 0, chain)

    def test_click_beyond_declared_pulses_rejected(self):
        chain = pulsed.DetectionChain(eta=0.05, dark_rate=0.0, window=80e-9)
        blue = stream(range(100), [1e-9] * 100, ["blue"] * 100)
        red = stream([3, 99], [1e-9, 1e-9], ["red", "red"])
        assert pulsed.estimate_occupancy(blue, red, 100, chain).counts_red == 2
        with pytest.raises(ValueError, match="pulse_index 99"):
            pulsed.estimate_occupancy(blue, red, 99, chain)

    def test_coverage_across_occupancy_decades(self):
        """3-sigma interval covers the truth for >= 98% of seeded runs."""
        device = core.DEVICE_PRESETS["B"]
        tau = 80e-9
        chain = pulsed.DetectionChain(eta=1.0, dark_rate=0.0, window=tau)
        n_c = photons_for_rate(device, 0.05, tau)
        n_pulses = 50_000
        misses = 0
        total = 0
        for n_m in (0.04, 0.4, 4.0):
            kernel = flat_kernel(n_m)
            for seed in range(200):
                blue_train = pulsed.PulseTrain(tau, 188e3, 1.0, "blue", n_pulses)
                red_train = pulsed.PulseTrain(tau, 188e3, 1.0, "red", n_pulses)
                blue = quiet_simulate(device, blue_train, chain, kernel, n_c, seed=seed)
                red = quiet_simulate(device, red_train, chain, kernel, n_c,
                                     seed=10_000 + seed)
                est = pulsed.estimate_occupancy(blue, red, n_pulses, chain)
                total += 1
                if abs(est.n_m - n_m) > 3 * est.stderr:
                    misses += 1
        assert total == 600
        assert misses <= 10

    def test_reported_stderr_matches_sampling_spread(self):
        """Mean bias stays well under the standard error and the reported
        stderr agrees with the empirical scatter across many seeds."""
        device = core.DEVICE_PRESETS["B"]
        tau = 80e-9
        n_m, n_pulses = 0.043, 200_000
        chain = pulsed.DetectionChain(eta=1.0, dark_rate=5.0, window=tau)
        n_c = photons_for_rate(device, 0.0487, tau)
        kernel = flat_kernel(n_m)
        estimates, stderrs = [], []
        for seed in range(300):
            blue_train = pulsed.PulseTrain(tau, 188e3, 1.0, "blue", n_pulses)
            red_train = pulsed.PulseTrain(tau, 188e3, 1.0, "red", n_pulses)
            blue = quiet_simulate(device, blue_train, chain, kernel, n_c, seed=seed)
            red = quiet_simulate(device, red_train, chain, kernel, n_c,
                                 seed=10_000 + seed)
            est = pulsed.estimate_occupancy(blue, red, n_pulses, chain)
            estimates.append(est.n_m)
            stderrs.append(est.stderr)
        bias = abs(float(np.mean(estimates)) - n_m)
        spread = float(np.std(estimates, ddof=1))
        reported = float(np.median(stderrs))
        assert bias < reported / 3.0
        assert 0.8 < spread / reported < 1.2


class TestHistogram:
    def make_stream(self, n_pulses=100_000, seed=4):
        device = core.DEVICE_PRESETS["B"]
        tau = 80e-9
        chain = pulsed.DetectionChain(eta=1.0, dark_rate=100.0, window=tau)
        n_c = photons_for_rate(device, 0.05, tau)
        train = pulsed.PulseTrain(tau, 188e3, 1.0, "blue", n_pulses)
        clicks = quiet_simulate(device, train, chain, flat_kernel(0.4), n_c, seed=seed)
        return clicks, chain, train

    def test_total_counts_identity(self):
        clicks, chain, train = self.make_stream()
        hist = pulsed.histogram(clicks, 4e-9, train.n_pulses, chain.window)
        assert hist.total_counts() == len(clicks)

    def test_bin_layout_and_rate_normalization(self):
        clicks, chain, train = self.make_stream()
        hist = pulsed.histogram(clicks, 4e-9, train.n_pulses, chain.window)
        assert hist.bin_start.size == 20
        assert hist.bin_start[0] == 0.0
        assert hist.bin_start[-1] == pytest.approx(76e-9)
        for label, counts in hist.counts.items():
            np.testing.assert_allclose(
                hist.rates[label], counts / (train.n_pulses * hist.bin_width),
                rtol=1e-15,
            )

    def test_uniform_pulse_flatness(self):
        clicks, chain, train = self.make_stream(n_pulses=400_000)
        hist = pulsed.histogram(clicks, 8e-9, train.n_pulses, chain.window)
        counts = hist.counts["blue"]
        mean = counts.mean()
        assert np.all(np.abs(counts - mean) < 5 * math.sqrt(mean))

    def test_click_on_gate_edge_lands_in_last_bin(self):
        clicks = stream([0], [80e-9], ["dark"])
        hist = pulsed.histogram(clicks, 4e-9, 1, 80e-9)
        assert hist.counts["dark"][-1] == 1
        assert hist.total_counts() == 1

    def test_clicks_outside_declared_train_rejected(self):
        with pytest.raises(ValueError, match="pulse_index 1"):
            pulsed.histogram(stream([0, 1], [1e-9, 1e-9], ["blue"] * 2), 4e-9, 1, 80e-9)
        with pytest.raises(ValueError, match="gate"):
            pulsed.histogram(stream([0], [81e-9], ["blue"]), 4e-9, 1, 80e-9)

    def test_labels_present_are_binned_apart(self):
        clicks = stream([0, 0, 1], [1e-9, 5e-9, 6e-9], ["red", "dark", "dark"])
        hist = pulsed.histogram(clicks, 4e-9, 2, 8e-9)
        assert list(hist.counts) == ["red", "dark"]
        np.testing.assert_array_equal(hist.counts["red"], [1, 0])
        np.testing.assert_array_equal(hist.counts["dark"], [0, 2])

    def test_combined_rate_sums_labels(self):
        clicks, chain, train = self.make_stream()
        hist = pulsed.histogram(clicks, 4e-9, train.n_pulses, chain.window)
        total = pulsed.combined_rate(hist)
        expected = sum(hist.rates.values())
        np.testing.assert_allclose(total, expected, rtol=1e-15)

    def test_single_bin_when_width_exceeds_window(self):
        clicks = stream([0], [10e-9], ["blue"])
        hist = pulsed.histogram(clicks, 1e-6, 1, 80e-9)
        assert hist.bin_start.size == 1

    def test_validation(self):
        with pytest.raises(ValueError):
            pulsed.histogram([], 0.0, 10, 80e-9)
        with pytest.raises(ValueError):
            pulsed.histogram([], 4e-9, 0, 80e-9)


class TestClickCsv:
    def test_round_trip_is_lossless(self, tmp_path):
        device = core.DEVICE_PRESETS["B"]
        tau = 80e-9
        chain = pulsed.DetectionChain(eta=1.0, dark_rate=20.0, window=tau)
        n_c = photons_for_rate(device, 0.05, tau)
        train = pulsed.PulseTrain(tau, 188e3, 1.0, "blue", 20_000)
        clicks = quiet_simulate(device, train, chain, flat_kernel(0.3), n_c, seed=9)
        path = tmp_path / "clicks.csv"
        pulsed.write_clicks_csv(path, clicks)
        back = pulsed.read_clicks_csv(path)
        assert len(back) == len(clicks)
        np.testing.assert_array_equal(back.pulse_index, clicks.pulse_index)
        np.testing.assert_array_equal(back.label, clicks.label)
        # the ns <-> s unit conversion costs at most one ulp
        np.testing.assert_allclose(back.t, clicks.t, rtol=1e-12)

    def test_write_is_deterministic(self, tmp_path):
        clicks = stream([0, 1], [1.25e-9, 3.5e-9], ["blue", "dark"])
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        pulsed.write_clicks_csv(p1, clicks)
        pulsed.write_clicks_csv(p2, clicks)
        assert p1.read_bytes() == p2.read_bytes()

    def test_header_check(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b,c\n1,2,blue\n")
        with pytest.raises(ValueError):
            pulsed.read_clicks_csv(path)

    def test_empty_stream_round_trips(self, tmp_path):
        path = tmp_path / "none.csv"
        pulsed.write_clicks_csv(path, stream([], [], []))
        assert path.read_text() == "pulse_index,t_ns,label\n"
        assert len(pulsed.read_clicks_csv(path)) == 0

    def test_unknown_label_names_its_line(self, tmp_path):
        path = tmp_path / "uv.csv"
        path.write_text("pulse_index,t_ns,label\n0,1.0,blue\n1,2.0,uv\n")
        with pytest.raises(ValueError, match=r"uv.csv:3: .*'uv'"):
            pulsed.read_clicks_csv(path)


class TestHistogramCsv:
    def test_round_trip(self, tmp_path):
        bin_start = np.arange(10) * 4e-9
        rate_blue = np.linspace(100.0, 50.0, 10)
        rate_red = np.linspace(10.0, 5.0, 10)
        path = tmp_path / "hist.csv"
        pulsed.write_histogram_csv(path, bin_start, rate_blue, rate_red)
        t, b, r = pulsed.read_histogram_csv(path)
        np.testing.assert_allclose(t, bin_start, rtol=1e-15)
        np.testing.assert_array_equal(b, rate_blue)
        np.testing.assert_array_equal(r, rate_red)

    def test_length_mismatch_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            pulsed.write_histogram_csv(tmp_path / "h.csv", [0.0], [1.0, 2.0], [1.0])

    def test_header_check(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("t,b,r\n0,1,2\n")
        with pytest.raises(ValueError):
            pulsed.read_histogram_csv(path)
