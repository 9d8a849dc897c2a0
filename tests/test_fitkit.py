"""Tests for the least-squares core and the concrete resonance/model fits."""

import math
import tracemalloc

import numpy as np
import pytest

from omx import core, fitkit, spectra, table
from omx.constants import TWO_PI, angular_to_hz


def finite_difference_jacobian(fn, p, rel_step=1e-6):
    """Central-difference Jacobian of a vector function (independent check)."""
    p = np.asarray(p, dtype=float)
    cols = []
    for i in range(p.size):
        h = rel_step * max(abs(p[i]), 1e-12)
        up, dn = p.copy(), p.copy()
        up[i] += h
        dn[i] -= h
        cols.append((fn(up) - fn(dn)) / (2.0 * h))
    return np.column_stack(cols)


def make_trace(x, y):
    return spectra.SpectrumTrace(np.asarray(x, float), np.asarray(y, float), kind="generic")


class TestModelFunctions:
    def test_lorentzian_values(self):
        # peak at the center, half value one half-width away
        assert fitkit.lorentzian(0.0, 0.0, 2.0, 3.0, 1.0) == pytest.approx(4.0)
        assert fitkit.lorentzian(1.0, 0.0, 2.0, 3.0, 1.0) == pytest.approx(1.0 + 1.5)

    def test_lorentzian_area(self):
        assert fitkit.lorentzian_area(3.0, 2.0) == pytest.approx(3.0 * math.pi)

    def test_fano_reduces_to_symmetric_peak_at_large_q(self):
        x = np.linspace(-5.0, 5.0, 1001)
        lor = fitkit.lorentzian(x, 0.0, 2.0, 1.0, 0.0)
        f = fitkit.fano(x, 0.0, 2.0, 1e4, 1.0 / 1e8, 0.0)
        assert np.max(np.abs(f - lor)) < 1e-3


class TestJacobians:
    def test_lorentzian_jacobian_matches_finite_differences(self):
        x = np.linspace(-3.0, 7.0, 41)
        p = np.array([1.3, 2.1, -0.8, 0.4])
        analytic = fitkit._lorentzian_jac(x, p)
        numeric = finite_difference_jacobian(lambda q: fitkit.lorentzian(x, *q), p)
        assert np.max(np.abs(analytic - numeric) / (np.abs(numeric) + 1e-9)) < 1e-6

    def test_line_jacobian_with_a_dispersive_term_matches_finite_differences(self):
        # the k form that fit_fano's Gauss-Newton runs on: kL*L + k0 + kD*D
        x = np.linspace(-4.0, 6.0, 37)
        p = np.array([0.7, 1.9, -1.4, 0.6, 2.2])

        def line(q):
            hw, dx = q[1] / 2.0, x - q[0]
            return (q[2] * hw**2 + q[4] * hw * dx) / (hw**2 + dx**2) + q[3]

        analytic = fitkit._lorentzian_jac(x, p)
        numeric = finite_difference_jacobian(line, p)
        assert analytic.shape == (x.size, 5)
        assert np.max(np.abs(analytic - numeric) / (np.abs(numeric) + 1e-9)) < 1e-6

    def test_fano_jacobian_matches_finite_differences(self):
        x = np.linspace(-4.0, 6.0, 37)
        p = np.array([0.7, 1.9, -2.3, 1.1, 0.2])
        analytic = fitkit._fano_jac(x, p)
        numeric = finite_difference_jacobian(lambda q: fitkit.fano(x, *q), p)
        assert np.max(np.abs(analytic - numeric) / (np.abs(numeric) + 1e-9)) < 1e-6


class TestGaussNewton:
    def test_linear_problem_in_one_step(self):
        x = np.linspace(0.0, 1.0, 20)
        y = 3.0 * x - 1.0

        def resid(p):
            return p[0] * x + p[1] - y

        def jac(p):
            return np.column_stack([x, np.ones_like(x)])

        res = fitkit.gauss_newton(resid, jac, [0.0, 0.0], ("slope", "intercept"))
        assert res.converged
        assert res.params["slope"] == pytest.approx(3.0, rel=1e-12)
        assert res.params["intercept"] == pytest.approx(-1.0, rel=1e-10)

    def test_zero_jacobian_column_freezes_with_warning(self):
        x = np.linspace(0.0, 1.0, 20)
        y = 2.0 * x

        def resid(p):
            return p[0] * x - y  # p[1] has no effect

        def jac(p):
            return np.column_stack([x, np.zeros_like(x)])

        with pytest.warns(UserWarning, match="freezing"):
            res = fitkit.gauss_newton(resid, jac, [0.5, 1.5], ("a", "unused"))
        assert res.converged
        assert res.params["a"] == pytest.approx(2.0, rel=1e-12)
        assert res.params["unused"] == 1.5  # untouched

    def test_freeze_warning_names_the_caller(self):
        x = np.linspace(0.0, 1.0, 20)
        with pytest.warns(UserWarning, match="freezing") as record:
            fitkit.gauss_newton(lambda p: p[0] * x - 2.0 * x,
                                lambda p: np.column_stack([x, np.zeros_like(x)]),
                                [0.5, 1.5], ("a", "unused"))
        assert [w.filename for w in record] == [__file__]

    def test_bounds_are_respected(self):
        x = np.linspace(0.0, 1.0, 20)
        y = -2.0 * x  # unconstrained optimum is a = -2

        def resid(p):
            return p[0] * x - y

        def jac(p):
            return x[:, None]

        res = fitkit.gauss_newton(resid, jac, [1.0], ("a",),
                                  bounds=(np.array([0.0]), np.array([np.inf])))
        assert res.params["a"] == 0.0

    @pytest.mark.filterwarnings("ignore:singular Jacobian")
    @pytest.mark.parametrize("frozen", [False, True])
    def test_the_jacobian_it_is_given_is_only_read(self, frozen):
        """A jacobian_fn may return its own data, as a view or whole."""
        x = np.linspace(0.0, 1.0, 20)
        J = np.column_stack([x, np.ones_like(x), np.zeros_like(x) if frozen else x**2])
        J.setflags(write=False)  # a write raises
        want = J.copy()
        res = fitkit.gauss_newton(lambda p: J @ p - (3.0 * x - 1.0), lambda p: J,
                                  [0.0, 0.0, 0.5], ("a", "b", "c"))
        assert res.converged and res.params["a"] == pytest.approx(3.0, rel=1e-9)
        assert np.array_equal(J, want)

    @pytest.mark.filterwarnings("ignore:singular Jacobian")
    @pytest.mark.parametrize("frozen", [False, True])
    def test_a_row_range_jacobian_gives_the_fit_of_its_array(self, frozen, monkeypatch):
        """A jacobian_fn may give J as a ``table.Rows`` of its row blocks: over
        more rows than one block, the same FitResult as the array, bit for bit.
        Each factorisation reads J once, frozen column or not."""
        x = np.linspace(0.0, 2.0, 3 * 4096 + 5)
        y = 0.5 + 1.5 * np.exp(-1.2 * x) + 0.1 * np.exp(-2.4 * x)  # c starts at its value

        def jacobian(p, start=0, stop=None):
            e = np.exp(-p[2] * x[start:stop])
            return np.column_stack([np.ones_like(e), e,
                                    -x[start:stop] * (p[1] * e + 2.0 * p[3] * e * e),
                                    np.zeros_like(e) if frozen else e * e])

        computed, factored = [], []  # the first row of each block computed; each _factor call

        def rows(p):
            def block(start, stop):
                computed.append(start)
                return jacobian(p, start, stop)
            return table.Rows(x.size, block)

        def residual(p):
            return p[0] + p[1] * np.exp(-p[2] * x) + p[3] * np.exp(-2.0 * p[2] * x) - y

        def factor(*args, _factor=fitkit._factor):
            factored.append(args)
            return _factor(*args)

        whole = fitkit.gauss_newton(residual, jacobian, [0.0, 1.0, 1.0, 0.1],
                                    ("a", "b", "k", "c"))
        monkeypatch.setattr(fitkit, "_factor", factor)
        blocks = fitkit.gauss_newton(residual, rows, [0.0, 1.0, 1.0, 0.1], ("a", "b", "k", "c"))
        assert factored and computed == [0, 4096, 8192, 12288] * len(factored)
        assert whole.converged and whole.params["k"] == pytest.approx(1.2, rel=1e-9)
        assert whole.stderr["c"] is None if frozen else whole.stderr["c"] is not None
        assert (blocks.params, blocks.stderr, blocks.residual_norm, blocks.iterations,
                blocks.message) == (whole.params, whole.stderr, whole.residual_norm,
                                    whole.iterations, whole.message)
        assert np.array_equal(blocks.covariance, whole.covariance)

    def test_a_nan_column_freezes_as_a_zero_one_does(self):
        """A column whose norm is nan is not > 0: it is frozen, and kept out of the R
        of the others, so their fit is that of J without it."""
        x = np.linspace(0.0, 1.0, 20)

        def jac(p, bad):
            J = np.column_stack([x, np.zeros_like(x), np.ones_like(x)])
            J[3, 1] = bad
            return J

        fits = []
        for bad in (0.0, math.nan):
            with pytest.warns(UserWarning, match=r"freezing parameter\(s\) \['unused'\]"):
                fits.append(fitkit.gauss_newton(lambda p: p[0] * x + p[2] - (2.0 * x + 1.0),
                                                lambda p: jac(p, bad), [0.5, 1.5, 0.0],
                                                ("a", "unused", "b")))
        assert fits[1].converged and fits[1].params == fits[0].params
        assert fits[1].stderr == fits[0].stderr and fits[1].stderr["unused"] is None

    def test_column_norms_of_row_blocks_are_those_of_the_whole_array(self):
        """The norms that scale J's columns, summed block by block, carry the
        bits of einsum's over the whole array: a fit keeps its bytes."""
        J = np.random.default_rng(5).standard_normal((3 * 4096 + 5, 4)) * [1.0, 1e3, 1e-3, 7.0]
        rows = table.Rows(len(J), lambda start, stop: J[start:stop])
        col = fitkit._factor(rows, np.ones(len(J)), 4)[0]
        assert np.array_equal(col, np.sqrt(np.einsum("ij,ij->j", J, J)))

    def test_iteration_cap_reports_non_convergence(self):
        x = np.linspace(0.1, 1.0, 20)
        y = np.exp(-3.0 * x)

        def resid(p):
            return np.exp(-p[0] * x) - y

        def jac(p):
            return (-x * np.exp(-p[0] * x))[:, None]

        res = fitkit.gauss_newton(resid, jac, [20.0], ("k",), max_iter=1)
        assert not res.converged
        assert res.covariance is None
        assert res.stderr == {}
        assert res.message != "converged"

    def test_covariance_is_symmetric_nonnegative(self):
        rng = np.random.default_rng(0)
        x = np.linspace(-5.0, 5.0, 101)
        y = fitkit.lorentzian(x, 0.3, 1.7, 2.0, 0.5) + 0.01 * rng.standard_normal(x.size)
        res = fitkit.fit_lorentzian(make_trace(x, y))
        assert res.converged
        cov = res.covariance
        assert np.allclose(cov, cov.T)
        assert np.all(np.diag(cov) >= 0)


class TestGaussNewtonStops:
    """A fit that cannot move stops at once, where it started."""

    @pytest.mark.parametrize("slope, message", [
        (0.0, "all parameters frozen (zero Jacobian)"),
        (-1.0, "no damped step reduced the cost"),  # every step goes uphill
    ])
    def test_stops_at_the_start(self, slope, message):
        res = fitkit.gauss_newton(lambda p: p - 2.0, lambda p: np.full((1, 1), slope),
                                  [1.0], ("a",))
        assert (res.message, res.converged, res.iterations) == (message, False, 1)
        assert (res.params, res.residual_norm, res.stderr, res.covariance) == (
            {"a": 1.0}, 1.0, {}, None)


class TestLorentzianSeed:
    """The seed's width where a half-maximum crossing is missing on one side
    or both: twice the distance to the one found, or a sixth of the span."""

    @pytest.mark.parametrize("y, seed", [
        ([0.8, 0.9, 1.0, 0.2, 0.0, 0.0, 0.0, 0.0, 0.0], (2.0, 1.25, 1.0, 0.0)),  # right only
        ([0.0, 0.0, 0.0, 0.0, 0.2, 1.0, 0.9, 0.8], (5.0, 1.125, 0.9, 0.1)),  # left only
        ([0.0, 0.0, 0.0, 0.0, 0.0, 0.1, 0.2, 1.0], (7.0, 7.0 / 6.0, 1.0, 0.0)),  # none
    ], ids=["right", "left", "none"])
    def test_missing_crossings(self, y, seed):
        x = np.arange(float(len(y)))
        assert fitkit._lorentzian_init(x, np.array(y)) == seed

    @pytest.mark.parametrize("y", [
        [0.0, 0.5, 1.0, -0.0, -1.0],
        [-0.0, -0.0, -0.0, -0.0, -1.0, 1.0, -1.0],  # np.median's mean turns -0.0 to 0.0
        [-1.0, 1.0, 0.0, 0.0, -0.0, -0.0, -0.0, -0.0, 0.5, -1.0],
        np.round(np.random.default_rng(1).standard_normal(201), 1),
        np.round(np.random.default_rng(2).standard_normal(202), 1),
    ])
    def test_offset_has_the_bits_of_the_median(self, y):
        offset = fitkit._lorentzian_init(np.arange(float(len(y))), np.array(y))[3]
        assert np.float64(offset).tobytes() == np.median(y).tobytes()

    def test_nan_offset(self):
        y = np.array([0.0, 1.0, np.nan, 0.5, 0.2])
        assert math.isnan(fitkit._lorentzian_init(np.arange(5.0), y)[3])


class TestLorentzianFit:
    def test_noiseless_peak_round_trip(self):
        x = np.linspace(-10.0, 10.0, 201)
        truth = dict(center=0.7, fwhm=2.3, amplitude=1.8, offset=0.2)
        y = fitkit.lorentzian(x, **truth)
        res = fitkit.fit_lorentzian(make_trace(x, y))
        assert res.converged
        for k, v in truth.items():
            assert res.params[k] == pytest.approx(v, rel=1e-8)
        assert res.params["area"] == pytest.approx(
            fitkit.lorentzian_area(truth["amplitude"], truth["fwhm"]), rel=1e-8
        )

    def test_noiseless_dip_round_trip(self):
        x = np.linspace(0.0, 100.0, 301)
        truth = dict(center=42.0, fwhm=5.0, amplitude=-0.9, offset=1.0)
        y = fitkit.lorentzian(x, **truth)
        res = fitkit.fit_lorentzian(make_trace(x, y))
        assert res.converged
        for k, v in truth.items():
            assert res.params[k] == pytest.approx(v, rel=1e-8)

    def test_initial_guess_override(self):
        x = np.linspace(-10.0, 10.0, 201)
        y = fitkit.lorentzian(x, 0.0, 2.0, 1.0, 0.0)
        res = fitkit.fit_lorentzian(make_trace(x, y), initial={"center": 1.5})
        assert res.converged
        assert res.params["center"] == pytest.approx(0.0, abs=1e-8)

    def test_noisy_estimate_within_error_bars(self):
        rng = np.random.default_rng(42)
        x = np.linspace(-10.0, 10.0, 401)
        truth = dict(center=1.0, fwhm=3.0, amplitude=2.0, offset=0.5)
        y = fitkit.lorentzian(x, **truth) + 0.02 * rng.standard_normal(x.size)
        res = fitkit.fit_lorentzian(make_trace(x, y))
        assert res.converged
        for k in ("center", "fwhm", "amplitude", "offset"):
            assert abs(res.params[k] - truth[k]) < 5 * res.stderr[k]
            assert res.stderr[k] > 0

    def test_input_validation(self):
        x = np.linspace(0, 1, 4)
        with pytest.raises(ValueError):
            fitkit.fit_lorentzian(make_trace(x, np.zeros(4)))
        cplx = spectra.SpectrumTrace(np.arange(5.0), np.arange(5) * (1 + 1j))
        with pytest.raises(ValueError):
            fitkit.fit_lorentzian(cplx)

    def test_center_coverage_under_noise(self):
        """Quoted uncertainty covers the true center in nearly all seeds."""
        x = np.linspace(-10.0, 10.0, 401)
        truth = dict(center=1.0, fwhm=3.0, amplitude=2.0, offset=0.5)
        clean = fitkit.lorentzian(x, **truth)
        hits = 0
        for seed in range(100):
            rng = np.random.default_rng(seed)
            y = clean + 0.02 * rng.standard_normal(x.size)
            res = fitkit.fit_lorentzian(make_trace(x, y))
            if res.converged and abs(
                res.params["center"] - truth["center"]
            ) <= 3 * res.stderr["center"]:
                hits += 1
        assert hits >= 95


class TestFanoFit:
    @pytest.mark.parametrize("q_fano", [2.5, -1.3])
    def test_noiseless_round_trip(self, q_fano):
        x = np.linspace(-20.0, 20.0, 801)
        truth = dict(center=1.2, width=3.1, q_fano=q_fano, amplitude=0.7, offset=0.1)
        y = fitkit.fano(x, **truth)
        res = fitkit.fit_fano(make_trace(x, y))
        assert res.converged
        for k, v in truth.items():
            assert res.params[k] == pytest.approx(v, rel=1e-6)

    def test_mirrored_data_flips_q_sign(self):
        x = np.linspace(-20.0, 20.0, 801)
        truth = dict(center=0.0, width=3.1, q_fano=2.5, amplitude=0.7, offset=0.1)
        y = fitkit.fano(x, **truth)
        mirrored = fitkit.fit_fano(make_trace(x, y[::-1]))
        assert mirrored.converged
        assert mirrored.params["q_fano"] == pytest.approx(-truth["q_fano"], rel=1e-6)
        assert mirrored.params["width"] == pytest.approx(truth["width"], rel=1e-6)

    def test_validation(self):
        with pytest.raises(ValueError):
            fitkit.fit_fano(make_trace(np.arange(3.0), np.zeros(3)))

    def test_one_answer_where_a_second_branch_fits_the_same_line(self):
        """(q, A, offset) and (-1/q, -A q^2, offset + A(1 + q^2)) draw the same
        line; over [-10, 10] at this width a fit in (q, A) once found the
        second, and the fit returns the one with A > 0."""
        x = np.linspace(-10.0, 10.0, 801)
        truth = dict(center=1.2, width=3.1, q_fano=-1.3, amplitude=0.7, offset=0.1)
        res = fitkit.fit_fano(make_trace(x, fitkit.fano(x, **truth)))
        assert res.converged
        for k, v in truth.items():
            assert res.params[k] == pytest.approx(v, rel=1e-6), k

    @pytest.mark.parametrize("seed", range(6))
    def test_noisy_lorentzian_converges_at_the_lorentzian_limit(self, seed):
        """A Lorentzian is the Fano line at q -> inf; the fit still converges,
        to a large |q_fano|, with every value and stderr finite."""
        x = np.linspace(-5.0, 5.0, 801)
        rng = np.random.default_rng(seed)
        y = fitkit.lorentzian(x, 0.0, 1.0, 1.0, 0.0) + 0.01 * rng.standard_normal(x.size)
        res = fitkit.fit_fano(make_trace(x, y))
        assert res.converged, res.message
        assert res.iterations < 20
        assert all(math.isfinite(v) for v in (*res.params.values(), *res.stderr.values()))
        assert res.params["center"] == pytest.approx(0.0, abs=0.01)
        assert res.params["width"] == pytest.approx(1.0, rel=0.01)

    def test_stderr_covers_the_truth(self):
        """Over 200 fixed seeds of 1% noise, each parameter lies within one
        reported stderr of its truth in about 68% of fits and within two in
        about 95%, on both branches of q, so the covariance mapped back from
        the linear form is calibrated."""
        x = np.linspace(-10.0, 10.0, 801)
        for truth in (dict(center=0.3, width=2.0, q_fano=1.5, amplitude=1.0, offset=0.1),
                      dict(center=1.2, width=3.1, q_fano=-1.3, amplitude=0.7, offset=0.1)):
            clean = fitkit.fano(x, **truth)
            z = []
            for seed in range(200):
                noise = 0.01 * np.random.default_rng(seed).standard_normal(x.size)
                res = fitkit.fit_fano(make_trace(x, clean + noise))
                assert res.converged
                z.append([abs(res.params[k] - v) / res.stderr[k] for k, v in truth.items()])
            z = np.array(z)
            within1, within2 = (z <= 1).mean(axis=0), (z <= 2).mean(axis=0)
            assert ((within1 >= 0.55) & (within1 <= 0.80)).all(), (truth, within1)
            assert (within2 >= 0.88).all(), (truth, within2)

    def test_no_dispersive_part_is_the_lorentzian_limit(self, capsys, monkeypatch, tmp_path):
        """kD = 0 exactly leaves q_fano without a finite value: an ArithmeticError
        naming the limit, which fit fano reports as a numeric failure, exit 1."""
        from omx import table
        from omx.cli import main

        gauss_newton = fitkit.gauss_newton

        def symmetric(*args, **kwargs):
            res = gauss_newton(*args, **kwargs)
            res.params["kD"] = 0.0
            return res

        monkeypatch.setattr(fitkit, "gauss_newton", symmetric)
        x = np.linspace(-5.0, 5.0, 101)
        y = fitkit.lorentzian(x, 0.0, 1.0, 1.0, 0.0)
        with pytest.raises(ArithmeticError, match="Lorentzian limit"):
            fitkit.fit_fano(make_trace(x, y))
        path = tmp_path / "line.csv"
        table.write_table({"freq_hz": x, "value": y}, path)
        assert main(["fit", "fano", "--in", str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ("error: fano fit reached the Lorentzian limit: "
                                "q_fano is unbounded\n")


class TestG0Fit:
    def test_noiseless_red_branch_is_exact(self, device_a):
        n_c = np.linspace(100.0, 5000.0, 8)
        slope = 4.0 * device_a.g0**2 / device_a.optical.kappa
        gamma = device_a.mechanical.gamma_0 + slope * n_c
        res = fitkit.fit_g0_from_linewidths(
            n_c, gamma, device_a.optical.kappa, device_a.mechanical.gamma_0, "red"
        )
        assert res.params["g0"] == pytest.approx(device_a.g0, rel=1e-12)
        assert res.params["slope"] == pytest.approx(slope, rel=1e-12)
        assert res.residual_norm == pytest.approx(0.0, abs=1e-6)

    def test_noiseless_blue_branch_is_exact(self, device_a):
        n_c = np.linspace(10.0, 200.0, 6)
        slope = 4.0 * device_a.g0_alt**2 / device_a.optical.kappa
        gamma = device_a.mechanical.gamma_0 - slope * n_c
        res = fitkit.fit_g0_from_linewidths(
            n_c, gamma, device_a.optical.kappa, device_a.mechanical.gamma_0, "blue"
        )
        assert res.params["g0"] == pytest.approx(device_a.g0_alt, rel=1e-12)
        assert res.params["slope"] < 0

    def test_noisy_fit_covers_truth(self, device_a):
        rng = np.random.default_rng(5)
        n_c = np.linspace(50.0, 2000.0, 12)
        slope = 4.0 * device_a.g0**2 / device_a.optical.kappa
        sigma = TWO_PI * 2e3 * np.ones_like(n_c)
        gamma = device_a.mechanical.gamma_0 + slope * n_c + sigma * rng.standard_normal(n_c.size)
        res = fitkit.fit_g0_from_linewidths(
            n_c, gamma, device_a.optical.kappa, device_a.mechanical.gamma_0,
            "red", sigma=sigma,
        )
        assert res.stderr["g0"] > 0
        assert abs(res.params["g0"] - device_a.g0) < 4 * res.stderr["g0"]
        # the reference coupling is ~901 kHz; stderr here is tens of Hz
        assert angular_to_hz(res.params["g0"]) == pytest.approx(901e3, rel=1e-3)

    def test_branch_sign_mismatch_rejected(self, device_a):
        n_c = np.array([10.0, 20.0])
        rising = device_a.mechanical.gamma_0 + 1e3 * n_c
        with pytest.raises(ValueError):
            fitkit.fit_g0_from_linewidths(
                n_c, rising, device_a.optical.kappa, device_a.mechanical.gamma_0, "blue"
            )
        falling = device_a.mechanical.gamma_0 - 1e3 * n_c
        with pytest.raises(ValueError):
            fitkit.fit_g0_from_linewidths(
                n_c, falling, device_a.optical.kappa, device_a.mechanical.gamma_0, "red"
            )

    def test_unit_weights_match_closed_form_slope(self, device_a):
        rng = np.random.default_rng(11)
        n_c = np.linspace(50.0, 2000.0, 10)
        slope = 4.0 * device_a.g0**2 / device_a.optical.kappa
        gamma = (
            device_a.mechanical.gamma_0 + slope * n_c
            + TWO_PI * 1e3 * rng.standard_normal(n_c.size)
        )
        res = fitkit.fit_g0_from_linewidths(
            n_c, gamma, device_a.optical.kappa, device_a.mechanical.gamma_0, "red"
        )
        # fixed-intercept least squares has the closed form sum(xy)/sum(xx)
        y = gamma - device_a.mechanical.gamma_0
        expected = float(np.dot(n_c, y) / np.dot(n_c, n_c))
        assert res.params["slope"] == pytest.approx(expected, rel=1e-12)

    def test_needs_two_points(self, device_a):
        with pytest.raises(ValueError):
            fitkit.fit_g0_from_linewidths(
                [100.0], [1e6], device_a.optical.kappa, device_a.mechanical.gamma_0, "red"
            )


class TestHeatingParamsFit:
    GRID = np.geomspace(5.0, 6e4, 30)

    def synthetic(self, device):
        return np.array([
            core.heating_model_occupancy(device, core.DEFAULT_HEATING, n) for n in self.GRID
        ])

    def test_fixed_baseline_recovery(self, device_a):
        res = fitkit.fit_heating_params(self.GRID, self.synthetic(device_a), device_a)
        assert res.converged
        assert res.params["alpha_sat"] == pytest.approx(0.324, rel=1e-9)
        assert res.params["beta_sat"] == pytest.approx(0.019, rel=1e-9)
        assert res.params["alpha_lin"] == pytest.approx(0.003, rel=1e-9)
        assert res.params["n_th0"] == 7.95

    def test_free_baseline_recovery(self, device_a):
        res = fitkit.fit_heating_params(
            self.GRID, self.synthetic(device_a), device_a, n_th0=None
        )
        assert res.converged
        assert res.params["n_th0"] == pytest.approx(7.95, rel=1e-9)
        assert res.params["alpha_sat"] == pytest.approx(0.324, rel=1e-9)
        assert res.params["beta_sat"] == pytest.approx(0.019, rel=1e-9)
        assert res.params["alpha_lin"] == pytest.approx(0.003, rel=1e-9)

    def test_memory_of_a_fit_of_a_long_curve(self, device_a):
        """J computed and factored, and the residual refilled, by row blocks, and
        no seeding array held through the fit: the fit's own allocations peak
        below 3 columns of its input, with n_th0 fixed or free (1.8 and 2.0 with
        python 3.11 and numpy 2.4: the residual and one block's work)."""
        n_c = np.geomspace(0.01, 1e4, 100_000)
        n_m = core.heating_model_occupancy(device_a, core.DEFAULT_HEATING, n_c)
        for n_th0 in (core.DEFAULT_HEATING.n_th0, None):
            tracemalloc.start()
            try:
                res = fitkit.fit_heating_params(n_c, n_m, device_a, n_th0=n_th0)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert res.params["alpha_sat"] == pytest.approx(0.324, rel=1e-9)
            assert peak < 3 * n_c.nbytes, n_th0

    def test_too_few_points_rejected(self, device_a):
        with pytest.raises(ValueError):
            fitkit.fit_heating_params([1.0, 2.0, 3.0], [1.0, 0.9, 0.8], device_a)


class TestScaledFits:
    """Fits whose parameters differ by many orders of magnitude in scale."""

    @pytest.mark.parametrize("kind", ["lorentzian", "fano"])
    def test_psd_scale_line_near_mechanical_mode(self, kind, device_a):
        # a 1e-12 line on a rad/s grid at ~7.4 GHz: the center and width
        # columns of J are ~1e-19 of the offset column, yet must still be fit
        omega, gamma = device_a.mechanical.omega_m, device_a.mechanical.gamma_0
        x = np.linspace(omega - 10 * gamma, omega + 10 * gamma, 801)
        amp = 1e-12
        if kind == "lorentzian":
            truth = dict(center=omega + 0.3 * gamma, fwhm=1.1 * gamma,
                         amplitude=amp, offset=0.05 * amp)
            clean, fit = fitkit.lorentzian(x, **truth), fitkit.fit_lorentzian
        else:
            truth = dict(center=omega + 0.3 * gamma, width=1.1 * gamma, q_fano=2.0,
                         amplitude=amp, offset=0.05 * amp)
            clean, fit = fitkit.fano(x, **truth), fitkit.fit_fano
        rng = np.random.default_rng(3)
        res = fit(make_trace(x, clean + 0.01 * amp * rng.standard_normal(x.size)))
        assert res.converged
        for k, v in truth.items():
            assert res.stderr[k] > 0
            assert abs(res.params[k] - v) <= 5 * res.stderr[k], k

    # seeds 5 and 30 once ran off along the saturable-term ridge
    @pytest.mark.filterwarnings("error:singular Jacobian")
    @pytest.mark.parametrize("seed", [0, 1, 5, 30])
    def test_free_baseline_on_noisy_data(self, seed, device_a):
        grid = np.geomspace(0.01, 1e4, 200)
        clean = core.heating_model_occupancy(device_a, core.DEFAULT_HEATING, grid)
        rng = np.random.default_rng(seed)
        noisy = clean * (1.0 + 0.01 * rng.standard_normal(grid.size))
        res = fitkit.fit_heating_params(grid, noisy, device_a, n_th0=None)
        assert res.converged, res.message
        for k in ("n_th0", "alpha_sat", "beta_sat", "alpha_lin"):
            want = getattr(core.DEFAULT_HEATING, k)
            assert abs(res.params[k] - want) <= 5 * res.stderr[k], k


class TestResultJson:
    def test_angular_names_converted_to_hz(self):
        x = np.linspace(-10.0, 10.0, 201)
        y = fitkit.lorentzian(x, 0.5, 2.0, 1.0, 0.0)
        res = fitkit.fit_lorentzian(make_trace(x, y))
        data = fitkit.result_to_json(res, angular=("center", "fwhm", "area"))
        assert data["converged"] is True
        assert data["params"]["center_hz"]["value"] == pytest.approx(0.5 / TWO_PI, rel=1e-8)
        assert data["params"]["fwhm_hz"]["value"] == pytest.approx(2.0 / TWO_PI, rel=1e-8)
        assert "amplitude" in data["params"]  # not angular, keeps its name
        assert data["params"]["amplitude"]["stderr"] is not None

    def test_derived_params_without_stderr_serialize(self, device_a):
        n_c = np.linspace(100.0, 5000.0, 8)
        slope = 4.0 * device_a.g0**2 / device_a.optical.kappa
        gamma = device_a.mechanical.gamma_0 + slope * n_c
        res = fitkit.fit_g0_from_linewidths(
            n_c, gamma, device_a.optical.kappa, device_a.mechanical.gamma_0, "red"
        )
        data = fitkit.result_to_json(res, angular=("slope", "g0"))
        assert data["params"]["g0_hz"]["value"] == pytest.approx(901e3, rel=1e-9)
