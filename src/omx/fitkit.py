"""Least-squares fitting primitives.

A Gauss-Newton core (Levenberg-Marquardt damping on unit-norm Jacobian
columns, bound projection, freezing of exactly-zero columns) plus the
concrete fits: Lorentzian and Fano resonance lines, vacuum coupling from
linewidth-vs-photon-number data, and the bath heating model.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from . import table
from .constants import angular_to_hz
from .core import DEFAULT_HEATING, Device, _check, _finite, cooperativity

__all__ = [
    "FitResult",
    "lorentzian",
    "lorentzian_area",
    "fano",
    "gauss_newton",
    "fit_lorentzian",
    "fit_fano",
    "fit_g0_from_linewidths",
    "fit_heating_params",
    "result_to_json",
]

MAX_ITER = 200
STEP_TOL = 1e-10
COST_TOL = 1e-12


@dataclass
class FitResult:
    """Outcome of a least-squares fit.

    ``covariance`` rows/columns follow ``names`` and are reported only when
    the fit converged; ``params`` may additionally carry derived quantities.
    """

    params: dict[str, float]
    names: tuple[str, ...]
    covariance: np.ndarray | None
    residual_norm: float
    converged: bool
    iterations: int
    stderr: dict[str, float | None] = field(default_factory=dict)
    message: str = ""


# --- model functions and analytic Jacobians ---


def lorentzian(x, center, fwhm, amplitude, offset):
    """offset + amplitude*(fwhm/2)^2 / ((x-center)^2 + (fwhm/2)^2)."""
    hw = fwhm / 2.0
    return offset + amplitude * hw**2 / ((x - center) ** 2 + hw**2)


def lorentzian_area(amplitude: float, fwhm: float) -> float:
    """Integral of the amplitude-form Lorentzian over the full line."""
    return math.pi * amplitude * fwhm / 2.0


def _lorentzian_jac(x, p):
    """d/d(center, width, kL, k0[, kD]) of kL*L + k0 + kD*D; the Lorentzian's J without kD."""
    hw = p[1] / 2.0
    dx = x - p[0]
    den = dx**2 + hw**2
    J = np.empty((x.size, len(p)))
    J[:, 0] = 2.0 * p[2] * hw**2 * dx
    # d/d(hw) = 2*kL*hw*dx^2/den^2, times d(hw)/d(width) = 1/2
    J[:, 1] = p[2] * hw * dx**2
    if len(p) == 5:  # the dispersive term kD*D
        J[:, 0] -= p[4] * hw * (hw**2 - dx**2)
        J[:, 1] += p[4] * dx * (dx**2 - hw**2) / 2.0
        J[:, 4] = hw * dx / den
    J[:, :2] /= (den**2)[:, None]
    J[:, 2] = hw**2 / den
    J[:, 3] = 1.0
    return J


def fano(x, center, width, q_fano, amplitude, offset):
    """offset + amplitude*(q*w/2 + (x-center))^2 / ((w/2)^2 + (x-center)^2)."""
    hw = width / 2.0
    dx = x - center
    return offset + amplitude * (q_fano * hw + dx) ** 2 / (hw**2 + dx**2)


def _fano_jac(x, p):
    """The line's J at its (kL, k0, kD) times d(kL, k0, kD)/d(q, A, offset) (the chain rule)."""
    center, width, q, a, offset = p
    J = _lorentzian_jac(x, (center, width, a * (q * q - 1.0), offset + a, 2.0 * a * q))
    J[:, 2:] = J[:, 2:] @ np.array([[2 * a * q, q * q - 1, 0], [0, 1, 1], [2 * a, 2 * q, 0]])
    return J


# --- Gauss-Newton core ---

# damping tried in turn on unit-norm columns; undamped (plain Gauss-Newton) first
DAMPING = (0.0, *(10.0**k for k in range(-3, 13)))


def _factor(J, r: np.ndarray, n: int):
    """Column norms of J (n columns), its nonzero columns, and R and Q^T r for Js = QR, Js
    those columns at unit norm. J is an array, or any object whose row slice J[a:b] is that
    block of J (a ``table.Rows``), so that it need not exist whole. One pass over its blocks
    of 4,096 rows sums the squares of the columns and updates the R of [J r] (row-updating
    QR, Golub & Van Loan). Each sum goes on in row order from the last block's, as einsum
    adds the rows of a C-ordered J. An exactly-zero (or nan) column is dropped from R, not J:
    [J r] = QR gives [J_active r] = Q R[:, kept], so the QR of R[:, kept] is that R."""
    R = np.zeros((n + 1,) * 2)  # zero rows change no R^T R
    sums = np.zeros(n + 1)
    for k in range(0, r.size, 4096):
        block = np.column_stack([np.asarray(J[k:k + 4096], dtype=float), r[k:k + 4096]])
        squares = block * block
        squares[0] += sums
        sums = squares.sum(axis=0)
        block[:, :-1][:, np.isnan(sums[:-1])] = 0.0  # a nan column is frozen too: out of R
        R = np.linalg.qr(np.vstack([R, block]), mode="r")
    col = np.sqrt(sums[:-1])
    active = col > 0
    if not active.all():
        R = np.linalg.qr(R[:, np.append(active, True)], mode="r")
    return col, active, R[:-1, :-1] / col[active], R[:-1, -1]


@np.errstate(over="ignore", invalid="ignore", divide="ignore")
def gauss_newton(
    residual_fn,
    jacobian_fn,
    x0,
    names: tuple[str, ...],
    bounds: tuple | None = None,
    max_iter: int = MAX_ITER,
) -> FitResult:
    """Gauss-Newton on unit-norm Jacobian columns with projection onto bounds.

    ``jacobian_fn`` returns J as an array, or as an object whose row slices are J's rows
    (``_factor``). Each iteration factors the scaled Jacobian once, Js = QR (More 1978),
    and solves ``[R; sqrt(lam) I] dz = -[Q^T r; 0]`` for lam in ``DAMPING`` (0, then 1e-3
    ... 1e12, Levenberg-Marquardt), taking the first step that does not raise the cost.
    Exactly-zero columns are frozen (warned once a step is taken); the covariance uses the
    same column scaling. Convergence: relative step < ``STEP_TOL`` or relative cost change
    < ``COST_TOL``.
    """
    x = np.asarray(x0, dtype=float).copy()
    n = x.size
    lo = np.full(n, -np.inf) if bounds is None else np.asarray(bounds[0], dtype=float)
    hi = np.full(n, np.inf) if bounds is None else np.asarray(bounds[1], dtype=float)
    x = np.clip(x, lo, hi)

    r = residual_fn(x)
    cost = float(r @ r)
    rows = r.size
    converged = False
    message = "iteration cap reached"
    iterations = 0
    warned_freeze = False

    for iterations in range(1, max_iter + 1):
        col, active, R, qtr = _factor(jacobian_fn(x), r, n)
        del r  # not held beside the next; residual_fn may refill one vector
        if not active.any():
            message = "all parameters frozen (zero Jacobian)"
            break
        rcond = np.finfo(float).eps * max(rows, R.shape[1])  # lstsq's own for Js
        for lam in DAMPING:
            A = np.vstack([R, math.sqrt(lam) * np.eye(R.shape[1])]) if lam else R
            b = np.concatenate([-qtr, np.zeros(R.shape[1])]) if lam else -qtr
            dx = np.zeros(n)
            dx[active] = np.linalg.lstsq(A, b, rcond=rcond)[0] / col[active]
            x_try = np.clip(x + dx, lo, hi)
            r = residual_fn(x_try)
            cost_try = float(r @ r)
            if np.isfinite(cost_try) and cost_try <= cost:
                break
        else:
            message = "no damped step reduced the cost"
            break
        if not active.all() and not warned_freeze:
            frozen = [names[i] for i in range(n) if not active[i]]
            # level 3 skips the np.errstate decorator's wrapper to reach the caller
            warnings.warn(f"singular Jacobian: freezing parameter(s) {frozen}", stacklevel=3)
            warned_freeze = True

        step = np.linalg.norm(x_try - x) / max(np.linalg.norm(x), 1e-300)
        dcost = abs(cost - cost_try) / max(cost, 1e-300)
        x, cost = x_try, cost_try
        if step < STEP_TOL or dcost < COST_TOL:
            converged = True
            message = "converged"
            break

    return _fit_result(names, x, cost, jacobian_fn, converged, iterations, message)


@np.errstate(over="ignore", invalid="ignore", divide="ignore")
def _fit_result(names, x, cost, jacobian_fn, converged, iterations, message) -> FitResult:
    """The FitResult at ``x``; if converged, with the covariance of ``jacobian_fn(x)``
    on the steps' unit-norm column scaling, zero on frozen columns (their stderr None)."""
    x = np.asarray(x, dtype=float)
    covariance, stderr = None, {}
    if converged:
        J = jacobian_fn(x)
        col, active, R, _ = _factor(J, np.broadcast_to(0.0, len(J)), x.size)
        s2 = cost / (len(J) - R.shape[1]) if len(J) > R.shape[1] else 0.0
        covariance = np.zeros((x.size, x.size))
        if R.shape[1]:  # Js^T Js = R^T R
            cov_a = s2 * np.linalg.pinv(R.T @ R) / np.outer(col[active], col[active])
            covariance[np.ix_(active, active)] = 0.5 * (cov_a + cov_a.T)
        stderr = {name: math.sqrt(max(covariance[i, i], 0.0)) if active[i] else None
                  for i, name in enumerate(names)}
    return FitResult(dict(zip(names, x.tolist())), names, covariance, math.sqrt(cost),
                     converged, iterations, stderr, message)


# --- auto-initialization helpers ---


# the seeds run with float errors raised: a trace whose values overflow them
# (such as +-1e308) is a FloatingPointError, not a warning and a nan seed
@np.errstate(over="raise", invalid="raise", divide="raise")
def _lorentzian_init(x: np.ndarray, y: np.ndarray):
    """Initial (center, fwhm, amplitude, offset) from the extremum, the
    half-max crossings nearest to it, and the median offset."""
    # np.median's own partition and mean, and its NaN: its NaN check imports numpy.ma
    mid, even = y.size // 2, y.size % 2 == 0
    part = np.partition(y, [mid - 1, mid, -1] if even else [mid, -1])
    offset = float(part[mid - even:mid + 1].mean())
    if np.isnan(part[-1]):
        offset = float(part[-1])
    iext = int(np.argmax(np.abs(y - offset)))
    amplitude = float(y[iext] - offset)
    half = offset + amplitude / 2.0

    def crossing(direction: int) -> float | None:
        i = iext
        while 0 < i < x.size - 1:
            j = i + direction
            if (y[i] - half) * (y[j] - half) <= 0 and y[i] != y[j]:
                t = (half - y[i]) / (y[j] - y[i])
                return float(x[i] + t * (x[j] - x[i]))
            i = j
        return None

    left = crossing(-1)
    right = crossing(+1)
    span = float(x[-1] - x[0])
    if left is not None and right is not None:
        fwhm = right - left
        center = 0.5 * (left + right)
    elif left is not None:
        fwhm = 2.0 * (x[iext] - left)
        center = float(x[iext])
    elif right is not None:
        fwhm = 2.0 * (right - x[iext])
        center = float(x[iext])
    else:
        fwhm = span / 6.0
        center = float(x[iext])
    fwhm = max(fwhm, span / (len(x) * 10.0))
    return center, fwhm, amplitude, offset


def _as_trace_arrays(trace):
    x = np.asarray(trace.freq, dtype=float)
    y = np.asarray(trace.values)
    if np.iscomplexobj(y):
        raise ValueError("resonance fits expect a real-valued trace")
    if x.size < 5:
        raise ValueError("need at least 5 samples")
    return x, y.astype(float)


def fit_lorentzian(trace, initial: dict | None = None) -> FitResult:
    """Fit offset + amplitude Lorentzian to a real trace.

    Parameters are auto-initialized from the data unless ``initial``
    overrides them (keys: center, fwhm, amplitude, offset).
    """
    x, y = _as_trace_arrays(trace)
    names = ("center", "fwhm", "amplitude", "offset")
    guess = dict(zip(names, _lorentzian_init(x, y)), **(initial or {}))
    lo = np.array([-np.inf, guess["fwhm"] * 1e-9, -np.inf, -np.inf])
    hi = np.full(4, np.inf)
    result = gauss_newton(
        lambda p: lorentzian(x, *p) - y,
        lambda p: _lorentzian_jac(x, p),
        [guess[k] for k in names],
        names,
        bounds=(lo, hi),
    )
    result.params["area"] = lorentzian_area(result.params["amplitude"], result.params["fwhm"])
    return result


def _fano_public(kL: float, k0: float, kD: float):
    """(q_fano, amplitude, offset) of kL*L + k0 + kD*D: the root q of kL/kD = (q^2 - 1)/(2q)
    whose amplitude kD/(2q) is positive, t + copysign(hypot(t, 1), kD) at t = kL/kD."""
    if kD == 0:
        raise ArithmeticError("fano fit reached the Lorentzian limit: q_fano is unbounded")
    r = abs(kL / kD) + math.hypot(kL / kD, 1.0)  # that root, written without cancellation
    q = math.copysign(r if kL >= 0 else 1.0 / r, kD)
    return q, kD / (2.0 * q), k0 - kD / (2.0 * q)


def fit_fano(trace) -> FitResult:
    """Fit the asymmetric (Fano) resonance line to a real trace.

    The line is kL*L + k0 + kD*D in L = hw^2/(hw^2 + dx^2) and D = hw*dx/(hw^2 + dx^2), with
    kL = A(q^2 - 1), k0 = offset + A and kD = 2Aq (U. Fano, Phys. Rev. 124, 1866 (1961)).
    Gauss-Newton fits (center, width, kL, k0, kD) on the line's Jacobian (``_lorentzian_jac``),
    finite as q -> inf, from the Lorentzian seed's center and width and one linear solve, then
    maps back to amplitude > 0 with the covariance (``_fano_public``, ``_fano_jac``).
    """
    x, y = _as_trace_arrays(trace)
    c0, w0, _, _ = _lorentzian_init(x, y)
    jac = partial(_lorentzian_jac, x)
    with np.errstate(over="raise", invalid="raise", divide="raise"):  # as _lorentzian_init
        k = np.linalg.lstsq(jac((c0, w0, 0.0, 0.0, 0.0))[:, 2:], y, rcond=None)[0]
    lo = [-np.inf, w0 * 1e-9, -np.inf, -np.inf, -np.inf]
    fit = gauss_newton(lambda p: jac(p)[:, 2:] @ p[2:] - y, jac, [c0, w0, *k],
                       ("center", "width", "kL", "k0", "kD"), bounds=(lo, [np.inf] * 5))
    center, width, *k = fit.params.values()
    return _fit_result(("center", "width", "q_fano", "amplitude", "offset"),
                       [center, width, *_fano_public(*k)], fit.residual_norm**2,
                       partial(_fano_jac, x), fit.converged, fit.iterations, fit.message)


@np.errstate(over="raise", invalid="raise", divide="raise")
def fit_g0_from_linewidths(
    n_c,
    gamma_m,
    kappa: float,
    gamma_0: float,
    branch: str,
    sigma=None,
) -> FitResult:
    """Vacuum coupling from effective-linewidth data.

    Weighted linear fit of gamma_m = gamma_0 +/- (4 g0^2/kappa) n_c with the
    intercept fixed at the supplied intrinsic linewidth; the slope sign must
    match the declared branch (red: broadening, blue: narrowing). All rates
    are angular; ``sigma`` (same units as gamma_m) sets the weights. Data that
    overflow the sums (such as n_c = 1e200) raise FloatingPointError.
    """
    x = np.asarray(n_c, dtype=float)
    y = np.asarray(gamma_m, dtype=float)
    if x.size < 2:
        raise ValueError("need at least 2 points")
    if branch not in ("red", "blue"):
        raise ValueError("branch must be 'red' or 'blue'")
    _check("kappa", kappa, positive=True)
    _check("gamma_0", gamma_0, positive=True)
    w = np.ones_like(x) if sigma is None else 1.0 / np.asarray(sigma, dtype=float) ** 2
    yc = y - gamma_0
    sxx = float((w * x * x).sum())
    slope = float((w * x * yc).sum()) / sxx
    if branch == "red" and slope <= 0:
        raise ValueError("red branch requires a positive linewidth-vs-photon slope")
    if branch == "blue" and slope >= 0:
        raise ValueError("blue branch requires a negative linewidth-vs-photon slope")
    resid = yc - slope * x
    dof = max(x.size - 1, 1)
    s2 = float((w * resid**2).sum()) / dof
    var_slope = s2 / sxx
    g0 = math.sqrt(abs(slope) * kappa) / 2.0
    sd_slope = math.sqrt(var_slope)
    sd_g0 = sd_slope * g0 / (2.0 * abs(slope))
    return FitResult(
        params={"slope": slope, "g0": g0},
        names=("slope",),
        covariance=np.array([[var_slope]]),
        residual_norm=math.sqrt(float((w * resid**2).sum())),
        converged=True,
        iterations=1,
        stderr={"slope": sd_slope, "g0": sd_g0},
        message="closed-form weighted linear fit",
    )


def _nnls(A: np.ndarray, t: np.ndarray):
    """(cost, c) minimising |A c - t|^2 over c >= 0: the best fit on a subset of A's (few)
    columns whose coefficients are all >= 0, one lstsq per subset (Lawson & Hanson, ch. 23)."""
    best = (float(t @ t), np.zeros(A.shape[1]))
    for subset in range(2 ** A.shape[1] - 1, 0, -1):  # all columns first
        on = [j for j in range(A.shape[1]) if subset >> j & 1]
        c = np.zeros(A.shape[1])
        c[on] = np.linalg.lstsq(A[:, on], t, rcond=None)[0]
        r = A @ c - t
        if (c >= 0).all() and r @ r < best[0]:
            best = (float(r @ r), c)
            if len(on) == A.shape[1]:  # the unconstrained minimum is feasible
                break
    return best


def fit_heating_params(
    n_c,
    n_m,
    device: Device,
    n_th0: float | None = DEFAULT_HEATING.n_th0,
) -> FitResult:
    """Fit the bath heating coefficients to occupancy-vs-photon-number data.

    ``n_th0`` fixes the base occupancy (None floats it as a fourth parameter); all are >= 0.
    Gauss-Newton starts at the best beta_sat of a log grid over 1/n_c, each with the others'
    nonnegative linear fit on ~1,000 strided rows (variable projection, Golub & Pereyra 1973);
    data that overflow that seed (such as n_c = 1e-320) raise FloatingPointError, and an n_c
    whose cooperativity overflows ValueError. Beside n_c and n_m only the residual is held
    whole: it is refilled, and J made and factored, 4,096 rows at a time.
    """
    x = np.asarray(n_c, dtype=float)
    y = np.asarray(n_m, dtype=float)
    free_n0 = n_th0 is None
    n00 = 0.0 if free_n0 else float(_check("n_th0", n_th0, ge=0))
    if x.size < (5 if free_n0 else 4):
        raise ValueError("not enough points for the number of free coefficients")
    top = float(_check("n_c", x, ge=0).max())  # cooperativity's own check, run first
    _finite(cooperativity(device, top), f"n_c = {top!r} overflows the cooperativity")
    if top <= 0:
        raise ValueError("heating fit needs a positive n_c")
    if x.min() == x.max():
        raise ValueError("heating fit needs two distinct n_c")
    # fewer distinct n_c than coefficients would fit one from no data, at stderr 0
    ranked = np.sort(x)
    first = np.searchsorted(ranked, 0.0, "right")  # the least positive n_c (-0.0 == 0.0)
    smallest, ranked = ranked[first], ranked if free_n0 else ranked[first:]
    distinct = 1 + np.count_nonzero(ranked[1:] != ranked[:-1])
    del ranked
    if distinct < (4 if free_n0 else 3):
        raise ValueError(f"heating fit needs {'4 distinct' if free_n0 else '3 distinct positive'}"
                         f" n_c, the table has {distinct}")

    def linear(b_s, x, damp):  # the columns that (n_th0), alpha_sat and alpha_lin multiply
        return ([1.0 / damp] if free_n0 else []) + [x / (1.0 + b_s * x) / damp, x / damp]

    def damp_at(rows):  # 1 + C of those rows, never held for all of them
        return 1.0 + cooperativity(device, x[rows])

    rows = slice(None, None, -(-x.size // 1000))
    with np.errstate(over="raise", invalid="raise", divide="raise"):  # as _lorentzian_init
        d = damp_at(rows)
        t = y[rows] - n00 / d
        seeds = [(*_nnls(np.column_stack(linear(b, x[rows], d)), t), b)
                 for b in np.geomspace(1.0 / x.max(), 1.0 / smallest, 17)]
    _, c, b_sat0 = min(seeds, key=lambda seed: seed[0])
    names = ("n_th0",) * free_n0 + ("alpha_sat", "beta_sat", "alpha_lin")
    r = np.empty(x.size)

    def residual(p):  # refills r, 4,096 rows at a time
        n0, a_s, b_s, a_l = p if free_n0 else (n00, *p)
        for k in range(0, x.size, 4096):
            at = slice(k, k + 4096)
            r[at] = (n0 + a_s * x[at] / (1.0 + b_s * x[at]) + a_l * x[at]) / damp_at(at) - y[at]
        return r

    def jacobian(p):
        def rows(start: int, stop: int) -> np.ndarray:
            # beta_sat's column, -alpha_sat*sat^2/damp, goes before alpha_lin's
            d = damp_at(slice(start, stop))
            *cols, lin = linear(p[-2], x[start:stop], d)
            return np.column_stack([*cols, -p[-3] * cols[-1] ** 2 * d, lin])
        return table.Rows(x.size, rows)

    result = gauss_newton(residual, jacobian, [*c[:-1], b_sat0, c[-1]], names,
                          bounds=(np.zeros(len(names)), np.full(len(names), np.inf)))
    result.params.setdefault("n_th0", n00)  # a fixed n_th0 is reported too
    return result


def result_to_json(result: FitResult, angular: tuple[str, ...] = ()) -> dict:
    """Parameter map ``{name: {value, stderr}}`` plus convergence metadata.

    Parameters named in ``angular`` are converted rad/s -> Hz and suffixed
    ``_hz`` so files stay in cyclic units.
    """
    out: dict = {"converged": result.converged, "iterations": result.iterations,
                 "residual_norm": result.residual_norm, "params": {}}
    for name, value in result.params.items():
        err = result.stderr.get(name)
        if name in angular:
            out["params"][name + "_hz"] = {
                "value": angular_to_hz(value),
                "stderr": None if err is None else angular_to_hz(err),
            }
        else:
            out["params"][name] = {"value": value, "stderr": err}
    return out
