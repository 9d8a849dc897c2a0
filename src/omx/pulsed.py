"""Pulsed sideband-asymmetry thermometry.

Monte Carlo generation of time-tagged photon clicks for red/blue-detuned
pulse trains, a phenomenological pulse-heating kernel, and the asymmetry
estimator that turns blue/red count totals into a mechanical occupancy
with propagated uncertainty.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .core import Device, _check, _finite
from . import table

__all__ = [
    "PulseTrain",
    "DetectionChain",
    "HeatingKernel",
    "ClickStream",
    "AsymmetryResult",
    "Histogram",
    "scattering_probability",
    "steady_state_prepulse_occupancy",
    "fit_heating_kernel",
    "default_kernel",
    "DEFAULT_KERNEL_ANCHORS",
    "simulate_clicks",
    "estimate_occupancy",
    "histogram",
    "click_columns",
    "write_clicks_csv",
    "read_clicks_csv",
    "histogram_columns",
    "write_histogram_csv",
    "read_histogram_csv",
]

LABELS = ("red", "blue", "dark")  # a ClickStream label is an index into this

# pulses per independent random block; fixed so that streams do not depend
# on how many workers the simulation is split across
BLOCK_PULSES = 65536

# largest mean _poisson_nonzero draws itself; above it numpy's loop over
# every sample is the faster (per-block timings over the mean: BENCH_15.json)
_SPARSE_POISSON_MAX = 0.16

# reference occupancy-vs-repetition-rate anchors for an 80 ns, ~5%
# scattering-probability train on the bundled device B preset
DEFAULT_KERNEL_ANCHORS = ((188e3, 0.043), (3.012e6, 0.42))


@dataclass(frozen=True)
class PulseTrain:
    """Rectangular optical pulse train at a fixed detuning sign."""

    tau: float  # pulse length (s)
    rep_rate: float  # Hz
    peak_power: float  # on-chip peak power (W)
    detuning_sign: str  # "red" or "blue"
    n_pulses: int

    def __post_init__(self):
        _check("rep_rate", self.rep_rate, positive=True)
        _check("tau", self.tau)
        if not 0 < self.tau < 1.0 / self.rep_rate:
            raise ValueError("need 0 < tau < 1/rep_rate")
        if self.detuning_sign not in ("red", "blue"):
            raise ValueError("detuning_sign must be 'red' or 'blue'")
        _check("n_pulses", self.n_pulses, ge=1)
        _check("peak_power", self.peak_power, ge=0)


@dataclass(frozen=True)
class DetectionChain:
    """Lumped sideband detection: efficiency, dark rate, and gate length."""

    eta: float = 0.05
    dark_rate: float = 5.0  # Hz, continuous-equivalent
    window: float = 80e-9  # detection gate per pulse (s)

    def __post_init__(self):
        _check("eta", self.eta, within=(0, 1))
        _check("dark_rate", self.dark_rate, ge=0)
        _check("window", self.window, positive=True)
        _finite(self.dark_per_pulse, f"dark_rate {self.dark_rate!r} Hz over a window of "
                f"{self.window!r} s gives dark counts per pulse beyond the float range")

    @property
    def dark_per_pulse(self) -> float:
        return self.dark_rate * self.window


@dataclass(frozen=True)
class HeatingKernel:
    """Instantaneous occupancy kick per pulse with exponential relaxation."""

    delta: float  # quanta added at each pulse start
    tau_th: float  # relaxation time (s)
    n_base: float = 0.0

    def __post_init__(self):
        for name in ("delta", "tau_th", "n_base"):
            _check(name, getattr(self, name), ge=0)


@dataclass(frozen=True, eq=False)
class ClickStream:
    """Time-tagged detection events as equal-length columns, one entry per click.

    ``pulse_index`` (int64) is the pulse the click belongs to, ``t``
    (float64) the time since that pulse's start in seconds, and ``label``
    (int8) a code into ``LABELS``.
    """

    pulse_index: np.ndarray
    t: np.ndarray
    label: np.ndarray

    def __post_init__(self):
        pulse_index = np.asarray(self.pulse_index, dtype=np.int64)
        t = np.asarray(self.t, dtype=np.float64)
        label = np.asarray(self.label)
        if not (pulse_index.ndim == t.ndim == label.ndim == 1
                and pulse_index.size == t.size == label.size):
            raise ValueError("click columns must be 1-d arrays of equal length")
        _check("pulse_index", pulse_index, ge=0)
        _check("click time", t, ge=0)
        if not np.all((label >= 0) & (label < len(LABELS))):
            raise ValueError(f"label must be a code into {LABELS}")
        object.__setattr__(self, "pulse_index", pulse_index)
        object.__setattr__(self, "t", t)
        object.__setattr__(self, "label", label.astype(np.int8))

    def __len__(self) -> int:
        return self.t.size

    def __eq__(self, other):
        fields = ("pulse_index", "t", "label")
        return isinstance(other, ClickStream) and all(
            np.array_equal(getattr(self, f), getattr(other, f)) for f in fields)

    def check_within(self, n_pulses: int, window: float | None = None) -> None:
        """Reject clicks beyond pulse n_pulses - 1 or after the gate [0, window]."""
        gate = np.inf if window is None else window
        outside = (self.pulse_index >= n_pulses) | (self.t > gate)
        if outside.any():
            k = int(np.argmax(outside))
            where = "" if window is None else f" and the {window * 1e9:g} ns gate"
            raise ValueError(f"click {k} (pulse_index {self.pulse_index[k]}, t_ns "
                             f"{float(self.t[k]) * 1e9!r}) is outside the {n_pulses} "
                             f"declared pulses{where}")


@dataclass(frozen=True)
class AsymmetryResult:
    """Occupancy estimate from blue/red sideband count totals."""

    n_m: float
    stderr: float
    counts_blue: int
    counts_red: int
    dark_estimate: float  # expected dark counts per run
    clamped: bool = False


def scattering_probability(device: Device, n_c: float, tau: float) -> float:
    """Sideband scattering probability per pulse, p_s = 4 g0^2 n_c tau / kappa.

    Ground-state convention: the blue-detuned (phonon-creating) rate is
    p_s*(n+1) and the red-detuned rate p_s*n. Warns above 0.2 where the
    linear single-scattering picture degrades.
    """
    _check("n_c", n_c, ge=0)
    _check("tau", tau, ge=0)
    p_s = 4.0 * device.g0**2 * n_c * tau / device.optical.kappa
    if p_s > 0.2:
        warnings.warn(f"scattering probability {p_s:.3f} > 0.2; linearized "
                      "per-pulse picture is marginal", stacklevel=2)
    return p_s


def steady_state_prepulse_occupancy(kernel: HeatingKernel, rep_rate: float) -> float:
    """Steady-state occupancy reported for a pulse in a periodic train.

    Just before a pulse the occupancy has relaxed to
    n_pre = n_base + delta*x/(1-x) with x = exp(-1/(rep_rate*tau_th));
    the kick lands at pulse start, so the value seen by the pulse (and
    returned here) is n_pre + delta = n_base + delta/(1-x).
    """
    _check("rep_rate", rep_rate, positive=True)
    if kernel.delta == 0.0:
        return kernel.n_base
    if kernel.tau_th == 0.0:
        return kernel.n_base + kernel.delta
    one_minus_x = -math.expm1(-1.0 / (rep_rate * kernel.tau_th))
    return kernel.n_base + kernel.delta / one_minus_x


def _occupancy_model(rates: np.ndarray, delta: float, tau_th: float, n_base: float) -> np.ndarray:
    tau_th = max(tau_th, 1e-300)
    one_minus_x = -np.expm1(-1.0 / (rates * tau_th))
    return n_base + delta / one_minus_x


def fit_heating_kernel(points, n_base: float = 0.0) -> HeatingKernel:
    """Calibrate (delta, tau_th) against (rep_rate, occupancy) pairs.

    Two points are interpolated exactly (root-finding on the ratio
    equation); more points go through damped least squares seeded by the
    two extreme rates.
    """
    from scipy.optimize import brentq  # imported here so the CLI never loads scipy

    from . import fitkit  # the only fitkit call in this module

    pts = sorted((float(r), float(n)) for r, n in points)
    if len(pts) < 2:
        raise ValueError("need at least 2 calibration points")
    rates = np.array([p[0] for p in pts])
    occ = np.array([p[1] for p in pts])
    if np.any(np.diff(rates) == 0):
        raise ValueError("calibration points must have distinct rep rates")
    _check("rep rates", rates, positive=True)
    _check("occupancies", occ)
    _check("n_base", n_base, ge=0)
    excess = occ - n_base
    if np.any(excess <= 0):
        raise ValueError("occupancies must exceed the baseline")

    def two_point(r1, e1, r2, e2):
        # e(R) = delta / (1 - exp(-1/(R tau))); eliminate delta via the ratio
        rho = e2 / e1
        if rho <= 1.0:
            raise ValueError("two-point calibration has no consistent kernel "
                             "(occupancy must grow with rep rate)")
        if rho >= r2 / r1:
            raise ValueError("two-point calibration has no consistent kernel "
                             "(ratio exceeds the rate ratio)")

        def f(tau):
            return (-math.expm1(-1.0 / (r1 * tau))) / (-math.expm1(-1.0 / (r2 * tau))) - rho

        lo, hi = 1e-12, 1.0 / r1
        while f(hi) < 0 and hi < 1e6:
            hi *= 10.0
        tau_th = brentq(f, lo, hi, xtol=1e-18, rtol=1e-15)
        delta = e1 * (-math.expm1(-1.0 / (r1 * tau_th)))
        return delta, tau_th

    d0, t0 = two_point(rates[0], excess[0], rates[-1], excess[-1])
    if len(pts) == 2:
        return HeatingKernel(delta=d0, tau_th=t0, n_base=n_base)

    def residual(p):
        return _occupancy_model(rates, p[0], p[1], n_base) - occ

    def jacobian(p):
        delta, tau_th = p
        tau_th = max(tau_th, 1e-300)
        u = 1.0 / (rates * tau_th)
        x = np.exp(-u)
        one_minus_x = -np.expm1(-u)
        J = np.empty((rates.size, 2))
        J[:, 0] = 1.0 / one_minus_x
        J[:, 1] = delta * x * u / (tau_th * one_minus_x**2)
        return J

    result = fitkit.gauss_newton(
        residual,
        jacobian,
        [d0, t0],
        ("delta", "tau_th"),
        bounds=(np.array([0.0, 1e-15]), np.array([np.inf, np.inf])),
    )
    if not result.converged:
        raise RuntimeError(f"heating-kernel fit did not converge: {result.message}")
    return HeatingKernel(delta=result.params["delta"],
                         tau_th=result.params["tau_th"], n_base=n_base)


# fit_heating_kernel(DEFAULT_KERNEL_ANCHORS) to the last bit (a test pins it),
# written out so that simulating with the default kernel never loads scipy
_DEFAULT_KERNEL = HeatingKernel(delta=0.029745204038197255, tau_th=4.5198547896980855e-06)


def default_kernel() -> HeatingKernel:
    """Kernel calibrated to the two bundled reference anchors."""
    return _DEFAULT_KERNEL


def _poisson_nonzero(rng: np.random.Generator, lam: float, n: int):
    """(index, count) of the nonzero entries of ``rng.poisson(lam, n)``, bit for bit.

    The generator's state ends where ``rng.poisson`` leaves it. Below a mean
    of 10 numpy multiplies uniform doubles until the product falls to
    exp(-lam) or below (Knuth, TAOCP vol. 2, 3.4.1); the count is the number
    of factors before that. Each sample takes at least one double, so the
    first n doubles are drawn at once. One at or below exp(-lam) ends a
    sample whatever came before it, so only the doubles above it, a fraction
    of about lam, are multiplied here: left to right within each run of them,
    across all runs at once. A sample the n doubles leave unfinished takes
    more one at a time, and numpy draws the samples still to come. Other
    means, errors included, are numpy's own.
    """
    if not 0.0 < lam <= _SPARSE_POISSON_MAX:
        counts = rng.poisson(lam, n)
        index = np.flatnonzero(counts)
        return index, counts[index]
    bound = math.exp(-lam)  # numpy's C code calls this libm exp; np.exp may differ
    d = rng.random(n)
    high = np.flatnonzero(d > bound)
    if not high.size:  # every sample is one double and counts 0
        return high, high
    cut = np.flatnonzero(high[1:] != high[:-1] + 1)
    first = high[np.concatenate(([0], cut + 1))]  # each run of high doubles
    end = high[np.append(cut, high.size - 1)] + 1  # the double after it ends its sample
    size = end - first  # the run's count, if no sample ends inside it
    stops, counts = [end], [size]
    long = np.flatnonzero(size > 1)
    if long.size:  # a sample ends inside a run where the product falls to the bound
        start, length = first[long], size[long]
        q, c = d[start], np.ones(long.size, np.int64)
        for k in range(1, int(length.max())):
            live = np.flatnonzero(length > k)
            x = q[live] * d[start[live] + k]
            stop = x <= bound
            stops.append(start[live][stop] + k)
            counts.append(c[live][stop])
            q[live] = np.where(stop, 1.0, x)
            c[live] = np.where(stop, 0, c[live] + 1)
        size[long] = c
    drawn = n
    if end[-1] == n and size[-1]:  # the last sample is unfinished: draw on
        prod = math.prod(d[n - size[-1]:].tolist())  # its factors so far, left to right
        end[-1] -= size[-1]  # where it starts
        while (prod := prod * rng.random()) > bound:
            size[-1] += 1
        end[-1] += size[-1]
        drawn = end[-1] + 1
    if len(stops) > 1:
        end, size = np.concatenate(stops), np.concatenate(counts)
        order = np.argsort(end, kind="stable")  # a few sorted runs: merged
        end, size = end[order], size[order]
    done = drawn - int(size.sum())  # samples finished
    end, size = end[size > 0], size[size > 0]
    index = end - np.cumsum(size)  # sample s ends at double s + its count and all before
    if done < n:
        rest = rng.poisson(lam, n - done)
        more = np.flatnonzero(rest)
        index = np.concatenate((index, done + more))
        size = np.concatenate((size, rest[more]))
    return index, size


def _block_clicks(seed: int, block_index: int, n_block: int, base_index: int,
                  mu_side: float, mu_dark: float, tau: float, window: float,
                  side_label: str):
    """Sorted (pulse_index, t, label) arrays for one block, from its own random stream."""
    rng = np.random.default_rng(np.random.SeedSequence((seed, block_index)))
    side_index, side_counts = _poisson_nonzero(rng, mu_side, n_block)
    dark_index, dark_counts = _poisson_nonzero(rng, mu_dark, n_block)
    side_times = rng.uniform(0.0, tau, int(side_counts.sum()))
    dark_times = rng.uniform(0.0, window, int(dark_counts.sum()))

    pulse = base_index + np.concatenate([np.repeat(side_index, side_counts),
                                         np.repeat(dark_index, dark_counts)])
    times = np.concatenate([side_times, dark_times])
    label = np.repeat(np.array([LABELS.index(side_label), LABELS.index("dark")], np.int8),
                      [side_times.size, dark_times.size])
    order = np.lexsort((label, pulse))  # group by pulse; red, blue codes sort before dark
    return pulse[order], times[order], label[order]


def _means(device: Device, train: PulseTrain, chain: DetectionChain, kernel: HeatingKernel,
           n_c: float) -> tuple[float, float, float]:
    """(p_s, n, sideband count per pulse) of ``train``: the means
    ``simulate_clicks`` draws from, unchecked and without its warnings."""
    p_s = 4.0 * device.g0**2 * n_c * train.tau / device.optical.kappa
    n_m = steady_state_prepulse_occupancy(kernel, train.rep_rate)
    return p_s, n_m, chain.eta * p_s * (n_m + 1.0 if train.detuning_sign == "blue" else n_m)


def simulate_clicks(device: Device, train: PulseTrain, chain: DetectionChain,
                    kernel: HeatingKernel, n_c: float, seed: int = 0,
                    workers: int = 1) -> ClickStream:
    """Generate the time-tagged click stream for one pulse train.

    Per pulse the sideband count is Poisson with mean eta*p_s*(n+1) (blue)
    or eta*p_s*n (red), where n comes from the heating kernel at the
    train's repetition rate; click times are uniform over the pulse, dark
    counts Poisson(dark_rate*window) with times uniform over the gate.
    Pulses are partitioned into fixed-size blocks with independent random
    streams derived from (seed, block_index), so the output is
    bit-identical for any worker count. Within a pulse, sideband clicks
    precede dark clicks.
    """
    _check("workers", workers, ge=1)
    scattering_probability(device, n_c, train.tau)  # checks n_c and tau; warns above 0.2
    p_s, n_m, mu_side = _means(device, train, chain, kernel, n_c)
    if chain.eta * p_s * (n_m + 1.0) > 0.5:
        warnings.warn("expected sideband count per pulse exceeds 0.5; "
                      "Poisson single-scattering picture is marginal", stacklevel=2)
    mu_dark = chain.dark_per_pulse

    n_blocks = (train.n_pulses + BLOCK_PULSES - 1) // BLOCK_PULSES

    def run(b: int):
        base = b * BLOCK_PULSES
        n_block = min(BLOCK_PULSES, train.n_pulses - base)
        return _block_clicks(seed, b, n_block, base, mu_side, mu_dark,
                             train.tau, chain.window, train.detuning_sign)

    if workers > 1 and n_blocks > 1:
        from concurrent.futures import ThreadPoolExecutor  # only a pooled run loads it

        with ThreadPoolExecutor(max_workers=workers) as pool:
            blocks = list(pool.map(run, range(n_blocks)))
    else:
        blocks = [run(b) for b in range(n_blocks)]
    # each block is copied into the stream's columns and dropped
    columns = [np.empty(sum(block[0].size for block in blocks), dtype)
               for dtype in (np.int64, np.float64, np.int8)]
    start = 0
    for b in range(n_blocks):
        block, blocks[b] = blocks[b], None
        for column, values in zip(columns, block):
            column[start:start + values.size] = values
        start += block[0].size
    return ClickStream(*columns)


def _as_count(counts, n_pulses: int) -> int:
    if isinstance(counts, (int, np.integer)):
        return int(_check("counts", counts, ge=0))
    counts.check_within(n_pulses)
    return len(counts)


def estimate_occupancy(counts_blue, counts_red, n_pulses_each: int,
                       chain: DetectionChain) -> AsymmetryResult:
    """Occupancy from blue/red totals: n_m = R/(B - R) after dark correction.

    ``counts_blue``/``counts_red`` may be integer totals or click streams
    (every click in a stream counts — the dark label is simulation
    metadata a real detector would not have — and a click beyond
    ``n_pulses_each`` is an error). B and R are per-pulse rates
    minus the expected dark floor; the standard error propagates
    independent Poisson fluctuations of both totals (variance floored at
    one count). A negative red rate clamps to zero and sets ``clamped``;
    B <= R is rejected as unresolvable.
    """
    _check("n_pulses_each", n_pulses_each, positive=True)
    cb = _as_count(counts_blue, n_pulses_each)
    cr = _as_count(counts_red, n_pulses_each)
    n = n_pulses_each
    d = chain.dark_per_pulse
    B = cb / n - d
    R = cr / n - d
    clamped = False
    if R < 0.0:
        R = 0.0
        clamped = True
    if B <= R:
        raise ValueError("no resolvable asymmetry: blue rate does not exceed "
                         "red rate after dark correction")
    n_m = R / (B - R)
    var = (R**2 * max(cb, 1) + B**2 * max(cr, 1)) / (n**2 * (B - R) ** 4)
    return AsymmetryResult(
        n_m=n_m,
        stderr=math.sqrt(var),
        counts_blue=cb,
        counts_red=cr,
        dark_estimate=d * n,
        clamped=clamped,
    )


@dataclass(frozen=True)
class Histogram:
    """Per-label binned clicks on a uniform time grid over the gate."""

    bin_start: np.ndarray  # seconds since pulse start
    counts: dict  # label -> integer count array, one entry per label present
    rates: dict  # label -> Hz array (count / (n_pulses * bin_width))
    bin_width: float
    n_pulses: int

    def total_counts(self) -> int:
        return int(sum(int(c.sum()) for c in self.counts.values()))


def histogram(clicks: ClickStream, bin_width: float, n_pulses: int,
              window: float) -> Histogram:
    """Bin a click stream into per-label counts and rates covering [0, window].

    A click beyond ``n_pulses`` or after the gate is an error; one exactly
    on the gate edge lands in the last bin.
    """
    _check("bin_width", bin_width, positive=True)
    _check("n_pulses", n_pulses, positive=True)
    _check("window", window, positive=True)
    clicks.check_within(n_pulses, window)
    n_bins = max(int(math.ceil(window / bin_width - 1e-12)), 1)
    bin_start = np.arange(n_bins) * bin_width
    idx = np.minimum((clicks.t / bin_width).astype(int), n_bins - 1)
    counts: dict = {}
    rates: dict = {}
    norm = 1.0 / (n_pulses * bin_width)
    # the codes present, ascending; np.unique would import numpy.ma
    for code in np.flatnonzero(np.bincount(clicks.label, minlength=len(LABELS))).tolist():
        binned = np.bincount(idx[clicks.label == code], minlength=n_bins)
        counts[LABELS[code]] = binned
        rates[LABELS[code]] = binned * norm
    return Histogram(bin_start=bin_start, counts=counts, rates=rates,
                     bin_width=bin_width, n_pulses=n_pulses)


def combined_rate(hist: Histogram) -> np.ndarray:
    """Sum of all label rates per bin — what a detector actually records."""
    return sum(hist.rates.values(), np.zeros_like(hist.bin_start))


# --- file formats ---


def click_columns(clicks: ClickStream) -> dict:
    """Click stream table: pulse_index, t_ns, label; t_ns and label are computed
    from the stream for each row range (``table.Rows``), not held whole."""
    labels = np.array(LABELS)
    return {"pulse_index": clicks.pulse_index,
            "t_ns": table.Rows(len(clicks), lambda a, b: clicks.t[a:b] * 1e9),
            "label": table.Rows(len(clicks), lambda a, b: labels[clicks.label[a:b]],
                                labels.dtype)}


def write_clicks_csv(path, clicks: ClickStream) -> None:
    table.write_table(click_columns(clicks), path)


def read_clicks_csv(path) -> ClickStream:
    cols = table.read_table(path, ("pulse_index", "t_ns", "label"),
                            {"pulse_index": int, "label": LABELS})
    return ClickStream(cols["pulse_index"], cols["t_ns"] * 1e-9, cols["label"])


def histogram_columns(bin_start, rate_blue, rate_red) -> dict:
    """Histogram table: bin_start_ns, rate_hz_blue, rate_hz_red."""
    return {"bin_start_ns": np.asarray(bin_start, dtype=float) * 1e9,
            "rate_hz_blue": np.asarray(rate_blue, dtype=float),
            "rate_hz_red": np.asarray(rate_red, dtype=float)}


def write_histogram_csv(path, bin_start, rate_blue, rate_red) -> None:
    table.write_table(histogram_columns(bin_start, rate_blue, rate_red), path)


def read_histogram_csv(path):
    cols = table.read_table(path, ("bin_start_ns", "rate_hz_blue", "rate_hz_red"))
    return cols["bin_start_ns"] * 1e-9, cols["rate_hz_blue"], cols["rate_hz_red"]
