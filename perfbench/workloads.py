"""The benchmark's workloads: inputs made from the seed, commands, output checks.

Each workload is a short pipeline of ``omx`` commands, run one process at a
time. ``build(name, seed, work, nproc)`` writes the workload's inputs into
``work``, computes the expected results from omx's public functions, and
returns a :class:`Workload` whose commands carry their own checks. A check
returns the work items the command contributes to ``items_per_s`` and raises
:class:`CheckFailed` when an output is wrong. No check uses a stored digest.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

from omx import core, fitkit, geometry, pulsed, spectra
from omx.constants import angular_to_hz, hz_to_angular

NAMES = ("thermo_dense", "thermo_sparse", "sweep", "cli_small")

# rows of a large table compared against the library, picked by the seed
SAMPLED_ROWS = 16
REL_TOL = 1e-12

# Recorded defects, kept in the workload on purpose. A failure counts as the
# known defect only when its message contains the defect's signature.
#
# At amplitudes of ~1e-9 and below near 7.4 GHz the relative column-norm test
# in fitkit.gauss_newton freezes center and width; the fit still reports
# converged=True after one iteration, with stderr 0 and the width off.
FROZEN_FIT = ("gauss_newton freezes center/width at amplitude 1e-12 "
              "(relative column-norm test) and still reports converged", "(stderr 0)")
# With a free n_th0, fit_heating_params on 1%-noise data sometimes (about 6%
# of seeds) steps alpha_sat/beta_sat out to ~3e8/4e7 and the line search
# then fails, so the command exits 1.
FREE_HEATING_FIT = ("fit_heating_params with free n_th0 runs off along the "
                    "saturable-term ridge on some noisy inputs",
                    "line search failed to find a descent step")


class CheckFailed(Exception):
    """An output did not match what omx's own functions predict."""


@dataclass
class Command:
    label: str
    argv: list[str]  # arguments after ``python -m omx``
    out: str  # file the command writes (``--out``), or its captured stdout
    check: Callable[[Path], int]  # items the output adds; raises CheckFailed
    # when nonzero, the items the command adds in place of its check's count,
    # whether or not the check passes
    items: int = 0
    known_defect: tuple[str, str] = ("", "")  # (description, failure signature)


@dataclass
class Workload:
    name: str
    items: str  # what items_per_s counts
    commands: list[Command]
    warmup: list[str]  # untimed set-up invocation; writes bytecode caches
    warmup_out: str
    # determinism references: command label -> sha256 of its output
    digests: dict = field(default_factory=dict)
    reference_label: str = ""  # label whose digest the warm-up output sets


# --- generic helpers -----------------------------------------------------------


def _strict_json(path: Path):
    def reject(token):
        raise CheckFailed(f"{path.name}: invalid JSON constant {token}")
    try:
        return json.loads(path.read_text(), parse_constant=reject)
    except json.JSONDecodeError as exc:
        raise CheckFailed(f"{path.name}: not valid JSON ({exc})") from None


def _close(got: float, want: float, what: str, rel: float = REL_TOL) -> None:
    if not abs(got - want) <= rel * abs(want):
        raise CheckFailed(f"{what}: got {got!r}, expected {want!r}")


def _read_table(path: Path, header: list[str], keep: set[int] | None = None):
    """Row count and the rows whose index is in ``keep`` (all rows if None)."""
    rows = {}
    n = 0
    with open(path) as fh:
        got = fh.readline().rstrip("\n").split(",")
        if got != header:
            raise CheckFailed(f"{path.name}: header {got}, expected {header}")
        for n, line in enumerate(fh, 1):
            if keep is None or n - 1 in keep:
                rows[n - 1] = [float(x) for x in line.split(",")]
    return n, rows


def _sample(rng: np.random.Generator, n: int) -> set[int]:
    return set(rng.choice(n, size=min(SAMPLED_ROWS, n), replace=False).tolist())


def digest(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _same_as_before(wl: Workload, label: str, path: Path) -> None:
    """Every output of a simulation command is byte-identical to the first."""
    got = digest(path)
    want = wl.digests.setdefault(label, got)
    if got != want:
        raise CheckFailed(f"{label}: output differs from the reference "
                          f"(sha256 {got[:12]} != {want[:12]})")


def _poisson(got: int, mean: float, what: str) -> None:
    # 5 sigma, plus 5 counts of slack so that tiny means (dark counts) cannot
    # fail on a legitimate draw
    if abs(got - mean) > 5.0 * math.sqrt(mean) + 5.0:
        raise CheckFailed(f"{what}: {got} clicks, Poisson mean {mean:.1f}")


# --- pulsed thermometry ----------------------------------------------------------


@dataclass
class Train:
    """One pulse-sim train and the click statistics omx predicts for it."""

    args: list[str]
    detuning: str
    pulses: int
    side_mean: float = 0.0
    dark_mean: float = 0.0

    def predict(self, device: str, rep_rate: float, tau_ns: float,
                peak_power: float, eta: float, dark_rate: float) -> None:
        dev = core.load_device(device)
        sign = -1.0 if self.detuning == "red" else 1.0
        drive = core.Drive.at_detuning(dev.optical, sign * dev.mechanical.omega_m,
                                       on_chip_power=peak_power)
        n_c = core.intracavity_photons(dev.optical, drive)
        p_s = pulsed.scattering_probability(dev, n_c, tau_ns * 1e-9)
        n_m = pulsed.steady_state_prepulse_occupancy(pulsed.default_kernel(), rep_rate)
        per_pulse = eta * p_s * (n_m + 1.0 if self.detuning == "blue" else n_m)
        chain = pulsed.DetectionChain(eta=eta, dark_rate=dark_rate,
                                      window=tau_ns * 1e-9)
        self.side_mean = self.pulses * per_pulse
        self.dark_mean = self.pulses * chain.dark_per_pulse


def _click_rows(path: Path) -> tuple[int, int]:
    """(rows, dark rows) of a click CSV."""
    data = path.read_bytes()
    if not data.startswith(b"pulse_index,t_ns,label\n"):
        raise CheckFailed(f"{path.name}: not a click CSV")
    return data.count(b"\n") - 1, data.count(b",dark\n")


def _thermo(name: str, seed: int, nproc: int) -> Workload:
    if name == "thermo_dense":
        # rep rate and power where the model still holds: p_s ~ 0.199 (no
        # regime warning) and n_m ~ 0.42; nearly every pulse clicks
        physics = dict(device="B", rep_rate=3.012e6, tau_ns=80.0,
                       peak_power=3e-5, eta=1.0, dark_rate=5.0)
        pulses, workers = 300_000, 1
        items = "clicks written+read/s"
    else:
        # the CLI's default physics: few clicks, many random blocks
        physics = dict(device="B", rep_rate=188e3, tau_ns=80.0,
                       peak_power=7.4e-6, eta=0.05, dark_rate=5.0)
        pulses, workers = 12_000_000, min(2, nproc)
        items = "pulses simulated/s"
    common = ["--device", physics["device"], "--rep-rate", repr(physics["rep_rate"]),
              "--tau-ns", repr(physics["tau_ns"]),
              "--peak-power", repr(physics["peak_power"]),
              "--eta", repr(physics["eta"]), "--pulses", str(pulses)]
    trains = {}
    for detuning, train_seed in (("blue", seed), ("red", seed + 1)):
        train = Train(common + ["--detuning", detuning, "--seed", str(train_seed)],
                      detuning, pulses)
        train.predict(**physics)
        trains[detuning] = train
    n_true = pulsed.steady_state_prepulse_occupancy(pulsed.default_kernel(),
                                                    physics["rep_rate"])
    rows: dict[str, int] = {}
    wl: Workload

    def check_sim(detuning: str):
        def check(path: Path) -> int:
            label = f"pulse-sim {detuning}"
            _same_as_before(wl, label, path)
            n, dark = _click_rows(path)
            train = trains[detuning]
            _poisson(n - dark, train.side_mean, f"{label} sideband")
            _poisson(dark, train.dark_mean, f"{label} dark")
            rows[detuning] = n
            return n if name == "thermo_dense" else pulses
        return check

    def check_estimate(path: Path) -> int:
        res = _strict_json(path)
        if (res["counts_blue"], res["counts_red"]) != (rows["blue"], rows["red"]):
            raise CheckFailed(f"estimate counts {res['counts_blue']}/"
                              f"{res['counts_red']} != file rows "
                              f"{rows['blue']}/{rows['red']}")
        if not abs(res["n_m"] - n_true) <= 5.0 * res["stderr"]:
            raise CheckFailed(f"estimate n_m {res['n_m']:.5f} +- {res['stderr']:.5f}"
                              f" is not within 5 stderr of {n_true:.5f}")
        return rows["blue"] + rows["red"] if name == "thermo_dense" else 0

    bin_ns, window_ns = 4.0, physics["tau_ns"]

    def check_histogram(path: Path) -> int:
        header = ["bin_start_ns", "rate_hz_blue", "rate_hz_red"]
        n_bins, table = _read_table(path, header)
        if n_bins != math.ceil(window_ns / bin_ns):
            raise CheckFailed(f"histogram has {n_bins} bins")
        for col, detuning in ((1, "blue"), (2, "red")):
            total = sum(r[col] for r in table.values()) * bin_ns * 1e-9 * pulses
            if abs(total - rows[detuning]) > 1e-6 * rows[detuning] + 1e-6:
                raise CheckFailed(f"histogram {detuning} rates sum to {total:.3f} "
                                  f"clicks, file has {rows[detuning]}")
        return rows["blue"] + rows["red"] if name == "thermo_dense" else 0

    sim = ["--workers", str(workers)]
    files = ["--blue", "blue.csv", "--red", "red.csv", "--pulses", str(pulses)]
    commands = [
        Command("pulse-sim blue", ["pulse-sim", *trains["blue"].args, *sim,
                                   "--out", "blue.csv"], "blue.csv", check_sim("blue")),
        Command("pulse-sim red", ["pulse-sim", *trains["red"].args, *sim,
                                  "--out", "red.csv"], "red.csv", check_sim("red")),
        Command("estimate", ["estimate", *files, "--window-ns", repr(window_ns),
                             "--out", "estimate.json"], "estimate.json", check_estimate),
        Command("histogram", ["histogram", *files, "--bin-ns", repr(bin_ns),
                              "--window-ns", repr(window_ns), "--out", "hist.csv"],
                "hist.csv", check_histogram),
    ]
    # the warm-up is the blue train at one worker: the reference every
    # measured blue stream (at any worker count) must equal byte for byte
    warmup = ["pulse-sim", *trains["blue"].args, "--workers", "1",
              "--out", "blue_ref.csv"]
    wl = Workload(name, items, commands, warmup, "blue_ref.csv",
                  reference_label="pulse-sim blue")
    return wl


# --- sweeps: cooling curve, heating fit, reflection maps --------------------------------


def _cool_curve_check(rng, device: str, points: int):
    """Rows of ``cool-curve`` over its default photon grid, 0.01 to 1e4."""
    dev = core.load_device(device)
    grid = np.geomspace(0.01, 1e4, points)
    omega_m = dev.mechanical.omega_m
    header = ["n_c", "C", "gamma_eff_hz", "n_m", "t_eff_k"]
    keep = _sample(rng, points)

    def check(path: Path) -> int:
        n, table = _read_table(path, header, keep)
        if n != points:
            raise CheckFailed(f"cool-curve wrote {n} rows, expected {points}")
        for k, (n_c, coop, gamma_hz, n_m, t_eff) in table.items():
            want_n_m = core.heating_model_occupancy(dev, core.DEFAULT_HEATING, grid[k])
            _close(n_c, grid[k], f"cool-curve row {k} n_c")
            _close(coop, core.cooperativity(dev, grid[k]), f"cool-curve row {k} C")
            _close(gamma_hz, angular_to_hz(core.backaction(dev, grid[k], -omega_m).gamma_eff),
                   f"cool-curve row {k} gamma_eff_hz")
            _close(n_m, want_n_m, f"cool-curve row {k} n_m")
            _close(t_eff, core.temperature_from_occupancy(omega_m, want_n_m),
                   f"cool-curve row {k} t_eff_k")
        return n
    return check


def _omit_map_check(rng, device: str, nc: float, det_points: int, points: int,
                    fmt: str):
    """Rows of ``omit-map`` over its default grid: detunings from -1.5 to -0.5
    omega_m, probe frequencies over 2 GHz around omega_m."""
    dev = core.load_device(device)
    f_m = angular_to_hz(dev.mechanical.omega_m)
    detunings = np.linspace(-1.5 * f_m, -0.5 * f_m, det_points)
    probe = hz_to_angular(np.linspace(f_m - 1e9, f_m + 1e9, points))
    total = det_points * points
    keep = _sample(rng, total)
    header = ["detuning_hz", "freq_hz", "mag"]

    def check(path: Path) -> int:
        if fmt == "json":
            data = _strict_json(path)
            if list(data) != header or any(len(data[h]) != total for h in header):
                raise CheckFailed(f"{path.name}: expected {header} columns of {total}")
            n, table = total, {k: [data[h][k] for h in header] for k in keep}
        else:
            n, table = _read_table(path, header, keep)
        if n != total:
            raise CheckFailed(f"omit-map wrote {n} rows, expected {total}")
        for k, (det, freq, mag) in table.items():
            i, j = divmod(k, points)
            trace = spectra.omit_reflection(dev, nc, hz_to_angular(detunings[i]), probe)
            _close(det, detunings[i], f"omit-map row {k} detuning_hz")
            _close(freq, angular_to_hz(probe[j]), f"omit-map row {k} freq_hz")
            _close(mag, trace.magnitude()[j], f"omit-map row {k} mag")
        return n
    return check


def _sweep(seed: int) -> Workload:
    rng = np.random.default_rng(seed)
    points, nc, det_csv, det_json, probe = 100_000, 3000.0, 401, 41, 2001

    def check_fit(path: Path) -> int:
        res = _strict_json(path)
        if not res["converged"]:
            raise CheckFailed("fit heating did not converge")
        for name in ("n_th0", "alpha_sat", "beta_sat", "alpha_lin"):
            _close(res["params"][name]["value"], getattr(core.DEFAULT_HEATING, name),
                   f"fit heating {name}", rel=1e-9)
        return 0

    grid = ["--device", "A", "--nc", repr(nc), "--points", str(probe)]
    commands = [
        Command("cool-curve", ["cool-curve", "--device", "A", "--points", str(points),
                               "--out", "curve.csv"], "curve.csv",
                _cool_curve_check(rng, "A", points)),
        Command("fit heating", ["fit", "heating", "--in", "curve.csv",
                                "--out", "heating.json"], "heating.json", check_fit),
        Command("omit-map csv", ["omit-map", *grid, "--detuning-points", str(det_csv),
                                 "--out", "map.csv"], "map.csv",
                _omit_map_check(rng, "A", nc, det_csv, probe, "csv")),
        Command("omit-map json", ["omit-map", *grid, "--detuning-points", str(det_json),
                                  "--format", "json", "--out", "map.json"], "map.json",
                _omit_map_check(rng, "A", nc, det_json, probe, "json")),
    ]
    return Workload("sweep", "output rows/s", commands,
                    ["device", "list"], "warmup.txt")


# --- many short commands ------------------------------------------------------------


def _write_columns(path: Path, columns: dict) -> None:
    lines = [",".join(columns)]
    lines += [",".join(repr(float(v)) for v in row) for row in zip(*columns.values())]
    path.write_text("\n".join(lines) + "\n")


def _fit_check(kind: str, truth: dict):
    """Converged, and every generating parameter within 5 reported stderr."""
    def check(path: Path) -> int:
        res = _strict_json(path)
        if not res["converged"]:
            raise CheckFailed(f"fit {kind} did not converge")
        misses = []
        for name, want in truth.items():
            p = res["params"][name]
            err = p["stderr"] or 0.0
            if not abs(p["value"] - want) <= 5.0 * err:
                misses.append(f"{name} {p['value']:.6g} (stderr {err:.2g}) vs {want:.6g}")
        if misses:
            raise CheckFailed(f"fit {kind} misses its generating parameters: "
                              + "; ".join(misses))
        return 0
    return check


def _line_inputs(rng, work: Path) -> list[Command]:
    """Lorentzian and Fano traces near device A's mechanical mode, 1% noise,
    each at unit amplitude and at the 1e-12 scale of a real PSD."""
    dev = core.DEVICE_PRESETS["A"]
    f_m = angular_to_hz(dev.mechanical.omega_m)
    gamma = angular_to_hz(dev.mechanical.gamma_0)
    freq = np.linspace(f_m - 10 * gamma, f_m + 10 * gamma, 801)
    commands = []
    for kind in ("lorentzian", "fano"):
        for amp, tag in ((1.0, "1"), (1e-12, "1e-12")):
            center = f_m + rng.uniform(-0.5, 0.5) * gamma
            width = gamma * rng.uniform(0.8, 1.2)
            offset = 0.05 * amp
            if kind == "lorentzian":
                y = fitkit.lorentzian(freq, center, width, amp, offset)
                truth = {"center_hz": center, "fwhm_hz": width,
                         "amplitude": amp, "offset": offset}
            else:
                q = rng.uniform(1.5, 3.0)
                y = fitkit.fano(freq, center, width, q, amp, offset)
                truth = {"center_hz": center, "width_hz": width, "q_fano": q,
                         "amplitude": amp, "offset": offset}
            y = y + rng.normal(0.0, 0.01 * amp, freq.size)
            name = f"{kind}_{tag}"
            _write_columns(work / f"{name}.csv", {"freq_hz": freq, "value": y})
            commands.append(Command(
                f"fit {kind} amp={tag}",
                ["fit", kind, "--in", f"{name}.csv", "--out", f"{name}.json"],
                f"{name}.json", _fit_check(kind, truth), items=1,
                known_defect=FROZEN_FIT if amp < 1e-9 else ("", "")))
    return commands


def _cli_small(seed: int, work: Path) -> Workload:
    rng = np.random.default_rng(seed)
    dev_a = core.DEVICE_PRESETS["A"]
    wl: Workload

    def check_list(path: Path) -> int:
        if path.read_text().split() != sorted(core.DEVICE_PRESETS):
            raise CheckFailed(f"device list printed {path.read_text().split()}")
        return 0

    def check_taper(path: Path) -> int:
        schedule = geometry.generate_schedule(geometry.DESIGN_PRESETS["B"], n_cells=17)
        n, table = _read_table(path, ["cell_index", "d_nm", "h_nm"])
        if n != 18:
            raise CheckFailed(f"taper wrote {n} rows, expected 18")
        for k, (idx, d, h) in table.items():
            _close(idx, k, f"taper row {k} cell_index")
            _close(d, schedule.values["d"][k], f"taper row {k} d_nm")
            _close(h, schedule.values["h"][k], f"taper row {k} h_nm")
        return 0

    f_m = angular_to_hz(dev_a.mechanical.omega_m)
    probe = hz_to_angular(np.linspace(f_m - 1e9, f_m + 1e9, 2001))
    omit_keep = _sample(rng, 2001)

    def check_omit(path: Path) -> int:
        want = spectra.omit_reflection(dev_a, 100.0, -dev_a.mechanical.omega_m, probe)
        n, table = _read_table(path, ["freq_hz", "re", "im"], omit_keep)
        if n != 2001:
            raise CheckFailed(f"omit wrote {n} rows, expected 2001")
        for k, (freq, re, im) in table.items():
            _close(freq, angular_to_hz(probe[k]), f"omit row {k} freq_hz")
            _close(re, want.values[k].real, f"omit row {k} re")
            _close(im, want.values[k].imag, f"omit row {k} im")
        return 0

    check_curve = _cool_curve_check(rng, "A", 200)

    train = Train(["--seed", str(seed)], "blue", 100_000)
    train.predict(device="B", rep_rate=188e3, tau_ns=80.0, peak_power=7.4e-6,
                  eta=0.05, dark_rate=5.0)

    def check_sim(path: Path) -> int:
        _same_as_before(wl, "pulse-sim", path)
        n, dark = _click_rows(path)
        _poisson(n - dark, train.side_mean, "pulse-sim sideband")
        _poisson(dark, train.dark_mean, "pulse-sim dark")
        return 0

    # red-branch linewidths, 1000 points with 1% noise and 1% sigma
    n_c = np.linspace(10.0, 2000.0, 1000)
    gamma_hz = angular_to_hz(np.array(
        [dev_a.mechanical.gamma_0 + core.resolved_sideband_damping(dev_a, x) for x in n_c]))
    _write_columns(work / "g0.csv", {
        "n_c": n_c, "gamma_m_hz": gamma_hz * (1.0 + 0.01 * rng.normal(size=n_c.size)),
        "sigma_hz": 0.01 * gamma_hz})
    g0_hz = angular_to_hz(dev_a.g0)

    def check_g0(path: Path) -> int:
        got = _strict_json(path)["params"]["g0_hz"]["value"]
        _close(got, g0_hz, "fit g0 g0_hz", rel=1e-3)
        return 0

    # bath heating model on 200 photon numbers with 1% noise
    grid = np.geomspace(0.01, 1e4, 200)
    n_m = np.array([core.heating_model_occupancy(dev_a, core.DEFAULT_HEATING, x)
                    for x in grid])
    _write_columns(work / "heating.csv",
                   {"n_c": grid, "n_m": n_m * (1.0 + 0.01 * rng.normal(size=grid.size))})
    heating_truth = {k: getattr(core.DEFAULT_HEATING, k)
                     for k in ("n_th0", "alpha_sat", "beta_sat", "alpha_lin")}

    # items_per_s counts commands, whether or not their check passes
    commands = [
        Command("device list", ["device", "list"], "list.txt", check_list, items=1),
        Command("taper", ["taper", "--cells", "17", "--out", "taper.csv"],
                "taper.csv", check_taper, items=1),
        Command("omit", ["omit", "--nc", "100", "--out", "omit.csv"], "omit.csv",
                check_omit, items=1),
        Command("cool-curve", ["cool-curve", "--out", "curve.csv"], "curve.csv",
                check_curve, items=1),
        Command("pulse-sim", ["pulse-sim", *train.args, "--out", "clicks.csv"],
                "clicks.csv", check_sim, items=1),
        *_line_inputs(rng, work),
        Command("fit g0", ["fit", "g0", "--branch", "red", "--device", "A",
                           "--in", "g0.csv", "--out", "g0.json"], "g0.json", check_g0,
                items=1),
        Command("fit heating", ["fit", "heating", "--n-th0", "free", "--in", "heating.csv",
                                "--out", "heating.json"], "heating.json",
                _fit_check("heating", heating_truth), items=1,
                known_defect=FREE_HEATING_FIT),
    ]
    wl = Workload("cli_small", "commands/s", commands,
                  ["pulse-sim", *train.args, "--out", "clicks_ref.csv"], "clicks_ref.csv",
                  reference_label="pulse-sim")
    return wl


def build(name: str, seed: int, work: Path, nproc: int) -> Workload:
    """Write the inputs of workload ``name`` for ``seed`` into ``work``."""
    if name == "sweep":
        return _sweep(seed)
    if name == "cli_small":
        return _cli_small(seed, work)
    return _thermo(name, seed, nproc)
