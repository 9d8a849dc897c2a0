"""Command-line interface.

One executable with subcommands covering presets, cooling curves, coherent
reflection spectra, pulsed click simulation/estimation, taper schedules and
the fitting helpers. Frequencies on the command line and in every file are
cyclic Hz (times in ns, lengths in nm); conversion to the angular units used
internally happens here and only here.

Exit codes: 0 success, 1 numeric/convergence failure, 2 usage error.

Flags may also be supplied through ``--config FILE`` (line-oriented
``key = value`` text, ``#`` comments); explicit flags win over the config
file, which wins over built-in defaults.
"""

from __future__ import annotations

import argparse
import dataclasses
import math
import os
import sys
from pathlib import Path

import numpy as np

from . import core, fitkit, geometry, pulsed, spectra, table
from .constants import angular_to_hz, hz_to_angular

__all__ = ["main", "build_parser"]


def _preset_dir() -> str | None:
    return os.environ.get("OMX_PRESET_DIR") or None


# --- config-file support -----------------------------------------------------
#
# Every optional flag registers its default and type here instead of in
# argparse, so a value can come from (in order of precedence) the command
# line, the --config file, or the default table.


class _Sub:
    def __init__(self, parser: argparse.ArgumentParser):
        self.parser = parser
        self.defaults: dict = {}
        self.types: dict = {}
        self.choices: dict = {}
        self.required: list[str] = []

    def add(self, *flags, default=None, type=str, required=False, choices=None,
            help=None, metavar=None, dest=None):
        if dest is None:
            dest = flags[0].lstrip("-").replace("-", "_")
        self.parser.add_argument(*flags, dest=dest, default=argparse.SUPPRESS,
                                 type=type, choices=choices, help=help,
                                 metavar=metavar)
        self.defaults[dest] = default
        self.types[dest] = type
        self.choices[dest] = choices
        if required:
            self.required.append(dest)

    def add_common_output(self):
        self.add("--out", default=None, help="output file (default: stdout)")
        self.add("--format", default="csv", choices=("csv", "json"),
                 help="output encoding (identical numeric content)")

    def add_config(self):
        self.add("--config", default=None, metavar="FILE",
                 help="key = value file supplying flag defaults")


def _read_config(path: str) -> dict:
    values = {}
    with open(path) as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected 'key = value'")
            key, _, val = line.partition("=")
            values[key.strip().replace("-", "_")] = val.strip()
    return values


def _merge_args(ns: argparse.Namespace) -> argparse.Namespace:
    sub: _Sub = ns._sub
    given = {k: v for k, v in vars(ns).items() if not k.startswith("_")}
    merged = dict(sub.defaults)
    config_path = given.get("config", merged.get("config"))
    if config_path:
        for key, raw in _read_config(config_path).items():
            if key in sub.defaults:
                merged[key] = sub.types[key](raw)
                if sub.choices[key] is not None and merged[key] not in sub.choices[key]:
                    raise ValueError(f"{config_path}: {key} = {raw!r} is not one of "
                                     f"{', '.join(sub.choices[key])}")
            else:
                print(f"warning: config key {key!r} not used by this command",
                      file=sys.stderr)
    merged.update(given)
    missing = [k for k in sub.required if merged.get(k) is None]
    if missing:
        flags = ", ".join("--" + k.replace("_", "-") for k in missing)
        raise ValueError(f"missing required flag(s): {flags}")
    return argparse.Namespace(**merged)


# --- shared loaders ----------------------------------------------------------


def _load_device(label: str) -> core.Device:
    return core.load_device(label, search_dir=_preset_dir())


def _load_heating(spec: str) -> core.HeatingParams:
    if spec == "default":
        return core.DEFAULT_HEATING
    if spec == "zero":
        return core.ZERO_HEATING
    return core._spec_file(spec, lambda data: core.HeatingParams(
        n_th0=core._number(data, "n_th0"),
        alpha_sat=core._number(data, "alpha_sat", 0.0),
        beta_sat=core._number(data, "beta_sat", 0.0),
        alpha_lin=core._number(data, "alpha_lin", 0.0),
    ))


def _load_kernel(spec: str) -> pulsed.HeatingKernel:
    if spec == "default":
        return pulsed.default_kernel()
    if spec == "zero":
        return pulsed.HeatingKernel(delta=0.0, tau_th=0.0, n_base=0.0)
    return core._spec_file(spec, lambda data: pulsed.HeatingKernel(
        delta=core._number(data, "delta"),
        tau_th=core._number(data, "tau_th_us") * 1e-6,
        n_base=core._number(data, "n_base", 0.0),
    ))


def _load_design(spec: str) -> geometry.DesignParams:
    if spec in geometry.DESIGN_PRESETS:
        return geometry.DESIGN_PRESETS[spec]
    if Path(spec).is_file():
        return geometry.load_design(spec)
    directory = _preset_dir()
    if directory is not None:
        candidate = Path(directory) / f"{spec}.json"
        if candidate.is_file():
            return geometry.load_design(candidate)
    raise KeyError(f"unknown design preset or file: {spec!r}")


# --- subcommand handlers -----------------------------------------------------


def _cmd_device(args) -> int:
    if args.action == "list":
        labels = sorted(core.DEVICE_PRESETS)
        directory = _preset_dir()
        if directory is not None and Path(directory).is_dir():
            for p in sorted(Path(directory).glob("*.json")):
                if p.stem not in labels:
                    labels.append(p.stem)
        for label in labels:
            print(label)
        return 0
    if args.label is None:
        raise ValueError(f"device {args.action} requires a preset label")
    device = _load_device(args.label)
    if args.action == "show":
        optical, mech = device.optical, device.mechanical
        rows = [
            ("label", device.label),
            ("omega_c_hz", angular_to_hz(optical.omega_c)),
            ("kappa_hz", angular_to_hz(optical.kappa)),
            ("kappa_e_hz", angular_to_hz(optical.kappa_e)),
            ("omega_m_hz", angular_to_hz(mech.omega_m)),
            ("gamma0_hz", angular_to_hz(mech.gamma_0)),
            ("g0_hz", angular_to_hz(device.g0)),
        ]
        if device.g0_alt is not None:
            rows.append(("g0_alt_hz", angular_to_hz(device.g0_alt)))
        rows += [
            ("q_opt", optical.q_opt),
            ("q_m", mech.q_m),
            ("omega_m_over_kappa", mech.omega_m / optical.kappa),
            ("sideband_resolved", device.sideband_resolved),
        ]
        for key, value in rows:
            print(f"{key} = {table.format_cell(value)}")
        return 0
    if args.action == "export":
        if args.path is None:
            raise ValueError("device export requires an output path")
        core.save_device(device, args.path)
        return 0
    raise ValueError(f"unknown device action {args.action!r}")


def _cmd_cool_curve(args) -> int:
    device = _load_device(args.device)
    heating = _load_heating(args.heating)
    core._check("nc-min", args.nc_min)
    core._check("nc-max", args.nc_max)
    if not 0 < args.nc_min < args.nc_max:
        raise ValueError("need 0 < nc-min < nc-max")
    core._check("points", args.points, ge=2)
    grid = np.geomspace(args.nc_min, args.nc_max, int(args.points))
    curve = core.cooling_curve(device, heating, grid)
    t_eff = core.temperature_from_occupancy(device.mechanical.omega_m, curve.n_m)
    table.write_table({"n_c": curve.n_c, "C": curve.cooperativity,
                       "gamma_eff_hz": angular_to_hz(curve.gamma_eff),
                       "n_m": curve.n_m, "t_eff_k": t_eff}, args.out, args.format)
    return 0


def _grid_hz(flag: str, lo: float, hi: float, points: int) -> np.ndarray:
    """``points`` cyclic frequencies from ``lo`` to ``hi``. The ends and the step
    must stay finite in rad/s: a grid of inf or nan is a usage error."""
    if not all(map(math.isfinite, (hz_to_angular(lo), hz_to_angular(hi),
                                   hz_to_angular(hi - lo)))):
        raise ValueError(f"{flag} gives a grid beyond the float range "
                         f"({lo!r} to {hi!r} Hz)")
    return np.linspace(lo, hi, int(points))


def _probe_grid(device: core.Device, span_hz: float, points: int) -> np.ndarray:
    core._check("span-hz", span_hz, positive=True)
    core._check("points", points, ge=2)
    f_m = angular_to_hz(device.mechanical.omega_m)
    return hz_to_angular(_grid_hz("span-hz", f_m - span_hz / 2.0, f_m + span_hz / 2.0,
                                  points))


def _cmd_omit(args) -> int:
    device = _load_device(args.device)
    if args.detuning_hz is None:
        detuning = -device.mechanical.omega_m
    else:
        core._check("detuning-hz", args.detuning_hz)
        detuning = core._check("detuning-hz in rad/s", hz_to_angular(args.detuning_hz))
    probe = _probe_grid(device, args.span_hz, args.points)
    trace = spectra.omit_reflection(device, args.nc, detuning, probe)
    table.write_table(spectra.trace_columns(trace), args.out, args.format)
    return 0


def _cmd_omit_map(args) -> int:
    device = _load_device(args.device)
    f_m = angular_to_hz(device.mechanical.omega_m)
    lo = -1.5 * f_m if args.detuning_min_hz is None else args.detuning_min_hz
    hi = -0.5 * f_m if args.detuning_max_hz is None else args.detuning_max_hz
    core._check("detuning-min-hz", lo)
    core._check("detuning-max-hz", hi)
    if not hi > lo:
        raise ValueError("need detuning-min-hz < detuning-max-hz")
    core._check("detuning-points", args.detuning_points, ge=2)
    probe = _probe_grid(device, args.span_hz, args.points)
    detunings_hz = _grid_hz("detuning-min-hz/detuning-max-hz", lo, hi,
                            args.detuning_points)
    mag = np.abs(spectra.omit_reflection_map(device, args.nc, hz_to_angular(detunings_hz),
                                             probe))
    table.write_table({"detuning_hz": np.repeat(detunings_hz, probe.size),
                       "freq_hz": np.tile(angular_to_hz(probe), detunings_hz.size),
                       "mag": mag.ravel()}, args.out, args.format)
    return 0


def _cmd_pulse_sim(args) -> int:
    device = _load_device(args.device)
    kernel = _load_kernel(args.kernel)
    tau = args.tau_ns * 1e-9
    window = tau if args.window_ns is None else args.window_ns * 1e-9
    train = pulsed.PulseTrain(
        tau=tau,
        rep_rate=args.rep_rate,
        peak_power=args.peak_power,
        detuning_sign=args.detuning,
        n_pulses=int(args.pulses),
    )
    chain = pulsed.DetectionChain(eta=args.eta, dark_rate=args.dark_rate,
                                  window=window)
    sign = -1.0 if args.detuning == "red" else 1.0
    drive = core.Drive.at_detuning(device.optical, sign * device.mechanical.omega_m,
                                   on_chip_power=args.peak_power)
    n_c = core.intracavity_photons(device.optical, drive)
    clicks = pulsed.simulate_clicks(device, train, chain, kernel, n_c,
                                    seed=int(args.seed), workers=int(args.workers))
    table.write_table(pulsed.click_columns(clicks), args.out, args.format)
    return 0


def _cmd_estimate(args) -> int:
    core._check("pulses", args.pulses, ge=1)
    blue = pulsed.read_clicks_csv(args.blue)
    red = pulsed.read_clicks_csv(args.red)
    for clicks in (blue, red):  # a contradicting file is an input error, not exit 1
        clicks.check_within(int(args.pulses))
    chain = pulsed.DetectionChain(dark_rate=args.dark_rate,
                                  window=args.window_ns * 1e-9)
    try:
        result = pulsed.estimate_occupancy(blue, red, int(args.pulses), chain)
    except ValueError as exc:
        raise RuntimeError(str(exc)) from exc
    table.write_json(dataclasses.asdict(result), args.out)
    return 0


def _cmd_histogram(args) -> int:
    window = args.window_ns * 1e-9
    bin_width = args.bin_ns * 1e-9
    blue, red = (pulsed.histogram(pulsed.read_clicks_csv(path), bin_width,
                                  int(args.pulses), window)
                 for path in (args.blue, args.red))
    columns = pulsed.histogram_columns(blue.bin_start, pulsed.combined_rate(blue),
                                       pulsed.combined_rate(red))
    table.write_table(columns, args.out, args.format)
    return 0


def _cmd_taper(args) -> int:
    design = _load_design(args.device)
    core._check("cells", args.cells, ge=1)
    schedule = geometry.generate_schedule(design, n_cells=int(args.cells))
    table.write_table(geometry.schedule_columns(schedule), args.out, args.format)
    return 0


def _resolve_rates(args, device: core.Device | None):
    kappa = None if args.kappa_hz is None else hz_to_angular(args.kappa_hz)
    gamma0 = None if args.gamma0_hz is None else hz_to_angular(args.gamma0_hz)
    if device is not None:
        kappa = device.optical.kappa if kappa is None else kappa
        gamma0 = device.mechanical.gamma_0 if gamma0 is None else gamma0
    if kappa is None or gamma0 is None:
        raise ValueError("g0 fit needs --device or both --kappa-hz and --gamma0-hz")
    return kappa, gamma0


def _cmd_fit(args) -> int:
    out: dict = {"fit": args.kind}
    if args.kind in ("lorentzian", "fano"):
        trace = spectra.read_trace_csv(args.in_path)
        if args.kind == "lorentzian":
            result = fitkit.fit_lorentzian(trace)
            angular = ("center", "fwhm", "area")
        else:
            result = fitkit.fit_fano(trace)
            angular = ("center", "width")
    elif args.kind == "g0":
        data = table.read_table(args.in_path)
        if "n_c" not in data or "gamma_m_hz" not in data:
            raise ValueError("g0 fit input needs columns n_c,gamma_m_hz[,sigma_hz]")
        if args.branch is None:
            raise ValueError("g0 fit requires --branch red|blue")
        device = None if args.device is None else _load_device(args.device)
        kappa, gamma0 = _resolve_rates(args, device)
        sigma = (hz_to_angular(data["sigma_hz"]) if "sigma_hz" in data else None)
        result = fitkit.fit_g0_from_linewidths(
            data["n_c"], hz_to_angular(data["gamma_m_hz"]), kappa, gamma0,
            branch=args.branch, sigma=sigma)
        angular = ("slope", "g0")
    elif args.kind == "heating":
        data = table.read_table(args.in_path)
        if "n_c" not in data or "n_m" not in data:
            raise ValueError("heating fit input needs columns n_c,n_m")
        device = _load_device(args.device if args.device is not None else "A")
        n_th0 = None if args.n_th0 == "free" else float(args.n_th0)
        result = fitkit.fit_heating_params(data["n_c"], data["n_m"], device,
                                           n_th0=n_th0)
        angular = ()
    else:  # pragma: no cover - argparse choices guard this
        raise ValueError(f"unknown fit kind {args.kind!r}")
    out.update(fitkit.result_to_json(result, angular=angular))
    table.write_json(out, args.out)
    if not result.converged:
        print(f"error: fit did not converge: {result.message}", file=sys.stderr)
        return 1
    return 0


# --- parser ------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="omx",
        description="Sideband-resolved optomechanics: simulation and analysis tools.",
    )
    subparsers = parser.add_subparsers(dest="_command", metavar="command")

    def new(name: str, func, help: str) -> _Sub:
        p = subparsers.add_parser(name, help=help, description=help)
        sub = _Sub(p)
        p.set_defaults(_func=func, _sub=sub)
        sub.add_config()
        return sub

    sub = new("device", _cmd_device, "List, inspect or export device presets.")
    sub.parser.add_argument("action", choices=("list", "show", "export"))
    sub.parser.add_argument("label", nargs="?", default=None)
    sub.parser.add_argument("path", nargs="?", default=None)

    sub = new("cool-curve", _cmd_cool_curve,
              "Sideband-cooling curve over a photon-number grid.")
    sub.add("--device", default="A")
    sub.add("--nc-min", default=0.01, type=float)
    sub.add("--nc-max", default=1e4, type=float)
    sub.add("--points", default=200, type=int)
    sub.add("--heating", default="default",
            help="'default', 'zero', or a heating-parameter JSON file")
    sub.add_common_output()

    sub = new("omit", _cmd_omit,
              "Coherent reflection spectrum at one pump detuning.")
    sub.add("--device", default="A")
    sub.add("--nc", type=float, required=True)
    sub.add("--detuning-hz", default=None, type=float,
            help="pump detuning (default: -omega_m)")
    sub.add("--span-hz", default=2e9, type=float)
    sub.add("--points", default=2001, type=int)
    sub.add_common_output()

    sub = new("omit-map", _cmd_omit_map,
              "Reflection magnitude over a detuning x probe-frequency grid.")
    sub.add("--device", default="A")
    sub.add("--nc", type=float, required=True)
    sub.add("--detuning-min-hz", default=None, type=float)
    sub.add("--detuning-max-hz", default=None, type=float)
    sub.add("--detuning-points", default=41, type=int)
    sub.add("--span-hz", default=2e9, type=float)
    sub.add("--points", default=201, type=int)
    sub.add_common_output()

    sub = new("pulse-sim", _cmd_pulse_sim,
              "Simulate a time-tagged click stream for one pulse train.")
    sub.add("--device", default="B")
    sub.add("--rep-rate", default=188e3, type=float)
    sub.add("--tau-ns", default=80.0, type=float)
    sub.add("--peak-power", default=7.4e-6, type=float, help="on-chip peak power (W)")
    sub.add("--pulses", default=100000, type=int)
    sub.add("--seed", default=0, type=int)
    sub.add("--detuning", default="blue", choices=("red", "blue"))
    sub.add("--kernel", default="default",
            help="'default', 'zero', or a kernel JSON file")
    sub.add("--eta", default=0.05, type=float)
    sub.add("--dark-rate", default=5.0, type=float)
    sub.add("--window-ns", default=None, type=float,
            help="detection gate (default: tau-ns)")
    sub.add("--workers", default=1, type=int)
    sub.add_common_output()

    sub = new("estimate", _cmd_estimate,
              "Occupancy from blue/red click streams (sideband asymmetry).")
    sub.add("--blue", required=True, help="blue-train click CSV")
    sub.add("--red", required=True, help="red-train click CSV")
    sub.add("--pulses", type=int, required=True, help="pulses per stream")
    sub.add("--dark-rate", default=5.0, type=float)
    sub.add("--window-ns", default=80.0, type=float)
    sub.add("--out", default=None)

    sub = new("histogram", _cmd_histogram,
              "Per-bin click rates for a blue and a red stream.")
    sub.add("--blue", required=True)
    sub.add("--red", required=True)
    sub.add("--pulses", type=int, required=True)
    sub.add("--bin-ns", default=4.0, type=float)
    sub.add("--window-ns", default=80.0, type=float)
    sub.add_common_output()

    sub = new("taper", _cmd_taper, "Adiabatic taper schedule for d and h.")
    sub.add("--device", default="B", help="design preset label or JSON file")
    sub.add("--cells", default=17, type=int)
    sub.add_common_output()

    sub = new("fit", _cmd_fit, "Least-squares fits; writes a FitResult JSON.")
    sub.parser.add_argument("kind", choices=("lorentzian", "fano", "g0", "heating"))
    sub.add("--in", dest="in_path", default=None, required=True, metavar="CSV")
    sub.add("--branch", default=None, choices=("red", "blue"))
    sub.add("--device", default=None)
    sub.add("--kappa-hz", default=None, type=float)
    sub.add("--gamma0-hz", default=None, type=float)
    sub.add("--n-th0", default=repr(core.DEFAULT_HEATING.n_th0),
            help="fixed base occupancy or 'free'")
    sub.add("--out", default=None)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        ns = parser.parse_args(argv)
    except SystemExit as exc:
        code = exc.code
        return code if isinstance(code, int) else (0 if code is None else 2)
    if getattr(ns, "_func", None) is None:
        parser.print_help()
        return 2
    try:
        args = _merge_args(ns)
        return ns._func(args)
    except KeyError as exc:
        print(f"error: {exc.args[0] if exc.args else exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        message = f"{exc.filename}: {exc.strerror}" if exc.filename else exc
        print(f"error: {message}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (RuntimeError, ArithmeticError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
