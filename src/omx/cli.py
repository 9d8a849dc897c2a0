"""Command-line interface.

One executable with subcommands covering presets, cooling curves, coherent
reflection spectra, pulsed click simulation/estimation, taper schedules and
the fitting helpers. Frequencies on the command line and in every file are
cyclic Hz (times in ns, lengths in nm). A flag is converted to the angular
units used internally here; a file is converted by its type's column and JSON
helpers (``spec``, ``spectra``, ``fitkit``).

Exit codes: 0 success, 1 numeric/convergence failure, 2 usage error, 130 on
Ctrl-C and 141 when the reader of stdout closes it early (128 + SIGINT and
128 + SIGPIPE, as shells and GNU tools report).

Flags may also be supplied through ``--config FILE`` (line-oriented
``key = value`` text, ``#`` comments); explicit flags win over the config
file, which wins over built-in defaults.
"""

from __future__ import annotations

import argparse
import contextlib
import os
import sys
import warnings
from pathlib import Path

# numpy's OpenBLAS starts a worker thread per extra CPU at import, and no
# command makes a BLAS call large enough to use one: run it on one thread.
# OpenBLAS reads these three variables in this order, so a count the user set
# in any of them wins; once numpy is loaded the setting can no longer take
# effect, so such a process keeps its environment.
_BLAS_THREADS = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")
if "numpy" not in sys.modules and not any(name in os.environ for name in _BLAS_THREADS):
    os.environ["OPENBLAS_NUM_THREADS"] = "1"

# A handler reaches each omx module as ``omx.<module>``, which the package's
# __getattr__ imports on first use, and numpy by a local import: a command loads
# only what it runs, and parsing or listing presets loads no numpy
import omx
from .constants import angular_to_hz, hz_to_angular

__all__ = ["main", "run", "build_parser"]


# The most rows, bins or cells a size flag may ask for, checked before anything
# is allocated: a table of this many rows and a few float columns takes about a
# GB to build and write. Beyond it a command exits 2 naming the flag.
_MAX_ROWS = 10**7


def _preset_dir() -> str | None:
    return os.environ.get("OMX_PRESET_DIR") or None


# --- config-file support -----------------------------------------------------


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


def _flags(parser: argparse.ArgumentParser) -> dict:
    """The optional flags of ``parser`` (``--help`` aside), by dest and by long
    option in config-key form: ``in`` and ``in_path`` both name ``--in``."""
    flags = {}
    for action in parser._actions:
        if action.option_strings and action.dest != "help":
            flags[action.dest] = action
            flags.update((opt[2:].replace("-", "_"), action)
                         for opt in action.option_strings if opt.startswith("--"))
    return flags


def _config_defaults(parser: argparse.ArgumentParser, path: str) -> dict:
    """The ``--config`` file's values, each converted by its flag's own ``type``
    and checked against its ``choices``; a key naming no optional flag warns."""
    flags = _flags(parser)
    values = {}
    for key, raw in _read_config(path).items():
        if (action := flags.get(key)) is None:
            print(f"warning: config key {key!r} not used by this command", file=sys.stderr)
            continue
        value = values[action.dest] = (action.type or str)(raw)
        if action.choices is not None and value not in action.choices:
            raise ValueError(f"{path}: {key} = {raw!r} is not one of "
                             f"{', '.join(action.choices)}")
    return values


# --- shared loaders ----------------------------------------------------------


def _load_device(label: str) -> omx.spec.Device:
    return omx.spec.load_device(label, search_dir=_preset_dir())


def _load_heating(name: str) -> omx.spec.HeatingParams:
    presets = {"default": omx.spec.DEFAULT_HEATING, "zero": omx.spec.ZERO_HEATING}
    return omx.spec._resolve("heating", name, presets, lambda data: omx.spec.HeatingParams(
        n_th0=omx.spec._number(data, "n_th0"),
        alpha_sat=omx.spec._number(data, "alpha_sat", 0.0),
        beta_sat=omx.spec._number(data, "beta_sat", 0.0),
        alpha_lin=omx.spec._number(data, "alpha_lin", 0.0),
    ))


def _load_kernel(name: str) -> omx.pulsed.HeatingKernel:
    presets = {"default": omx.pulsed.default_kernel(),
               "zero": omx.pulsed.HeatingKernel(delta=0.0, tau_th=0.0, n_base=0.0)}
    return omx.spec._resolve("kernel", name, presets, lambda data: omx.pulsed.HeatingKernel(
        delta=omx.spec._number(data, "delta"),
        tau_th=omx.spec._number(data, "tau_th_us") * 1e-6,
        n_base=omx.spec._number(data, "n_base", 0.0),
    ))


def _load_design(name: str) -> omx.geometry.DesignParams:
    return omx.spec._resolve("design", name, omx.geometry.DESIGN_PRESETS,
                             omx.geometry.design_from_json, _preset_dir())


# --- subcommand handlers -----------------------------------------------------
# Each returns (output, failure): the columns or JSON payload that main writes
# (None if it printed its own text) and an error main reports after it, or None.


def _cmd_device(args) -> tuple:
    if args.action == "list":
        labels = sorted(omx.spec.DEVICE_PRESETS)
        directory = _preset_dir()
        if directory is not None and Path(directory).is_dir():
            for p in sorted(Path(directory).glob("*.json")):
                if p.stem not in labels:  # listed only if it reads as a device
                    with contextlib.suppress(OSError, ValueError):
                        omx.spec._spec_file(p, omx.spec.device_from_json)
                        labels.append(p.stem)
        for label in labels:
            print(label)
        return None, None
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
        for key, value in rows:  # a float's str is its repr, as in a table cell
            print(f"{key} = {str(value).lower() if isinstance(value, bool) else value}")
        return None, None
    if args.action == "export":
        if args.path is None:
            raise ValueError("device export requires an output path")
        omx.core.save_device(device, args.path)
        return None, None
    raise ValueError(f"unknown device action {args.action!r}")


def _cmd_cool_curve(args) -> tuple:
    import numpy as np

    device = _load_device(args.device)
    heating = _load_heating(args.heating)
    omx.core._check("nc-min", args.nc_min)
    omx.core._check("nc-max", args.nc_max)
    if not 0 < args.nc_min < args.nc_max:
        raise ValueError("need 0 < nc-min < nc-max")
    omx.core._check("points", args.points, within=(2, _MAX_ROWS))
    # the grid is whole (a geomspace per chunk would change its bits) and checked
    # here, before --out is opened; each other column computes only what it needs
    # of a row range, and the t_eff_k of a CSV chunk reads the n_m just computed
    grid = omx.core._cooling_grid(device, heating,
                                  np.geomspace(args.nc_min, args.nc_max, args.points))
    omega_m = device.mechanical.omega_m

    def rows(fn) -> omx.table.Rows:
        return omx.table.Rows(grid.size, fn)

    n_m = rows(lambda a, b: omx.core.heating_model_occupancy(device, heating, grid[a:b]))
    for start in range(0, grid.size, omx.table.CHUNK_ROWS):  # t_eff_k's own check
        omx.core._check("occupancy", n_m[start:start + omx.table.CHUNK_ROWS], positive=True)
    return {"n_c": grid,
            "C": rows(lambda a, b: omx.core.cooperativity(device, grid[a:b])),
            "gamma_eff_hz": rows(lambda a, b: angular_to_hz(
                omx.core.backaction(device, grid[a:b], -omega_m).gamma_eff)),
            "n_m": n_m,
            "t_eff_k": rows(lambda a, b: omx.core.temperature_from_occupancy(
                omega_m, n_m[a:b]))}, None


def _grid_hz(flag: str, lo: float, hi: float, points: int) -> np.ndarray:
    """``points`` cyclic frequencies from ``lo`` to ``hi``. The ends and the step
    must stay finite in rad/s: a grid of inf or nan is a usage error."""
    import numpy as np

    omx.core._finite(hz_to_angular(max(abs(lo), abs(hi), abs(hi - lo))),
                     f"{flag} gives a grid beyond the float range ({lo!r} to {hi!r} Hz)")
    return np.linspace(lo, hi, points)


def _probe_grid(device: omx.spec.Device, span_hz: float, points: int) -> np.ndarray:
    omx.core._check("span-hz", span_hz, positive=True)
    omx.core._check("points", points, within=(2, _MAX_ROWS))
    f_m = angular_to_hz(device.mechanical.omega_m)
    return hz_to_angular(_grid_hz("span-hz", f_m - span_hz / 2.0, f_m + span_hz / 2.0,
                                  points))


def _cmd_omit(args) -> tuple:
    device = _load_device(args.device)
    if args.detuning_hz is None:
        detuning = -device.mechanical.omega_m
    else:
        detuning = omx.core._angular("detuning-hz", args.detuning_hz)
    probe = _probe_grid(device, args.span_hz, args.points)
    trace = omx.spectra.omit_reflection(device, args.nc, detuning, probe)
    return omx.spectra.trace_columns(trace), None


def _cmd_omit_map(args) -> tuple:
    import numpy as np

    device = _load_device(args.device)
    f_m = angular_to_hz(device.mechanical.omega_m)
    lo = -1.5 * f_m if args.detuning_min_hz is None else args.detuning_min_hz
    hi = -0.5 * f_m if args.detuning_max_hz is None else args.detuning_max_hz
    omx.core._check("detuning-min-hz", lo)
    omx.core._check("detuning-max-hz", hi)
    if not hi > lo:
        raise ValueError("need detuning-min-hz < detuning-max-hz")
    omx.core._check("detuning-points", args.detuning_points, within=(2, _MAX_ROWS))
    probe = _probe_grid(device, args.span_hz, args.points)
    omx.core._check("points x detuning-points", probe.size * args.detuning_points,
                    within=(4, _MAX_ROWS))
    detunings_hz = _grid_hz("detuning-min-hz/detuning-max-hz", lo, hi,
                            args.detuning_points)
    freq_hz, n = angular_to_hz(probe), probe.size

    def mag(d: np.ndarray) -> np.ndarray:
        return np.abs(omx.spectra.omit_reflection_map(device, args.nc, hz_to_angular(d), probe))

    mag(detunings_hz[:0])  # checks n_c here, before --out is opened

    def rows(block) -> omx.table.Rows:  # a column made by block(detunings) of whole rows
        def compute(start: int, stop: int) -> np.ndarray:
            first = start // n
            values = block(detunings_hz[first:-(-stop // n)]).ravel()
            return values[start - first * n:stop - first * n]
        return omx.table.Rows(detunings_hz.size * n, compute)

    return {"detuning_hz": rows(lambda d: np.repeat(d, n)),
            "freq_hz": rows(lambda d: np.tile(freq_hz, d.size)),
            "mag": rows(mag)}, None


def _cmd_pulse_sim(args) -> tuple:
    import numpy as np

    omx.core._check("pulses", args.pulses, within=(1, _MAX_ROWS * omx.pulsed.BLOCK_PULSES))
    device = _load_device(args.device)
    kernel = _load_kernel(args.kernel)
    tau = args.tau_ns * 1e-9
    window = tau if args.window_ns is None else args.window_ns * 1e-9
    train = omx.pulsed.PulseTrain(
        tau=tau,
        rep_rate=args.rep_rate,
        peak_power=args.peak_power,
        detuning_sign=args.detuning,
        n_pulses=args.pulses,
    )
    chain = omx.pulsed.DetectionChain(eta=args.eta, dark_rate=args.dark_rate, window=window)
    sign = -1.0 if args.detuning == "red" else 1.0
    drive = omx.core.Drive.at_detuning(device.optical, sign * device.mechanical.omega_m,
                                       on_chip_power=args.peak_power)
    beyond = f"--peak-power {args.peak_power!r} gives {{}} beyond the float range"
    n_c = omx.core._finite(omx.core.intracavity_photons(device.optical, drive),
                           beyond.format("an intracavity photon number"))
    p_s, _, side = omx.pulsed._means(device, train, chain, kernel, n_c)
    omx.core._finite(p_s, beyond.format("a scattering probability"))
    dark = f"--dark-rate {args.dark_rate!r}"
    if args.window_ns is not None:
        dark += f" with --window-ns {args.window_ns!r}"
    for given, mean in ((f"--peak-power {args.peak_power!r}", side),
                        (dark, chain.dark_per_pulse)):
        try:  # a draw of no samples checks the mean as Generator.poisson does
            np.random.default_rng(0).poisson(mean, 0)
        except ValueError:
            raise ValueError(f"{given} gives {mean:.3g} counts per pulse, "
                             "beyond the Poisson sampler's range") from None
    omx.core._check("pulses x counts per pulse", args.pulses * (side + chain.dark_per_pulse),
                    within=(0, _MAX_ROWS))
    clicks = omx.pulsed.simulate_clicks(device, train, chain, kernel, n_c,
                                        seed=args.seed, workers=args.workers)
    return omx.pulsed.click_columns(clicks), None


def _cmd_estimate(args) -> tuple:
    omx.core._check("pulses", args.pulses, ge=1)
    blue = omx.pulsed.read_clicks_csv(args.blue)
    red = omx.pulsed.read_clicks_csv(args.red)
    for clicks in (blue, red):  # a contradicting file is an input error, not exit 1
        clicks.check_within(args.pulses)
    chain = omx.pulsed.DetectionChain(dark_rate=args.dark_rate, window=args.window_ns * 1e-9)
    try:  # the files are checked: pass their counts, not a second scan
        result = omx.pulsed.estimate_occupancy(len(blue), len(red), args.pulses, chain)
    except ValueError as exc:
        raise RuntimeError(str(exc)) from exc
    return dict(vars(result)), None


def _cmd_histogram(args) -> tuple:
    omx.core._check("window-ns", args.window_ns, positive=True)
    omx.core._check("bin-ns", args.bin_ns, positive=True)
    omx.core._check("window-ns / bin-ns", args.window_ns / args.bin_ns, within=(0, _MAX_ROWS))
    window = args.window_ns * 1e-9
    bin_width = args.bin_ns * 1e-9
    blue, red = (omx.pulsed.histogram(omx.pulsed.read_clicks_csv(path), bin_width,
                                      args.pulses, window)
                 for path in (args.blue, args.red))
    return omx.pulsed.histogram_columns(blue.bin_start, omx.pulsed.combined_rate(blue),
                                        omx.pulsed.combined_rate(red)), None


def _cmd_taper(args) -> tuple:
    design = _load_design(args.device)
    omx.core._check("cells", args.cells, within=(1, _MAX_ROWS))
    schedule = omx.geometry.generate_schedule(design, n_cells=args.cells)
    return omx.geometry.schedule_columns(schedule), None


def _resolve_rates(args, device: omx.spec.Device | None):
    kappa = None if args.kappa_hz is None else omx.core._angular("kappa-hz", args.kappa_hz)
    gamma0 = None if args.gamma0_hz is None else omx.core._angular("gamma0-hz", args.gamma0_hz)
    if device is not None:
        kappa = device.optical.kappa if kappa is None else kappa
        gamma0 = device.mechanical.gamma_0 if gamma0 is None else gamma0
    if kappa is None or gamma0 is None:
        raise ValueError("g0 fit needs --device or both --kappa-hz and --gamma0-hz")
    return kappa, gamma0


def _cmd_fit(args) -> tuple:
    out: dict = {"fit": args.kind}
    if args.kind in ("lorentzian", "fano"):
        trace = omx.spectra.read_trace_csv(args.in_path)
        if args.kind == "lorentzian":
            result = omx.fitkit.fit_lorentzian(trace)
            angular = ("center", "fwhm", "area")
        else:
            result = omx.fitkit.fit_fano(trace)
            angular = ("center", "width")
    elif args.kind == "g0":
        data = omx.table.read_table(args.in_path)
        if "n_c" not in data or "gamma_m_hz" not in data:
            raise ValueError("g0 fit input needs columns n_c,gamma_m_hz[,sigma_hz]")
        if args.branch is None:
            raise ValueError("g0 fit requires --branch red|blue")
        device = None if args.device is None else _load_device(args.device)
        kappa, gamma0 = _resolve_rates(args, device)
        sigma = (omx.core._angular("sigma_hz", data["sigma_hz"], positive=True)
                 if "sigma_hz" in data else None)
        result = omx.fitkit.fit_g0_from_linewidths(
            data["n_c"], omx.core._angular("gamma_m_hz", data["gamma_m_hz"]), kappa, gamma0,
            branch=args.branch, sigma=sigma)
        angular = ("slope", "g0")
    elif args.kind == "heating":
        data = omx.table.read_table(args.in_path)
        if "n_c" not in data or "n_m" not in data:
            raise ValueError("heating fit input needs columns n_c,n_m")
        n_c, n_m = data["n_c"], data["n_m"]
        del data  # a cool-curve table's other columns are not held through the fit
        device = _load_device(args.device if args.device is not None else "A")
        n_th0 = (omx.core.DEFAULT_HEATING.n_th0 if args.n_th0 is None
                 else None if args.n_th0 == "free" else float(args.n_th0))
        result = omx.fitkit.fit_heating_params(n_c, n_m, device, n_th0=n_th0)
        angular = ()
    else:  # pragma: no cover - argparse choices guard this
        raise ValueError(f"unknown fit kind {args.kind!r}")
    out.update(omx.fitkit.result_to_json(result, angular=angular))
    return out, None if result.converged else f"fit did not converge: {result.message}"


# --- parser ------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="omx",
        description="Sideband-resolved optomechanics: simulation and analysis tools.",
    )
    parser.add_argument("--version", action="version", version=f"omx {omx.__version__}")
    subparsers = parser.add_subparsers(dest="_command", metavar="command")

    def new(name: str, func, help: str, required=()) -> argparse.ArgumentParser:
        # required flags may come from --config, so main checks them, not argparse
        p = subparsers.add_parser(name, help=help, description=help)
        p.set_defaults(_func=func, _parser=p, _required=required)
        p.add_argument("--config", metavar="FILE",
                       help="key = value file supplying flag defaults")
        return p

    def output(p: argparse.ArgumentParser) -> None:
        p.add_argument("--out", help="output file (default: stdout)")
        p.add_argument("--format", default="csv", choices=("csv", "json"),
                       help="output encoding (identical numeric content)")

    p = new("device", _cmd_device, "List, inspect or export device presets.")
    p.add_argument("action", choices=("list", "show", "export"))
    p.add_argument("label", nargs="?", default=None)
    p.add_argument("path", nargs="?", default=None)

    p = new("cool-curve", _cmd_cool_curve, "Sideband-cooling curve over a photon-number grid.")
    p.add_argument("--device", default="A")
    p.add_argument("--nc-min", default=0.01, type=float)
    p.add_argument("--nc-max", default=1e4, type=float)
    p.add_argument("--points", default=200, type=int)
    p.add_argument("--heating", default="default",
                   help="'default', 'zero', or a heating-parameter JSON file")
    output(p)

    p = new("omit", _cmd_omit, "Coherent reflection spectrum at one pump detuning.",
            required=("nc",))
    p.add_argument("--device", default="A")
    p.add_argument("--nc", type=float)
    p.add_argument("--detuning-hz", type=float, help="pump detuning (default: -omega_m)")
    p.add_argument("--span-hz", default=2e9, type=float)
    p.add_argument("--points", default=2001, type=int)
    output(p)

    p = new("omit-map", _cmd_omit_map,
            "Reflection magnitude over a detuning x probe-frequency grid.", required=("nc",))
    p.add_argument("--device", default="A")
    p.add_argument("--nc", type=float)
    p.add_argument("--detuning-min-hz", type=float)
    p.add_argument("--detuning-max-hz", type=float)
    p.add_argument("--detuning-points", default=41, type=int)
    p.add_argument("--span-hz", default=2e9, type=float)
    p.add_argument("--points", default=201, type=int)
    output(p)

    p = new("pulse-sim", _cmd_pulse_sim,
            "Simulate a time-tagged click stream for one pulse train.")
    p.add_argument("--device", default="B")
    p.add_argument("--rep-rate", default=188e3, type=float)
    p.add_argument("--tau-ns", default=80.0, type=float)
    p.add_argument("--peak-power", default=7.4e-6, type=float, help="on-chip peak power (W)")
    p.add_argument("--pulses", default=100000, type=int)
    p.add_argument("--seed", default=0, type=int)
    p.add_argument("--detuning", default="blue", choices=("red", "blue"))
    p.add_argument("--kernel", default="default",
                   help="'default', 'zero', or a kernel JSON file")
    p.add_argument("--eta", default=0.05, type=float)
    p.add_argument("--dark-rate", default=5.0, type=float)
    p.add_argument("--window-ns", type=float, help="detection gate (default: tau-ns)")
    p.add_argument("--workers", default=1, type=int)
    output(p)

    p = new("estimate", _cmd_estimate,
            "Occupancy from blue/red click streams (sideband asymmetry).",
            required=("blue", "red", "pulses"))
    p.add_argument("--blue", help="blue-train click CSV")
    p.add_argument("--red", help="red-train click CSV")
    p.add_argument("--pulses", type=int, help="pulses per stream")
    p.add_argument("--dark-rate", default=5.0, type=float)
    p.add_argument("--window-ns", default=80.0, type=float)
    p.add_argument("--out")

    p = new("histogram", _cmd_histogram, "Per-bin click rates for a blue and a red stream.",
            required=("blue", "red", "pulses"))
    p.add_argument("--blue")
    p.add_argument("--red")
    p.add_argument("--pulses", type=int)
    p.add_argument("--bin-ns", default=4.0, type=float)
    p.add_argument("--window-ns", default=80.0, type=float)
    output(p)

    p = new("taper", _cmd_taper, "Adiabatic taper schedule for d and h.")
    p.add_argument("--device", default="B", help="design preset label or JSON file")
    p.add_argument("--cells", default=17, type=int)
    output(p)

    p = new("fit", _cmd_fit, "Least-squares fits; writes a FitResult JSON.",
            required=("in_path",))
    p.add_argument("kind", choices=("lorentzian", "fano", "g0", "heating"))
    p.add_argument("--in", dest="in_path", metavar="CSV")
    p.add_argument("--branch", choices=("red", "blue"))
    p.add_argument("--device")
    p.add_argument("--kappa-hz", type=float)
    p.add_argument("--gamma0-hz", type=float)
    p.add_argument("--n-th0", help="fixed base occupancy or 'free'")
    p.add_argument("--out")

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        code = exc.code
        return code if isinstance(code, int) else (0 if code is None else 2)
    if getattr(args, "_func", None) is None:
        parser.print_help()
        return 2
    formatwarning = warnings.formatwarning  # a regime warning prints as one line
    warnings.formatwarning = lambda message, *_: f"warning: {message}\n"
    try:
        if args.config is not None:  # config values become defaults; flags still win
            args._parser.set_defaults(**_config_defaults(args._parser, args.config))
            args = parser.parse_args(argv)
        missing = [_flags(args._parser)[k].option_strings[0] for k in args._required
                   if getattr(args, k) is None]
        if missing:
            raise ValueError(f"missing required flag(s): {', '.join(missing)}")
        output, failure = args._func(args)
        if output is not None:
            if "format" in args:
                omx.table.write_table(output, args.out, args.format)
            else:
                omx.table.write_json(output, args.out)
        sys.stdout.flush()  # a closed pipe fails here, as exit 141 below
        if failure is not None:
            print(f"error: {failure}", file=sys.stderr)
        return 0 if failure is None else 1
    except BrokenPipeError:  # the reader has gone: end silently, as a SIGPIPE exit
        return 141
    except KeyboardInterrupt:  # Ctrl-C: the shell's SIGINT status, and no traceback
        return 130
    except KeyError as exc:
        print(f"error: {exc.args[0] if exc.args else exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        message = f"{exc.filename}: {exc.strerror}" if exc.filename else exc
        print(f"error: {message}", file=sys.stderr)
        return 2
    except (RuntimeError, ArithmeticError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)  # numeric failure
        return 1
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        linalg = sys.modules.get("numpy.linalg")  # its LinAlgError is a numeric failure
        return 1 if linalg is not None and isinstance(exc, linalg.LinAlgError) else 2
    finally:
        warnings.formatwarning = formatwarning


def run() -> None:
    """The ``omx`` command: ``main``, then the process exits without tearing the
    interpreter down, numpy's modules above all, which is a large share of a
    small command's time. By then every output is closed, forked encoders are
    reaped and pools are joined, so only the two standard streams are left to
    flush; a reader gone from either makes the exit 141."""
    code = main()
    for stream in (sys.stdout, sys.stderr):
        try:
            stream.flush()
        except BrokenPipeError:
            code = 141
    os._exit(code)


if __name__ == "__main__":
    run()
