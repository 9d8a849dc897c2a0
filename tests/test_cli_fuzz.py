"""Property test of the CLI contract: every command either succeeds with
finite output or exits 1 (numeric failure) or 2 (usage or input error), and
a non-finite number on the command line, or a value in a JSON spec file that
is not a finite number, is always a usage error, as is a flag whose derived
value overflows. The fits also read input files with extreme finite values
(+-1e308, n_c = 1e200, sigma_hz <= 0). No run prints a traceback or a numpy
RuntimeWarning."""

import contextlib
import io
import json
import math
import warnings

import numpy as np
import pytest

from hypothesis import given, settings
from hypothesis import strategies as st

from omx import core, geometry
from omx.cli import main

SPECIAL = ("nan", "inf", "-inf", "0", "-1", "1e308")
# spec field values that are not a finite number (NaN is written as a bare token)
BAD_VALUES = (math.nan, None, "x", True, [], 10**400)

# float flags of each command, with values the command accepts; only flags the
# command reads are listed, so a non-finite value always reaches a check
FLOATS = {
    "omit": {"--nc": ("0", "100", "3000"), "--detuning-hz": ("-7.4e9", "0", "1e9"),
             "--span-hz": ("1e8", "2e9")},
    "omit-map": {"--nc": ("0", "1000"), "--detuning-min-hz": ("-1.1e10", "-8e9"),
                 "--detuning-max-hz": ("-4e9", "1e9"), "--span-hz": ("1e8", "2e9")},
    "cool-curve": {"--nc-min": ("0.01", "1"), "--nc-max": ("100", "1e4")},
    "pulse-sim": {"--rep-rate": ("188e3", "3.012e6"), "--tau-ns": ("80", "40"),
                  "--peak-power": ("7.4e-6", "7e-5"), "--eta": ("0.05", "1"),
                  "--dark-rate": ("0", "5", "1e3"), "--window-ns": ("80", "100")},
    "estimate": {"--dark-rate": ("0", "5"), "--window-ns": ("80", "40")},
    "histogram": {"--bin-ns": ("0.5", "4", "80"), "--window-ns": ("80", "100")},
    "taper": {},
    "fit lorentzian": {},
    "fit fano": {},
    "fit g0": {"--kappa-hz": ("0.8e9", "1.1e9"), "--gamma0-hz": ("206e3", "715e3")},
    "fit heating": {"--n-th0": ("7.95", "0", "free")},
}
INTS = {
    "omit": {"--points": ("2", "11", "51")},
    "omit-map": {"--points": ("3", "11"), "--detuning-points": ("2", "5")},
    "cool-curve": {"--points": ("2", "5", "50")},
    "pulse-sim": {"--pulses": ("1", "200", "2000"), "--seed": ("0", "7")},
    "estimate": {"--pulses": ("0", "1", "2000")},
    "histogram": {"--pulses": ("0", "1", "2000")},
    "taper": {"--cells": ("0", "1", "17")},
    "fit lorentzian": {},
    "fit fano": {},
    "fit g0": {},
    "fit heating": {},
}
# commands whose numbers come from flags and spec files alone (histogram's click
# files are well formed): a value they derive that overflows is an input error,
# so they never exit 1
FLAGS_ONLY = ("cool-curve", "omit", "omit-map", "pulse-sim", "taper", "histogram")
# the --in files of each fit: a clean one, then extreme finite values, with
# whether each is an input error (exit 2); the others may fail only as exit 1
TRACES = (("trace", False), ("trace_huge", False), ("trace_freq_huge", True))
INPUTS = {
    "fit lorentzian": TRACES,
    "fit fano": TRACES,
    "fit g0": (("g0", False), ("g0_sigma_zero", True), ("g0_sigma_negative", True),
               ("g0_gamma_huge", True), ("g0_nc_huge", False)),
    "fit heating": (("heating_data", False), ("heating_nc_huge", False)),
}
# the JSON spec flag of each command and the kind of file it reads
SPECS = {"omit": ("--device", "device"), "omit-map": ("--device", "device"),
         "cool-curve": ("--heating", "heating"), "pulse-sim": ("--kernel", "kernel"),
         "taper": ("--device", "design"), "fit g0": ("--device", "device"),
         "fit heating": ("--device", "device")}


def _bad_specs():
    device = core.device_to_json(core.DEVICE_PRESETS["A"])
    design = geometry.design_to_json(geometry.DESIGN_PRESETS["B"])
    good = {"device": device, "design": design,
            "heating": {"n_th0": 7.95, "alpha_sat": 0.3, "beta_sat": 0.02, "alpha_lin": 0.003},
            "kernel": {"delta": 0.03, "tau_th_us": 4.5, "n_base": 0.0}}
    return good, {kind: [dict(spec, **{key: bad}) for key in spec if key != "label"
                         for bad in BAD_VALUES]
                  for kind, spec in good.items()}


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    root = tmp_path_factory.mktemp("fuzz")
    good, bad = _bad_specs()
    paths = {"good": {}, "bad": {}}
    for kind, spec in good.items():
        paths["good"][kind] = root / f"{kind}.json"
        paths["good"][kind].write_text(json.dumps(spec))
        paths["bad"][kind] = []
        for k, spec_bad in enumerate(bad[kind]):
            path = root / f"{kind}_bad{k}.json"
            path.write_text(json.dumps(spec_bad))
            paths["bad"][kind].append(path)
    for sign in ("blue", "red"):
        path = root / f"{sign}.csv"
        assert _run(["pulse-sim", "--pulses", "2000", "--detuning", sign, "--eta", "1",
                     "--peak-power", "7e-5", "--out", str(path)])[0] == 0
        paths[sign] = path
    device = core.DEVICE_PRESETS["A"]
    n_c = np.geomspace(10, 4000, 8)
    gamma_hz = (device.mechanical.gamma_0 + 4 * device.g0**2 / device.optical.kappa * n_c) \
        / (2 * math.pi)
    n_m = core.heating_model_occupancy(device, core.DEFAULT_HEATING, n_c)
    freq = np.linspace(7.3e9, 7.5e9, 41)
    dip = 1.0 - 0.6 / (1.0 + ((freq - 7.4e9) / 20e6) ** 2)
    ones = np.ones(n_c.size)
    tables = {
        "g0": ("n_c,gamma_m_hz", n_c, gamma_hz),
        "g0_sigma_zero": ("n_c,gamma_m_hz,sigma_hz", n_c, gamma_hz, 0 * ones),
        "g0_sigma_negative": ("n_c,gamma_m_hz,sigma_hz", n_c, gamma_hz, -ones),
        "g0_gamma_huge": ("n_c,gamma_m_hz", n_c, np.where(n_c == n_c[3], 1e308, gamma_hz)),
        "g0_nc_huge": ("n_c,gamma_m_hz", n_c * 1e200 / n_c[0], gamma_hz),
        "heating_data": ("n_c,n_m", n_c, n_m),
        "heating_nc_huge": ("n_c,n_m", n_c * 1e200 / n_c[0], n_m),
        "trace": ("freq_hz,value", freq, dip),
        "trace_huge": ("freq_hz,value", freq, 1e308 * np.resize([1.0, -1.0], freq.size)),
        "trace_freq_huge": ("freq_hz,value", freq * 1e298, dip),
    }
    for name, (header, *columns) in tables.items():
        paths[name] = root / f"{name}.csv"
        paths[name].write_text(header + "\n" + "".join(
            ",".join(map(repr, row)) + "\n" for row in zip(*(c.tolist() for c in columns))))
    return paths


def _run(argv):
    """Exit code, stdout, stderr and the categories of the warnings raised."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
            warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main(argv)
    return code, out.getvalue(), err.getvalue(), {w.category for w in caught}


def _strict_json(text):
    def reject(token):
        raise ValueError(f"non-finite JSON token {token}")
    return json.loads(text, parse_constant=reject)


@st.composite
def invocations(draw, command, files):
    """(argv, whether a non-finite number or a bad spec went in, whether stdout is JSON)."""
    argv = command.split()
    bad_input = False
    for flag, values in FLOATS[command].items():
        if draw(st.booleans()):
            value = draw(st.sampled_from(values + SPECIAL))
            bad_input |= value != "free" and not math.isfinite(float(value))
            argv.append(f"{flag}={value}")
    for flag, values in INTS[command].items():
        argv += [flag, draw(st.sampled_from(values))]
    if command in SPECS:
        flag, kind = SPECS[command]
        # half the draws keep a usable spec, so the inputs behind it are reached too
        spec = draw(st.one_of(st.sampled_from([None, files["good"][kind]]),
                              st.sampled_from(files["bad"][kind])))
        if spec is not None:
            bad_input |= spec != files["good"][kind]
            argv += [flag, str(spec)]
    if command in ("estimate", "histogram"):
        argv += ["--blue", str(files["blue"]), "--red", str(files["red"])]
    if command in INPUTS:
        name, bad = draw(st.sampled_from(INPUTS[command]))
        bad_input |= bad
        argv += ["--in", str(files[name])]
    if command == "fit g0":
        argv += ["--branch", "red"]
    as_json = command == "estimate" or command in INPUTS
    if not as_json and draw(st.booleans()):
        argv += ["--format", "json"]
        as_json = True
    return argv, bad_input, as_json


@pytest.mark.parametrize("command", sorted(FLOATS))
def test_cli_contract(files, command):
    @settings(max_examples=50)
    @given(invocations(command, files))
    def check(case):
        argv, bad_input, as_json = case
        code, out, err, warned = _run(argv)
        assert code in (0, 1, 2), (argv, code, err)
        assert "Traceback" not in err and RuntimeWarning not in warned, (argv, err, warned)
        if bad_input:
            assert code == 2, (argv, code, err)
        if command in FLAGS_ONLY:
            assert code != 1, (argv, code, err)
        if code:
            assert err.startswith("error: ") and err.count("\n") == 1, (argv, err)
        if code == 2:
            assert out == "", argv
        elif as_json:
            if code == 0 or out:  # a fit that did not converge still writes its result
                _strict_json(out)
        elif code == 0:
            cells = {c.lower() for line in out.splitlines() for c in line.split(",")}
            assert not cells & {"nan", "inf", "-inf"}, argv

    check()
