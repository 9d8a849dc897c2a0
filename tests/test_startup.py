"""What every command pays before it runs: the import set and the constants."""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.constants

import omx
from omx import fitkit, spectra
from omx.constants import HBAR, K_B

SRC = Path(__file__).resolve().parents[1] / "src"

# Runs ``import omx``, then the commands given as a JSON list of argv lists, in
# one fresh interpreter; prints the exit codes and what was loaded on the way.
SCRIPT = """
import json, sys
def loaded(top):
    return sorted(m for m in sys.modules if m.split(".")[0] == top)
import omx
after_import = loaded("omx")
from omx.cli import main
codes = [main(argv) for argv in json.loads(sys.argv[1])]
print(json.dumps({"import_omx": after_import, "codes": codes, "omx": loaded("omx"),
                  "scipy": loaded("scipy"), "futures": "concurrent.futures" in sys.modules}))
"""

# what ``from omx.cli import main`` loads before any command runs
CLI_MODULES = ["omx", "omx.cli", "omx.constants", "omx.core", "omx.table"]


def fresh(*commands) -> dict:
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", SCRIPT, json.dumps(commands)],
                          env=dict(os.environ, PYTHONPATH=path),
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


@pytest.fixture
def trace(tmp_path):
    omega = np.linspace(1e9, 2e9, 201) * 2 * np.pi
    values = fitkit.lorentzian(omega, 1.5e9 * 2 * np.pi, 50e6 * 2 * np.pi, -0.7, 1.0)
    path = tmp_path / "dip.csv"
    spectra.write_trace_csv(path, spectra.SpectrumTrace(omega, values))
    return str(path)


def test_cli_commands_never_import_scipy(trace):
    result = fresh(
        ["device", "list"],
        ["taper", "--cells", "17"],
        ["omit", "--nc", "100", "--points", "51"],
        ["cool-curve", "--points", "20"],
        ["pulse-sim", "--pulses", "2000", "--seed", "3"],
        ["fit", "lorentzian", "--in", trace],
    )
    assert (result["codes"], result["scipy"]) == ([0] * 6, [])


def test_import_omx_loads_no_submodule():
    result = fresh()
    assert (result["import_omx"], result["omx"]) == (["omx"], CLI_MODULES)


@pytest.mark.parametrize("argv, extra, futures", [
    (["device", "list"], [], False),
    (["cool-curve", "--points", "20"], [], False),
    (["omit", "--nc", "100", "--points", "51"], ["omx.spectra"], False),
    (["pulse-sim", "--pulses", "2000", "--workers", "1"], ["omx.pulsed"], False),
    (["pulse-sim", "--pulses", "70000", "--workers", "2"], ["omx.pulsed"], True),  # 2 blocks
    (["taper", "--cells", "17"], ["omx.geometry"], False),
    (["fit", "lorentzian", "--in", "{trace}"], ["omx.fitkit", "omx.spectra"], False),
], ids=["device", "cool-curve", "omit", "pulse-sim", "pulse-sim-pooled", "taper", "fit"])
def test_each_command_loads_only_what_it_runs(trace, argv, extra, futures):
    result = fresh([arg.format(trace=trace) for arg in argv])
    assert result["codes"] == [0]
    assert result["omx"] == sorted(CLI_MODULES + extra)
    assert result["futures"] is futures  # the thread pool only for a pooled run


def test_every_public_name_is_its_modules_object():
    assert set(omx.__all__) <= set(dir(omx))
    for name in omx.__all__:
        if name != "__version__":
            module = getattr(omx, omx._EXPORTS[name])
            assert getattr(omx, name) is getattr(module, name), name


def test_star_import_binds_every_public_name():
    namespace = {}
    exec("from omx import *", namespace)
    assert {name: namespace[name] for name in omx.__all__} == {
        name: getattr(omx, name) for name in omx.__all__}


def test_submodule_is_an_attribute_before_it_is_imported(monkeypatch):
    monkeypatch.delattr(omx, "geometry")  # as after a bare ``import omx``
    assert omx.geometry is sys.modules["omx.geometry"]


def test_unknown_attribute_is_an_attribute_error():
    with pytest.raises(AttributeError, match="module 'omx' has no attribute 'no_such_name'"):
        omx.no_such_name  # noqa: B018
    assert not hasattr(omx, "no_such_name")


def test_constants_are_the_exact_si_definitions():
    assert HBAR == 6.62607015e-34 / (2.0 * math.pi) == scipy.constants.hbar
    assert K_B == 1.380649e-23 == scipy.constants.k
