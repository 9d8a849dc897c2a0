"""What every command pays before it runs: the import set, the BLAS threads and
the constants."""

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

# Imports the modules named after the JSON argument, then ``omx``, then runs the
# commands given as a JSON list of argv lists, in one fresh interpreter; prints
# the exit codes, what was loaded on the way (``numpy``, ``numpy.ma``, ``orjson``
# and ``dataclasses`` among it), the OS threads left at the end (Linux only) and the
# environment variables that changed.
SCRIPT = """
import importlib, json, os, sys, time
environ = dict(os.environ)
for name in sys.argv[2:]:
    importlib.import_module(name)
def loaded(top):
    return sorted(m for m in sys.modules if m.split(".")[0] == top)
import omx
after_import = loaded("omx")
from omx.cli import main
codes = [main(argv) for argv in json.loads(sys.argv[1])]
threads = None
if sys.platform.startswith("linux"):
    # a joined pool thread can outlive Thread.join briefly at the OS level
    deadline = time.monotonic() + 2.0
    while ((threads := len(os.listdir("/proc/self/task"))) > 1
           and "concurrent.futures" in sys.modules and time.monotonic() < deadline):
        time.sleep(0.01)
changed = {k: os.environ.get(k) for k in environ.keys() | os.environ.keys()
           if os.environ.get(k) != environ.get(k)}
print(json.dumps({"import_omx": after_import, "codes": codes, "omx": loaded("omx"),
                  "scipy": loaded("scipy"), "futures": "concurrent.futures" in sys.modules,
                  "numpy": "numpy" in sys.modules, "numpy_ma": "numpy.ma" in sys.modules,
                  "orjson": "orjson" in sys.modules, "dataclasses": "dataclasses" in sys.modules,
                  "threads": threads, "environ_changed": changed}))
"""

# what ``from omx.cli import main`` loads before any command runs
CLI_MODULES = ["omx", "omx.cli", "omx.constants"]
# what every command that computes adds to it
COMPUTE = ["omx.core", "omx.spec", "omx.table"]
# what writing a table large enough to split adds, where it is split
SPLIT = (["omx._parallel"] if hasattr(os, "sched_getaffinity")
         and len(os.sched_getaffinity(0)) > 1 else [])

# the thread-count variables OpenBLAS reads, in its order
BLAS_THREADS = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")


def fresh(*commands, preload=(), **blas) -> dict:
    """SCRIPT in a new interpreter. Its environment is this process's without
    the BLAS thread variables, which pytest's may carry, plus ``blas``."""
    env = {k: v for k, v in os.environ.items() if k not in BLAS_THREADS}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", SCRIPT, json.dumps(commands), *preload],
                          env=dict(env, **blas), capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


@pytest.fixture
def trace(tmp_path):
    omega = np.linspace(1e9, 2e9, 201) * 2 * np.pi
    values = fitkit.lorentzian(omega, 1.5e9 * 2 * np.pi, 50e6 * 2 * np.pi, -0.7, 1.0)
    path = tmp_path / "dip.csv"
    spectra.write_trace_csv(path, spectra.SpectrumTrace(omega, values))
    return str(path)


@pytest.fixture
def fano_trace(tmp_path):
    omega = np.linspace(1e9, 2e9, 201) * 2 * np.pi
    values = fitkit.fano(omega, 1.5e9 * 2 * np.pi, 50e6 * 2 * np.pi, 2.0, 0.1, 0.5)
    path = tmp_path / "fano.csv"
    spectra.write_trace_csv(path, spectra.SpectrumTrace(omega, values))
    return str(path)


@pytest.fixture
def clicks(tmp_path):
    """The paths of a blue and a red click file of 100 pulses, by label."""
    paths = {}
    for label, rows in (("blue", "0,12.5,blue\n3,40.0,dark\n7,21.0,blue\n"),
                        ("red", "2,30.5,red\n9,8.0,red\n")):
        paths[label] = tmp_path / f"{label}.csv"
        paths[label].write_text("pulse_index,t_ns,label\n" + rows)
    return {label: str(path) for label, path in paths.items()}


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


# the last field: whether the command writes a table, which alone loads orjson
@pytest.mark.parametrize("argv, extra, futures, orjson", [
    (["device", "list"], ["omx.spec"], False, False),
    (["cool-curve", "--points", "20"], COMPUTE, False, True),
    (["cool-curve", "--points", "100000"], COMPUTE + SPLIT, False, True),  # 500k float cells
    (["omit", "--nc", "100", "--points", "51"], COMPUTE + ["omx.spectra"], False, True),
    (["pulse-sim", "--pulses", "2000", "--workers", "1"], COMPUTE + ["omx.pulsed"], False, True),
    (["pulse-sim", "--pulses", "70000", "--workers", "2"],  # 2 blocks
     COMPUTE + ["omx.pulsed"], True, True),
    (["taper", "--cells", "17"], COMPUTE + ["omx.geometry"], False, True),
    (["fit", "lorentzian", "--in", "{trace}"], COMPUTE + ["omx.fitkit", "omx.spectra"],
     False, False),
    (["fit", "fano", "--in", "{fano}"], COMPUTE + ["omx.fitkit", "omx.spectra"], False, False),
    (["histogram", "--blue", "{blue}", "--red", "{red}", "--pulses", "100"],
     COMPUTE + ["omx.pulsed"], False, True),
    (["estimate", "--blue", "{blue}", "--red", "{red}", "--pulses", "100"],
     COMPUTE + ["omx.pulsed"], False, False),
], ids=["device", "cool-curve", "cool-curve-split", "omit", "pulse-sim", "pulse-sim-pooled",
        "taper", "fit", "fit-fano", "histogram", "estimate"])
def test_each_command_loads_only_what_it_runs(trace, fano_trace, clicks, argv, extra, futures,
                                              orjson):
    result = fresh([arg.format(trace=trace, fano=fano_trace, **clicks) for arg in argv])
    assert result["codes"] == [0]
    assert result["omx"] == sorted(CLI_MODULES + extra)
    assert result["futures"] is futures  # the thread pool only for a pooled run
    assert not result["numpy_ma"]  # as np.unique without index outputs and np.median do
    assert result["orjson"] is orjson


@pytest.mark.parametrize("argv, code", [
    (["device", "list"], 0),
    (["--version"], 0),
    (["--help"], 0),
    (["cool-curve", "--help"], 0),
    (["cool-curve", "--bogus"], 2),
    (["omit"], 2),  # no --nc
    (["cool-curve", "--config", "{config}"], 2),  # points = many
], ids=["device-list", "version", "help", "command-help", "unknown-flag", "missing-flag",
        "config-value"])
def test_a_command_that_computes_nothing_loads_no_numpy(tmp_path, argv, code):
    config = tmp_path / "bad.cfg"
    config.write_text("points = many\n")
    result = fresh([arg.format(config=config) for arg in argv])
    assert result["codes"] == [code]
    assert not result["numpy"]
    assert not {"omx.core", "omx.table"} & set(result["omx"])
    assert result["dataclasses"] is (argv == ["device", "list"])  # omx.spec's dataclasses


@pytest.mark.skipif(not sys.platform.startswith("linux"),
                    reason="counts threads in /proc/self/task")
@pytest.mark.parametrize("argv", [
    ["device", "list"],
    ["pulse-sim", "--pulses", "70000", "--workers", "2"],  # 2 blocks; the pool has joined
    ["fit", "lorentzian", "--in", "{trace}"],
], ids=["device", "pulse-sim-pooled", "fit"])
def test_a_command_runs_blas_on_one_thread(trace, argv):
    result = fresh([arg.format(trace=trace) for arg in argv])
    assert result["codes"] == [0]
    assert result["threads"] == 1
    assert result["environ_changed"] == {"OPENBLAS_NUM_THREADS": "1"}


@pytest.mark.parametrize("name", ["OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"])
def test_a_thread_count_the_user_set_wins(name):
    result = fresh(["cool-curve", "--points", "20"], **{name: "2"})
    assert (result["codes"], result["environ_changed"]) == ([0], {})
    if sys.platform.startswith("linux") and len(os.sched_getaffinity(0)) >= 2:
        assert result["threads"] == 2  # one OpenBLAS worker beside the main thread


def test_a_process_that_loaded_numpy_keeps_its_environment():
    result = fresh(["device", "list"], preload=["numpy"])
    assert (result["codes"], result["environ_changed"]) == ([0], {})


def test_fit_bytes_do_not_depend_on_the_blas_thread_count(trace, tmp_path):
    curve = tmp_path / "curve.csv"
    assert fresh(["cool-curve", "--points", "20000", "--out", str(curve)])["codes"] == [0]
    fits = [["fit", "heating", "--in", str(curve)], ["fit", "lorentzian", "--in", trace]]
    outputs = {}
    for threads in ("1", "2"):
        paths = [tmp_path / f"{argv[1]}-{threads}.json" for argv in fits]
        result = fresh(*[argv + ["--out", str(p)] for argv, p in zip(fits, paths)],
                       OPENBLAS_NUM_THREADS=threads)
        assert result["codes"] == [0, 0]
        outputs[threads] = [p.read_bytes() for p in paths]
    assert outputs["1"] == outputs["2"]


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
