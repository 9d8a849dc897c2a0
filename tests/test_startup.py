"""What every command pays before it runs: the import set and the constants."""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import scipy.constants

from omx import fitkit, spectra
from omx.constants import HBAR, K_B

SRC = Path(__file__).resolve().parents[1] / "src"

# The cli_small command mix, run in one fresh interpreter; prints the exit
# codes and every scipy module loaded on the way.
SCRIPT = """
import json, sys
from omx.cli import main
trace = sys.argv[1]
codes = [main(argv) for argv in (
    ["device", "list"],
    ["taper", "--cells", "17"],
    ["omit", "--nc", "100", "--points", "51"],
    ["cool-curve", "--points", "20"],
    ["pulse-sim", "--pulses", "2000", "--seed", "3"],
    ["fit", "lorentzian", "--in", trace],
)]
print(json.dumps({"codes": codes,
                  "scipy": sorted(m for m in sys.modules if m.split(".")[0] == "scipy")}))
"""


def test_cli_commands_never_import_scipy(tmp_path):
    omega = np.linspace(1e9, 2e9, 201) * 2 * np.pi
    values = fitkit.lorentzian(omega, 1.5e9 * 2 * np.pi, 50e6 * 2 * np.pi, -0.7, 1.0)
    trace = tmp_path / "dip.csv"
    spectra.write_trace_csv(trace, spectra.SpectrumTrace(omega, values))
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", SCRIPT, str(trace)],
                          env=dict(os.environ, PYTHONPATH=path),
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result == {"codes": [0] * 6, "scipy": []}


def test_constants_are_the_exact_si_definitions():
    assert HBAR == 6.62607015e-34 / (2.0 * math.pi) == scipy.constants.hbar
    assert K_B == 1.380649e-23 == scipy.constants.k
