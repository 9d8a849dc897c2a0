"""Byte-for-byte CLI outputs against files recorded before the table codec.

Each file under ``tests/golden/`` holds the stdout of one fixed-seed ``omx``
command, recorded once from the code that still had a separate CSV writer
per table. The files are the contract: a change to the writers, the click
simulator or the layouts must reproduce them exactly, never re-record them.
``{golden}`` in an argument stands for the golden directory, so the
``estimate`` and ``histogram`` cases read the recorded click streams.

Tables too large to keep as files, which the encoder splits across
processes, are pinned instead by their sha256 in ``large.sha256`` (lines of
``sha256sum``), under the same contract.
"""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

from omx.cli import main

GOLDEN = Path(__file__).parent / "golden"

PULSES = ["--pulses", "131171", "--eta", "1", "--peak-power", "5e-7",
          "--dark-rate", "500"]  # three random blocks, all three labels

CASES = [
    ("pulse_sim_blue.csv", ["pulse-sim", *PULSES, "--seed", "1"]),
    ("pulse_sim_blue.json", ["pulse-sim", *PULSES, "--seed", "1", "--format", "json"]),
    ("pulse_sim_red.csv", ["pulse-sim", *PULSES, "--seed", "2", "--detuning", "red"]),
    ("estimate.json", ["estimate", "--blue", "{golden}/pulse_sim_blue.csv",
                       "--red", "{golden}/pulse_sim_red.csv",
                       "--pulses", "131171", "--dark-rate", "500"]),
    ("histogram.csv", ["histogram", "--blue", "{golden}/pulse_sim_blue.csv",
                       "--red", "{golden}/pulse_sim_red.csv",
                       "--pulses", "131171", "--bin-ns", "8"]),
    ("histogram.json", ["histogram", "--blue", "{golden}/pulse_sim_blue.csv",
                        "--red", "{golden}/pulse_sim_red.csv",
                        "--pulses", "131171", "--bin-ns", "8", "--format", "json"]),
    ("cool_curve.csv", ["cool-curve", "--points", "60"]),
    ("cool_curve.json", ["cool-curve", "--points", "60", "--format", "json"]),
    ("omit.csv", ["omit", "--nc", "5000", "--span-hz", "1e9", "--points", "101"]),
    ("omit_map.csv", ["omit-map", "--nc", "1000", "--detuning-points", "5",
                      "--points", "41", "--span-hz", "1e8"]),
    ("omit_map.json", ["omit-map", "--nc", "1000", "--detuning-points", "5",
                       "--points", "41", "--span-hz", "1e8", "--format", "json"]),
    ("taper.csv", ["taper"]),
    ("taper_a5.json", ["taper", "--device", "A", "--cells", "5", "--format", "json"]),
    ("device_show_a.txt", ["device", "show", "A"]),
]


def _argv(argv):
    return [arg.replace("{golden}", str(GOLDEN)) for arg in argv]


@pytest.fixture(autouse=True)
def clean_preset_env(monkeypatch):
    monkeypatch.delenv("OMX_PRESET_DIR", raising=False)


@pytest.mark.parametrize("name,argv", CASES, ids=[name for name, _ in CASES])
def test_stdout_matches_golden(capsys, name, argv):
    assert main(_argv(argv)) == 0
    out = capsys.readouterr().out
    assert out.encode() == (GOLDEN / name).read_bytes()


@pytest.mark.parametrize("name", [name for name, argv in CASES if argv[0] != "device"])
def test_out_file_matches_golden(capsys, tmp_path, name):
    argv = dict(CASES)[name]
    path = tmp_path / name
    assert main(_argv(argv) + ["--out", str(path)]) == 0
    assert capsys.readouterr().out == ""
    assert path.read_bytes() == (GOLDEN / name).read_bytes()


# Tables large enough to be encoded by a process per CPU. Each is made by a
# new ``python -m omx``, so its digest also checks the process exit after a
# forked write to a pipe (stdout) or to a file (``--out``).
LARGE = {
    "omit_map_401.csv": (["omit-map", "--device", "A", "--nc", "3000.0", "--points", "2001",
                          "--detuning-points", "401"], False),
    "omit_map_41.json": (["omit-map", "--device", "A", "--nc", "3000.0", "--points", "2001",
                          "--detuning-points", "41", "--format", "json"], True),
    "pulse_sim_b.csv": (["pulse-sim", "--device", "B", "--rep-rate", "3.012e6", "--tau-ns",
                         "80", "--peak-power", "3e-5", "--eta", "1", "--pulses", "300000",
                         "--workers", "1", "--seed", "3"], True),
}


@pytest.mark.parametrize("name", list(LARGE))
def test_large_table_matches_its_digest(tmp_path, name):
    digests = dict(line.split()[::-1] for line in
                   (GOLDEN / "large.sha256").read_text().splitlines())
    argv, to_file = LARGE[name]
    path = tmp_path / name
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    with subprocess.Popen([sys.executable, "-m", "omx", *argv,
                           *(["--out", str(path)] if to_file else [])], env=env,
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE) as proc:
        piped = hashlib.sha256()
        for chunk in iter(lambda: proc.stdout.read(1 << 20), b""):
            piped.update(chunk)
        err = proc.stderr.read()
    assert (proc.returncode, err) == (0, b"")
    if to_file:
        assert piped.digest() == hashlib.sha256(b"").digest()  # nothing on stdout
    written = hashlib.sha256(path.read_bytes()) if to_file else piped
    assert written.hexdigest() == digests[name]
