"""End-to-end benchmark of the ``omx`` CLI pipelines.

Usage, from the repository root::

    python3 perfbench/run.py --workload NAME|all --seed N --seconds S --trace 0|1

A workload is a short pipeline of ``python -m omx ...`` processes, run as a
closed loop from this one client: one process at a time, each command after
the previous one has exited. Set-up (inputs from the seed, expected results
from omx's own functions, one untimed invocation) runs three times and is
timed. Then whole passes over the workload's commands run until the next pass
would end after ``--seconds``; there is always at least one. Every output is
checked; a command fails on an unexpected exit code, a Python traceback on
stderr, or a failed check.

``--trace 0`` reports the end-to-end metrics, with wall time, CPU time and
peak RSS taken per child from ``os.wait4`` in ``perfbench/launcher.py``. ``--trace 1`` runs one untraced
pass and one traced pass, in which each command runs in process
under ``perfbench/trace_cmd.py``, and reports the per-layer split and the
tracing overhead. The last line of standard output is one JSON object with
the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
TRACER = Path(__file__).resolve().parent / "trace_cmd.py"
LAUNCHER = Path(__file__).resolve().parent / "launcher.py"

SETUP_REPEATS = 3
COMMAND_TIMEOUT_S = 120.0
TRACEBACK = "Traceback (most recent call last)"

END_TO_END = {
    "wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MB", "op_p50_s": "s",
    "items_per_s": "1/s", "ok_frac": "fraction", "setup_s": "s",
}

# traced function -> (time metric, CPU metric or None, {count key: metric})
LAYER_SPANS = {
    "pulsed.simulate_clicks": ("pulsed.simulate_s", "pulsed.simulate_cpu_s",
                               {"clicks": "pulsed.clicks", "blocks": "pulsed.blocks"}),
    "pulsed.read_clicks_csv": ("pulsed.read_clicks_s", None, {"rows": "pulsed.rows_read"}),
    "pulsed.estimate_occupancy": ("pulsed.estimate_s", None, {}),
    "pulsed.histogram": ("pulsed.histogram_s", None, {}),
    "pulsed.default_kernel": ("pulsed.kernel_s", None, {}),
    "core.cooling_curve": ("core.cooling_curve_s", None, {"points": "core.points"}),
    "spectra.omit_reflection": ("spectra.omit_reflection_s", None,
                                {"points": "spectra.omit_points"}),
    "spectra.read_trace_csv": ("spectra.read_trace_s", None, {}),
    "geometry.generate_schedule": ("geometry.generate_schedule_s", None,
                                   {"cells": "geometry.cells"}),
}
FIT_KINDS = {"fitkit.fit_lorentzian": "lorentzian", "fitkit.fit_fano": "fano",
             "fitkit.fit_g0_from_linewidths": "g0", "fitkit.fit_heating_params": "heating"}

PER_LAYER = {
    "import.wall_s": "s", "import.modules": "count", "import.scipy_s": "s",
    "cli.main_s": "s", "cli.self_s": "s", "cli.self_cpu_s": "s",
    "cli.rows_out": "count", "cli.out_bytes": "bytes",
    "pulsed.simulate_s": "s", "pulsed.simulate_cpu_s": "s", "pulsed.clicks": "count",
    "pulsed.blocks": "count", "pulsed.read_clicks_s": "s", "pulsed.rows_read": "count",
    "pulsed.estimate_s": "s", "pulsed.histogram_s": "s", "pulsed.kernel_s": "s",
    "core.cooling_curve_s": "s", "core.points": "count",
    "spectra.omit_reflection_s": "s", "spectra.omit_calls": "count",
    "spectra.omit_points": "count", "spectra.read_trace_s": "s",
    "fitkit.lorentzian_s": "s", "fitkit.lorentzian_iterations": "count",
    "fitkit.fano_s": "s", "fitkit.fano_iterations": "count",
    "fitkit.g0_s": "s", "fitkit.g0_iterations": "count",
    "fitkit.heating_s": "s", "fitkit.heating_iterations": "count",
    "fitkit.recovered_ratio": "ratio",
    "geometry.generate_schedule_s": "s", "geometry.cells": "count",
    "trace.overhead_s": "s",
}


@dataclass
class Result:
    """One command invocation."""

    label: str
    wall: float
    cpu: float
    rss_kb: int
    items: int = 0
    failure: str = ""
    known_defect: str = ""
    trace: dict = field(default_factory=dict)
    rows_out: int = 0
    out_bytes: int = 0


def _env() -> dict:
    env = dict(os.environ)
    env.pop("OMX_PRESET_DIR", None)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"]
                                    if env.get("PYTHONPATH") else "")
    return env


class Launcher:
    """The helper process that starts every command (see ``launcher.py``).

    Create it before this process imports numpy or omx, so that the
    children's max RSS is their own.
    """

    def __init__(self):
        self.proc = subprocess.Popen([sys.executable, str(LAUNCHER)], env=_env(),
                                     stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                                     text=True)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.proc.stdin.close()
        self.proc.wait()
        self.proc.stdout.close()

    def run(self, argv: list[str], cwd: Path, stdout: Path, stderr: Path):
        """Run one process to completion; (wall s, user+sys s, max RSS KiB, exit code)."""
        self.proc.stdin.write(json.dumps({
            "argv": argv, "cwd": str(cwd), "stdout": str(stdout),
            "stderr": str(stderr), "timeout": COMMAND_TIMEOUT_S}) + "\n")
        self.proc.stdin.flush()
        reply = self.proc.stdout.readline()
        if not reply:
            raise RuntimeError("the launcher process exited")
        r = json.loads(reply)
        return r["wall"], r["cpu"], r["rss_kb"], r["rc"]


def _rows_and_bytes(path: Path) -> tuple[int, int]:
    if not path.is_file():
        return 0, 0
    data = path.read_bytes()
    if path.suffix == ".csv":
        return max(data.count(b"\n") - 1, 0), len(data)
    if path.suffix == ".json":
        try:
            payload = json.loads(data)
        except ValueError:
            return 0, len(data)
        lists = [v for v in payload.values() if isinstance(v, list)]
        return (len(lists[0]) if lists else 1), len(data)
    return data.count(b"\n"), len(data)


def run_command(launcher: Launcher, cmd, work: Path, traced: bool, index: int) -> Result:
    from workloads import CheckFailed

    stdout = work / ("stdout.txt" if "--out" in cmd.argv else cmd.out)
    stderr = work / "stderr.txt"
    (work / cmd.out).unlink(missing_ok=True)
    spans = work / f"spans-{index}.json"
    if traced:
        argv = [sys.executable, "-X", "importtime", str(TRACER), str(spans),
                f"{index}:{cmd.label}", *cmd.argv]
    else:
        argv = [sys.executable, "-m", "omx", *cmd.argv]
    wall, cpu, rss, rc = launcher.run(argv, work, stdout, stderr)
    err = stderr.read_text(errors="replace")
    res = Result(cmd.label, wall, cpu, rss, items=cmd.items)
    if rc != 0:
        last = [ln for ln in err.splitlines() if not ln.startswith("import time:")]
        res.failure = f"exit code {rc}: {last[-1] if last else ''}"
    elif TRACEBACK in err:
        res.failure = "Python traceback on stderr"
    else:
        try:
            counted = cmd.check(work / cmd.out)
            res.items = cmd.items or counted
        except CheckFailed as exc:
            res.failure = str(exc)
        except (KeyError, IndexError, TypeError, ValueError, OSError) as exc:
            res.failure = f"unreadable output {cmd.out}: {exc!r}"
    defect, signature = cmd.known_defect
    if res.failure and defect and signature in res.failure:
        res.known_defect = defect
        res.failure += f" [known defect: {defect}]"
    if traced:
        res.trace = json.loads(spans.read_text()) if spans.is_file() else {}
        res.trace["scipy_import_s"] = _scipy_import_s(err)
        rows, size = _rows_and_bytes(work / cmd.out)
        extra_rows, extra_size = (0, 0) if stdout == work / cmd.out else _rows_and_bytes(stdout)
        res.rows_out, res.out_bytes = rows + extra_rows, size + extra_size
    return res


def _scipy_import_s(stderr: str) -> float:
    """Self time of every scipy module in ``-X importtime`` output."""
    total_us = 0
    for line in stderr.splitlines():
        if not line.startswith("import time:"):
            continue
        parts = line[len("import time:"):].split("|")
        name = parts[-1].strip()
        if name == "scipy" or name.startswith("scipy."):
            try:
                total_us += int(parts[0])
            except ValueError:  # the header line
                pass
    return total_us * 1e-6


def setup(launcher: Launcher, name: str, seed: int, work: Path, nproc: int):
    """Build the workload and run its untimed invocation; (workload, seconds)."""
    import workloads

    start = time.perf_counter()
    if work.exists():
        shutil.rmtree(work)
    work.mkdir(parents=True)
    wl = workloads.build(name, seed, work, nproc)
    _, _, _, rc = launcher.run([sys.executable, "-m", "omx", *wl.warmup], work,
                               work / wl.warmup_out, work / "stderr.txt")
    if rc != 0:
        raise RuntimeError(f"{name}: set-up invocation `omx {' '.join(wl.warmup)}` "
                           f"exited {rc}: {(work / 'stderr.txt').read_text()[-500:]}")
    if wl.reference_label:
        wl.digests[wl.reference_label] = workloads.digest(work / wl.warmup_out)
    return wl, time.perf_counter() - start


def tail(values: list[float]) -> tuple[float, float, int]:
    """(value, percentile, samples above) at the highest nearest-rank
    percentile leaving at least ten samples above it; p90 when the run has
    fewer than 100 samples, so that small runs still report a tail."""
    ordered = sorted(values)
    n = len(ordered)
    rank = max(n - 10, math.ceil(0.9 * n))
    return ordered[rank - 1], 100.0 * rank / n, n - rank


def end_to_end(passes: list[list[Result]], setup_times: list[float]) -> dict:
    results = [r for p in passes for r in p]
    walls = [sum(r.wall for r in p) for p in passes]
    return {
        "wall_s": statistics.median(walls),
        "cpu_s": statistics.median(sum(r.cpu for r in p) for p in passes),
        "peak_rss_mb": statistics.median(max(r.rss_kb for r in p) / 1024.0 for p in passes),
        "op_p50_s": statistics.median(r.wall for r in results),
        "items_per_s": statistics.median(sum(r.items for r in p) / w
                                         for p, w in zip(passes, walls)),
        "ok_frac": sum(not r.failure for r in results) / len(results),
        "setup_s": statistics.median(setup_times),
    }


def per_layer(traced: list[Result], untraced: list[Result]) -> dict:
    m = dict.fromkeys(PER_LAYER, 0.0)
    imports, modules, scipy_s = [], [], []
    fits = recovered = 0
    for res in traced:
        spans = res.trace.get("spans", [])
        modules.append(res.trace.get("import_modules", 0))
        scipy_s.append(res.trace.get("scipy_import_s", 0.0))
        m["cli.rows_out"] += res.rows_out
        m["cli.out_bytes"] += res.out_bytes
        if res.label.startswith("fit "):
            fits += 1
            recovered += not res.failure
        for i, span in enumerate(spans):
            if span["end"] is None:
                continue
            wall = span["end"] - span["start"]
            cpu = span["cpu_end"] - span["cpu_start"]
            name = span["name"]
            if name == "import":
                imports.append(wall)
            elif name == "cli.main":
                children = [c for c in spans if c["parent"] == i and c["end"] is not None]
                m["cli.main_s"] += wall
                m["cli.self_s"] += wall - sum(c["end"] - c["start"] for c in children)
                m["cli.self_cpu_s"] += cpu - sum(c["cpu_end"] - c["cpu_start"]
                                                 for c in children)
            elif name in FIT_KINDS:
                m[f"fitkit.{FIT_KINDS[name]}_s"] += wall
                m[f"fitkit.{FIT_KINDS[name]}_iterations"] += span["counts"].get("iterations", 0)
            elif name in LAYER_SPANS:
                wall_key, cpu_key, counts = LAYER_SPANS[name]
                m[wall_key] += wall
                if cpu_key:
                    m[cpu_key] += cpu
                for key, metric in counts.items():
                    m[metric] += span["counts"].get(key, 0)
                if name == "spectra.omit_reflection":
                    m["spectra.omit_calls"] += 1
    m["import.wall_s"] = statistics.median(imports) if imports else 0.0
    m["import.modules"] = statistics.median(modules) if modules else 0
    m["import.scipy_s"] = statistics.median(scipy_s) if scipy_s else 0.0
    m["fitkit.recovered_ratio"] = recovered / fits if fits else 0.0
    m["trace.overhead_s"] = sum(t.wall - u.wall for t, u in zip(traced, untraced))
    return m


def run_workload(launcher: Launcher, name: str, seed: int, seconds: float, trace: bool,
                 nproc: int) -> dict:
    work = WORK / f"{name}-{os.getpid()}"
    try:
        setup_times = []
        for _ in range(1 if trace else SETUP_REPEATS):
            wl, took = setup(launcher, name, seed, work, nproc)
            setup_times.append(took)
        passes: list[list[Result]] = []
        start = time.perf_counter()
        longest = 0.0
        while True:
            pass_start = time.perf_counter()
            traced = trace and len(passes) == 1
            passes.append([run_command(launcher, cmd, work, traced, i)
                           for i, cmd in enumerate(wl.commands)])
            longest = max(longest, time.perf_counter() - pass_start)
            if trace:
                if len(passes) == 2:
                    break
            elif time.perf_counter() - start + longest > seconds:
                break
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK.rmdir()  # only when no other run is using it
    results = [r for p in passes for r in p]
    failed = [r for r in results if r.failure]
    report = {
        "workload": name,
        "items": wl.items,
        "passes": len(passes),
        "commands": len(results),
        "correct": all(r.known_defect for r in failed),
        "attempted": len(results),
        "failed": len(failed),
        "failures": [f"{r.label}: {r.failure}" for r in failed],
        "op_walls": {c.label: [round(p[i].wall, 4) for p in passes]
                     for i, c in enumerate(wl.commands)},
    }
    if trace:
        report["metrics"] = per_layer(passes[1], passes[0])
        report["overhead_by_command"] = {t.label: round(t.wall - u.wall, 4)
                                         for t, u in zip(passes[1], passes[0])}
    else:
        report["metrics"] = end_to_end(passes, setup_times)
        value, pct, above = tail([r.wall for r in results])
        report["op_tail"] = (f"{value:.6g} s at p{pct:.1f} of n={len(results)} "
                             f"commands, {above} above")
    return report


def host_record() -> dict:
    import numpy
    import scipy

    starts = []
    for _ in range(3):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", "pass"], check=True)
        starts.append(time.perf_counter() - start)
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "commit": _git_commit(),
        "host.python_startup_s": statistics.median(starts),
    }


def _git_commit() -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _print_report(report: dict, units: dict) -> None:
    print(f"== {report['workload']}: {report['passes']} pass(es), "
          f"{report['commands']} commands, {report['failed']} failed, "
          f"items = {report['items']}")
    for name, value in report["metrics"].items():
        print(f"  {name:34s} {value:14.6g} {units[name]}")
    if "op_tail" in report:
        print(f"  op_tail_s (printed only) = {report['op_tail']}")
        print(f"  failed_frac = {report['failed']}/{report['attempted']} = "
              f"{report['failed'] / report['attempted']:.6g}")
    if "overhead_by_command" in report:
        print("  tracing overhead per command (s): "
              + json.dumps(report["overhead_by_command"]))
    print("  per-command wall (s): " + json.dumps(report["op_walls"]))
    for failure in report["failures"]:
        print(f"  FAILED {failure}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        help="thermo_dense, thermo_sparse, sweep, cli_small or all")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "omx" / "cli.py").is_file():
        print(f"error: no omx sources at {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    with Launcher() as launcher:
        sys.path.insert(0, str(SRC))
        import workloads

        names = workloads.NAMES if args.workload == "all" else (args.workload,)
        if any(n not in workloads.NAMES for n in names):
            parser.error(f"unknown workload {args.workload!r}; "
                         f"choose from {', '.join(workloads.NAMES)} or all")
        host = host_record()
        print("host: " + json.dumps(host))
        reports = [run_workload(launcher, n, args.seed, args.seconds, bool(args.trace),
                                host["nproc"])
                   for n in names]
    units = PER_LAYER if args.trace else END_TO_END
    for report in reports:
        _print_report(report, units)

    def metric(name, value):
        return {"value": value, "unit": units[name]}

    if len(reports) == 1:
        metrics = {k: metric(k, v) for k, v in reports[0]["metrics"].items()}
    else:
        metrics = {f"{r['workload']}.{k}": metric(k, v)
                   for r in reports for k, v in r["metrics"].items()}
    print(json.dumps({
        "correct": all(r["correct"] for r in reports),
        "attempted": sum(r["attempted"] for r in reports),
        "failed": sum(r["failed"] for r in reports),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
