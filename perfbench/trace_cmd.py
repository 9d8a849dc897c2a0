"""Run one ``omx`` command in process and record spans around its library calls.

Usage (from the repository root, with ``PYTHONPATH=src``)::

    python -X importtime perfbench/trace_cmd.py SPANS.json CMD_ID ARG...

Times ``import omx.cli``, replaces the public functions the CLI reaches
through module attributes with wrappers that record one span per call, then
calls ``omx.cli.main([ARG...])``. A span holds its name, wall and CPU start
and end, the index of the span that caused it and the command id. Spans stay
in memory and are written to SPANS.json when the command returns; the exit
code is the command's own.
"""

import functools
import inspect
import json
import sys
import time

# module -> functions the CLI calls as ``module.function``
WRAPPED = {
    "pulsed": ("simulate_clicks", "read_clicks_csv", "estimate_occupancy",
               "histogram", "default_kernel"),
    "core": ("cooling_curve",),
    "spectra": ("omit_reflection", "read_trace_csv"),
    "fitkit": ("fit_lorentzian", "fit_fano", "fit_g0_from_linewidths",
               "fit_heating_params"),
    "geometry": ("generate_schedule",),
}


def _size(value) -> int:
    try:
        return len(value)
    except TypeError:
        return 0


def _counts(name: str, args: dict, result, modules: dict) -> dict:
    """Work counts for one call, read from its arguments and result."""
    if name == "pulsed.simulate_clicks":
        block = getattr(modules["pulsed"], "BLOCK_PULSES", 0)
        n = args["train"].n_pulses
        return {"clicks": _size(result), "blocks": -(-n // block) if block else 0}
    if name == "pulsed.read_clicks_csv":
        return {"rows": _size(result)}
    if name == "core.cooling_curve":
        return {"points": _size(result.n_c)}
    if name == "spectra.omit_reflection":
        return {"points": _size(result.freq)}
    if name == "geometry.generate_schedule":
        return {"cells": int(args.get("n_cells", 17))}
    if name.startswith("fitkit."):
        return {"iterations": int(result.iterations)}
    return {}


class Tracer:
    """In-memory span recorder for one command."""

    def __init__(self, cmd_id: str):
        self.cmd_id = cmd_id
        self.spans: list[dict] = []
        self.stack: list[int] = []

    def open(self, name: str) -> int:
        self.spans.append({
            "name": name, "cmd": self.cmd_id,
            "parent": self.stack[-1] if self.stack else -1,
            "start": time.perf_counter(), "cpu_start": time.process_time(),
            "end": None, "cpu_end": None, "counts": {},
        })
        self.stack.append(len(self.spans) - 1)
        return self.stack[-1]

    def close(self, index: int) -> dict:
        span = self.spans[index]
        span["end"] = time.perf_counter()
        span["cpu_end"] = time.process_time()
        self.stack.pop()
        return span

    def wrap(self, name: str, fn, modules: dict):
        signature = inspect.signature(fn)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                span = self.close(index)
            bound = signature.bind(*args, **kwargs)
            bound.apply_defaults()
            span["counts"] = _counts(name, bound.arguments, result, modules)
            return result

        return traced


def main(argv: list[str]) -> int:
    spans_path, cmd_id, cmd_argv = argv[0], argv[1], argv[2:]
    tracer = Tracer(cmd_id)
    modules_before = len(sys.modules)
    index = tracer.open("import")
    import omx.cli
    tracer.close(index)
    import_modules = len(sys.modules) - modules_before

    modules = {name: getattr(omx, name) for name in WRAPPED}
    for module_name, functions in WRAPPED.items():
        module = modules[module_name]
        for fn_name in functions:
            original = getattr(module, fn_name)
            setattr(module, fn_name,
                    tracer.wrap(f"{module_name}.{fn_name}", original, modules))

    rc = 1
    index = tracer.open("cli.main")
    try:
        rc = omx.cli.main(cmd_argv)
    finally:
        tracer.close(index)
        sys.stdout.flush()
        with open(spans_path, "w") as fh:
            json.dump({"cmd": cmd_id, "rc": rc, "import_modules": import_modules,
                       "spans": tracer.spans}, fh)
    return rc


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
