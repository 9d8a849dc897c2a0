"""Start commands on request and report each one's wall time and resource use.

``run.py`` starts this helper before it imports numpy or omx, and runs every
measured command through it. On Linux a child's ``ru_maxrss`` also counts the
peak RSS of the process that spawned it, because the spawner's memory map is
the one the child replaces at ``exec``. Spawned from this small process, each
command reports its own peak and not the benchmark's.

Protocol: one JSON object per line on stdin with ``argv``, ``cwd``,
``stdout``, ``stderr`` and ``timeout``; one JSON line back per command with
``wall`` (s), ``cpu`` (user+sys s), ``rss_kb`` and ``rc``. The helper exits at
the end of its input.
"""

import json
import os
import subprocess
import sys
import threading
import time


def run(request: dict) -> dict:
    with open(request["stdout"], "wb") as out, open(request["stderr"], "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(request["argv"], cwd=request["cwd"],
                                stdout=out, stderr=err)
        timer = threading.Timer(request["timeout"], proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {"wall": wall, "cpu": usage.ru_utime + usage.ru_stime,
            "rss_kb": usage.ru_maxrss, "rc": proc.returncode}


def main() -> None:
    for line in sys.stdin:
        print(json.dumps(run(json.loads(line))), flush=True)


if __name__ == "__main__":
    main()
