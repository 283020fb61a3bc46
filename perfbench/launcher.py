"""Small process that starts the benchmark's child processes.

A child started straight from the benchmark process would report a wrong
peak RSS: on Linux, ``ru_maxrss`` also counts the memory a child shared with
its parent before ``exec``, and the benchmark process holds the workload's
arrays.  Children started from this process, which holds almost nothing,
report their own peak.

Protocol: one JSON request per line on stdin,
``{"argv": [...], "cwd": dir, "stdout": file, "stderr": file, "timeout": s}``,
answered by one JSON line on stdout,
``{"wall_s": seconds, "maxrss_kb": peak, "code": exit code}``.
The wall time runs from spawn to exit.  Exits at end of input.
"""

import json
import os
import subprocess
import sys
import threading
import time


def run(request: dict) -> dict:
    with open(request["stdout"], "wb") as out, open(request["stderr"], "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(request["argv"], cwd=request["cwd"],
                                stdin=subprocess.DEVNULL, stdout=out, stderr=err)
        timer = threading.Timer(request["timeout"], proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {"wall_s": wall, "maxrss_kb": usage.ru_maxrss, "code": proc.returncode}


def main() -> None:
    for line in sys.stdin:
        print(json.dumps(run(json.loads(line))), flush=True)


if __name__ == "__main__":
    main()
