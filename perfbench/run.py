"""Closed-loop benchmark of the triptych CLI and library.

Usage (from the repository root)::

    python3 perfbench/run.py --workload tall|square|graph --seed N \\
        --seconds S --trace 0|1

One client runs a workload's cycle of analyses back to back (a closed loop).
Each step runs ``python -m triptych.cli`` as a subprocess on files written
before timing, then the same analysis in-process through the public library
call, and checks both against the benchmark's own oracles.  Cycles repeat
while another whole cycle fits in ``--seconds``; at least one always runs,
so every run covers the same mix of methods and sizes.

``--trace 0`` prints the end-to-end metrics:

- ``setup_s``: median wall time of ``python -m triptych.cli --version``
  (interpreter start and imports, paid by every CLI run);
- ``cli_s.p50``/``.p75``: wall time of one CLI analysis, spawn to exit;
- ``cli_rss_mb.p50``/``.max``: each CLI child's own peak RSS;
- ``lib_s.p50``/``.p75``: one warm in-process call on inputs in memory;
- ``analyses_per_s``: correct CLI analyses per second of time spent in the
  CLI and library calls (the oracle checks are not counted);
- ``ok_frac``: share of attempted operations (CLI runs, library calls)
  whose exit code and output checks passed.

``--trace 1`` runs every step once untraced and once traced (function names
rebound in the package's modules, see ``tracing.py``) and prints the
per-layer metrics.  The last line of standard output is the result object;
the line before it holds run metadata: library versions, thread count,
``src/triptych`` line count, sample counts, input sizes, ``failed_frac``,
per-step timings and, when traced, the per-layer metrics of each command.
Exit codes: 0 after a completed run, 2 if the package sources are missing;
any other error ends the run with a traceback and no result line.
"""

from __future__ import annotations

import os

# BLAS and OpenMP read these once, when numpy loads, so they are set before
# any import that pulls numpy in.  One thread is at most nproc and keeps the
# timings steady on a shared two-core machine.
THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(THREADS)

import argparse  # noqa: E402
import json  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

SETUP_SAMPLES = 5
IMPORTTIME_SAMPLES = 3
CHILD_TIMEOUT_S = 150
TAIL = 75  # percentile named in the *.p75 metrics
LIB_MIN_S = 0.2
LIB_MAX_CALLS = 7


@dataclass
class Child:
    wall_s: float
    rss_mb: float
    code: int
    stdout: str
    stderr: str


class Launcher:
    """Starts child processes through ``launcher.py`` (see there for why)
    and reads each child's wall time, own peak RSS and exit code."""

    def __init__(self, tmp: str):
        self.tmp = tmp
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
        # A session of its own, so that close(kill=True) also stops its child.
        self.proc = subprocess.Popen([sys.executable, str(HERE / "launcher.py")], env=env,
                                     cwd=tmp, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                                     text=True, start_new_session=True)

    def run(self, argv: list[str]) -> Child:
        out, err = Path(self.tmp) / "child.out", Path(self.tmp) / "child.err"
        request = {"argv": argv, "cwd": self.tmp, "stdout": str(out), "stderr": str(err),
                   "timeout": CHILD_TIMEOUT_S}
        self.proc.stdin.write(json.dumps(request) + "\n")
        self.proc.stdin.flush()
        reply = self.proc.stdout.readline()
        if not reply:
            raise RuntimeError(f"launcher exited with code {self.proc.wait()}")
        reply = json.loads(reply)
        return Child(reply["wall_s"], reply["maxrss_kb"] * 1024 / 1e6, reply["code"],
                     out.read_text(errors="replace"), err.read_text(errors="replace"))

    def close(self, kill: bool = False) -> None:
        if kill:
            os.killpg(self.proc.pid, signal.SIGKILL)
        self.proc.stdin.close()
        self.proc.wait()
        self.proc.stdout.close()


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0
    messages: list[str] = field(default_factory=list)

    def record(self, what: str, errors: list[str]) -> bool:
        self.attempted += 1
        if errors:
            self.failed += 1
            self.messages.append(f"{what}: {'; '.join(errors)}")
        return not errors


def cli_errors(step, child: Child, stem: str, result, lib_ok: bool) -> list[str]:
    if child.code != 0:
        return [f"exit code {child.code}: {child.stderr.strip()[-300:]}"]
    if step.check_cli is None:
        return []
    if not lib_ok:
        return ["no checked library result to compare with"]
    try:
        return step.check_cli(child.stdout, stem, result)
    except (OSError, ValueError, IndexError) as exc:
        return [f"unreadable output: {exc}"]


def lib_call(step, api):
    """Time one warm library call; returns (seconds, result, errors).

    A call shorter than LIB_MIN_S is repeated, up to LIB_MAX_CALLS times,
    and its median taken: single calls of a few milliseconds are too noisy.
    """
    walls = []
    while sum(walls) < LIB_MIN_S and len(walls) < LIB_MAX_CALLS:
        t0 = time.perf_counter()
        try:
            result = step.lib(api)
        except Exception as exc:  # any exception is a failed operation
            return time.perf_counter() - t0, None, [f"{type(exc).__name__}: {exc}"]
        walls.append(time.perf_counter() - t0)
    return statistics.median(walls), result, step.check_lib(result)


def percentile(values, q) -> float:
    return float(np.percentile(values, q))


def unit(metric: str) -> str:
    for suffix, name in (("_per_s", "1/s"), ("_s", "s"), ("_mb", "MB"), ("bytes", "B"),
                         ("_per_op", "count")):
        if metric.endswith(suffix):
            return name
    return "frac"


def src_lines() -> int:
    return sum(len(p.read_text(encoding="utf-8").splitlines())
               for p in sorted((SRC / "triptych").glob("*.py")))


def versions() -> dict:
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"numpy": np.__version__, "scipy": scipy.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "threads": THREADS, "nproc": os.cpu_count(), "python": sys.version.split()[0]}


class Runner:
    """One benchmark run: inputs, set-up samples and the closed loop."""

    def __init__(self, workload: str, seed: int, seconds: float, launcher: Launcher,
                 tmp: str, tiny: bool = False):
        import triptych
        import workloads

        self.api = triptych
        self.seconds = seconds
        self.launcher = launcher
        self.tmp = tmp
        self.tally = Tally()
        self.wl = workloads.build(workload, seed, tmp, triptych, tiny=tiny)
        self.by_step: dict[str, dict[str, list[float]]] = {}
        self.cli_wall: list[float] = []
        self.cli_rss: list[float] = []
        self.lib_wall: list[float] = []
        self.cli_ok = 0
        self.traced_cli: list[tuple[str, list[dict]]] = []
        self.traced_rv: list[list[dict]] = []
        self.untraced_s = 0.0
        self.traced_s = 0.0
        self._outputs = 0

    # --- set-up ---------------------------------------------------------

    def version_wall(self, extra=()) -> Child:
        child = self.launcher.run([sys.executable, *extra, "-m", "triptych.cli", "--version"])
        self.tally.record("triptych --version",
                          [] if child.code == 0 else [f"exit code {child.code}"])
        return child

    def setup(self) -> list[float]:
        # Warm-up, untimed: byte-compiles the package on a fresh checkout and
        # makes each library call once, so timed calls are warm.
        self.version_wall()
        seen = set()
        for step in self.wl.steps:
            if step.kind not in seen:
                seen.add(step.kind)
                lib_call(step, self.api)
        return [self.version_wall().wall_s for _ in range(SETUP_SAMPLES)]

    # --- the loop -------------------------------------------------------

    def cli(self, step, traced: bool):
        self._outputs += 1
        stem = str(Path(self.tmp) / f"out{self._outputs}")
        args = step.cli + (["--out", stem] if step.writes else [])
        spans_path = stem + "_spans.json"
        if traced:
            argv = [sys.executable, str(HERE / "traced_cli.py"), spans_path, *args]
        else:
            argv = [sys.executable, "-m", "triptych.cli", *args]
        child = self.launcher.run(argv)
        spans = None
        if traced and child.code == 0:
            spans = json.loads(Path(spans_path).read_text())
        return child, stem, spans

    def traced_lib(self, step, tracer):
        import tracing

        first = len(tracer.spans)
        restore = tracing.install(tracer)
        try:
            wall, result, errors = lib_call(step, self.api)
        finally:
            restore()
        spans = tracer.spans[first:]
        # Re-root the call's spans so each list stands alone.
        rerooted = [dict(s, parent=None if s["parent"] is None else s["parent"] - first)
                    for s in spans]
        return wall, result, errors, rerooted

    def step(self, step, tracer=None):
        label = f"{step.kind} {step.size}"
        if step.cli is not None:
            child, stem, _ = self.cli(step, traced=False)
        wall, result, errors = lib_call(step, self.api)
        lib_ok = self.tally.record(f"library {label}", errors)
        if step.cli is not None:
            ok = self.tally.record(f"cli {label}", cli_errors(step, child, stem, result, lib_ok))
            self.cli_ok += ok
            self.cli_wall.append(child.wall_s)
            self.cli_rss.append(child.rss_mb)
            self.untraced_s += child.wall_s
            self._clean(stem)
        self.lib_wall.append(wall)
        self.untraced_s += wall
        record = self.by_step.setdefault(label, {"lib_s": [], "cli_s": [], "cli_rss_mb": []})
        record["lib_s"].append(wall)
        if step.cli is not None:
            record["cli_s"].append(child.wall_s)
            record["cli_rss_mb"].append(child.rss_mb)
        if tracer is None:
            return
        if step.cli is not None:
            child, stem, spans = self.cli(step, traced=True)
            self.tally.record(f"traced cli {label}",
                              cli_errors(step, child, stem, result, lib_ok))
            self.traced_s += child.wall_s
            if spans is not None:
                self.traced_cli.append((step.kind, spans))
            self._clean(stem)
        wall, _, errors, spans = self.traced_lib(step, tracer)
        self.tally.record(f"traced library {label}", errors)
        self.traced_s += wall
        if step.kind == "rv":
            self.traced_rv.append(spans)

    def _clean(self, stem):
        for path in Path(self.tmp).glob(Path(stem).name + "_*"):
            path.unlink()

    def loop(self, tracer=None) -> int:
        deadline = time.perf_counter() + self.seconds
        cycles = 0
        while True:
            start = time.perf_counter()
            for step in self.wl.steps:
                self.step(step, tracer)
            cycles += 1
            now = time.perf_counter()
            if now + (now - start) > deadline:
                return cycles

    # --- metrics --------------------------------------------------------

    def end_to_end(self, setup: list[float]) -> dict:
        busy = sum(self.cli_wall) + sum(self.lib_wall)
        return {
            "setup_s": (statistics.median(setup), "s"),
            "cli_s.p50": (percentile(self.cli_wall, 50), "s"),
            f"cli_s.p{TAIL}": (percentile(self.cli_wall, TAIL), "s"),
            "cli_rss_mb.p50": (percentile(self.cli_rss, 50), "MB"),
            "cli_rss_mb.max": (max(self.cli_rss), "MB"),
            "lib_s.p50": (percentile(self.lib_wall, 50), "s"),
            f"lib_s.p{TAIL}": (percentile(self.lib_wall, TAIL), "s"),
            "analyses_per_s": (self.cli_ok / busy, "1/s"),
            "ok_frac": (1.0 - self.tally.failed / self.tally.attempted, "frac"),
        }

    def per_layer(self) -> tuple[dict, dict]:
        import tracing

        imports = [tracing.import_buckets(self.version_wall(["-X", "importtime"]).stderr)
                   for _ in range(IMPORTTIME_SAMPLES)]
        metrics = {}
        for pkg in ("numpy", "scipy", "triptych"):
            metrics[f"setup.import_{pkg}_s"] = statistics.median(b[pkg] for b in imports)
        metrics.update(tracing.analysis_metrics([s for _, s in self.traced_cli]))
        metrics.update(tracing.rv_metrics(self.traced_rv))
        metrics["trace.overhead_frac"] = (self.traced_s - self.untraced_s) / self.untraced_s
        by_op = {}
        for kind in dict.fromkeys(k for k, _ in self.traced_cli):
            by_op[kind] = tracing.analysis_metrics([s for k, s in self.traced_cli if k == kind])
        return {name: (value, unit(name)) for name, value in metrics.items()}, by_op


def run(workload: str, seed: int, seconds: float, trace: bool, tiny: bool = False,
        out=print) -> dict:
    """Run one benchmark and print metadata and the result line; returns the result."""
    sys.path.insert(0, str(SRC))
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as tmp:
        # Started first, while this process is still small.
        launcher = Launcher(tmp)
        try:
            t0 = time.perf_counter()
            runner = Runner(workload, seed, seconds, launcher, tmp, tiny)
            inputs_s = time.perf_counter() - t0
            setup = runner.setup()
            tracer = None
            if trace:
                import tracing

                tracer = tracing.Tracer()
            loop_start = time.perf_counter()
            cycles = runner.loop(tracer)
            loop_s = time.perf_counter() - loop_start
            if trace:
                metrics, by_op = runner.per_layer()
            else:
                metrics, by_op = runner.end_to_end(setup), None
        except BaseException:
            launcher.close(kill=True)
            raise
        launcher.close()
    tally = runner.tally
    meta = {
        "workload": workload, "seed": seed, "trace": int(trace), **versions(),
        "src_triptych_lines": src_lines(), "cycles": cycles, "loop_s": loop_s,
        "steps_per_cycle": len(runner.wl.steps),
        "samples": {"cli": len(runner.cli_wall), "lib": len(runner.lib_wall),
                    "setup": len(setup)},
        "inputs": runner.wl.inputs, "inputs_s": inputs_s,
        "failed_frac": tally.failed / tally.attempted,
        "failures": tally.messages[:20],
    }
    if by_op is not None:
        meta["by_op"] = by_op
    meta["step_s"] = runner.by_step
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": metric_unit}
                    for name, (value, metric_unit) in metrics.items()},
    }
    out(json.dumps({"meta": meta}))
    out(json.dumps(result))
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=("tall", "square", "graph"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # Let a termination request unwind normally: the launcher, its child and
    # the temporary directory are then cleaned up.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not (SRC / "triptych" / "__init__.py").is_file():
        print(f"error: package sources not found under {SRC}", file=sys.stderr)
        return 2
    run(args.workload, args.seed, args.seconds, bool(args.trace))
    return 0


if __name__ == "__main__":
    sys.exit(main())
