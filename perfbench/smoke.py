"""Smoke test of the benchmark at tiny input sizes.

Run from the repository root::

    python3 perfbench/smoke.py

For every workload in BENCHMARK.json, with tracing off and on, it checks
that the run is correct and prints exactly the metrics BENCHMARK.json names,
each with its unit, and that the traced run shows the known shape of the
code (two spectrum calls per ``layout --axes 2``, no axes kept by scree-only
runs).  Then it corrupts one CLI output file and checks that the failure is
counted.  Exits non-zero on the first failed assertion.
"""

import json
from pathlib import Path

import run

SEED = 7


def tiny_run(workload: str, trace: bool) -> tuple[dict, dict]:
    lines: list[str] = []
    result = run.run(workload, SEED, 0.1, trace, tiny=True, out=lines.append)
    return result, json.loads(lines[-2])["meta"]


def check_metrics(spec: dict) -> None:
    for workload in (w["name"] for w in spec["workloads"]):
        for trace, key in ((False, "end_to_end"), (True, "per_layer")):
            result, meta = tiny_run(workload, trace)
            assert result["correct"] and result["failed"] == 0, meta["failures"]
            want = {m["name"]: m["unit"] for m in spec[key]}
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            assert got == want, (workload, key, set(got) ^ set(want))
            if trace:
                by_op = meta["by_op"]
                for kind, metrics in by_op.items():
                    if kind.endswith("-scree"):
                        assert metrics["linalg.axes_kept_ratio"] == 0, kind
                if "layout-axes2" in by_op:
                    assert by_op["layout-axes2"]["graph.spectrum.calls_per_op"] == 2
            print(f"ok  {workload} trace={int(trace)}: {len(got)} metrics", flush=True)


def check_corruption_counts() -> None:
    """A wrong value in a written coordinates file must count as a failure."""
    original = run.Runner.cli

    def corrupting(self, step, traced):
        child, stem, spans = original(self, step, traced)
        rows = Path(stem + "_rows.tsv")
        if rows.exists():
            lines = rows.read_text(encoding="utf-8").splitlines()
            cells = lines[1].split("\t")
            cells[1] = repr(float(cells[1]) + 1.0)
            lines[1] = "\t".join(cells)
            rows.write_text("\n".join(lines) + "\n", encoding="utf-8")
        return child, stem, spans

    run.Runner.cli = corrupting
    try:
        result, meta = tiny_run("tall", False)
    finally:
        run.Runner.cli = original
    assert not result["correct"] and result["failed"] > 0, result
    assert meta["failed_frac"] > 0 and result["metrics"]["ok_frac"]["value"] < 1
    print(f"ok  corrupted output counted: failed_frac={meta['failed_frac']:.3f}")


def main() -> None:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    check_metrics(spec)
    check_corruption_counts()


if __name__ == "__main__":
    main()
