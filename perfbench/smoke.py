"""Smoke test of the benchmark itself.

Run from the root of a checkout:

    python3 perfbench/smoke.py

Runs every workload at a tiny size, untraced and traced, and checks that the
result line carries every metric BENCHMARK.json names with its unit, that
each is also printed by name, and that no op failed. It then corrupts one
payload per workload on purpose and checks that the correctness gate counts
the op as failed. Exits 0 when all of that holds.
"""

from __future__ import annotations

import contextlib
import copy
import io
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def _quiet(argv: list[str]) -> tuple[int, list[str]]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = run.main(argv)
    return rc, buf.getvalue().splitlines()


def _corrupt(payload: dict) -> dict:
    bad = copy.deepcopy(payload)
    if bad["kind"] == "ranking":
        bad["entries"][0], bad["entries"][-1] = bad["entries"][-1], bad["entries"][0]
    else:
        bad["score"] *= 1.001
    return bad


def check_metrics(spec: dict, failures: list[str]) -> None:
    for name in WORKLOADS:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            argv = ["--workload", name, "--seed", "0", "--seconds", "1",
                    "--trace", str(trace), "--scale", "smoke"]
            rc, lines = _quiet(argv)
            where = f"{name} --trace {trace}"
            if rc != 0 or not lines:
                failures.append(f"{where}: exit code {rc}")
                continue
            result = json.loads(lines[-1])
            expected = {m["name"]: m["unit"] for m in spec[key]}
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            if got != expected:
                failures.append(f"{where}: metrics {got} differ from {expected}")
            for metric, unit in expected.items():
                if not any(line.split()[:1] == [metric] and f" {unit} " in line
                           for line in lines[:-1]):
                    failures.append(f"{where}: {metric} is not printed with unit {unit}")
            if not any(line.startswith("failed_frac ") for line in lines[:-1]):
                failures.append(f"{where}: failed_frac is not printed")
            if not result["correct"] or result["failed"] != 0:
                failures.append(f"{where}: {result['failed']} of "
                                f"{result['attempted']} ops failed")


def check_gate(failures: list[str]) -> None:
    """A corrupted payload must fail the gate and count as a failed op."""
    from check import check_payload, load
    from worker import payload_digest
    for name, workload in WORKLOADS.items():
        work = HERE / "_work" / f"{name}-t0"
        last = json.loads((work / "results.json").read_text(encoding="utf-8"))["ops"][-1]
        dataset = load(work / f"input{last['input']}.csv")
        good = json.loads((work / "out.json").read_text(encoding="utf-8"))["payload"]
        bad = _corrupt(good)
        if check_payload(good, dataset, workload):
            failures.append(f"{name}: the gate rejects a correct payload")
        if not check_payload(bad, dataset, workload):
            failures.append(f"{name}: the gate accepts a corrupted payload")
        bad_digest = payload_digest(bad)
        ops = [{"kind": "plain", "input": 0, "s": 1.0, "rc": 0, "digest": bad_digest}]
        ok, _ = run.verify(workload, 0, "smoke", [dataset], ops, {bad_digest: bad})
        if ok != [False]:
            failures.append(f"{name}: a corrupted op is not counted as failed")


def main() -> int:
    spec = json.loads(Path("BENCHMARK.json").read_text(encoding="utf-8"))
    failures: list[str] = []
    check_metrics(spec, failures)
    check_gate(failures)
    for line in failures:
        print("SMOKE FAIL", line)
    print("smoke ok" if not failures else f"smoke: {len(failures)} failures")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
