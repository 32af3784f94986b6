"""The safs benchmark: run one workload and print its metrics.

Run from the root of a checkout:

    python3 perfbench/run.py --workload scan-large --seed 0 --seconds 45 --trace 0

The input is generated from --seed and written to a CSV under
perfbench/_work/. Each op is one call of the real entry point,
``safs.cli.main([...])``, in a fresh worker process per run: the first op is
an untimed warm-up, and set-up (import plus warm-up) is repeated in
``SETUPS`` processes. Every artifact is checked for correctness. The last
line of standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics`` (the end-to-end metrics with --trace 0, the
per-layer metrics of a separate traced run with --trace 1).

``--workload all`` runs every workload in turn; ``--scale smoke`` shrinks
the inputs for a quick check of the benchmark itself.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from workloads import WORKLOADS, Workload  # noqa: E402

SETUPS = 3          # set-ups per run; setup_s is their median
RUN_LIMIT_S = 170   # a run that would take longer is stopped and fails

END_TO_END = {
    "op_s_p50": ("s", "median wall time of one CLI op, CSV read to artifact written"),
    "rows_per_s": ("rows/s", "input rows processed per second of op time over the run"),
    "setup_s": ("s", "import of safs.cli plus the first, untimed op; median of the set-ups"),
    "peak_rss_mb": ("MB", "peak resident memory of the measuring process"),
    "planted_jaccard": ("ratio", "Jaccard of the answer with the planted truth"),
}

# name -> (unit, what it should move and where)
PER_LAYER = {
    "dataset.load_csv.s": ("s", "op_s_p50, rows_per_s, peak_rss_mb: large on rank-wide, "
                           "smaller on scan-large, none on pipeline-small"),
    "dataset.load_csv.rows_per_s": ("rows/s", "as dataset.load_csv.s"),
    "dataset.constraints_bool_mask.calls": ("count", "op_s_p50 on scan-large and "
                                            "pipeline-small; nothing on rank-wide"),
    "dataset.constraints_bool_mask.self_s": ("s", "as dataset.constraints_bool_mask.calls"),
    "scanner.scan.calls": ("count", "op_s_p50 on scan-large and pipeline-small"),
    "scanner.scan.s_p50": ("s", "op_s_p50 on scan-large and pipeline-small"),
    "scanner.scan.self_s": ("s", "op_s_p50 on scan-large and pipeline-small"),
    "scanner.optimize_feature.calls": ("count", "op_s_p50 on scan-large and pipeline-small"),
    "scanner.optimize_feature.self_s": ("s", "op_s_p50 on scan-large and pipeline-small"),
    "scanner.score_subgroup.calls": ("count", "op_s_p50 on scan-large and pipeline-small; "
                                     "the full rescoring an incremental kernel removes"),
    "scanner.score_subgroup.self_s": ("s", "as scanner.score_subgroup.calls"),
    "scanner.useful_step_frac": ("ratio", "wasted coordinate steps; op_s_p50 on scan workloads"),
    "report.empirical_p_value.s": ("s", "op_s_p50 on pipeline-small only"),
    "report.replicates_per_s": ("1/s", "op_s_p50 on pipeline-small only"),
    "report.replicate_scan_s_p50": ("s", "op_s_p50 on pipeline-small only"),
    "report.thread_speedup": ("ratio", "op_s_p50 on pipeline-small only; replicates at "
                              "threads=1 over the workload's thread count"),
    "report.build_report.s": ("s", "small on every workload"),
    "cli.self_s": ("s", "small on every workload: op time outside the layer spans"),
    "ranking.safs_rank.s": ("s", "attribution only: at most a few percent of rank-wide"),
    "trace.overhead_frac": ("ratio", "traced op time over untraced, minus 1"),
}


class BenchError(Exception):
    """The benchmark could not measure (no program, a worker died)."""


def environment() -> dict:
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    import numpy
    return {"nproc": os.cpu_count(), "cpu": cpu, "python": platform.python_version(),
            "numpy": numpy.__version__, "click": metadata.version("click")}


def _worker(cfg: dict, work: Path, index: int, deadline: float) -> dict:
    cfg_path = work / f"worker{index}.config.json"
    cfg_path.write_text(json.dumps(cfg), encoding="utf-8")
    try:
        proc = subprocess.run([sys.executable, str(HERE / "worker.py"), str(cfg_path)],
                              capture_output=True, text=True,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        raise BenchError(f"worker {index} did not finish within {RUN_LIMIT_S} s") from None
    if proc.returncode != 0:
        raise BenchError(f"worker {index} exited with {proc.returncode}: "
                         f"{proc.stderr.strip()[-2000:]}")
    return json.loads(Path(cfg["result"]).read_text(encoding="utf-8"))


def _p50(values):
    return statistics.median(values) if values else 0.0


def verify(workload: Workload, seed: int, scale: str, datasets: list, ops: list[dict],
           payloads: dict) -> tuple[list[bool], dict]:
    """Mark each op correct or failed.

    An op fails when it raised or exited non-zero, wrote no readable
    artifact, its payload fails the checks against its input, or its payload
    differs from the stored reference for this seed and input (or, without
    one, from the first payload computed from that input).
    """
    from check import check_payload
    pairs = {(op["input"], op["digest"]) for op in ops if op["digest"]}
    problems = {(i, d): check_payload(payloads[d], datasets[i], workload) for i, d in pairs}
    reference = None
    if scale == "bench":
        refs = json.loads((HERE / "reference.json").read_text(encoding="utf-8"))
        reference = refs.get(workload.name, {}).get(str(seed))
    expected = reference or [
        next((op["digest"] for op in ops if op["input"] == i and op["digest"]), None)
        for i in range(len(datasets))]
    ok = [op["rc"] == 0 and op["digest"] is not None
          and op["digest"] == expected[op["input"]] and not problems[(op["input"], op["digest"])]
          for op in ops]
    return ok, {"payload_sha256": expected, "reference": reference is not None,
                "problems": {f"input {i} payload {d[:12]}": p
                             for (i, d), p in sorted(problems.items()) if p}}


def layer_metrics(spans_path: str, ops: list[dict], ok: list[bool], rows: int) -> dict:
    """Per-layer medians over the traced ops of the measuring process."""
    from spans import op_layers, read
    spans, counts = read(spans_path)
    by_op: dict[int, list] = {}
    for span in spans:
        by_op.setdefault(span[0], []).append(span)
    per_kind: dict[str, list[dict]] = {"traced": [], "traced_single": []}
    for i, op in enumerate(ops):
        if op["kind"] in per_kind and ok[i]:
            per_kind[op["kind"]].append(op_layers(by_op.get(i, []), counts, i))
    traced = per_kind["traced"]
    if not traced:
        raise BenchError("no traced op succeeded")
    out = {name: _p50([t[name] for t in traced]) for name in PER_LAYER if name in traced[0]}
    load_s, pv_s = out["dataset.load_csv.s"], out["report.empirical_p_value.s"]
    out["dataset.load_csv.rows_per_s"] = rows / load_s if load_s else 0.0
    out["report.replicates_per_s"] = (
        _p50([t["report.replicate_scans"] for t in traced]) / pv_s if pv_s else 0.0)
    single = [t["report.empirical_p_value.s"] for t in per_kind["traced_single"]]
    out["report.thread_speedup"] = _p50(single) / pv_s if single and pv_s else 0.0
    def op_s(kind):
        return _p50([op["s"] for op, good in zip(ops, ok) if good and op["kind"] == kind])

    out["trace.overhead_frac"] = op_s("traced") / op_s("plain") - 1
    return out


def run(workload: Workload, seed: int, seconds: float, trace: bool, scale: str,
        root: Path) -> dict:
    if not (root / "src" / "safs" / "cli.py").is_file():
        raise BenchError(f"no safs source under {root / 'src'}; run from a checkout's root")
    deadline = time.monotonic() + RUN_LIMIT_S
    work = HERE / "_work" / f"{workload.name}-t{int(trace)}"
    work.mkdir(parents=True, exist_ok=True)
    rows = workload.rows[scale]
    out_path = work / "out.json"
    csv_paths = [work / f"input{i}.csv" for i in range(workload.inputs)]
    planted = [workload.generate([seed, i], path, rows) for i, path in enumerate(csv_paths)]
    cfg = {
        "src": str(root / "src"),
        "argvs": [workload.argv(str(path), str(out_path)) for path in csv_paths],
        "argvs_single": ([workload.argv(str(path), str(out_path), threads=1)
                          for path in csv_paths]
                         if trace and workload.threads > 1 else None),
        "out": str(out_path), "seconds": seconds, "trace": trace,
        "spans": str(work / "spans.jsonl"),
    }
    results = [_worker(dict(cfg, mode="measure" if i == SETUPS - 1 else "setup",
                            result=str(work / f"worker{i}.json")), work, i, deadline)
               for i in range(SETUPS)]
    measured = results[-1]
    ops = [op for r in results for op in r["ops"]]
    payloads = {d: p for r in results for d, p in r["payloads"].items()}

    sys.path.insert(0, str(root / "src"))
    from check import distinct_rows_frac, load, planted_jaccard
    datasets = [load(path) for path in csv_paths]
    ok, verdict = verify(workload, seed, scale, datasets, ops, payloads)
    timed = [op["s"] for op, good in zip(ops, ok) if good and op["kind"] == "plain"]
    if not timed:
        raise BenchError(f"no timed op succeeded: {verdict['problems']}")
    answers = [payloads.get(d) for d in verdict["payload_sha256"]]

    metrics = {}
    if trace:
        metrics = layer_metrics(measured["spans"], measured["ops"],
                                ok[len(ops) - len(measured["ops"]):], rows)
        samples = {name: sum(op["kind"] == "traced" for op in measured["ops"])
                   for name in PER_LAYER}
        units = {name: unit for name, (unit, _) in PER_LAYER.items()}
    else:
        op_s = _p50(timed)
        metrics = {
            "op_s_p50": op_s,
            "rows_per_s": rows * len(timed) / sum(timed),
            "setup_s": _p50([r["setup_s"] for r in results]),
            "peak_rss_mb": measured["peak_rss_mb"],
            "planted_jaccard": statistics.mean(
                planted_jaccard(a, d, p) if a else 0.0
                for a, d, p in zip(answers, datasets, planted)),
        }
        samples = {"op_s_p50": len(timed), "rows_per_s": len(timed), "setup_s": SETUPS,
                   "peak_rss_mb": 1, "planted_jaccard": workload.inputs}
        units = {name: unit for name, (unit, _) in END_TO_END.items()}
    failed = ok.count(False)
    result = {
        "workload": {"name": workload.name, "why": workload.why, "rows": rows,
                     "inputs": workload.inputs, "argv": cfg["argvs"][0],
                     "threads": workload.threads,
                     "distinct_rows_frac": statistics.mean(
                         distinct_rows_frac(d, workload) for d in datasets)},
        "seed": seed, "seconds": seconds, "trace": trace, "scale": scale,
        "environment": environment(),
        "verdict": verdict,
        "correct": failed == 0,
        "attempted": len(ok),
        "failed": failed,
        "metrics": {name: {"value": v, "unit": units[name]} for name, v in metrics.items()},
        "samples": samples,
        "ops": ops,
    }
    (work / "results.json").write_text(json.dumps(result, indent=1), encoding="utf-8")
    return result


def report(result: dict) -> list[str]:
    """Human-readable lines: context, then every metric with unit and samples."""
    w = result["workload"]
    lines = [f"# workload {w['name']}: {w['why']}",
             "# " + json.dumps({k: w[k] for k in ("rows", "inputs", "threads",
                                                  "distinct_rows_frac")}
                               | {"seed": result["seed"], "seconds": result["seconds"],
                                  "trace": result["trace"], "scale": result["scale"]}),
             "# argv " + " ".join(w["argv"]),
             "# environment " + json.dumps(result["environment"])]
    notes = PER_LAYER if result["trace"] else END_TO_END
    for name, m in result["metrics"].items():
        lines.append(f"{name:<38} {m['value']:>14.6g} {m['unit']:<7} "
                     f"n={result['samples'][name]:<4} {notes[name][1]}")
    frac = result["failed"] / result["attempted"]
    lines.append(f"{'failed_frac':<38} {frac:>14.6g} {'ratio':<7} "
                 f"n={result['attempted']:<4} ops that raised, exited non-zero or failed the check")
    v = result["verdict"]
    ref = "stored reference" if v["reference"] else "no reference stored for this seed"
    lines.append(f"# payload sha256 per input ({ref}): {json.dumps(v['payload_sha256'])}")
    lines += [f"# FAILED CHECK {where}: {p}" for where, p in v["problems"].items()]
    return lines


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=45)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--scale", choices=("bench", "smoke"), default="bench")
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be >= 0")
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = []
    try:
        for name in names:
            results.append(run(WORKLOADS[name], args.seed, args.seconds, bool(args.trace),
                               args.scale, Path.cwd()))
            print("\n".join(report(results[-1])), flush=True)
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    if len(results) == 1:
        metrics = results[0]["metrics"]
    else:
        metrics = {f"{r['workload']['name']}.{k}": v
                   for r in results for k, v in r["metrics"].items()}
    print(json.dumps({"correct": all(r["correct"] for r in results),
                      "attempted": sum(r["attempted"] for r in results),
                      "failed": sum(r["failed"] for r in results),
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
