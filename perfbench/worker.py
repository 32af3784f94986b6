"""One benchmark process: import safs, run one warm-up op, then timed ops.

Usage: python3 perfbench/worker.py CONFIG.json

CONFIG names the CLI argument lists (one per input, and optionally the same
at threads=1), the artifact path, the mode ("setup": stop after the warm-up
op; "measure": time ops for ``seconds``, cycling through the inputs),
whether to trace, and where to write the result. Every op drives the real
entry point ``safs.cli.main``; the artifact it writes is read back after the
op, outside the timed region, and reduced to a digest of its payload.
"""

from __future__ import annotations

import time

T_START = time.perf_counter()

import hashlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402


def payload_digest(payload) -> str:
    text = json.dumps(payload, sort_keys=True, ensure_ascii=False, indent=2)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


class Ops:
    """Runs ops and keeps, per op, its kind, time, exit code and digest."""

    def __init__(self, main, out_path: str):
        self.main = main
        self.out_path = out_path
        self.records: list[dict] = []
        self.payloads: dict[str, object] = {}

    def run(self, kind: str, index: int, argv: list[str], call=None) -> dict:
        start = time.perf_counter()
        try:
            rc = call(self.main, argv) if call else self.main(argv)
        except Exception as exc:  # an op that raises is a failed op, not a crash
            print(f"op raised {type(exc).__name__}: {exc}", file=sys.stderr)
            rc = -1
        elapsed = time.perf_counter() - start
        rec = {"kind": kind, "input": index, "s": elapsed, "rc": rc, "digest": None}
        if rc == 0:
            try:
                with open(self.out_path, encoding="utf-8") as fh:
                    payload = json.load(fh)["payload"]
            except (OSError, ValueError, KeyError) as exc:
                print(f"unreadable artifact: {exc}", file=sys.stderr)
            else:
                rec["digest"] = payload_digest(payload)
                self.payloads.setdefault(rec["digest"], payload)
        self.records.append(rec)
        return rec


def main(config_path: str) -> int:
    with open(config_path, encoding="utf-8") as fh:
        cfg = json.load(fh)
    sys.path.insert(0, cfg["src"])
    import safs.cli

    ops = Ops(safs.cli.main, cfg["out"])
    argvs, singles = cfg["argvs"], cfg["argvs_single"]
    ops.run("warmup", 0, argvs[0])
    setup_s = time.perf_counter() - T_START

    spans_path = None
    if cfg["mode"] == "measure":
        deadline = time.perf_counter() + cfg["seconds"]
        if cfg["trace"]:
            from spans import Tracer
            tracer = Tracer()

            def traced(main, argv):
                tracer.install()
                try:
                    return tracer.run_op(len(ops.records), main, argv)
                finally:
                    tracer.uninstall()

            cycle = [("plain", argvs, None), ("traced", argvs, traced)]
            if singles:
                cycle.append(("traced_single", singles, traced))
        else:
            cycle = [("plain", argvs, None)]
        i = 0
        # untraced, every input gets at least one op, so the median spans the set
        while time.perf_counter() < deadline or (not cfg["trace"] and i < len(argvs)):
            index = i % len(argvs)
            for kind, inputs, call in cycle:
                ops.run(kind, index, inputs[index], call)
            i += 1
        if cfg["trace"]:
            spans_path = cfg["spans"]
            tracer.write(spans_path)

    result = {
        "setup_s": setup_s,
        "ops": ops.records,
        "payloads": ops.payloads,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "spans": spans_path,
    }
    with open(cfg["result"], "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
