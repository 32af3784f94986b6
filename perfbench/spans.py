"""Layer spans for the safs benchmark, recorded from outside the library.

Each public function of a layer is wrapped at the module attribute through
which the pipeline looks it up, so tracing needs no change to the library.
A span records (op id, span id, parent id, name, start, end). Spans stay in
memory and are written once, when the run ends.
"""

from __future__ import annotations

import importlib
import itertools
import json
import statistics
import threading
import time
from collections import defaultdict

# (module, attribute looked up by the caller, span name = layer.function)
TARGETS = (
    ("safs.cli", "load_csv", "dataset.load_csv"),
    ("safs.cli", "safs_rank", "ranking.safs_rank"),
    ("safs.cli", "scan", "scanner.scan"),
    ("safs.cli", "empirical_p_value", "report.empirical_p_value"),
    ("safs.cli", "build_report", "report.build_report"),
    ("safs.report", "scan", "scanner.scan"),
    ("safs.scanner", "optimize_feature", "scanner.optimize_feature"),
    ("safs.scanner", "score_subgroup", "scanner.score_subgroup"),
    ("safs.scanner", "constraints_bool_mask", "dataset.constraints_bool_mask"),
)
ROOT = "cli.main"
# Replicate scans run on the permutation pool's threads, whose span stacks
# start empty; they are parented to the open span of this name instead.
FANOUT = "report.empirical_p_value"
USEFUL_STEPS = "scanner.optimize_feature.useful"


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []
        self.counts: dict[tuple[int, str], int] = defaultdict(int)
        self.op = 0
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._local = threading.local()
        self._fanout: int | None = None
        self._saved: list[tuple] = []

    def _open(self, name: str) -> tuple[int, int | None, list]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        parent = stack[-1] if stack else self._fanout
        with self._lock:
            sid = next(self._ids)
        stack.append(sid)
        if name == FANOUT:
            self._fanout = sid
        return sid, parent, stack

    def _close(self, name, sid, parent, stack, t0) -> None:
        t1 = time.perf_counter()
        stack.pop()
        if name == FANOUT:
            self._fanout = None
        self.spans.append((self.op, sid, parent, name, t0, t1))

    def _count(self, name: str) -> None:
        with self._lock:
            self.counts[(self.op, name)] += 1

    def wrap(self, fn, name: str):
        tracer = self

        def traced(*args, **kwargs):
            sid, parent, stack = tracer._open(name)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(name, sid, parent, stack, t0)
            if name == "scanner.optimize_feature":
                # a coordinate step is useful when it changes the descriptor
                descriptor = args[1] if len(args) > 1 else kwargs["descriptor"]
                feature = args[2] if len(args) > 2 else kwargs["feature"]
                if result != descriptor.constraints.get(feature):
                    tracer._count(USEFUL_STEPS)
            return result

        return traced

    def install(self) -> None:
        for module_name, attr, name in TARGETS:
            module = importlib.import_module(module_name)
            fn = getattr(module, attr, None)
            if fn is None:  # the layer no longer has this entry point: it reads 0
                continue
            self._saved.append((module, attr, fn))
            setattr(module, attr, self.wrap(fn, name))

    def uninstall(self) -> None:
        while self._saved:
            module, attr, fn = self._saved.pop()
            setattr(module, attr, fn)

    def run_op(self, op: int, fn, *args):
        """Run one operation as the root span of op ``op``."""
        self.op = op
        return self.wrap(fn, ROOT)(*args)

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")
            for (op, name), n in sorted(self.counts.items()):
                fh.write(json.dumps([op, "count", name, n]) + "\n")


def read(path) -> tuple[list[tuple], dict[tuple[int, str], int]]:
    spans, counts = [], {}
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            rec = json.loads(line)
            if rec[1] == "count":
                counts[(rec[0], rec[2])] = rec[3]
            else:
                spans.append(tuple(rec))
    return spans, counts


def _covered(intervals: list[tuple[float, float]]) -> float:
    """Length of the union of intervals."""
    total, end = 0.0, float("-inf")
    for a, b in sorted(intervals):
        if b <= end:
            continue
        total += b - max(a, end)
        end = b
    return total


def op_layers(mine: list[tuple], counts: dict, op: int) -> dict[str, float]:
    """Per-layer numbers of one traced op, from that op's spans.

    A span's self time is its duration minus the part of it that its
    children cover, so replicate scans running side by side on pool threads
    are not subtracted twice.
    """
    by_id = {s[1]: s for s in mine}
    children = defaultdict(list)
    for s in mine:
        if s[2] is not None:
            children[s[2]].append((s[4], s[5]))
    dur = defaultdict(list)
    self_s = defaultdict(float)
    for s in mine:
        _, sid, _, name, t0, t1 = s
        clipped = [(max(a, t0), min(b, t1)) for a, b in children[sid]]
        dur[name].append(t1 - t0)
        self_s[name] += (t1 - t0) - _covered([c for c in clipped if c[1] > c[0]])

    def total(name):
        return sum(dur[name])

    def p50(values):
        return statistics.median(values) if values else 0.0

    replicate = [s[5] - s[4] for s in mine if s[3] == "scanner.scan"
                 and s[2] in by_id and by_id[s[2]][3] == FANOUT]
    steps = len(dur["scanner.optimize_feature"])
    return {
        "dataset.load_csv.s": total("dataset.load_csv"),
        "dataset.constraints_bool_mask.calls": len(dur["dataset.constraints_bool_mask"]),
        "dataset.constraints_bool_mask.self_s": self_s["dataset.constraints_bool_mask"],
        "scanner.scan.calls": len(dur["scanner.scan"]),
        "scanner.scan.s_p50": p50(dur["scanner.scan"]),
        "scanner.scan.self_s": self_s["scanner.scan"],
        "scanner.optimize_feature.calls": steps,
        "scanner.optimize_feature.self_s": self_s["scanner.optimize_feature"],
        "scanner.score_subgroup.calls": len(dur["scanner.score_subgroup"]),
        "scanner.score_subgroup.self_s": self_s["scanner.score_subgroup"],
        "scanner.useful_step_frac": counts.get((op, USEFUL_STEPS), 0) / steps if steps else 0.0,
        "report.empirical_p_value.s": total(FANOUT),
        "report.replicate_scans": len(replicate),
        "report.replicate_scan_s_p50": p50(replicate),
        "report.build_report.s": total("report.build_report"),
        "ranking.safs_rank.s": total("ranking.safs_rank"),
        "cli.self_s": self_s[ROOT],
    }
