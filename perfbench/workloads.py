"""Seeded inputs and the workload table of the safs benchmark.

Each workload fixes the shape of its inputs (row count, columns, category
counts, planted signal); the seed draws only the cell values and outcomes.
A run uses ``inputs`` distinct inputs, drawn from (seed, 0), (seed, 1), ...:
how long a scan takes depends on the values drawn, so the ops of a run cycle
through several inputs and the median op does not hang on one draw. Inputs
reach the program only as CSV files.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

OUTCOME = "y"


@dataclass(frozen=True)
class Planted:
    """What the generator planted: the records of the divergent subgroup
    (scan workloads) or the signal feature names (ranking workload)."""

    records: np.ndarray | None = None
    features: tuple[str, ...] = ()


def _write_csv(path, names: list[str], columns: list[list[str]], y: np.ndarray) -> None:
    cols = columns + [["1" if v else "0" for v in y]]
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(names + [OUTCOME]) + "\n")
        fh.write("\n".join(map(",".join, zip(*cols))))
        fh.write("\n")


def _text_column(prefix: str, codes: np.ndarray, card: int) -> list[str]:
    return np.array([f"{prefix}{v}" for v in range(card)])[codes].tolist()


def planted_pipeline(seed, path, n: int) -> Planted:
    """The ``tests/synth.py::planted_dataset`` design: three 3-valued signal
    features define the planted subgroup (f00 = v0, f01 in {v0, v1},
    f02 = v0; outcome rate 0.8 inside, 0.2 outside) plus nine binary noise
    features. Values are written as text labels."""
    rng = np.random.default_rng(seed)
    cards = [3, 3, 3] + [2] * 9
    codes = np.column_stack([rng.integers(0, c, n) for c in cards])
    inside = (codes[:, 0] == 0) & np.isin(codes[:, 1], (0, 1)) & (codes[:, 2] == 0)
    y = rng.random(n) < np.where(inside, 0.8, 0.2)
    names = [f"f{i:02d}" for i in range(len(cards))]
    columns = [_text_column("v", codes[:, i], c) for i, c in enumerate(cards)]
    _write_csv(path, names, columns, y)
    return Planted(records=inside)


SCAN_TEXT_CARDS = (8, 10, 12, 14, 17, 20, 23, 26, 28, 30)


def _skewed(rng, n: int, card: int) -> np.ndarray:
    """Codes where c0 has half the mass, c1 a quarter, the rest share the
    last quarter evenly."""
    p = np.full(card, 0.25 / (card - 2))
    p[:2] = 0.5, 0.25
    return rng.choice(card, n, p=p)


def planted_mixed(seed, path, n: int) -> Planted:
    """Ten numeric columns (quantile-binned by the program into 5 bins) and
    ten text columns with 8-30 categories. The planted subgroup is
    t00 = c0 AND t01 = c0 (a quarter of the records: c0 holds half of each
    of those columns) with outcome rate 0.65 against 0.45 elsewhere.
    Categories t00 = c1 and t01 = c1 (a quarter each) lower the rate by 0.2,
    exactly the mass the subgroup adds to their columns, so the other
    categories of t00 and t01 carry no association: that sparsity puts both
    columns at the top of the ranking. Every other column is noise."""
    rng = np.random.default_rng(seed)
    numeric = rng.lognormal(0.0, 1.0, (n, 10))
    codes = np.column_stack([_skewed(rng, n, c) for c in SCAN_TEXT_CARDS[:2]]
                            + [rng.integers(0, c, n) for c in SCAN_TEXT_CARDS[2:]])
    inside = (codes[:, 0] == 0) & (codes[:, 1] == 0)
    rate = 0.45 + 0.2 * (inside.astype(float) - (codes[:, 0] == 1) - (codes[:, 1] == 1))
    y = rng.random(n) < rate
    names = [f"x{i:02d}" for i in range(10)] + [f"t{i:02d}" for i in range(10)]
    columns = [[f"{v:.5f}" for v in numeric[:, i]] for i in range(10)]
    columns += [_text_column("c", codes[:, i], c) for i, c in enumerate(SCAN_TEXT_CARDS)]
    _write_csv(path, names, columns, y)
    return Planted(records=inside)


WIDE_COLUMNS = 100
WIDE_SIGNAL = (20, 30)


def wide_text(seed, path, n: int) -> Planted:
    """100 text columns whose category counts run from 2 to 40, close to the
    shape of the 109-column insurance-claims data. In two of them (w020 and
    w030; 9 and 13 categories) category k0 raises the outcome rate by 0.2
    and k1 lowers it by 0.2, so their other categories carry no association;
    the other 98 columns are noise."""
    rng = np.random.default_rng(seed)
    cards = [2 + (j * 38) // (WIDE_COLUMNS - 1) for j in range(WIDE_COLUMNS)]
    codes = np.column_stack([rng.integers(0, c, n) for c in cards])
    signal = codes[:, list(WIDE_SIGNAL)]
    rate = 0.5 + 0.2 * ((signal == 0).sum(axis=1) - (signal == 1).sum(axis=1))
    y = rng.random(n) < rate
    names = [f"w{j:03d}" for j in range(WIDE_COLUMNS)]
    columns = [_text_column("k", codes[:, j], c) for j, c in enumerate(cards)]
    _write_csv(path, names, columns, y)
    return Planted(features=tuple(names[j] for j in WIDE_SIGNAL))


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    command: str
    args: tuple[str, ...]
    generate: Callable[..., Planted]
    rows: dict[str, int]  # input rows per scale
    inputs: int
    threads: int = 1

    @property
    def kind(self) -> str:
        """The ``kind`` of the artifact payload the command writes."""
        return "ranking" if self.command == "rank" else self.command

    def arg(self, flag: str) -> str:
        return self.args[self.args.index(flag) + 1]

    def argv(self, csv_path: str, out_path: str, threads: int | None = None) -> list[str]:
        argv = [self.command, "--input", csv_path, "--outcome-col", OUTCOME,
                "--out", out_path, *self.args]
        if self.command == "pipeline":
            argv += ["--threads", str(threads or self.threads)]
        return argv


WORKLOADS = {w.name: w for w in [
    Workload(
        name="pipeline-small",
        why=("the product's full path: rank, scan, permutation p-value and "
             "report; the permutation layer does nearly all the work"),
        command="pipeline",
        args=("--top-k", "12", "--restarts", "3", "--seed", "0", "--permutations", "9"),
        threads=2,
        generate=planted_pipeline,
        rows={"bench": 5_000, "smoke": 600},
        inputs=16,
    ),
    Workload(
        name="scan-large",
        why=("one large scan with no permutations: mask rebuilds in the "
             "scanner dominate and ingest parses and bins numbers"),
        command="scan",
        args=("--top-k", "10", "--restarts", "10", "--seed", "0"),
        generate=planted_mixed,
        rows={"bench": 20_000, "smoke": 1_000},
        inputs=10,
    ),
    Workload(
        name="rank-wide",
        why=("ranking a wide text table: ingest dictionary-encodes 100 "
             "columns, the scanner and permutation layer do nothing"),
        command="rank",
        args=("--method", "safs", "--top-k", str(len(WIDE_SIGNAL))),
        generate=wide_text,
        rows={"bench": 20_000, "smoke": 800},
        inputs=2,
    ),
]}
