"""Command-line entry point: rank, scan, pipeline, compare, sweep.

Every artifact separates a deterministic ``payload`` (stable byte-for-byte
given the same seed and inputs) from a ``volatile`` block (timings). Exit
codes: 0 success, 1 usage error, 2 data error, 3 internal error.
"""

from __future__ import annotations

import json
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import click

from .dataset import (DEFAULT_BINS, DEFAULT_MISSING_LABEL, DiscreteDataset,
                      DiscretizationSpec, load_csv)
from .errors import DataError, SafsError
from .evaluation import overlap_matrix, sweep_k
from .ranking import (METHOD_MI, METHOD_SAFS, FeatureRanking,
                      mutual_information_rank, safs_rank, top_k)
from .report import build_report, empirical_p_value, report_text
from .scanner import ScanConfig, ScanResult, scan

SCHEMA = "safs/1"

_METHODS = {"safs": METHOD_SAFS, "mi": METHOD_MI}

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_INTERNAL = 3


def canonical_json(doc: dict) -> str:
    return json.dumps(doc, sort_keys=True, ensure_ascii=False, indent=2) + "\n"


def _document(kind: str, payload: dict, volatile: dict) -> dict:
    return {"schema": SCHEMA, "kind": kind, "payload": payload, "volatile": volatile}


def _emit(text: str, out: str | None) -> None:
    if out:
        try:
            Path(out).write_text(text, encoding="utf-8")
        except OSError as exc:
            raise DataError(f"cannot write {out}: {exc}") from exc
    else:
        click.echo(text, nl=False)


def _load_and_rank(input_path: str, outcome_col: str, bins: int, missing_category: str,
                   method: str) -> tuple[DiscreteDataset, FeatureRanking, float]:
    """Load the CSV and rank its features; also returns the rank time (s)."""
    spec = DiscretizationSpec(bins=bins, missing_label=missing_category)
    dataset = load_csv(input_path, outcome_col, spec)
    ranker = safs_rank if _METHODS[method] == METHOD_SAFS else mutual_information_rank
    t0 = time.perf_counter()
    ranking = ranker(dataset)
    return dataset, ranking, time.perf_counter() - t0


@dataclass(frozen=True)
class _ScanRun:
    """One load -> rank -> top-K -> scan run."""

    dataset: DiscreteDataset
    ranking: FeatureRanking
    features: list[int]
    config: ScanConfig
    result: ScanResult
    rank_seconds: float

    def payload(self) -> dict:
        result = self.result
        return {
            "kind": "scan",
            "method": self.ranking.method,
            "top_k": len(self.features),
            "direction": self.config.direction,
            "restarts": self.config.restarts,
            "seed": self.config.seed,
            "descriptor": result.descriptor.to_labels(self.dataset),
            "score": result.score,
            "q_hat": result.q_hat if result.q_hat != float("inf") else "inf",
            "subset_size": result.subset_size,
            "subset_fraction": result.subset_size / self.dataset.n_records,
        }

    def volatile(self) -> dict:
        return {"rank_ms": self.rank_seconds * 1000, "scan_ms": self.result.elapsed * 1000}


def _scan_run(k: int | None, restarts: int, direction: str, seed: int,
              **load) -> _ScanRun:
    """Scan the top-k ranked features (all of them when k is None)."""
    dataset, ranking, rank_seconds = _load_and_rank(**load)
    features = top_k(ranking, dataset.n_features if k is None else k)
    config = ScanConfig(direction=direction, restarts=restarts, seed=seed)
    return _ScanRun(dataset, ranking, features, config,
                    scan(dataset, features, config), rank_seconds)


def _ranking_payload(dataset, ranking: FeatureRanking, selected: list[int] | None) -> dict:
    payload = {
        "kind": "ranking",
        "method": ranking.method,
        "outcome": dataset.outcome_name,
        "entries": [
            {"feature": dataset.schemas[f].name, "score": score, "rank": i + 1}
            for i, (f, score) in enumerate(ranking.entries)
        ],
    }
    if selected is not None:
        payload["top_k"] = [dataset.schemas[f].name for f in selected]
    return payload


def _ranking_text(payload: dict) -> str:
    width = max(len(e["feature"]) for e in payload["entries"])
    lines = [f"{e['feature']:<{width}}  {e['score']:.6f}" for e in payload["entries"]]
    return "\n".join(lines) + "\n"


def _load_ranking_file(path: str) -> tuple[str, list[str]]:
    try:
        doc = json.loads(Path(path).read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        raise DataError(f"cannot read ranking file {path}: {exc}") from exc
    if not isinstance(doc, dict) or doc.get("schema") != SCHEMA or doc.get("kind") != "ranking":
        raise DataError(f"{path} is not a {SCHEMA} ranking artifact")
    try:
        payload = doc["payload"]
        method, features = payload["method"], [e["feature"] for e in payload["entries"]]
    except (KeyError, TypeError) as exc:
        raise DataError(f"{path} lacks payload.method or payload.entries[*].feature") from exc
    if not features or not all(isinstance(v, str) for v in [method, *features]):
        raise DataError(f"{path}: payload.entries must be non-empty, and payload.method "
                        "and payload.entries[*].feature must be strings")
    return method, features


def _options(*opts):
    def apply(fn):
        for opt in reversed(opts):
            fn = opt(fn)
        return fn
    return apply


_out_option = click.option("--out", default=None, type=click.Path(),
                           help="Output path (stdout if omitted).")

_format_option = click.option("--format", "fmt", default="json", show_default=True,
                              type=click.Choice(["json", "text"]))

_input_options = _options(
    click.option("--input", "input_path", required=True,
                 type=click.Path(), help="Input CSV file."),
    click.option("--outcome-col", required=True, help="Binary outcome column."),
    click.option("--bins", default=DEFAULT_BINS, show_default=True, type=int,
                 help="Quantile bins for numeric columns."),
    click.option("--missing-category", default=DEFAULT_MISSING_LABEL,
                 help="Label for the missing-value category."),
    click.option("--method", default="safs", show_default=True,
                 type=click.Choice(sorted(_METHODS))),
    _out_option,
)

_common_options = _options(_input_options, _format_option)

_scan_options = _options(
    click.option("--restarts", default=10, show_default=True, type=int),
    click.option("--direction", default="over", show_default=True,
                 type=click.Choice(["over", "under"])),
    click.option("--seed", default=0, show_default=True, type=int),
)

_top_k_option = click.option(
    "--top-k", default=None, type=int,
    help="Keep the top-K ranked features: rank lists them, scan and pipeline "
         "scan only them (default: all).")


@click.group()
def cli():
    """Rank tabular features by sparsity of association and discover the most
    divergent subgroup."""


@cli.command("rank")
@_common_options
@_top_k_option
def rank_command(out, fmt, **kw):
    """Rank features and write the ranking artifact."""
    k = kw.pop("top_k")
    dataset, ranking, elapsed = _load_and_rank(**kw)
    selected = top_k(ranking, k) if k is not None else None
    payload = _ranking_payload(dataset, ranking, selected)
    doc = _document("ranking", payload, {"elapsed_ms": elapsed * 1000})
    _emit(_ranking_text(payload) if fmt == "text" else canonical_json(doc), out)


@cli.command("scan")
@_common_options
@_scan_options
@_top_k_option
def scan_command(top_k, out, fmt, **kw):
    """Rank, select top-K features, and scan for the most divergent subgroup."""
    run = _scan_run(top_k, **kw)
    if fmt == "text":
        text = report_text(build_report(run.dataset, run.result), run.dataset) + "\n"
    else:
        text = canonical_json(_document("scan", run.payload(), run.volatile()))
    _emit(text, out)


@cli.command("pipeline")
@_common_options
@_scan_options
@_top_k_option
@click.option("--permutations", default=100, show_default=True, type=int)
@click.option("--threads", default=1, show_default=True, type=int,
              help="Accepted for compatibility; must be >= 1 and has no effect "
                   "(replicates run serially in this process).")
def pipeline_command(top_k, permutations, threads, out, fmt, **kw):
    """Full run: rank, scan, permutation test, subgroup report."""
    if threads < 1:
        raise DataError(f"threads must be >= 1, got {threads}")
    run = _scan_run(top_k, **kw)
    p_value = empirical_p_value(run.dataset, run.features, run.config,
                                run.result.score, permutations)
    report = build_report(run.dataset, run.result, p_value)
    payload = run.payload()
    payload.update({
        "kind": "pipeline",
        "n_features": report.n_features,
        "n_values": report.n_values,
        "subset_pct": report.subset_pct,
        "odds_ratio": report.odds_ratio,
        "ci": [report.ci_low, report.ci_high],
        "p_value": report.p_value,
        "permutations": permutations,
        "no_divergence": report.no_divergence,
    })
    doc = _document("pipeline", payload, run.volatile())
    _emit(report_text(report, run.dataset) + "\n" if fmt == "text" else canonical_json(doc),
          out)


@cli.command("compare")
@click.option("--rankings", "paths", multiple=True, required=True,
              type=click.Path(), help="Ranking artifacts to compare (repeatable).")
@click.option("-p", "--persistence", default=0.9, show_default=True, type=float)
@_out_option
@_format_option
def compare_command(paths, persistence, out, fmt):
    """Pairwise rank-biased overlap of saved rankings, one row per input."""
    if len(paths) < 2:
        raise click.UsageError("need at least two --rankings files")
    rankings = {}
    for position, path in enumerate(paths, 1):
        method, features = _load_ranking_file(path)
        name = method if method not in rankings else f"{method}:{path}"
        while name in rankings:
            name = f"{name}#{position}"
        rankings[name] = features
    matrix = overlap_matrix(rankings, persistence)
    payload = {
        "kind": "rbo-matrix",
        "p": persistence,
        "methods": list(matrix.methods),
        "matrix": [[round(v, 12) for v in row] for row in matrix.matrix.tolist()],
    }
    if fmt == "text":
        width = max(len(m) for m in matrix.methods)
        lines = [f"{m:<{width}}  " + "  ".join(f"{v:.4f}" for v in row)
                 for m, row in zip(matrix.methods, matrix.matrix)]
        text = "\n".join(lines) + "\n"
    else:
        text = canonical_json(_document("rbo-matrix", payload, {}))
    _emit(text, out)


@cli.command("sweep")
@_input_options
@_scan_options
@click.option("--k", "k_spec", required=True,
              help="Comma-separated ascending K values, e.g. 5,10,15.")
@click.option("--permutations", default=0, show_default=True, type=int,
              help="Permutation replicates per K (0 skips the p-value).")
def sweep_command(k_spec, permutations, restarts, direction, seed, out, **load):
    """Scan each top-K prefix and emit one JSON line per K."""
    try:
        k_values = [int(v) for v in k_spec.split(",") if v.strip()]
    except ValueError:
        raise click.UsageError(f"cannot parse --k value {k_spec!r}") from None
    dataset, ranking, _ = _load_and_rank(**load)
    config = ScanConfig(direction=direction, restarts=restarts, seed=seed)
    entries = sweep_k(dataset, ranking, k_values, config, permutations)
    lines = []
    for entry in entries:
        report = entry.report
        payload = {
            "kind": "sweep-entry",
            "method": ranking.method,
            "k": entry.k,
            "descriptor": entry.result.descriptor.to_labels(dataset),
            "score": entry.result.score,
            "subset_size": report.subset_size,
            "subset_pct": report.subset_pct,
            "n_features": report.n_features,
            "n_values": report.n_values,
            "odds_ratio": report.odds_ratio,
            "ci": [report.ci_low, report.ci_high],
            "p_value": report.p_value,
            "jaccard_vs_full": entry.jaccard_vs_full,
        }
        doc = _document("sweep-entry", payload, {"scan_seconds": entry.result.elapsed})
        lines.append(json.dumps(doc, sort_keys=True, ensure_ascii=False) + "\n")
    _emit("".join(lines), out)


def main(argv=None) -> int:
    try:
        cli.main(args=argv, standalone_mode=False, auto_envvar_prefix="SAFS")
        return EXIT_OK
    except click.exceptions.Exit as exc:
        return EXIT_OK if exc.exit_code == 0 else EXIT_USAGE
    except click.ClickException as exc:
        exc.show(file=sys.stderr)
        return EXIT_USAGE
    except click.Abort:
        print("aborted", file=sys.stderr)
        return EXIT_USAGE
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except SafsError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    except Exception as exc:  # pragma: no cover - last-resort diagnostic
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
