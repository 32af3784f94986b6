"""Command-line entry point: rank, scan, pipeline, compare, sweep.

Every artifact separates a deterministic ``payload`` (stable byte-for-byte
given the same seed and inputs) from a ``volatile`` block (timings). Exit
codes: 0 success, 1 usage error, 2 data error, 3 internal error.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

import click

from .dataset import (DEFAULT_BINS, DEFAULT_MISSING_LABEL, DiscreteDataset,
                      DiscretizationSpec, load_csv)
from .errors import DataError, SafsError
from .evaluation import overlap_matrix, sweep_k
from .ranking import (METHOD_MI, METHOD_SAFS, FeatureRanking,
                      mutual_information_rank, safs_rank, top_k)
from .report import SubgroupReport, build_report, empirical_p_value, report_text
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
                   method: str) -> tuple[DiscreteDataset, FeatureRanking, float, float]:
    """Load the CSV and rank its features; also returns the load and rank
    times (s)."""
    spec = DiscretizationSpec(bins=bins, missing_label=missing_category)
    t0 = time.perf_counter()
    dataset = load_csv(input_path, outcome_col, spec)
    ranker = safs_rank if _METHODS[method] == METHOD_SAFS else mutual_information_rank
    t1 = time.perf_counter()
    ranking = ranker(dataset)
    return dataset, ranking, t1 - t0, time.perf_counter() - t1


def _search_limits(result: ScanResult) -> dict:
    """How often the scan's search hit a limit (see ``ScanResult``)."""
    return {"fallback_starts": result.fallback_starts,
            "truncated_ascents": result.truncated_ascents}


def _subgroup_fields(report: SubgroupReport, dataset: DiscreteDataset) -> dict:
    """The payload fields of a reported subgroup, shared by ``pipeline`` and
    ``sweep-entry``."""
    result = report.result
    return {
        "descriptor": result.descriptor.to_labels(dataset),
        "score": result.score,
        "subset_size": result.subset_size,
        "subset_pct": report.subset_pct,
        "n_features": result.descriptor.n_features,
        "n_values": result.descriptor.n_values,
        "odds_ratio": report.odds_ratio,
        "ci": [report.ci_low, report.ci_high],
        "p_value": report.p_value,
    }


def _scan_run(k: int | None, restarts: int, direction: str, seed: int,
              **load) -> tuple[DiscreteDataset, ScanResult, dict, dict]:
    """Scan the top-k ranked features (all of them when k is None): the
    dataset, the result, and the ``scan`` artifact's payload and volatile."""
    dataset, ranking, load_seconds, rank_seconds = _load_and_rank(**load)
    features = top_k(ranking, dataset.n_features if k is None else k)
    config = ScanConfig(direction=direction, restarts=restarts, seed=seed)
    result = scan(dataset, features, config)
    payload = {
        "kind": "scan",
        "method": ranking.method,
        "top_k": len(features),
        "direction": config.direction,
        "restarts": config.restarts,
        "seed": config.seed,
        "descriptor": result.descriptor.to_labels(dataset),
        "score": result.score,
        "q_hat": result.q_hat if result.q_hat != float("inf") else "inf",
        "subset_size": result.subset_size,
        "subset_fraction": result.subset_size / dataset.n_records,
    }
    volatile = {"load_ms": load_seconds * 1000, "rank_ms": rank_seconds * 1000,
                "scan_ms": result.elapsed * 1000, **_search_limits(result)}
    return dataset, result, payload, volatile


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


def _ranking_text(payload: dict, k: int | None) -> str:
    entries = payload["entries"][:k]
    width = max(len(e["feature"]) for e in entries)
    lines = [f"{e['feature']:<{width}}  {e['score']:.6f}" for e in entries]
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
    dataset, ranking, load_seconds, rank_seconds = _load_and_rank(**kw)
    selected = top_k(ranking, k) if k is not None else None
    payload = _ranking_payload(dataset, ranking, selected)
    doc = _document("ranking", payload, {"elapsed_ms": rank_seconds * 1000,
                                         "load_ms": load_seconds * 1000})
    _emit(_ranking_text(payload, k) if fmt == "text" else canonical_json(doc), out)


@cli.command("scan")
@_common_options
@_scan_options
@_top_k_option
def scan_command(top_k, out, fmt, **kw):
    """Rank, select top-K features, and scan for the most divergent subgroup."""
    dataset, result, payload, volatile = _scan_run(top_k, **kw)
    if fmt == "text":
        text = report_text(build_report(dataset, result), dataset) + "\n"
    else:
        text = canonical_json(_document("scan", payload, volatile))
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
    dataset, result, payload, volatile = _scan_run(top_k, **kw)
    t0 = time.perf_counter()
    p_value = empirical_p_value(result, permutations)
    p_value_ms = (time.perf_counter() - t0) * 1000
    report = build_report(dataset, result, p_value)
    payload = {**payload, **_subgroup_fields(report, dataset), "kind": "pipeline",
               "permutations": permutations, "no_divergence": result.no_divergence}
    doc = _document("pipeline", payload, {**volatile, "p_value_ms": p_value_ms})
    _emit(report_text(report, dataset) + "\n" if fmt == "text" else canonical_json(doc), out)


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
    dataset, ranking, _, _ = _load_and_rank(**load)
    config = ScanConfig(direction=direction, restarts=restarts, seed=seed)
    entries = sweep_k(dataset, ranking, k_values, config, permutations)
    lines = []
    for entry in entries:
        payload = {**_subgroup_fields(entry.report, dataset), "kind": "sweep-entry",
                   "method": ranking.method, "k": entry.k,
                   "jaccard_vs_full": entry.jaccard_vs_full}
        doc = _document("sweep-entry", payload, {"scan_seconds": entry.report.result.elapsed,
                                                 **_search_limits(entry.report.result)})
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
