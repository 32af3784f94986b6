"""Correctness gate: every artifact payload is checked against the input it
was computed from, reloaded through the library's own ingest."""

from __future__ import annotations

import math

import numpy as np
from safs import (SubgroupDescriptor, load_csv, safs_rank, score_subgroup,
                  subgroup_mask, top_k)
from safs.errors import SafsError

from workloads import OUTCOME, Planted, Workload

REL_TOL = 1e-9


def load(csv_path):
    return load_csv(csv_path, OUTCOME)


def _constraints(dataset, labels: dict) -> dict[int, list[int]]:
    """Feature-index -> code constraints of a payload's label descriptor."""
    constraints = {}
    for name, values in labels.items():
        f = dataset.feature_index(name)
        known = dataset.schemas[f].values
        missing = [v for v in values if v not in known]
        if missing:
            raise SafsError(f"unknown labels {missing} for feature {name!r}")
        constraints[f] = [known.index(v) for v in values]
    return constraints


def _close(a: float, b: float) -> bool:
    return math.isclose(a, b, rel_tol=REL_TOL, abs_tol=REL_TOL)


def _check_ranking(payload, dataset, workload: Workload) -> list[str]:
    problems = []
    entries = payload.get("entries", [])
    names = [e["feature"] for e in entries]
    if sorted(names) != sorted(s.name for s in dataset.schemas):
        problems.append("ranking does not cover every feature exactly once")
    scores = [e["score"] for e in entries]
    if any(a < b for a, b in zip(scores, scores[1:])):
        problems.append("ranking scores are not non-increasing")
    if [e["rank"] for e in entries] != list(range(1, len(entries) + 1)):
        problems.append("ranks are not 1..M")
    k = int(workload.arg("--top-k"))
    if payload.get("top_k") != names[:k]:
        problems.append("top_k is not the head of the ranking")
    return problems


def _check_scan(payload, dataset, workload: Workload) -> list[str]:
    problems = []
    try:
        cons = _constraints(dataset, payload["descriptor"])
        descriptor = SubgroupDescriptor(cons)
        score, _ = score_subgroup(dataset, descriptor, payload["direction"])
        size = int(subgroup_mask(dataset, descriptor).size)
    except (SafsError, KeyError) as exc:
        return [f"descriptor cannot be rescored: {exc}"]
    if not _close(score, payload["score"]):
        problems.append(f"score {payload['score']!r} but rescoring gives {score!r}")
    if size != payload["subset_size"]:
        problems.append(f"subset_size {payload['subset_size']} but the mask has {size}")
    if not _close(payload["subset_fraction"], size / dataset.n_records):
        problems.append("subset_fraction disagrees with subset_size")
    if payload["top_k"] != int(workload.arg("--top-k")):
        problems.append("top_k differs from the requested K")
    if workload.command == "pipeline":
        r = int(workload.arg("--permutations"))
        p = payload["p_value"]
        steps = p * (r + 1)
        if payload["permutations"] != r or not _close(steps, round(steps)) \
                or not 1 <= round(steps) <= r + 1:
            problems.append(f"p_value {p!r} is not on the add-one grid of R={r}")
    return problems


def check_payload(payload, dataset, workload: Workload) -> list[str]:
    """Problems found in one payload; empty when it is correct."""
    if not isinstance(payload, dict) or payload.get("kind") != workload.kind:
        return [f"payload is not a {workload.kind!r} payload"]
    check = _check_ranking if workload.command == "rank" else _check_scan
    try:
        return check(payload, dataset, workload)
    except (KeyError, TypeError, ValueError) as exc:
        return [f"malformed payload: {type(exc).__name__}: {exc}"]


def planted_jaccard(payload, dataset, planted: Planted) -> float:
    """Jaccard of the answer with what was planted: the subgroup's records
    for scans, the top-K feature names for rankings."""
    if planted.records is not None:
        cons = _constraints(dataset, payload["descriptor"])
        found = np.zeros(dataset.n_records, dtype=bool)
        found[subgroup_mask(dataset, cons)] = True
        union = (found | planted.records).sum()
        return float((found & planted.records).sum() / union) if union else 1.0
    found, truth = set(payload["top_k"]), set(planted.features)
    return len(found & truth) / len(found | truth)


def distinct_rows_frac(dataset, workload: Workload) -> float:
    """Distinct code rows over N, on the features the workload scans (all
    features for a ranking)."""
    if workload.command == "rank":
        feats = list(range(dataset.n_features))
    else:
        feats = top_k(safs_rank(dataset), int(workload.arg("--top-k")))
    rows = np.unique(dataset.codes[:, feats], axis=0).shape[0]
    return rows / dataset.n_records
