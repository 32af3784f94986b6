"""Golden scan answers: a fixed corpus of seeded ``tests/synth.py`` datasets
whose scan and pipeline answers are committed in ``golden_scans.json``.

A change to the scan kernel must leave every answer as recorded: the
descriptor, the subset counts and the permutation p-value exactly, the score
to 1e-12 relative (the platform's ``libm`` may round ``log`` differently).
The corpus has both directions, plain scans and rank -> top-k -> scan ->
permutation-test pipelines, and features with few and with many categories.

To record the answers again, when a change is meant to alter them, run
``PYTHONPATH=src python tests/test_golden.py`` from the repository root.
"""

import json
import math
import sys
from pathlib import Path

import pytest

from safs import OVER, UNDER, ScanConfig, empirical_p_value, safs_rank, scan, top_k
from synth import noise_dataset, planted_dataset, random_dataset

GOLDEN = Path(__file__).with_name("golden_scans.json")

# name -> (dataset factory, direction, top-k (None: scan every feature),
#          permutations (0: no p-value))
CORPUS = {
    "planted-scan-over": (lambda: planted_dataset(1, n=3000, n_noise=4)[0], OVER, None, 0),
    "planted-pipeline-over": (lambda: planted_dataset(2, n=2000)[0], OVER, 6, 19),
    "random-c20-scan-over": (lambda: random_dataset(3, n=1500, n_features=5, max_card=20),
                             OVER, None, 0),
    "random-c20-scan-under": (lambda: random_dataset(4, n=1500, n_features=5, max_card=20),
                              UNDER, None, 0),
    "random-c30-pipeline-under": (lambda: random_dataset(5, n=800, max_card=30),
                                  UNDER, 3, 19),
    "noise-c16-pipeline-over": (lambda: noise_dataset(6, n=600, m=4, card=16), OVER, 3, 19),
    "noise-c3-scan-under": (lambda: noise_dataset(7, n=400, m=3, card=3), UNDER, None, 0),
    "random-c14-pipeline-over": (lambda: random_dataset(8, n=1000, n_features=6, max_card=14),
                                 OVER, 4, 19),
}


def answer(name: str) -> dict:
    make, direction, k, permutations = CORPUS[name]
    dataset = make()
    features = (list(range(dataset.n_features)) if k is None
                else top_k(safs_rank(dataset), k))
    config = ScanConfig(direction=direction, restarts=4, seed=11)
    result = scan(dataset, features, config)
    p_value = (empirical_p_value(dataset, features, config, result.score, permutations)
               if permutations else None)
    return {
        "cardinalities": [dataset.schemas[f].cardinality for f in features],
        "descriptor": result.descriptor.to_labels(dataset),
        "subset_size": result.subset_size,
        "subset_outcome_sum": result.subset_outcome_sum,
        "p_value": p_value,
        "score": result.score,
    }


@pytest.mark.parametrize("name", sorted(CORPUS))
def test_answer_is_as_recorded(name):
    expected = json.loads(GOLDEN.read_text(encoding="utf-8"))[name]
    got = answer(name)
    score = got.pop("score")
    assert math.isclose(score, expected.pop("score"), rel_tol=1e-12, abs_tol=0.0)
    assert got == expected


if __name__ == "__main__":
    answers = {name: answer(name) for name in sorted(CORPUS)}
    GOLDEN.write_text(json.dumps(answers, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    sys.exit(0)
