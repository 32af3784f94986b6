"""Multi-dimensional subset scanning over AND-of-ORs subgroups.

Maximizes a Bernoulli likelihood-ratio statistic via coordinate ascent with
random restarts. Each coordinate step finds the optimal value subset of one
feature by rate-sorted prefix evaluation (the linear-time subset scanning
property). An exhaustive oracle is provided for small instances.

Cost: a scan keeps, per record, the number of constraints it violates, so
the records matching every constraint but one are a single compare and a
coordinate step costs O(N) for N records (plus O(C log C) to sort a
feature's C values). A pass over K features costs O(K*N).
"""

from __future__ import annotations

import itertools
import math
import sys
import time
from dataclasses import dataclass, field
from typing import Iterable, Mapping, Sequence

import numpy as np

from .dataset import DiscreteDataset, _validate_constraints, constraints_bool_mask
from .errors import DataError, SearchSpaceError

OVER = "over"
UNDER = "under"

_EPS = 1e-12
# bound on the score formula's rounding noise near q_hat = 1, per record
# (counts at exactly the global rate stay under one ulp)
_NOISE_PER_RECORD = 4 * sys.float_info.epsilon
_BRUTE_FORCE_GUARD = 10_000_000


def _check_direction(direction: str) -> None:
    if direction not in (OVER, UNDER):
        raise DataError(f"direction must be {OVER!r} or {UNDER!r}, got {direction!r}")


class SubgroupDescriptor:
    """AND-of-ORs subgroup: feature index -> non-empty set of included codes.

    Only constrained features appear; a constraint covering all of a
    feature's categories is vacuous and should be normalized away via
    :meth:`normalize`.
    """

    __slots__ = ("constraints",)

    def __init__(self, constraints: Mapping[int, Iterable[int]] = ()):
        self.constraints = _validate_constraints(constraints)

    def normalize(self, dataset: DiscreteDataset) -> "SubgroupDescriptor":
        """Drop constraints that include every category of their feature."""
        kept = {f: vs for f, vs in self.constraints.items()
                if len(vs) < dataset.schemas[f].cardinality}
        return SubgroupDescriptor(kept)

    def replace(self, feature: int, values: frozenset[int] | None) -> "SubgroupDescriptor":
        """New descriptor with one feature's constraint set or removed."""
        new = dict(self.constraints)
        if values is None:
            new.pop(feature, None)
        else:
            new[feature] = values
        return SubgroupDescriptor(new)

    def canonical(self) -> tuple:
        return tuple((f, tuple(sorted(vs))) for f, vs in sorted(self.constraints.items()))

    def sort_key(self) -> tuple:
        """Tie-break key: fewer constrained features, fewer total values,
        then lexicographic."""
        return (len(self.constraints),
                sum(len(vs) for vs in self.constraints.values()),
                self.canonical())

    @property
    def n_features(self) -> int:
        return len(self.constraints)

    @property
    def n_values(self) -> int:
        return sum(len(vs) for vs in self.constraints.values())

    def to_labels(self, dataset: DiscreteDataset) -> dict[str, list[str]]:
        return {dataset.schemas[f].name: [dataset.decode(f, v) for v in sorted(vs)]
                for f, vs in self.constraints.items()}

    def __eq__(self, other) -> bool:
        return isinstance(other, SubgroupDescriptor) and self.canonical() == other.canonical()

    def __hash__(self) -> int:
        return hash(self.canonical())

    def __repr__(self) -> str:
        return f"SubgroupDescriptor({self.constraints!r})"


@dataclass(frozen=True)
class ScanConfig:
    direction: str = OVER
    restarts: int = 10
    max_passes: int = 50
    seed: int = 0

    def __post_init__(self):
        _check_direction(self.direction)
        if self.restarts < 1:
            raise DataError("restarts must be >= 1")
        if self.max_passes < 1:
            raise DataError("max_passes must be >= 1")


@dataclass(frozen=True)
class ScanResult:
    descriptor: SubgroupDescriptor
    score: float
    q_hat: float
    matched: np.ndarray = field(repr=False)
    subset_size: int
    subset_outcome_sum: int
    elapsed: float


def q_mle(n_s: int, sum_y: int, mu: float) -> float:
    """Closed-form maximizer of the Bernoulli likelihood-ratio score.

    Returns +inf when the subgroup is all-positive and 0 when all-negative;
    callers clamp per scan direction.
    """
    if not 0 < mu < 1:
        raise DataError(f"global outcome rate must be in (0, 1), got {mu}")
    if n_s < 1 or not 0 <= sum_y <= n_s:
        raise DataError(f"invalid subgroup counts n_s={n_s}, sum_y={sum_y}")
    if sum_y == n_s:
        return math.inf
    return (sum_y * (1.0 - mu)) / (mu * (n_s - sum_y))


def _score_counts(n_s: int, sum_y: int, mu: float, direction: str) -> tuple[float, float]:
    """(score, clamped q_hat) for aggregate subgroup counts.

    The only evaluation of the score. It uses math.log, whose result does
    not depend on the CPU: numpy's SIMD np.log differs from it in the last
    bit on some inputs.
    """
    q = q_mle(n_s, sum_y, mu)
    if direction == OVER:
        if q <= 1.0:
            return 0.0, 1.0
        if math.isinf(q):
            # limit of the score as q -> inf with sum_y == n_s
            return -n_s * math.log(mu), math.inf
    else:
        if q >= 1.0:
            return 0.0, 1.0
        if q == 0.0:
            # limit as q -> 0 with sum_y == 0
            return -n_s * math.log(1.0 - mu), 0.0
    score = math.log(q) * sum_y - n_s * math.log(1.0 - mu + q * mu)
    # near q_hat = 1 the two terms cancel to rounding noise of either sign;
    # a score of exactly 0 is what marks a subgroup as not divergent
    return (0.0 if abs(score) < n_s * _NOISE_PER_RECORD else score), q


def _score_counts_vec(n_s: np.ndarray, sum_y: np.ndarray, mu: float,
                      direction: str) -> np.ndarray:
    """:func:`_score_counts` of each entry of two count arrays, so the score
    a scan carries is bit-identical to the one it reports."""
    return np.array([_score_counts(a, b, mu, direction)[0]
                     for a, b in zip(n_s.tolist(), sum_y.tolist())])


def _checked_mu(dataset: DiscreteDataset) -> float:
    mu = dataset.outcome_mean
    if not 0 < mu < 1:
        raise DataError("outcome is degenerate (all 0 or all 1); nothing to scan for")
    return mu


def _scored_mask(dataset: DiscreteDataset, descriptor: SubgroupDescriptor,
                 direction: str) -> tuple[np.ndarray, int, tuple[float, float]]:
    """A subgroup's record mask, its positive count, and (score, q_hat)."""
    mu = _checked_mu(dataset)
    mask = constraints_bool_mask(dataset, descriptor.constraints)
    n_s = int(np.count_nonzero(mask))
    if n_s == 0:
        raise DataError("descriptor matches no records")
    sum_y = int(dataset.outcome[mask].sum())
    return mask, sum_y, _score_counts(n_s, sum_y, mu, direction)


def score_subgroup(dataset: DiscreteDataset, descriptor: SubgroupDescriptor,
                   direction: str = OVER) -> tuple[float, float]:
    """Likelihood-ratio score and clamped q_hat for one subgroup."""
    _check_direction(direction)
    return _scored_mask(dataset, descriptor, direction)[2]


class _ScanKernel:
    """Coordinate-step state of one scan over a fixed feature list.

    ``miss[f]`` marks the records that violate the current constraint on
    feature f and ``count`` is, per record, how many constraints it
    violates. The subgroup is ``count == 0``; with f's constraint lifted it
    is again ``count == 0`` once ``miss[f]`` is subtracted, so a coordinate
    step needs no mask rebuilt over the other features.
    """

    def __init__(self, dataset: DiscreteDataset, features: Sequence[int], direction: str):
        self.mu = _checked_mu(dataset)
        self.direction = direction
        self.y = dataset.outcome.astype(np.float64)
        self.cols = {f: np.ascontiguousarray(dataset.codes[:, f]) for f in features}
        self.cards = {f: dataset.schemas[f].cardinality for f in features}
        # a record violates at most one constraint per feature: no overflow
        self.count = np.zeros(dataset.n_records, dtype=np.min_scalar_type(len(features)))
        self.constraints: dict[int, frozenset[int]] = {}
        self.miss: dict[int, np.ndarray] = {}

    def _constrain(self, feature: int, values: frozenset[int]) -> None:
        excluded = np.ones(self.cards[feature], dtype=bool)
        excluded[list(values)] = False
        miss = excluded.take(self.cols[feature])
        self.count += miss
        self.constraints[feature] = values
        self.miss[feature] = miss

    def load(self, descriptor: SubgroupDescriptor) -> float | None:
        """Make ``descriptor`` the current subgroup and return its score,
        or None when it matches no record."""
        self.count.fill(0)
        self.constraints, self.miss = {}, {}
        for f, values in descriptor.constraints.items():
            self._constrain(f, values)
        matched = self.count == 0
        n_s = np.count_nonzero(matched)
        if not n_s:
            return None
        return _score_counts(n_s, int(self.y[matched].sum()), self.mu, self.direction)[0]

    def step(self, feature: int) -> tuple[frozenset[int] | None, float]:
        """Replace one feature's constraint by the best value set given the
        others; return that set (None: unconstrained) and the new score."""
        old = self.miss.pop(feature, None)
        if old is not None:
            self.count -= old
            del self.constraints[feature]
        others = self.count == 0
        codes = self.cols[feature][others]
        y = self.y[others]
        c = self.cards[feature]
        counts = np.bincount(codes, minlength=c).astype(np.float64)
        sums = np.bincount(codes, weights=y, minlength=c)
        supported = np.flatnonzero(counts > 0)
        if not supported.size:
            raise DataError("no records match the remaining constraints")
        rates = sums[supported] / counts[supported]
        sign = -1.0 if self.direction == OVER else 1.0
        order = supported[np.lexsort((supported, sign * rates))]
        n_s = np.cumsum(counts[order])
        sum_y = np.cumsum(sums[order])
        scores = _score_counts_vec(n_s, sum_y, self.mu, self.direction)
        best = int(scores.argmax())  # ties -> shortest prefix
        if scores[-1] >= scores[best] - _EPS:
            return None, float(scores[-1])  # all supported values: vacuous
        values = frozenset(int(v) for v in order[: best + 1])
        self._constrain(feature, values)
        return values, float(scores[best])


def optimize_feature(dataset: DiscreteDataset, descriptor: SubgroupDescriptor,
                     feature: int, direction: str = OVER) -> frozenset[int] | None:
    """Best included-value set for one feature, all other constraints fixed.

    Values are sorted by outcome rate among records matching the other
    constraints; every prefix is scored and the best one returned. None means
    the constraint is dropped (the best prefix covers every supported value).
    Never worse than any other value subset, including the current one.
    """
    _check_direction(direction)
    others = descriptor.replace(feature, None)
    _validate_constraints(others.constraints, dataset)
    feats = _validate_features(dataset, [feature, *others.constraints])
    kernel = _ScanKernel(dataset, feats, direction)
    kernel.load(others)
    return kernel.step(feats[0])[0]


def _random_descriptor(dataset: DiscreteDataset, features: Sequence[int],
                       rng: np.random.Generator) -> SubgroupDescriptor:
    """Uniformly random non-empty value subset per feature, normalized."""
    constraints = {}
    for f in features:
        c = dataset.schemas[f].cardinality
        while True:
            picks = np.flatnonzero(rng.random(c) < 0.5)
            if picks.size:
                break
        if picks.size < c:
            constraints[f] = frozenset(int(v) for v in picks)
    return SubgroupDescriptor(constraints)


def _result_from(dataset: DiscreteDataset, descriptor: SubgroupDescriptor,
                 direction: str, elapsed: float) -> ScanResult:
    mask, sum_y, (score, q_hat) = _scored_mask(dataset, descriptor, direction)
    matched = np.flatnonzero(mask)
    return ScanResult(descriptor=descriptor, score=score, q_hat=q_hat,
                      matched=matched, subset_size=int(matched.size),
                      subset_outcome_sum=sum_y, elapsed=elapsed)


def _ascend(kernel: _ScanKernel, score: float, features: Sequence[int],
            max_passes: int, rng: np.random.Generator) -> tuple[SubgroupDescriptor, float]:
    """Coordinate ascent from the kernel's current subgroup to a local maximum."""
    for _ in range(max_passes):
        start = score
        for f in rng.permutation(np.asarray(features)):
            _, score = kernel.step(int(f))
        if score <= start + _EPS:
            break
    return SubgroupDescriptor(kernel.constraints), score


def _validate_features(dataset: DiscreteDataset, features: Sequence[int]) -> list[int]:
    feats = [int(f) for f in features]
    if not feats:
        raise DataError("feature list is empty")
    if len(set(feats)) != len(feats):
        raise DataError("feature list contains duplicates")
    for f in feats:
        if not 0 <= f < dataset.n_features:
            raise DataError(f"feature index {f} out of range")
    return feats


def scan(dataset: DiscreteDataset, features: Sequence[int],
         config: ScanConfig = ScanConfig()) -> ScanResult:
    """Best divergent subgroup over the given features.

    The first restart starts from the unconstrained subgroup, subsequent ones
    from random value subsets; each restart runs coordinate ascent over a
    freshly shuffled feature order until a full pass brings no improvement.
    Deterministic given the seed.
    """
    feats = _validate_features(dataset, features)
    t0 = time.perf_counter()
    kernel = _ScanKernel(dataset, feats, config.direction)
    children = np.random.SeedSequence(config.seed).spawn(config.restarts)
    best: tuple[float, tuple, SubgroupDescriptor] | None = None
    for r in range(config.restarts):
        rng = np.random.default_rng(children[r])
        score = None
        if r > 0:
            for _ in range(100):
                score = kernel.load(_random_descriptor(dataset, feats, rng))
                if score is not None:
                    break
        if score is None:
            score = kernel.load(SubgroupDescriptor())
        descriptor, score = _ascend(kernel, score, feats, config.max_passes, rng)
        key = descriptor.sort_key()
        if best is None or score > best[0] + _EPS or \
                (score > best[0] - _EPS and key < best[1]):
            best = (score, key, descriptor)
    return _result_from(dataset, best[2], config.direction,
                        time.perf_counter() - t0)


def _bits_from_bool(mask: np.ndarray) -> int:
    """Pack a boolean record mask into an arbitrary-precision bitmask."""
    return int.from_bytes(np.packbits(mask, bitorder="little").tobytes(), "little")


def brute_force_scan(dataset: DiscreteDataset, features: Sequence[int],
                     direction: str = OVER) -> ScanResult:
    """Exhaustive oracle: enumerate every AND-of-ORs descriptor over the
    given features and return the max-score one.

    Ties go to fewer constrained features, then fewer values, then
    lexicographic. Guarded against search spaces above 10^7 descriptors.
    """
    _check_direction(direction)
    feats = _validate_features(dataset, features)
    mu = _checked_mu(dataset)
    space = 1
    for f in feats:
        space *= (1 << dataset.schemas[f].cardinality) - 1
        if space > _BRUTE_FORCE_GUARD:
            raise SearchSpaceError(f"search space exceeds {_BRUTE_FORCE_GUARD} descriptors")

    t0 = time.perf_counter()
    n = dataset.n_records
    all_ones = (1 << n) - 1
    y_bits = _bits_from_bool(dataset.outcome != 0)

    # per feature: list of (included values or None, record bitmask)
    options: list[list[tuple[frozenset[int] | None, int]]] = []
    for f in feats:
        c = dataset.schemas[f].cardinality
        value_bits = [_bits_from_bool(dataset.codes[:, f] == v) for v in range(c)]
        opts: list[tuple[frozenset[int] | None, int]] = [(None, all_ones)]
        for k in range(1, (1 << c) - 1):
            bits = 0
            for v in range(c):
                if k >> v & 1:
                    bits |= value_bits[v]
            opts.append((frozenset(v for v in range(c) if k >> v & 1), bits))
        options.append(opts)

    def descriptor_of(combo) -> SubgroupDescriptor:
        return SubgroupDescriptor({f: vs for f, (vs, _) in zip(feats, combo)
                                   if vs is not None})

    best_score, best_key, best_combo = -math.inf, None, None
    for combo in itertools.product(*options):
        mask = all_ones
        for _, bits in combo:
            mask &= bits
        n_s = mask.bit_count()
        if n_s == 0:
            continue
        score, _ = _score_counts(n_s, (mask & y_bits).bit_count(), mu, direction)
        if score > best_score + _EPS:
            best_score, best_key, best_combo = score, None, combo
        elif score > best_score - _EPS:
            if best_key is None:
                best_key = descriptor_of(best_combo).sort_key()
            key = descriptor_of(combo).sort_key()
            if key < best_key:
                best_score, best_key, best_combo = score, key, combo

    return _result_from(dataset, descriptor_of(best_combo), direction,
                        time.perf_counter() - t0)
