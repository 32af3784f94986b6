"""Multi-dimensional subset scanning over AND-of-ORs subgroups.

Maximizes a Bernoulli likelihood-ratio statistic via coordinate ascent with
random restarts. Each coordinate step finds the optimal value subset of one
feature by rate-sorted prefix evaluation (the linear-time subset scanning
property). An exhaustive oracle is provided for small instances.

Cost: a scan holds record sets as bitmasks, 64 records to a machine word.
A coordinate step on a feature with C categories ANDs the other constraints'
masks, O(K*N/64) word operations for K features and N records, then counts
records and positives per value. Up to ``_BITS_MAX_CARD`` categories that is
2*C bit counts, O(C*N/64); above it, one ``bincount`` over the N records,
O(N). Sorting the values and scoring the prefixes adds O(C log C) and C
Python-level score calls. A step whose answer cannot have changed since the
feature's last step is skipped.
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

# bound on the score formula's rounding noise near q_hat = 1, per record
# (counts at exactly the global rate stay under one ulp)
_NOISE_PER_RECORD = 4 * sys.float_info.epsilon
_BRUTE_FORCE_GUARD = 10_000_000
# cap on coordinate-ascent passes per restart
_MAX_PASSES = 50
# a step counts a feature with at most this many categories by bit_count
# and a wider one by bincount. Per step, bit counting won at C <= 12 and
# bincount at C >= 16 for N from 5k to 10^6, ties at C = 14 (at N = 10^6:
# 3.7 ms against 5.2 ms at C = 12, 6.1 ms against 4.9 ms at C = 16; a
# 2-vCPU Xeon, Python 3.11, numpy 2.4).
_BITS_MAX_CARD = 12


def _check_direction(direction: str) -> None:
    if direction not in (OVER, UNDER):
        raise DataError(f"direction must be {OVER!r} or {UNDER!r}, got {direction!r}")


class SubgroupDescriptor:
    """AND-of-ORs subgroup: feature index -> non-empty set of included codes.

    Only constrained features appear. A constraint covering all of a
    feature's categories is vacuous; the scan never produces one.
    """

    __slots__ = ("constraints",)

    def __init__(self, constraints: Mapping[int, Iterable[int]] = ()):
        self.constraints = _validate_constraints(constraints)

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
        return self.n_features, self.n_values, self.canonical()

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
    seed: int = 0

    def __post_init__(self):
        _check_direction(self.direction)
        if self.restarts < 1:
            raise DataError("restarts must be >= 1")
        if self.seed < 0:
            raise DataError(f"seed must be >= 0, got {self.seed}")


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
    return _q_hat(n_s, sum_y, mu)


def _q_hat(n_s: int, sum_y: int, mu: float) -> float:
    """:func:`q_mle` without its checks, for counts valid by construction."""
    if sum_y == n_s:
        return math.inf
    return (sum_y * (1.0 - mu)) / (mu * (n_s - sum_y))


def _score_counts(n_s: int, sum_y: int, mu: float, direction: str) -> tuple[float, float]:
    """(score, clamped q_hat) for aggregate subgroup counts: ``n_s >= 1``,
    ``0 <= sum_y <= n_s`` and ``0 < mu < 1``, which callers guarantee.

    The only evaluation of the score. It uses math.log, whose result does
    not depend on the CPU: numpy's SIMD np.log differs from it in the last
    bit on some inputs.
    """
    q = _q_hat(n_s, sum_y, mu)
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
    """One scan problem (a dataset, a feature list and a direction), checked
    once, and its coordinate-step state on record bitmasks (Python ints,
    bit i for record i). ``features`` is the checked feature list.

    ``allowed[f]`` is the records that feature f's current constraint
    admits and ``y_bits`` the positive records; the records matching every
    constraint but f's are the AND of the other masks. A step counts
    records and positives per value of f among them: by bit-counting one
    mask per value when f has at most ``_BITS_MAX_CARD`` categories, else by
    one ``bincount`` of ``2*code + y`` weighted by the unpacked mask.
    """

    def __init__(self, dataset: DiscreteDataset, features: Sequence[int], direction: str):
        _check_direction(direction)
        self.features = _validate_features(dataset, features)
        self.mu = _checked_mu(dataset)
        self.direction = direction
        self.n = dataset.n_records
        self.all_bits = (1 << self.n) - 1
        self.cards = {f: dataset.schemas[f].cardinality for f in self.features}
        # small cardinality: one record mask per value; large: 2*code + y
        self.value_bits: dict[int, list[int]] = {}
        self.keys: dict[int, np.ndarray] = {}
        for f in self.features:
            col = dataset.codes[:, f]
            if self.cards[f] <= _BITS_MAX_CARD:
                self.value_bits[f] = _value_bits(col, self.cards[f])
            else:
                # intp: bincount casts any other index type on every call
                self.keys[f] = 2 * col.astype(np.intp)
        self.relabel(dataset.outcome)
        self.constraints: dict[int, frozenset[int]] = {}
        self.allowed: dict[int, int] = {}

    def relabel(self, y: np.ndarray) -> None:
        """Make ``y`` the outcome of every record."""
        self.y_bits = _bits_from_bool(y != 0)
        for keys in self.keys.values():
            keys &= -2
            keys |= y

    def _constrain(self, feature: int, values: frozenset[int]) -> None:
        if feature in self.value_bits:
            bits = self.value_bits[feature]
            mask = 0
            for v in values:
                mask |= bits[v]
        else:
            admitted = np.zeros(self.cards[feature], dtype=bool)
            admitted[list(values)] = True
            mask = _bits_from_bool(admitted.repeat(2).take(self.keys[feature]))
        self.constraints[feature] = values
        self.allowed[feature] = mask

    def _matching(self, skip: int | None = None) -> int:
        """Records matching every current constraint but ``skip``'s."""
        mask = self.all_bits
        for f, allowed in self.allowed.items():
            if f != skip:
                mask &= allowed
        return mask

    def load(self, descriptor: SubgroupDescriptor) -> float | None:
        """Make ``descriptor`` the current subgroup and return its score,
        or None when it matches no record."""
        self.constraints, self.allowed = {}, {}
        for f, values in descriptor.constraints.items():
            self._constrain(f, values)
        matched = self._matching()
        n_s = matched.bit_count()
        if not n_s:
            return None
        return _score_counts(n_s, (matched & self.y_bits).bit_count(),
                             self.mu, self.direction)[0]

    def _value_counts(self, feature: int, others: int) -> tuple[list[int], list[int]]:
        """Per value of ``feature``: records and positives among ``others``."""
        if feature in self.value_bits:
            bits = self.value_bits[feature]
            positives = others & self.y_bits
            return ([(others & b).bit_count() for b in bits],
                    [(positives & b).bit_count() for b in bits])
        weights = np.unpackbits(
            np.frombuffer(others.to_bytes((self.n + 7) // 8, "little"), dtype=np.uint8),
            count=self.n, bitorder="little")
        # 0/1 weights: the sums are exact integers
        both = np.bincount(self.keys[feature], weights=weights,
                           minlength=2 * self.cards[feature]).astype(np.int64)
        sums = both[1::2]
        return (both[0::2] + sums).tolist(), sums.tolist()

    def step(self, feature: int) -> tuple[frozenset[int] | None, float]:
        """Replace one feature's constraint by the best value set given the
        others; return that set (None: unconstrained) and the new score."""
        counts, sums = self._value_counts(feature, self._matching(skip=feature))
        supported = [v for v, n in enumerate(counts) if n]
        if not supported:
            raise DataError("no records match the remaining constraints")
        sign = -1.0 if self.direction == OVER else 1.0
        order = sorted(supported, key=lambda v: (sign * (sums[v] / counts[v]), v))
        n_s = sum_y = 0
        best, best_score = 0, -math.inf
        for i, v in enumerate(order):
            n_s += counts[v]
            sum_y += sums[v]
            score = _score_counts(n_s, sum_y, self.mu, self.direction)[0]
            if score > best_score:  # ties -> shortest prefix
                best, best_score = i, score
        if score >= best_score:  # all supported values: vacuous
            self.constraints.pop(feature, None)
            self.allowed.pop(feature, None)
            return None, score
        values = frozenset(order[: best + 1])
        if values != self.constraints.get(feature):
            self._constrain(feature, values)
        return values, best_score


def optimize_feature(dataset: DiscreteDataset, descriptor: SubgroupDescriptor,
                     feature: int, direction: str = OVER) -> frozenset[int] | None:
    """Best included-value set for one feature, all other constraints fixed.

    Values are sorted by outcome rate among records matching the other
    constraints; every prefix is scored and the best one returned. None means
    the constraint is dropped (the best prefix covers every supported value).
    Never worse than any other value subset, including the current one.
    """
    others = descriptor.replace(feature, None)
    _validate_constraints(others.constraints, dataset)
    kernel = _ScanKernel(dataset, [feature, *others.constraints], direction)
    kernel.load(others)
    return kernel.step(kernel.features[0])[0]


def _random_descriptor(cards: Mapping[int, int],
                       rng: np.random.Generator) -> SubgroupDescriptor:
    """Uniformly random non-empty value subset per feature of ``cards``
    (feature -> category count, in draw order): the values whose
    ``rng.random(C)`` draw is below 0.5, drawn again while none is. A feature
    that admits every value is left unconstrained."""
    constraints = {}
    for f, c in cards.items():
        while True:
            picks = [v for v, x in enumerate(rng.random(c).tolist()) if x < 0.5]
            if picks:
                break
        if len(picks) < c:
            constraints[f] = picks
    return SubgroupDescriptor(constraints)


def _result_from(dataset: DiscreteDataset, descriptor: SubgroupDescriptor,
                 direction: str, elapsed: float) -> ScanResult:
    mask, sum_y, (score, q_hat) = _scored_mask(dataset, descriptor, direction)
    matched = np.flatnonzero(mask)
    return ScanResult(descriptor=descriptor, score=score, q_hat=q_hat,
                      matched=matched, subset_size=int(matched.size),
                      subset_outcome_sum=sum_y, elapsed=elapsed)


def _ascend(kernel: _ScanKernel, score: float,
            rng: np.random.Generator) -> tuple[SubgroupDescriptor, float]:
    """Coordinate ascent from the kernel's current subgroup to a local
    maximum: it stops after a pass that does not strictly raise the score.

    A step depends only on the other features' constraints, so a feature
    stepped since the last change to any other constraint is skipped: its
    step would return its current set and the current score.
    """
    settled: set[int] = set()
    for _ in range(_MAX_PASSES):
        start = score
        for f in rng.permutation(np.asarray(kernel.features)).tolist():
            if f in settled:
                continue
            old = kernel.constraints.get(f)
            values, score = kernel.step(f)
            if values != old:
                settled.clear()
            settled.add(f)
        if score <= start:
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


def _best_of_restarts(kernel: _ScanKernel,
                      config: ScanConfig) -> tuple[float, SubgroupDescriptor]:
    """Best (score, descriptor) over the config's restarts on a built kernel;
    the score is the carried one, equal to the descriptor's rescoring. Ties
    go to the smaller :meth:`SubgroupDescriptor.sort_key`."""
    children = np.random.SeedSequence(config.seed).spawn(config.restarts)
    found = []
    for r, child in enumerate(children):
        rng = np.random.default_rng(child)
        score = None
        if r > 0:
            for _ in range(100):
                score = kernel.load(_random_descriptor(kernel.cards, rng))
                if score is not None:
                    break
        if score is None:
            score = kernel.load(SubgroupDescriptor())
        found.append(_ascend(kernel, score, rng))
    descriptor, score = min(found, key=lambda d: (-d[1], d[0].sort_key()))
    return score, descriptor


def scan(dataset: DiscreteDataset, features: Sequence[int],
         config: ScanConfig = ScanConfig()) -> ScanResult:
    """Best divergent subgroup over the given features.

    The first restart starts from the unconstrained subgroup, subsequent ones
    from random value subsets; each restart runs coordinate ascent over a
    freshly shuffled feature order until a full pass brings no improvement.
    Deterministic given the seed.
    """
    t0 = time.perf_counter()
    kernel = _ScanKernel(dataset, features, config.direction)
    descriptor = _best_of_restarts(kernel, config)[1]
    return _result_from(dataset, descriptor, config.direction,
                        time.perf_counter() - t0)


def _relabelled_scores(dataset: DiscreteDataset, features: Sequence[int],
                       config: ScanConfig, orders: Iterable[np.ndarray]) -> list[float]:
    """``scan(...).score`` with the outcome relabelled ``outcome[order]``, per
    order, on one kernel: a permutation keeps the positives, so ``mu`` holds."""
    kernel = _ScanKernel(dataset, features, config.direction)
    scores = []
    for order in orders:
        kernel.relabel(dataset.outcome[order])
        scores.append(_best_of_restarts(kernel, config)[0])
    return scores


def _bits_from_bool(mask: np.ndarray) -> int:
    """Pack a boolean record mask into an arbitrary-precision bitmask."""
    return int.from_bytes(np.packbits(mask, bitorder="little").tobytes(), "little")


def _value_bits(column: np.ndarray, cardinality: int) -> list[int]:
    """Record bitmask of each value of a code column, compared on one
    contiguous copy: a strided view took 2-4 times as long to compare."""
    column = np.ascontiguousarray(column)
    return [_bits_from_bool(column == v) for v in range(cardinality)]


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
        value_bits = _value_bits(dataset.codes[:, f], c)
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
        if score > best_score:
            best_score, best_key, best_combo = score, None, combo
        elif score == best_score:
            if best_key is None:
                best_key = descriptor_of(best_combo).sort_key()
            key = descriptor_of(combo).sort_key()
            if key < best_key:
                best_score, best_key, best_combo = score, key, combo

    return _result_from(dataset, descriptor_of(best_combo), direction,
                        time.perf_counter() - t0)
