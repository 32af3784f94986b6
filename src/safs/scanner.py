"""Multi-dimensional subset scanning over AND-of-ORs subgroups.

Maximizes a Bernoulli likelihood-ratio statistic via coordinate ascent with
random restarts. Each coordinate step finds the optimal value subset of one
feature by rate-sorted prefix evaluation (the linear-time subset scanning
property). An exhaustive oracle is provided for small instances.

Cost: a scan holds record sets as bitmasks, 64 records to a machine word.
A coordinate step on a feature with C categories ANDs the other constraints'
masks, O(K*N/64) word operations for K features and N records, then counts
records and positives per value. Up to ``_BITS_MAX_CARD`` categories that is
2*C bit counts, O(C*N/64). Above it, the other constraints' mask is unpacked
to a byte per record, O(N), and when it admits m <= N/16 records the m keys
it selects are counted, O(m); else one ``bincount`` weighs all N keys by it,
O(N). Sorting the values and scoring the prefixes adds O(C log C)
and C memo lookups, with a Python-level score call for each (n_s, sum_y)
pair the kernel has not scored before. A two-category step is closed-form:
four bit counts, a comparison of integer cross-products for the order and
two memo lookups, with no sort. The kernel always holds the AND of every
constraint: a step sets it from the AND of the other constraints it has
already made, so a step on an unconstrained feature reuses it. A step
whose answer cannot have changed since the feature's last step is skipped.
A changed constraint of a feature with at most ``_MASKS_MAX_CARD``
categories is the OR of its values' masks, O(C*N/64); a wider one is
rebuilt from its keys, O(N). A random restart start is drawn until its
constraints admit a record; a rejected draw stops ANDing masks at the first
constraint that leaves none.

A scan keeps its kernel and restart plan in its result: permutation
replicates relabel that kernel and only climb, with prefix scores memoized by
``(n_s, sum_y)`` (exact: the direction is fixed and a permutation keeps the rate).
"""

from __future__ import annotations

import itertools
import math
import sys
import time
from dataclasses import dataclass, field
from typing import Iterable, Mapping, NamedTuple, Sequence

import numpy as np

from .dataset import DiscreteDataset, _index, _validate_constraints, constraints_bool_mask
from .errors import DataError, SearchSpaceError

OVER = "over"
UNDER = "under"

# bound on the score formula's rounding noise near q_hat = 1, per record
# (counts at exactly the global rate stay under one ulp)
_NOISE_PER_RECORD = 4 * sys.float_info.epsilon
_BRUTE_FORCE_GUARD = 10_000_000
# cap on coordinate-ascent passes per restart
_MAX_PASSES = 50
# domain separator so permutation draws never collide with scan restarts
_PERMUTE_KEY = 0x70657200
# a step counts a feature with at most this many categories by bit_count
# and a wider one from its keys. Both counts are exact, so no answer depends
# on it. Per count (median of alternating calls; a 2-vCPU Xeon, Python 3.11,
# numpy 2.4), keys win from C = 10-12 at N = 20k and 200k and from C = 16-20
# at 10^6 with half the records admitted (65 against 78 us by bits at C = 12,
# N = 20k), and from C = 8 at 20k and up with 0.5% admitted, the median
# scan-large wide step (26 against 49 us at C = 8, N = 20k; tied at 5k)
_BITS_MAX_CARD = 12
# a feature with at most this many categories keeps one record mask per
# value, so a changed constraint is the OR of its values' masks: on
# scan-large inputs (N = 20k, C = 14-30) a median 3.5 us, against 35 us to
# rebuild it from the keys by take and packbits. Here the C*N/8 bytes of
# masks equal the 8N bytes of a wide feature's keys; at 300 categories
# masks would take 37.5 bytes a record
_MASKS_MAX_CARD = 64
# a wide feature's step unpacks the other constraints' mask once and counts
# the keys it selects when it admits at most n/_COMPRESS_SHARE of the n
# records, else every key weighted by it. Per call at C = 30 (as above),
# selected against weighted: 22 against 55 us at N = 20k and 0.5% admitted,
# 56 against 56 us at n/16; 154 against 561 and 569 against 555 us at 200k.
# Up to n/16 they also beat a gather of the mask's nonzero bytes at 5k, 20k
# and 200k (22 against 34 us at 20k and 0.5%). At 10^6, which no gated
# workload reaches, they tie that gather up to 0.1% admitted (657 against
# 663 us) and beat it above (2.8 against 5.1 ms at n/16; weighted 3.2 ms)
_COMPRESS_SHARE = 16
# a two-category feature's constraint admitting one value, by value
_ONE_VALUE = (frozenset({0}), frozenset({1}))


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
    """The best subgroup found: descriptor, score, clamped q_hat, matched
    record indices (ascending), how many are positive, and wall time (s).
    ``fallback_starts`` counts the random restarts that found no start
    matching a record in 100 draws and began from the unconstrained subgroup
    instead; ``truncated_ascents`` counts the restarts whose ascent was still
    improving after ``_MAX_PASSES`` passes. The oracle reports 0 for both.
    ``_search`` keeps the kernel and plan for :func:`~safs.report.empirical_p_value`
    until ``replace(result, _search=None)`` frees them: N/8 bytes per value of a
    feature of at most ``_MASKS_MAX_CARD`` values, 8N more per feature of over
    ``_BITS_MAX_CARD`` values, plus the memo. A ``scan-large`` input keeps
    1.4 MB at 20k rows, 12.7 MB at 200k (so about 64 MB at 10^6); a 5k-row
    ``pipeline-small`` one 31 kB, 122 kB after 9 replicates."""

    descriptor: SubgroupDescriptor
    score: float
    q_hat: float
    matched: np.ndarray = field(repr=False)
    subset_outcome_sum: int
    elapsed: float
    fallback_starts: int = 0
    truncated_ascents: int = 0
    _search: _Search | None = field(default=None, repr=False, compare=False)

    @property
    def subset_size(self) -> int:
        return self.matched.size

    @property
    def no_divergence(self) -> bool:
        """The subgroup is the whole data (no constraint) or scores 0."""
        return self.descriptor.n_features == 0 or self.score == 0.0


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


def score_subgroup(dataset: DiscreteDataset, descriptor: SubgroupDescriptor,
                   direction: str = OVER) -> tuple[float, float]:
    """Likelihood-ratio score and clamped q_hat for one subgroup."""
    _check_direction(direction)
    mu = dataset.outcome_mean
    mask = constraints_bool_mask(dataset, descriptor.constraints)
    n_s = int(np.count_nonzero(mask))
    if n_s == 0:
        raise DataError("descriptor matches no records")
    return _score_counts(n_s, int(dataset.outcome[mask].sum()), mu, direction)


class _ScanKernel:
    """One scan problem (a dataset, a feature list and a direction), checked
    once, and its coordinate-step state on record bitmasks (Python ints,
    bit i for record i). ``features`` is the checked feature list.

    ``allowed[f]`` is the records that feature f's current constraint
    admits and ``y_bits`` the positive records; the records matching every
    constraint but f's are the AND of the other masks. A step counts
    records and positives per value of f among them: by bit-counting one
    mask per value when f has at most ``_BITS_MAX_CARD`` categories, else
    from the keys ``2*code + y``, selected by the unpacked mask when it
    admits few records or weighted by it. A feature of at most
    ``_MASKS_MAX_CARD`` categories keeps a mask per value, which a changed
    constraint ORs; a wider one rebuilds it from its keys. ``matched`` is
    always the AND of every current constraint's mask: ``load`` builds it
    with the masks, and ``step`` sets it from the other constraints' AND.
    """

    def __init__(self, dataset: DiscreteDataset, features: Sequence[int], direction: str):
        _check_direction(direction)
        self.features = _validate_features(dataset, features)
        self.mu = dataset.outcome_mean
        self.direction = direction
        self.n = dataset.n_records
        self.all_bits = (1 << self.n) - 1
        self.cards = {f: dataset.schemas[f].cardinality for f in self.features}
        # one record mask per value up to _MASKS_MAX_CARD categories; keys
        # 2*code + y above _BITS_MAX_CARD
        self.value_bits: dict[int, list[int]] = {}
        self.keys: dict[int, np.ndarray] = {}
        for f in self.features:
            col = dataset.codes[:, f]
            if self.cards[f] <= _MASKS_MAX_CARD:
                self.value_bits[f] = _value_bits(col, self.cards[f])
            if self.cards[f] > _BITS_MAX_CARD:
                # intp: bincount casts any other index type on every call
                self.keys[f] = 2 * col.astype(np.intp)
        self.outcome = dataset.outcome
        self.positives = int(np.count_nonzero(dataset.outcome))
        self.relabel(dataset.outcome)
        # score of each (n_s, sum_y) pair scored so far
        self.scores: dict[tuple[int, int], float] = {}
        self.constraints: dict[int, frozenset[int]] = {}
        self.allowed: dict[int, int] = {}
        self.matched = self.all_bits

    def relabel(self, y: np.ndarray) -> None:
        """Make ``y`` the outcome of every record. ``y`` must keep the
        dataset's number of positives, as a permutation does: ``mu`` and the
        score memo hold only for that count."""
        self.y_bits = _bits_from_bool(y != 0)
        if self.y_bits.bit_count() != self.positives:
            raise DataError("a relabelling must keep the number of positive records")
        for keys in self.keys.values():
            keys &= -2
            keys |= y

    def score(self, n_s: int, sum_y: int) -> float:
        """``_score_counts(n_s, sum_y, mu, direction)[0]``, memoized."""
        score = self.scores.get((n_s, sum_y))
        if score is None:
            score = self.scores[n_s, sum_y] = _score_counts(n_s, sum_y, self.mu,
                                                            self.direction)[0]
        return score

    def _mask(self, feature: int, values: Iterable[int]) -> int:
        """Records whose value of ``feature`` is in ``values``."""
        if feature in self.value_bits:
            bits = self.value_bits[feature]
            mask = 0
            for v in values:
                mask |= bits[v]
            return mask
        admitted = np.zeros(self.cards[feature], dtype=bool)
        admitted[list(values)] = True
        return _bits_from_bool(admitted.repeat(2).take(self.keys[feature]))

    def _matching(self, skip: int) -> int:
        """Records matching every current constraint but ``skip``'s."""
        if skip not in self.allowed:
            return self.matched
        mask = self.all_bits
        for f, allowed in self.allowed.items():
            if f != skip:
                mask &= allowed
        return mask

    def admits_any(self, constraints: Mapping[int, Iterable[int]]) -> bool:
        """Whether some record matches every constraint of ``constraints``
        (feature -> admitted values); it stops at the first constraint that
        leaves no record. The current subgroup is left as it is."""
        mask = self.all_bits
        for f, values in constraints.items():
            mask &= self._mask(f, values)
            if not mask:
                return False
        return True

    def load(self, descriptor: SubgroupDescriptor) -> float | None:
        """Make ``descriptor`` the current subgroup and return its score,
        or None when it matches no record."""
        self.constraints, self.allowed, matched = {}, {}, self.all_bits
        for f, values in descriptor.constraints.items():
            self.constraints[f] = values
            self.allowed[f] = mask = self._mask(f, values)
            matched &= mask
        self.matched = matched
        n_s = matched.bit_count()
        if not n_s:
            return None
        return self.score(n_s, (matched & self.y_bits).bit_count())

    def _value_counts(self, feature: int, others: int) -> tuple[list[int], list[int]]:
        """Per value of ``feature``: records and positives among ``others``."""
        if feature not in self.keys:
            bits = self.value_bits[feature]
            positives = others & self.y_bits
            return ([(others & b).bit_count() for b in bits],
                    [(positives & b).bit_count() for b in bits])
        keys = self.keys[feature]
        admitted = _bool_from_bits(others, self.n)
        if others.bit_count() * _COMPRESS_SHARE <= self.n:
            both = np.bincount(keys[admitted.view(bool)], minlength=2 * self.cards[feature])
        else:
            # 0/1 weights: the sums are exact integers
            both = np.bincount(keys, weights=admitted,
                               minlength=2 * self.cards[feature]).astype(np.int64)
        sums = both[1::2]
        return (both[0::2] + sums).tolist(), sums.tolist()

    def step(self, feature: int) -> tuple[frozenset[int] | None, float]:
        """Replace one feature's constraint by the best value set given the
        others; return that set (None: unconstrained) and the new score."""
        others = self._matching(feature)
        if not others:
            raise DataError("no records match the remaining constraints")
        if self.cards[feature] == 2:
            values, score = self._two_value_step(feature, others)
        else:
            values, score = self._prefix_step(feature, others)
        if values is None:
            self.constraints.pop(feature, None)
            self.allowed.pop(feature, None)
            self.matched = others
        elif values != self.constraints.get(feature):
            self.constraints[feature] = values
            self.allowed[feature] = mask = self._mask(feature, values)
            self.matched = others & mask
        return values, score

    def _prefix_step(self, feature: int, others: int) -> tuple[frozenset[int] | None, float]:
        """The best value set of ``feature`` among the records ``others``
        and its score: values sorted by rate, then every prefix scored."""
        counts, sums = self._value_counts(feature, others)
        supported = [v for v, n in enumerate(counts) if n]
        sign = -1.0 if self.direction == OVER else 1.0
        order = sorted(supported, key=lambda v: (sign * (sums[v] / counts[v]), v))
        n_s = sum_y = 0
        best, best_score = 0, -math.inf
        for i, v in enumerate(order):
            n_s += counts[v]
            sum_y += sums[v]
            score = self.score(n_s, sum_y)
            if score > best_score:  # ties -> shortest prefix
                best, best_score = i, score
        if score >= best_score:  # all supported values: vacuous
            return None, score
        return frozenset(order[: best + 1]), best_score

    def _two_value_step(self, feature: int, others: int) -> tuple[frozenset[int] | None, float]:
        """:meth:`_prefix_step` for a two-category feature in closed form. It
        scores the same two prefixes through the same memo, so the score is
        the same bit for bit."""
        n = others.bit_count()
        positives = others & self.y_bits
        s = positives.bit_count()
        b0 = self.value_bits[feature][0]
        n0 = (others & b0).bit_count()
        s0 = (positives & b0).bit_count()
        n1, s1 = n - n0, s - s0
        if not (n0 and n1):  # one supported value: vacuous
            return None, self.score(n, s)
        # the rates' order by exact cross-products; equal rates put value 0
        # first, as the sort key (sign * rate, v) does. Distinct rates differ
        # by at least 1/(n0*n1), far above float division's rounding, so the
        # sort orders them the same way
        if self.direction == OVER:
            first = 0 if s0 * n1 >= s1 * n0 else 1
        else:
            first = 0 if s0 * n1 <= s1 * n0 else 1
        one = self.score(n0, s0) if first == 0 else self.score(n1, s1)
        whole = self.score(n, s)
        if whole >= one:  # both values: vacuous
            return None, whole
        return _ONE_VALUE[first], one


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


def _random_constraints(cards: Mapping[int, int],
                        rng: np.random.Generator) -> dict[int, list[int]]:
    """Uniformly random non-empty value subset per feature of ``cards``
    (feature -> category count, in draw order): the values whose
    ``rng.random(C)`` draw is below 0.5, drawn again while none is. A feature
    that admits every value is left out."""
    constraints = {}
    for f, c in cards.items():
        while True:
            picks = [v for v, x in enumerate(rng.random(c).tolist()) if x < 0.5]
            if picks:
                break
        if len(picks) < c:
            constraints[f] = picks
    return constraints


def _result_from(dataset: DiscreteDataset, descriptor: SubgroupDescriptor,
                 matched: int, direction: str, elapsed: float, **search) -> ScanResult:
    """The result for ``descriptor``, whose record bitmask is ``matched``;
    ``search`` holds the search fields of :class:`ScanResult`."""
    rows = np.flatnonzero(_bool_from_bits(matched, dataset.n_records))
    sum_y = int(dataset.outcome[rows].sum())
    score, q_hat = _score_counts(rows.size, sum_y, dataset.outcome_mean, direction)
    return ScanResult(descriptor=descriptor, score=score, q_hat=q_hat,
                      matched=rows, subset_outcome_sum=sum_y, elapsed=elapsed, **search)


class _Restart:
    """The part of one restart that no labelling changes: its start, whether
    that start is the fallback, and its per-pass feature orders, drawn from
    the restart's generator when an ascent first reaches the pass."""

    __slots__ = ("start", "rng", "fell_back", "orders")

    def __init__(self, start: SubgroupDescriptor, rng: np.random.Generator,
                 fell_back: bool = False):
        self.start = start
        self.rng = rng
        self.fell_back = fell_back
        self.orders: list[list[int]] = []


def _restart_plan(kernel: _ScanKernel, config: ScanConfig) -> list[_Restart]:
    """The config's restarts on a kernel, one generator each from
    ``SeedSequence(config.seed)``. The first starts from the unconstrained
    subgroup, each other one from the first of up to 100 random descriptors
    that matches a record, else (a fallback) from the unconstrained
    subgroup. Which records match does not depend on the labels, so one plan
    serves every relabelling of the kernel. A rejected draw costs its draws
    and the masks up to its first constraint that leaves no record."""
    plan = []
    for r, child in enumerate(np.random.SeedSequence(config.seed).spawn(config.restarts)):
        rng = np.random.default_rng(child)
        start, fell_back = SubgroupDescriptor(), False
        if r > 0:
            for _ in range(100):
                drawn = _random_constraints(kernel.cards, rng)
                if kernel.admits_any(drawn):
                    start = SubgroupDescriptor(drawn)
                    break
            else:
                fell_back = True
        plan.append(_Restart(start, rng, fell_back))
    return plan


def _ascend(kernel: _ScanKernel, restart: _Restart) -> tuple[float, bool]:
    """Coordinate ascent from the restart's start to a local maximum, where
    it leaves the kernel: it stops after a pass that does not strictly raise
    the score. Returns the score and whether the ascent was cut off at
    ``_MAX_PASSES`` passes while still improving.

    A step depends only on the other features' constraints, so a feature
    stepped since the last change to any other constraint is skipped: its
    step would return its current set and the current score.
    """
    score = kernel.load(restart.start)
    orders = restart.orders
    settled: set[int] = set()
    for i in range(_MAX_PASSES):
        if i == len(orders):
            orders.append(restart.rng.permutation(np.asarray(kernel.features)).tolist())
        start = score
        for f in orders[i]:
            if f in settled:
                continue
            old = kernel.constraints.get(f)
            values, score = kernel.step(f)
            if values != old:
                settled.clear()
            settled.add(f)
        if score <= start:
            return score, False
    return score, True


def _validate_features(dataset: DiscreteDataset, features: Sequence[int]) -> list[int]:
    feats = [_index(f, "feature index") for f in features]
    if not feats:
        raise DataError("feature list is empty")
    if len(set(feats)) != len(feats):
        raise DataError("feature list contains duplicates")
    for f in feats:
        if not 0 <= f < dataset.n_features:
            raise DataError(f"feature index {f} out of range")
    return feats


class _Climb(NamedTuple):
    """One restart's ascent: its final score, constraints and record bitmask,
    and whether ``_MAX_PASSES`` cut it off while still improving."""

    score: float
    constraints: dict[int, frozenset[int]]
    matched: int
    cut_off: bool


def _climb(kernel: _ScanKernel, plan: Sequence[_Restart]) -> list[_Climb]:
    """Climb every restart of a plan on the kernel's current labels, in order."""
    climbs = []
    for restart in plan:
        score, cut_off = _ascend(kernel, restart)
        climbs.append(_Climb(score, dict(kernel.constraints), kernel.matched, cut_off))
    return climbs


class _Search(NamedTuple):
    """What :func:`scan` searched with, for replicates to relabel and climb."""

    kernel: _ScanKernel
    plan: list[_Restart]
    seed: int

    def permuted_scores(self, permutations: int) -> tuple[list[float], int]:
        """The scan's best score under each of ``permutations`` label
        permutations, seeded from the scan's seed apart from its restart
        stream, and how many of their ascents ``_MAX_PASSES`` cut off; the
        labels are restored after."""
        y = self.kernel.outcome
        try:
            scores, cut_off = [], 0
            for s in np.random.SeedSequence([_PERMUTE_KEY, self.seed]).spawn(permutations):
                self.kernel.relabel(y[np.random.default_rng(s).permutation(y.size)])
                climbs = _climb(self.kernel, self.plan)
                scores.append(max(c.score for c in climbs))
                cut_off += sum(c.cut_off for c in climbs)
            return scores, cut_off
        finally:
            self.kernel.relabel(y)


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
    plan = _restart_plan(kernel, config)
    climbs = _climb(kernel, plan)
    # ties go to the smaller sort_key
    best, descriptor = min(((c, SubgroupDescriptor(c.constraints)) for c in climbs),
                           key=lambda p: (-p[0].score, p[1].sort_key()))
    return _result_from(dataset, descriptor, best.matched, config.direction,
                        time.perf_counter() - t0,
                        fallback_starts=sum(r.fell_back for r in plan),
                        truncated_ascents=sum(c.cut_off for c in climbs),
                        _search=_Search(kernel, plan, config.seed))


def _bits_from_bool(mask: np.ndarray) -> int:
    """Pack a boolean record mask into an arbitrary-precision bitmask."""
    return int.from_bytes(np.packbits(mask, bitorder="little").tobytes(), "little")


def _bool_from_bits(bits: int, n: int) -> np.ndarray:
    """Unpack a bitmask of ``n`` records into a 0/1 ``uint8`` array."""
    return np.unpackbits(np.frombuffer(bits.to_bytes((n + 7) // 8, "little"), dtype=np.uint8),
                         count=n, bitorder="little")


def _value_bits(column: np.ndarray, cardinality: int) -> list[int]:
    """Record bitmask of each value of a code column."""
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
    mu = dataset.outcome_mean
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

    matched = all_ones
    for _, bits in best_combo:
        matched &= bits
    return _result_from(dataset, descriptor_of(best_combo), matched, direction,
                        time.perf_counter() - t0)
