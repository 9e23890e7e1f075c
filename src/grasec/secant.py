"""Secant variety dimensions via randomized tangent-frame ranks.

The dimension of the s-th secant variety equals the rank of the stacked
tangent frames at s generic points, minus one.  Evaluating at random
points over a large prime field gives a certified lower bound for the
generic (characteristic-0) dimension: specialization can only drop the
rank.  When the computed value reaches the expected dimension the bound
is an equality certificate; a strict gap across all trials and both
default primes is reported as defective with high confidence.  Before the
trials x primes budget comes one more evaluation with most points at
coordinate points (Draisma, JPAA 2008), which only ranks a small residual;
they are drawn from one cached packing per spec, found by a local search.
When the packing holds s points the attempt ranks nothing: coordinate
frames are unit rows, so s points with disjoint supports give rank s(n+1)
over every prime, an exact certificate.  One evaluation gives every
sigma_t, t <= s: the rank of the first t frames of a stack is a prefix
count of its row rank profile.
"""

from __future__ import annotations

import functools
import hashlib
import math
import operator
import random
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from . import field, varieties
from .errors import BudgetExceededError, InconsistencyError

DEFAULT_TRIALS = 3
DEFAULT_ENUMERATION_BUDGET = 10**8  # entries built, or span tests run, by one computation
MAX_EVALUATIONS = 64  # cap on trials x primes; the coordinate attempt comes on top
PACKING_ROUNDS = 600   # rounds of the coordinate packing search, once per spec
PACKING_RESTART = 100  # rounds without a new best packing before the search restarts


@dataclass(frozen=True)
class SecantReport:
    """Result of one secant-dimension computation: its arguments and what it computed."""

    spec: varieties.SegreVeroneseSpec
    s: int
    dim: int
    trials_used: int                # rank evaluations that ran
    primes_used: tuple[int, ...]    # distinct primes they ran on, in order
    seed: int

    @property
    def expected_dim(self) -> int:
        return expected_secant_dim(self.spec, self.s)

    @property
    def fills_ambient(self) -> bool:
        return self.dim == self.spec.ambient_dim

    @property
    def defect(self) -> int:
        return self.expected_dim - self.dim

    @property
    def certification(self) -> str:
        if self.dim == self.expected_dim:
            return "exact (matches parameter count)"
        return "certified lower bound; defective (high confidence)"

    def to_dict(self) -> dict:
        return {
            "spec": str(self.spec),
            "s": self.s,
            "dim": self.dim,
            "expected_dim": self.expected_dim,
            "defect": self.defect,
            "fills_ambient": self.fills_ambient,
            "trials_used": self.trials_used,
            "primes_used": list(self.primes_used),
            "seed": self.seed,
            "certification": self.certification,
        }


def expected_secant_dim(spec: varieties.SegreVeroneseSpec, s: int) -> int:
    """min(s*(n+1) - 1, r): the parameter-count prediction."""
    _check_order(spec, 0, s)
    return min(s * (spec.dim + 1) - 1, spec.ambient_dim)


def subseed(seed: int, trial: int, prime: int) -> int:
    """Stable per-(trial, prime) sub-seed, independent of PYTHONHASHSEED."""
    digest = hashlib.blake2b(f"{seed}:{trial}:{prime}".encode(), digest_size=8).digest()
    return int.from_bytes(digest, "big")


def _fill_floor(spec: varieties.SegreVeroneseSpec) -> int:
    """ceil((r+1)/(n+1)): no secant variety of lower order fills P^r."""
    return math.ceil((spec.ambient_dim + 1) / (spec.dim + 1))


def _check_order(spec: varieties.SegreVeroneseSpec, k: int, s: int) -> None:
    """The one (k, s) rule: k >= 0, s >= 1 and s - 1 <= r, since sigma_{r+1} fills P^r.

    k is the dimension of the P^k prepended to X; sigma_s(X) itself is k = 0.
    """
    r = spec.ambient_dim
    if k < 0 or s < 1 or s - 1 > r:
        raise ValueError(f"need k >= 0, s >= 1 and s - 1 <= r, got k={k}, s={s}, r={r}")


def _check_size(spec: varieties.SegreVeroneseSpec, s: int) -> None:
    """Raise ``BudgetExceededError`` before sigma_s(X) builds more entries than the budget.

    Closed form: the largest of each factor's :func:`varieties._power_rule` table,
    (n_i + 2)(n_i + 1) C(n_i + d_i, d_i); the P**2 bits of :func:`_packing`,
    P = prod(n_i + 1); and s stacked frames, s(n + 1)(r + 1).
    """
    size = max(math.prod(n + 1 for n, _ in spec.factors) ** 2, s * (spec.dim + 1) * (spec.ambient_dim + 1),
               *((n + 2) * (n + 1) * math.comb(n + d, d) for n, d in spec.factors))
    if size > DEFAULT_ENUMERATION_BUDGET:
        raise BudgetExceededError(f"sigma_{s} of {spec} needs {size} entries, "
                                  f"above the budget of {DEFAULT_ENUMERATION_BUDGET}")


def _members(mask: int) -> list[int]:
    """Indices of the set bits of ``mask``, increasing."""
    out = []
    while mask:
        out.append((mask & -mask).bit_length() - 1)
        mask &= mask - 1
    return out


@functools.lru_cache(maxsize=None)
def _packing(spec: varieties.SegreVeroneseSpec) -> tuple[int, ...]:
    """Indices of coordinate points with pairwise disjoint supports, built once per spec.

    Iterated local search (Andrade, Resende & Werneck, J. Heuristics 2012)
    on Python-int bitsets, from a fixed seed: each of PACKING_ROUNDS rounds
    forces a random point in, drops those whose supports meet its own, then
    refills at random and makes (1,2)-swaps until none applies.  A result d
    points short of the current packing and d' of the best replaces the
    current one with probability 1 / (1 + d d'); PACKING_RESTART rounds
    without a new best restart from scratch.  No packing exceeds (r+1)/(n+1)
    nor, with every degree 1, the Singleton bound of a distance-3 code:
    prod(n_i + 1) over all but the two largest factors.
    """
    supports = varieties._coordinate_supports(spec).tolist()
    cover = [0] * (spec.ambient_dim + 1)  # the points whose support holds each column
    for v, row in enumerate(supports):
        for c in row:
            cover[c] |= 1 << v
    meets = [functools.reduce(operator.or_, (cover[c] for c in row)) for row in supports]
    full, rng = (1 << len(meets)) - 1, random.Random(0)

    def search(sol: list[int]) -> list[int]:
        while True:
            once = twice = 0  # the points that meet at least one, two points of sol
            for x in sol:
                once, twice = once | meets[x], twice | once & meets[x]
            free = _members(full & ~once)
            rng.shuffle(free)
            for v in free:
                if not once >> v & 1:
                    sol.append(v)
                    once, twice = once | meets[v], twice | once & meets[v]
            for i, x in enumerate(sol):
                # two points that meet no point of sol but x, nor each other
                alone = meets[x] & ~twice & ~(1 << x)
                pair = alone & alone - 1 and next(
                    ((u, pick) for u in _members(alone) if (pick := alone & ~meets[u])), None)
                if pair:
                    sol[i:i + 1] = [pair[0], pair[1].bit_length() - 1]
                    break
            else:
                return sol

    best = current = search([])
    bound, stale = min(len(meets), (spec.ambient_dim + 1) // (spec.dim + 1)), 0
    if all(d == 1 for _, d in spec.factors):
        bound = min(bound, math.prod(sorted(n + 1 for n, _ in spec.factors)[:-2]))
    for _ in range(PACKING_ROUNDS):
        if len(best) == bound:
            break
        if stale and stale % PACKING_RESTART == 0:
            current = search([])
        v = rng.randrange(len(meets))
        while v in current:  # some point is outside, as no packing exceeds the bound
            v = rng.randrange(len(meets))
        trial = search([x for x in current if not meets[v] >> x & 1] + [v])
        worse, behind = len(current) - len(trial), len(best) - len(trial)
        if worse <= 0 or rng.random() < 1 / (1 + worse * behind):
            current = trial
        best, stale = (current, 0) if len(current) > len(best) else (best, stale + 1)
    return tuple(sorted(best))


def terracini_rank(
    spec: varieties.SegreVeroneseSpec, s: int, rng: random.Random, p: int,
    coordinates: bool = False,
) -> np.ndarray:
    """dim sigma_t at the first t of s drawn points, t = 1 .. s, as an int array.

    Entry t - 1 is the rank of the first t stacked tangent frames, minus one.
    With ``coordinates``, points are first drawn with ``rng.sample`` from the
    spec's cached :func:`_packing`.  At a coordinate point every frame row is
    a unit vector with entry 1, on the columns ``_coordinate_supports`` lists
    (the frame invariant of :mod:`grasec.varieties`), so packing points have
    unit rows on disjoint columns C.  When the packing holds s points, t of
    them give rank t(n+1) over every prime, so nothing is drawn or built.
    Otherwise c = min(floor(3s/4), len(packing)) are drawn, then s - c random
    points; past t = c the rank is |C| = c(n+1) plus the number of entries
    below (t - c)(n+1) in the row rank profile (:func:`field.rank_profile`)
    of the other frames without C.
    """
    packing = _packing(spec) if coordinates else ()
    n1, t = spec.dim + 1, np.arange(1, s + 1)
    if len(packing) >= s:
        field._check_modulus(p)
        return t * n1 - 1
    chosen = rng.sample(packing, min(3 * s // 4, len(packing)))
    keep = np.ones(spec.ambient_dim + 1, dtype=bool)
    keep[varieties._coordinate_supports(spec)[chosen]] = False
    rows = varieties.random_frames(spec, s - len(chosen), rng, p).reshape(-1, len(keep))
    profile, c = field.rank_profile(rows[:, keep], p), len(chosen)
    return np.minimum(t, c) * n1 + np.searchsorted(profile, np.maximum(t - c, 0) * n1) - 1


def _max_rank(
    rank_at: Callable[[random.Random, int], int | np.ndarray],
    bound: int | list[int],
    trials: int,
    seed: int,
    primes: tuple[int, ...],
    attempt: Callable[[random.Random, int], int | np.ndarray] | None = None,
) -> tuple[int | list[int], tuple[int, ...]]:
    """Largest ``rank_at(rng, p)`` over primes x trials, stopping once it reaches ``bound``.

    Values and ``bound`` may be arrays of one shape: the maximum is taken
    entrywise, and the search stops once every entry reaches its bound.
    Returns the value (Python ints) and the prime of every rank evaluation
    that ran, in order.  Trial t on prime p draws from
    ``Random(subseed(seed, t, p))``, so a repeated prime would only rerun
    the same evaluations and is rejected, and so is a budget of more than
    MAX_EVALUATIONS evaluations; an ``attempt`` runs first, as trial -1 on
    primes[0].  An entry above its bound raises.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if not primes:
        raise ValueError("at least one prime is needed")
    if len(set(primes)) < len(primes):
        raise ValueError(f"each prime may be given once, got {list(primes)}")
    if trials * len(primes) > MAX_EVALUATIONS:
        raise ValueError(f"trials x primes = {trials * len(primes)} rank evaluations, "
                         f"above the cap of {MAX_EVALUATIONS}")
    for p in primes:  # every prime, not only those evaluated before the bound is met
        field._check_modulus(p)
    runs = [(attempt, -1, primes[0])] if attempt else []
    runs += [(rank_at, t, p) for p in primes for t in range(trials)]
    bound = np.asarray(bound)
    best, ran = np.full(bound.shape, -1), []
    for rank, t, p in runs:
        value = np.asarray(rank(random.Random(subseed(seed, t, p)), p))
        ran.append(p)
        if (over := value > bound).any():
            raise InconsistencyError(f"computed dimension {value[over][0]} exceeds "
                                     f"the expected dimension {bound[over][0]}")
        best = np.maximum(best, value)
        if (best == bound).all():
            break
    return best.tolist(), tuple(ran)


def secant_dim(
    spec: varieties.SegreVeroneseSpec,
    s: int,
    trials: int = DEFAULT_TRIALS,
    seed: int = 0,
    primes: tuple[int, ...] = field.DEFAULT_PRIMES,
) -> SecantReport:
    """Dimension of the s-th secant variety: max over a coordinate attempt, trials and primes.

    The maximum is sound because the rank at any special point set only
    under-estimates the generic rank.  This is the one-order case of
    :func:`classify_secant_range`.
    """
    return classify_secant_range(spec, range(s, s + 1), trials=trials, seed=seed, primes=primes)[0]


def _filling_order(reports: list[SecantReport]) -> int | None:
    """Least s whose report fills the ambient space, if any does."""
    return next((rep.s for rep in reports if rep.fills_ambient), None)


def generic_rank(
    spec: varieties.SegreVeroneseSpec,
    trials: int = DEFAULT_TRIALS,
    seed: int = 0,
    primes: tuple[int, ...] = field.DEFAULT_PRIMES,
) -> int:
    """Least s with the s-th secant variety filling the ambient space.

    :func:`classify_secant_range` over f .. S, where no order below
    f = ceil((r+1)/(n+1)) fills, for S = f, 2f, 4f, ... capped at r + 1,
    until some order fills; sigma_{r+1} always does.
    """
    low = high = _fill_floor(spec)
    while (s := _filling_order(classify_secant_range(
            spec, range(low, high + 1), trials=trials, seed=seed, primes=primes))) is None:
        if high > spec.ambient_dim:
            raise InconsistencyError(f"no filling secant variety found for {spec} up to s = r + 1")
        high = min(2 * high, spec.ambient_dim + 1)
    return s


def classify_secant_range(
    spec: varieties.SegreVeroneseSpec,
    orders: range,
    trials: int = DEFAULT_TRIALS,
    seed: int = 0,
    primes: tuple[int, ...] = field.DEFAULT_PRIMES,
) -> list[SecantReport]:
    """Reports for each s in ``orders``, all read off one :func:`_max_rank` at s = max(orders).

    Each evaluation gives dim sigma_t at the first t of max(orders) points
    for every t (:func:`terracini_rank`), and the maximum runs entrywise until
    each order reaches its expected dimension.  Only the coordinate attempt
    draws packing points.  Every report records all evaluations that ran.
    Orders are checked first, then the size (:func:`_check_size`).
    """
    if not orders:
        raise ValueError("need at least one order s")
    for s in (orders[0], orders[-1]):  # not min(orders): that iterates the whole range
        _check_order(spec, 0, s)
    top, index = max(orders[0], orders[-1]), np.array(orders) - 1
    _check_size(spec, top)
    dims, ran = _max_rank(
        lambda rng, p: terracini_rank(spec, top, rng, p)[index],
        [expected_secant_dim(spec, s) for s in orders], trials, seed, primes,
        attempt=lambda rng, p: terracini_rank(spec, top, rng, p, coordinates=True)[index],
    )
    used = tuple(dict.fromkeys(ran))  # the distinct primes, in order
    return [SecantReport(spec, s, dim, len(ran), used, seed) for s, dim in zip(orders, dims)]
