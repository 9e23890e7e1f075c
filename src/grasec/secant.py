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
over every prime, an exact certificate.
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
from .errors import InconsistencyError

DEFAULT_TRIALS = 3
MAX_EVALUATIONS = 64  # cap on trials x primes; the coordinate attempt comes on top
PACKING_ROUNDS = 600   # rounds of the coordinate packing search, once per spec
PACKING_RESTART = 100  # rounds without a new best packing before the search restarts


@dataclass(frozen=True)
class SecantReport:
    """Result of one secant-dimension computation: its arguments and what it computed."""

    spec: varieties.SegreVeroneseSpec
    s: int
    dim: int
    trials_used: int                # rank evaluations that ran; 0 when propagated
    primes_used: tuple[int, ...]    # distinct primes they ran on, in order
    seed: int

    @property
    def expected_dim(self) -> int:
        return expected_secant_dim(self.spec, self.s)

    @property
    def fills_ambient(self) -> bool:
        return self.dim == self.spec.ambient_dim

    @property
    def propagated(self) -> bool:  # filled in by monotonicity, no rank evaluation ran
        return self.trials_used == 0

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
            "propagated": self.propagated,
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
) -> int:
    """Rank of the s stacked tangent frames at random points, minus one.

    With ``coordinates``, points are drawn with ``rng.sample`` from the
    spec's cached :func:`_packing`.  At a coordinate point every frame row is
    a unit vector with entry 1, on the columns ``_coordinate_supports``
    lists (the frame invariant of :mod:`grasec.varieties`), so packing
    points have unit rows on disjoint columns C.  When the packing holds s
    points, s of them give rank s(n+1) over every prime, so none is drawn
    and no frame is built.  Otherwise min(floor(3s/4), len(packing)) are
    drawn and the rank is |C| plus that of the other frames without C.
    """
    packing = _packing(spec) if coordinates else ()
    if len(packing) >= s:
        field._check_modulus(p)
        return s * (spec.dim + 1) - 1
    chosen = rng.sample(packing, min(3 * s // 4, len(packing)))
    keep = np.ones(spec.ambient_dim + 1, dtype=bool)
    keep[varieties._coordinate_supports(spec)[chosen]] = False
    rows = varieties.random_frames(spec, s - len(chosen), rng, p).reshape(-1, len(keep))
    return len(chosen) * (spec.dim + 1) + field.matrix_rank(rows[:, keep], p) - 1


def _max_rank(
    rank_at: Callable[[random.Random, int], int],
    bound: int,
    trials: int,
    seed: int,
    primes: tuple[int, ...],
    attempt: Callable[[random.Random, int], int] | None = None,
) -> tuple[int, tuple[int, ...]]:
    """Largest ``rank_at(rng, p)`` over primes x trials, stopping once it reaches ``bound``.

    Returns the value and the prime of every rank evaluation that ran, in
    order.  Trial t on prime p draws from ``Random(subseed(seed, t, p))``,
    so a repeated prime would only rerun the same evaluations and is rejected,
    and so is a budget of more than MAX_EVALUATIONS evaluations; an ``attempt``
    runs first, as trial -1 on primes[0].  A value above ``bound`` raises.
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
    runs = [(attempt, -1, primes[0])] if attempt else []
    runs += [(rank_at, t, p) for p in primes for t in range(trials)]
    best, ran = -1, []
    for rank, t, p in runs:
        value = rank(random.Random(subseed(seed, t, p)), p)
        ran.append(p)
        if value > bound:
            raise InconsistencyError(
                f"computed dimension {value} exceeds the expected dimension {bound}"
            )
        best = max(best, value)
        if best == bound:
            break
    return best, tuple(ran)


def secant_dim(
    spec: varieties.SegreVeroneseSpec,
    s: int,
    trials: int = DEFAULT_TRIALS,
    seed: int = 0,
    primes: tuple[int, ...] = field.DEFAULT_PRIMES,
) -> SecantReport:
    """Dimension of the s-th secant variety: max over a coordinate attempt, trials and primes.

    The maximum is sound because the rank at any special point set only
    under-estimates the generic rank.
    """
    expected = expected_secant_dim(spec, s)
    dim, ran = _max_rank(
        lambda rng, p: terracini_rank(spec, s, rng, p), expected, trials, seed, primes,
        attempt=lambda rng, p: terracini_rank(spec, s, rng, p, coordinates=True),
    )
    return _report(spec, s, dim, seed, ran)


def _report(
    spec: varieties.SegreVeroneseSpec, s: int, dim: int, seed: int, ran: tuple[int, ...]
) -> SecantReport:
    """The report of dim sigma_s = ``dim``; ``ran`` holds the prime of each rank evaluation."""
    return SecantReport(spec, s, dim, len(ran), tuple(dict.fromkeys(ran)), seed)


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

    One :func:`classify_secant_range` walk over ceil((r+1)/(n+1)) .. r + 1;
    sigma_{r+1} always fills, so some report does.
    """
    orders = range(_fill_floor(spec), spec.ambient_dim + 2)
    s = _filling_order(classify_secant_range(spec, orders, trials=trials, seed=seed, primes=primes))
    if s is None:
        raise InconsistencyError(f"no filling secant variety found for {spec} up to s = r + 1")
    return s


def classify_secant_range(
    spec: varieties.SegreVeroneseSpec,
    orders: range,
    trials: int = DEFAULT_TRIALS,
    seed: int = 0,
    primes: tuple[int, ...] = field.DEFAULT_PRIMES,
) -> list[SecantReport]:
    """Reports for each s in ``orders``, computing only what monotonicity cannot fill in.

    Two propagation rules: once some secant variety fills the ambient
    space, all larger ones fill; once some secant variety attains the
    unconstrained maximum s*(n+1) - 1, all smaller ones do too.  The walk
    from s = min(max(orders), ceil((r+1)/(n+1))) stops at min(orders).
    """
    lo, hi = min(orders), max(orders)
    _check_order(spec, 0, lo)
    _check_order(spec, 0, hi)
    n, r = spec.dim, spec.ambient_dim
    reports: dict[int, SecantReport] = {}

    def compute(s: int) -> SecantReport:
        rep = secant_dim(spec, s, trials=trials, seed=seed, primes=primes)
        reports[s] = rep
        return rep

    s_pivot = min(hi, _fill_floor(spec))
    pivot = compute(s_pivot)

    propagate_down = pivot.dim == s_pivot * (n + 1) - 1
    for t in range(s_pivot - 1, lo - 1, -1):
        if propagate_down:
            reports[t] = _report(spec, t, t * (n + 1) - 1, seed, ())
        else:
            propagate_down = compute(t).dim == t * (n + 1) - 1

    fills = pivot.fills_ambient
    for t in range(s_pivot + 1, hi + 1):
        if fills:
            reports[t] = _report(spec, t, r, seed, ())
        else:
            fills = compute(t).fills_ambient

    return [reports[s] for s in orders]
