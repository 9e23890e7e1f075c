"""Secant variety dimensions via randomized tangent-frame ranks.

The dimension of the s-th secant variety equals the rank of the stacked
tangent frames at s generic points, minus one.  Evaluating at random
points over a large prime field gives a certified lower bound for the
generic (characteristic-0) dimension: specialization can only drop the
rank.  When the computed value reaches the expected dimension the bound
is an equality certificate; a strict gap across all trials and both
default primes is reported as defective with high confidence.
"""

from __future__ import annotations

import hashlib
import math
import random
from collections.abc import Callable
from dataclasses import dataclass

from . import field, varieties
from .errors import InconsistencyError

DEFAULT_TRIALS = 3
MAX_EVALUATIONS = 64  # cap on trials x primes rank evaluations per result


@dataclass(frozen=True)
class SecantReport:
    """Result of one secant-dimension computation."""

    spec: str
    s: int
    dim: int
    expected_dim: int
    fills_ambient: bool
    trials_used: int                # rank evaluations that ran; 0 when propagated
    primes_used: tuple[int, ...]    # distinct primes they ran on, in order
    seed: int

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
            "spec": self.spec,
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


def terracini_rank(
    spec: varieties.SegreVeroneseSpec, s: int, rng: random.Random, p: int
) -> int:
    """Rank of the s stacked tangent frames at random points, minus one."""
    rows = varieties.random_frames(spec, s, rng, p).reshape(-1, spec.ambient_dim + 1)
    return field.matrix_rank(rows, p) - 1


def _max_rank(
    rank_at: Callable[[random.Random, int], int],
    bound: int,
    trials: int,
    seed: int,
    primes: tuple[int, ...],
) -> tuple[int, tuple[int, ...]]:
    """Largest ``rank_at(rng, p)`` over primes x trials, stopping once it reaches ``bound``.

    Returns the value and the prime of every rank evaluation that ran, in
    order.  Trial t on prime p draws from ``Random(subseed(seed, t, p))``,
    so a repeated prime would only rerun the same evaluations and is rejected,
    and so is a budget of more than MAX_EVALUATIONS evaluations.  A value
    above ``bound`` contradicts the parameter count and raises.
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
    best, ran = -1, []
    for p in primes:
        for t in range(trials):
            value = rank_at(random.Random(subseed(seed, t, p)), p)
            ran.append(p)
            if value > bound:
                raise InconsistencyError(
                    f"computed dimension {value} exceeds the expected dimension {bound}"
                )
            best = max(best, value)
            if best == bound:
                return best, tuple(ran)
    return best, tuple(ran)


def secant_dim(
    spec: varieties.SegreVeroneseSpec,
    s: int,
    trials: int = DEFAULT_TRIALS,
    seed: int = 0,
    primes: tuple[int, ...] = field.DEFAULT_PRIMES,
) -> SecantReport:
    """Dimension of the s-th secant variety: max over trials and primes.

    The maximum is sound because the rank at any special point only
    under-estimates the generic rank.
    """
    expected = expected_secant_dim(spec, s)
    dim, ran = _max_rank(
        lambda rng, p: terracini_rank(spec, s, rng, p), expected, trials, seed, primes
    )
    return _report(spec, s, dim, seed, ran)


def _report(
    spec: varieties.SegreVeroneseSpec, s: int, dim: int, seed: int, ran: tuple[int, ...]
) -> SecantReport:
    """The report of dim sigma_s = ``dim``; ``ran`` holds the prime of each rank evaluation."""
    return SecantReport(
        spec=str(spec),
        s=s,
        dim=dim,
        expected_dim=expected_secant_dim(spec, s),
        fills_ambient=(dim == spec.ambient_dim),
        trials_used=len(ran),
        primes_used=tuple(dict.fromkeys(ran)),
        seed=seed,
    )


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
