"""The slice map on explicit tensors, secant witnesses, and micro-enumeration.

A point of the ambient space of Seg(P^k x X) is stored as a (k+1) x (r+1)
slice matrix: slice j holds coordinates j*(r+1) .. j*(r+1)+r.  The slice
map sends such a point to the row space of its slice matrix, a point of
the Grassmannian recorded by its canonical (reduced echelon) row-space
basis, which determines the Pluecker coordinates.

The module also counts exhaustively, over tiny finite fields, the
s-subsets of X(F_q) whose span contains a target's span L: the subsets
that can hold a decomposition, and the decomposition count itself when
dim L = s.  X(F_q) is row 0 of one tangent-frame stack, and
:func:`field.quotient` maps it to V/L; one more quotient per prefix of
s - 1 points then decides every subset that extends the prefix.
"""

from __future__ import annotations

import functools
import itertools
import math
import random
from dataclasses import dataclass

import numpy as np

from . import field, secant, varieties
from .errors import BudgetExceededError, SamplingError


@dataclass(frozen=True)
class SlicedTensor:
    """A point of P^{(k+1)(r+1)-1} over F_p as its (k+1) x (r+1) slice matrix."""

    p: int
    slices: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        if len({len(row) for row in self.slices}) != 1:
            raise ValueError("the slice rows must have one common length")
        if not any(any(row) for row in self.slices):
            raise ValueError("the zero tensor has no slice span")

    def scaled(self, c: int) -> "SlicedTensor":
        c %= self.p
        if c == 0:
            raise ValueError("scaling by zero")
        return SlicedTensor(self.p, tuple(tuple(v * c % self.p for v in row) for row in self.slices))


@dataclass(frozen=True)
class PluckerPoint:
    """A w-plane of P^r as its canonical (reduced echelon) row basis over F_p.

    Two planes are equal exactly when their bases are; the Pluecker
    coordinates are the maximal minors of ``basis``.
    """

    p: int
    basis: tuple[tuple[int, ...], ...]

    @property
    def w(self) -> int:
        return len(self.basis) - 1


@dataclass(frozen=True)
class SecantWitness:
    """A secant point over F_p as the decomposition that builds it."""

    p: int
    lambdas: tuple[tuple[int, ...], ...]          # s points of P^k
    embedded_points: tuple[tuple[int, ...], ...]  # s rows of length r+1

    @property
    def tensor(self) -> SlicedTensor:
        """The secant point, assembled afresh at each read."""
        return assemble_tensor(self.lambdas, self.embedded_points, self.p)


def phi(tensor: SlicedTensor) -> PluckerPoint:
    """Row space of the slice matrix, as its canonical row basis."""
    basis = field.row_space_basis(tensor.slices, tensor.p)
    return PluckerPoint(tensor.p, tuple(map(tuple, basis.tolist())))


def assemble_tensor(lambdas, embedded_points, p: int) -> SlicedTensor:
    """Slice j is sum_i lambda_{i,j} * P_i, computed exactly."""
    slices = field.matmul_mod(np.transpose(lambdas), embedded_points, p)  # (k+1) x (r+1)
    return SlicedTensor(p, tuple(map(tuple, slices.tolist())))


def random_secant_point(
    spec: varieties.SegreVeroneseSpec,
    k: int,
    s: int,
    rng: random.Random,
    p: int,
) -> SecantWitness:
    """Uniform witness over F_p: s coefficient points of P^k and s points on X.

    All draws come from ``rng``: the points by :func:`varieties.random_frames`,
    then each lambda_i by the nonzero-vector draw that gives a point's factors.
    """
    secant._check_order(spec, k, s)
    for _ in range(varieties.MAX_RESAMPLES):
        embedded = varieties.random_frames(spec, s, rng, p)[:, 0].tolist()
        # s <= r+1 generic points must be independent; otherwise resample
        if field.matrix_rank(embedded, p) < s:
            continue
        lambdas = tuple(varieties._nonzero_vector(k + 1, rng, p) for _ in range(s))
        return SecantWitness(p, lambdas, tuple(map(tuple, embedded)))
    raise SamplingError(f"could not sample an independent secant witness on {spec}")


def _point_count(spec: varieties.SegreVeroneseSpec, q: int) -> int:
    """#X(F_q) = prod #P^{n_i}(F_q): the embedding is injective on F_q-points."""
    return math.prod((q ** (n + 1) - 1) // (q - 1) for n, _ in spec.factors)


@functools.lru_cache(maxsize=None)
def enumerate_variety_points(spec: varieties.SegreVeroneseSpec, q: int) -> np.ndarray:
    """All F_q-points of the embedded variety, one row each, in sorted order.

    Row 0 of one :func:`varieties.tangent_frame` call on every parameter
    point whose factors are each scaled to first nonzero coordinate 1.
    The embedding of a normalized parameter point is already normalized and
    determines the point, so the rows are canonical and pairwise distinct;
    see the frame invariant in :mod:`grasec.varieties`.  Built once per
    (spec, q) and read-only, like ``varieties._frame_table``; the size of
    those #X(F_q) frames is checked before any point is listed.
    """
    varieties._check_frames(spec, _point_count(spec, q))
    factors = [[(0,) * pivot + (1,) + tail
                for pivot in range(n + 1)
                for tail in itertools.product(range(q), repeat=n - pivot)]
               for n, _ in spec.factors]
    rows = varieties.tangent_frame(spec, list(itertools.product(*factors)), q)[:, 0]
    rows = rows[np.lexsort(rows.T[::-1])]
    rows.flags.writeable = False  # shared by the cache
    return rows


def count_decompositions(
    spec: varieties.SegreVeroneseSpec,
    s: int,
    target: SlicedTensor | PluckerPoint,
) -> int:
    """Number of s-subsets S of X(F_q) whose span contains the target's span L, q = target.p.

    For a subspace target this is direct containment.  For a tensor target
    T it is the count for its slice span, phi(T): the subsets that can hold
    a decomposition of T.  When dim L = s, coefficient points of P^k exist
    exactly on those subsets, and this is the decomposition count.  When
    dim L < s a subset may need a zero coefficient point, so some subsets
    counted hold no decomposition of T with s nonzero terms.

    With d = dim L and pi: V -> V/L from :func:`field.quotient`, L lies in
    span(S) iff rank S = d + rank pi(S); with d = s only the points inside L
    take part, and with d > s none.  S is a prefix T of s - 1 points and a
    later point x: rank S = rank T + [x not in span T], likewise for pi(S),
    so one quotient by pi(T) and one by T decide every x.  s < 1 raises
    ``ValueError``, and so does a target whose rows are not as long as X's.
    """
    q = target.p
    if q not in (2, 3, 5, 7):
        raise ValueError(f"exhaustive enumeration needs a prime q <= 7, got q={q}")
    if s < 1:
        raise ValueError(f"need s >= 1, got s={s}")
    if (total := math.comb(_point_count(spec, q), s)) > varieties.DEFAULT_ENUMERATION_BUDGET:
        raise BudgetExceededError(f"{total} span tests exceed the budget of {varieties.DEFAULT_ENUMERATION_BUDGET}")
    points = enumerate_variety_points(spec, q)
    rows = target.basis if isinstance(target, PluckerPoint) else target.slices
    d, image = field.quotient(rows, points, q)
    if d > s:
        return 0
    if d == s:  # span(S) = L: only the points inside L, where pi vanishes
        inside = ~image.any(axis=1)
        points, image = points[inside], image[inside, :0]
    count = 0
    for prefix in itertools.combinations(range(len(points) - 1), s - 1):
        t, later = list(prefix), slice(prefix[-1] + 1 if prefix else 0, None)
        low, beyond = field.quotient(image[t], image[later], q) if image.shape[1] else (0, image[later])
        if d + low > s:  # rank S <= s < d + rank pi(S) for every x
            continue
        rank, outside = field.quotient(points[t], points[later], q)
        count += int((rank + outside.any(axis=1) == d + low + beyond.any(axis=1)).sum())
    return count
