"""The slice map on explicit tensors, secant witnesses, and micro-enumeration.

A point of the ambient space of Seg(P^k x X) is stored as a (k+1) x (r+1)
slice matrix: slice j holds coordinates j*(r+1) .. j*(r+1)+r.  The slice
map sends such a point to the row space of its slice matrix, a point of
the Grassmannian recorded by its canonical (reduced echelon) row-space
basis, which determines the Pluecker coordinates.

The module also counts decompositions exhaustively over tiny finite
fields: given s points of X whose span must contain the target, the
existence of the projective coefficient points is a linear solvability
condition slice by slice, which reduces the search to s-subsets of the
F_q-points of X.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass

import numpy as np

from . import field, secant, varieties
from .errors import BudgetExceededError, SamplingError

DEFAULT_ENUMERATION_BUDGET = 10**8
# int64 entries of one chunk's stack of (subset ; target) matrices
_CHUNK_ENTRIES = 2**19


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
    return PluckerPoint(tensor.p, tuple(tuple(int(v) for v in row) for row in basis))


def assemble_tensor(lambdas, embedded_points, p: int) -> SlicedTensor:
    """Slice j is sum_i lambda_{i,j} * P_i, computed exactly."""
    P = field.as_matrix(embedded_points, p)
    lam = field.as_matrix(lambdas, p)            # s x (k+1)
    slices = field.matmul_mod(lam.T, P, p)       # (k+1) x (r+1)
    return SlicedTensor(p, tuple(tuple(int(v) for v in row) for row in slices))


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


def enumerate_variety_points(spec: varieties.SegreVeroneseSpec, q: int) -> np.ndarray:
    """All F_q-points of the embedded variety, one row each, in sorted order.

    Each factor evaluates its Veronese vector (entry 0 of the power-rule
    table) at every point of P^{n_i}(F_q), scaled to first nonzero
    coordinate 1; the row-wise Kronecker product of these tables, first
    factor major as in :mod:`grasec.varieties`, embeds every product point.
    The embedding of a normalized parameter point is already normalized and
    determines the point, so the rows are canonical and pairwise distinct;
    see the frame invariant in :mod:`grasec.varieties`.
    """
    rows = np.ones((1, 1), dtype=np.int64)
    for n, d in spec.factors:
        x = [(0,) * pivot + (1,) + tail
             for pivot in range(n + 1)
             for tail in itertools.product(range(q), repeat=n - pivot)]
        exponents, coeffs = varieties._power_rule(n, d)
        values = field.dual_evaluate(x, exponents[0], coeffs[0], q)
        rows = rows[:, None, :, None] * values[None, :, None, :]
        rows %= q
        rows = rows.reshape(rows.shape[0] * rows.shape[1], -1)
    return rows[np.lexsort(rows.T[::-1])]


def count_decompositions(
    spec: varieties.SegreVeroneseSpec,
    s: int,
    target: SlicedTensor | PluckerPoint,
) -> int:
    """Number of s-subsets of X(F_q) whose span contains the target, q = target.p.

    For a subspace target this is direct containment.  For a tensor target
    it is the reduced decomposition count: once the X-points are fixed,
    suitable coefficient points of P^k exist exactly when every slice lies
    in the span of the chosen points, a linear solvability test.  After
    checking the subset count against DEFAULT_ENUMERATION_BUDGET, the
    s-subsets are tested in chunks, one stacked
    :func:`field.subspace_contains` call per chunk.
    """
    q = target.p
    if q not in (2, 3, 5, 7):
        raise ValueError(f"exhaustive enumeration needs a prime q <= 7, got q={q}")
    # #X(F_q) = prod #P^{n_i}(F_q): the embedding is injective on F_q-points
    npoints = math.prod((q ** (n + 1) - 1) // (q - 1) for n, _ in spec.factors)
    total = math.comb(npoints, s)
    if total > DEFAULT_ENUMERATION_BUDGET:
        raise BudgetExceededError(
            f"{total} span tests exceed the budget of {DEFAULT_ENUMERATION_BUDGET}"
        )
    points = enumerate_variety_points(spec, q)
    rows = field.as_matrix(target.basis if isinstance(target, PluckerPoint) else target.slices, q)
    chunk = max(1, _CHUNK_ENTRIES // ((s + len(rows)) * points.shape[1]))
    subsets = itertools.combinations(range(npoints), s)
    count = 0
    for start in range(0, total, chunk):
        size = min(chunk, total - start)
        flat = itertools.chain.from_iterable(itertools.islice(subsets, size))
        idx = np.fromiter(flat, dtype=np.int64, count=size * s).reshape(size, s)
        count += int(field.subspace_contains(points[idx], rows, q).sum())
    return count
