"""The slice map on explicit tensors, secant witnesses, and micro-enumeration.

A point of the ambient space of Seg(P^k x X) is stored as a (k+1) x (r+1)
slice matrix: slice j holds coordinates j*(r+1) .. j*(r+1)+r.  The slice
map sends such a point to the row space of its slice matrix, a point of
the Grassmannian recorded by Pluecker coordinates plus a canonical
row-space basis.

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
_MAX_RESAMPLES = 5


@dataclass(frozen=True)
class SlicedTensor:
    """A point of P^{(k+1)(r+1)-1} as its (k+1) x (r+1) slice matrix."""

    k: int
    r: int
    p: int
    slices: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        if len(self.slices) != self.k + 1 or any(len(row) != self.r + 1 for row in self.slices):
            raise ValueError("slice matrix shape does not match (k+1) x (r+1)")
        if not any(any(row) for row in self.slices):
            raise ValueError("the zero tensor has no slice span")

    @classmethod
    def from_vector(cls, vec, k: int, p: int) -> "SlicedTensor":
        vec = [int(v) % p for v in vec]
        if len(vec) % (k + 1):
            raise ValueError("vector length is not divisible by k + 1")
        r = len(vec) // (k + 1) - 1
        slices = tuple(
            tuple(vec[j * (r + 1):(j + 1) * (r + 1)]) for j in range(k + 1)
        )
        return cls(k=k, r=r, p=p, slices=slices)

    def to_vector(self) -> list[int]:
        return [v for row in self.slices for v in row]

    def scaled(self, c: int) -> "SlicedTensor":
        c %= self.p
        if c == 0:
            raise ValueError("scaling by zero")
        return SlicedTensor(
            k=self.k,
            r=self.r,
            p=self.p,
            slices=tuple(tuple(v * c % self.p for v in row) for row in self.slices),
        )


@dataclass(frozen=True)
class PluckerPoint:
    """A subspace of P^r: Pluecker coordinates plus a canonical row basis."""

    w: int
    p: int
    coords: tuple[int, ...]
    basis: tuple[tuple[int, ...], ...]


@dataclass(frozen=True)
class SecantWitness:
    """A secant point together with the decomposition that built it."""

    spec: varieties.SegreVeroneseSpec
    k: int
    s: int
    p: int
    lambdas: tuple[tuple[int, ...], ...]          # s points of P^k
    parameter_points: tuple[varieties.ParameterPoint, ...]
    embedded_points: tuple[tuple[int, ...], ...]  # s rows of length r+1
    tensor: SlicedTensor


def phi(tensor: SlicedTensor) -> PluckerPoint:
    """Row space of the slice matrix, as a Pluecker point.

    The Pluecker coordinates are all maximal minors of the canonical
    row-space basis, column subsets in lexicographic order.
    """
    basis = field.row_space_basis(tensor.slices, tensor.p)
    w = basis.shape[0] - 1
    coords = tuple(field.maximal_minors(basis, tensor.p))
    return PluckerPoint(
        w=w,
        p=tensor.p,
        coords=coords,
        basis=tuple(tuple(int(v) for v in row) for row in basis),
    )


def assemble_tensor(
    spec: varieties.SegreVeroneseSpec,
    lambdas,
    embedded_points,
    p: int,
) -> SlicedTensor:
    """Slice j of the assembled point is sum_i lambda_{i,j} * P_i, exactly."""
    k = len(lambdas[0]) - 1
    r = spec.ambient_dim
    P = field.as_matrix(embedded_points, p)
    lam = field.as_matrix(lambdas, p)            # s x (k+1)
    slices = field.matmul_mod(lam.T, P, p)       # (k+1) x (r+1)
    return SlicedTensor(
        k=k, r=r, p=p, slices=tuple(tuple(int(v) for v in row) for row in slices)
    )


def random_secant_point(
    spec: varieties.SegreVeroneseSpec,
    k: int,
    s: int,
    seed: int = 0,
    p: int = field.DEFAULT_PRIME,
    rng: random.Random | None = None,
) -> SecantWitness:
    """Uniform witness: s coefficient points of P^k and s points on X."""
    if k < 0 or s < 1:
        raise ValueError("need k >= 0 and s >= 1")
    if rng is None:
        rng = random.Random(secant.subseed(seed, 0, p))
    r = spec.ambient_dim
    for _ in range(_MAX_RESAMPLES):
        points = [varieties.random_parameter_point(spec, rng, p) for _ in range(s)]
        embedded = [varieties.embed(spec, u, p) for u in points]
        # s <= r+1 generic points must be independent; otherwise resample
        if s <= r + 1 and field.matrix_rank(embedded, p) < s:
            continue
        lambdas = []
        for _ in range(s):
            while True:
                lam = tuple(rng.randrange(p) for _ in range(k + 1))
                if any(lam):
                    break
            lambdas.append(lam)
        tensor = assemble_tensor(spec, lambdas, embedded, p)
        return SecantWitness(
            spec=spec,
            k=k,
            s=s,
            p=p,
            lambdas=tuple(lambdas),
            parameter_points=tuple(points),
            embedded_points=tuple(tuple(v for v in row) for row in embedded),
            tensor=tensor,
        )
    raise SamplingError(f"could not sample an independent secant witness on {spec}")


def enumerate_variety_points(spec: varieties.SegreVeroneseSpec, q: int) -> np.ndarray:
    """All distinct F_q-points of the embedded variety, canonically normalized.

    Each embedded vector is scaled so its first nonzero coordinate is 1;
    duplicates (possible for even embedding degrees) are removed.  Rows
    come out in a deterministic sorted order.
    """
    seen: set[tuple[int, ...]] = set()
    for point in varieties.enumerate_parameter_points(spec, q):
        vec = varieties.embed(spec, point, q)
        pivot = next(v for v in vec if v)
        inv = pow(pivot, -1, q)
        seen.add(tuple(v * inv % q for v in vec))
    return field.as_matrix(sorted(seen), q)


def _count_subsets_containing(
    points: np.ndarray, s: int, target_rows, q: int, budget: int
) -> int:
    total = math.comb(points.shape[0], s)
    if total > budget:
        raise BudgetExceededError(
            f"{total} span tests exceed the budget of {budget}"
        )
    target = field.as_matrix(target_rows, q)
    return sum(
        field.subspace_contains(points[list(idx)], target, q)
        for idx in itertools.combinations(range(points.shape[0]), s)
    )


def count_decompositions(
    spec: varieties.SegreVeroneseSpec,
    q: int,
    s: int,
    target: SlicedTensor | PluckerPoint,
    budget: int = DEFAULT_ENUMERATION_BUDGET,
) -> int:
    """Number of s-subsets of X(F_q) whose span contains the target.

    For a subspace target this is direct containment.  For a tensor target
    it is the reduced decomposition count: once the X-points are fixed,
    suitable coefficient points of P^k exist exactly when every slice lies
    in the span of the chosen points, a linear solvability test.
    """
    if q not in (2, 3, 5, 7):
        raise ValueError(f"exhaustive enumeration needs a prime q <= 7, got q={q}")
    points = enumerate_variety_points(spec, q)
    if isinstance(target, PluckerPoint):
        rows = target.basis
    else:
        rows = target.slices
    return _count_subsets_containing(points, s, rows, q, budget)
