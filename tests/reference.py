"""Slow plain-Python reference paths that the fast numpy paths are tested against.

* :func:`monomials` lists the ambient coordinates in the ordering the
  :mod:`grasec.varieties` docstring fixes, and :func:`frame` builds a
  tangent frame monomial by monomial with the power rule in that order.
* :func:`maximal_minors` expands every maximal minor along its rows on
  Python integers (Laplace); the Pluecker oracle below uses this copy, so
  it shares no code with :mod:`grasec.field`.
* :func:`plucker_direct_rank` is the Grassmann-secant Jacobian of the
  Pluecker parameterization: the derivative of every maximal minor of the
  spanning matrix, by row replacement
  (d det M = sum_a det(M with row a replaced by dM_a)).
* :func:`rref` is textbook Gauss-Jordan elimination on Python integers,
  the oracle for every rank and echelon form, the kernel in
  :mod:`grasec.field` included.
* :func:`variety_points` lists X(F_q) by embedding every nonzero
  parameter vector, scaling each row to first nonzero coordinate 1 and
  removing duplicates.
* :func:`count_decompositions` tests every s-subset of those points on
  its own: its span contains the target rows iff adding them keeps the
  rank.  :func:`count_nonzero_decompositions` tries every coefficient
  vector on every such subset and counts those with a decomposition whose
  coefficient points lambda_i are all nonzero.
* :func:`generic_rank` is the plain ascending loop over secant orders,
  one :func:`grasec.secant.secant_dim` call per order until one fills.
* :func:`coordinate_terracini_rank` ranks the whole Terracini matrix at the
  point set of the coordinate attempt, coordinate points from the spec's
  packing included, with no column deleted.
"""

from __future__ import annotations

import itertools
import math
import random

from grasec import field, secant, varieties
from grasec.errors import InconsistencyError, SamplingError


def rref(rows, p: int) -> tuple[list[list[int]], list[int]]:
    """Reduced row-echelon form (input shape, pivots scaled to 1) and pivot columns."""
    m = [[int(v) % p for v in row] for row in rows]
    pivots: list[int] = []
    for c in range(len(m[0]) if m else 0):
        r = len(pivots)
        i = next((i for i in range(r, len(m)) if m[i][c]), None)
        if i is None:
            continue
        m[r], m[i] = m[i], m[r]
        inv = pow(m[r][c], -1, p)
        m[r] = [v * inv % p for v in m[r]]
        for j in range(len(m)):
            if j != r and m[j][c]:
                f = m[j][c]
                m[j] = [(a - f * b) % p for a, b in zip(m[j], m[r])]
        pivots.append(c)
    return m, pivots


def rank(rows, p: int) -> int:
    return len(rref(rows, p)[1])


def monomials(spec: varieties.SegreVeroneseSpec) -> list[tuple[int, ...]]:
    """Exponent tuples of the ambient coordinates over the concatenated parameter vector.

    Inside a factor (n, d): every exponent vector of n + 1 variables and
    degree d, in decreasing lexicographic order (largest exponent on the
    first variable first).  Across factors the first factor is the major
    index, which is the order itertools.product walks.
    """
    per_factor = []
    for n, d in spec.factors:
        exps = [e for e in itertools.product(range(d + 1), repeat=n + 1) if sum(e) == d]
        per_factor.append(sorted(exps, reverse=True))
    return [sum(combo, ()) for combo in itertools.product(*per_factor)]


def _monomial(exps, x, p: int) -> int:
    value = 1
    for xi, e in zip(x, exps):
        value = value * pow(xi, e, p) % p
    return value


def _partial(exps, x, var: int, p: int) -> int:
    """d/dx_var of x^exps: exps[var] * x^(exps - e_var)."""
    if exps[var] == 0:
        return 0
    lowered = list(exps)
    lowered[var] -= 1
    return exps[var] * _monomial(lowered, x, p) % p


def frame(spec: varieties.SegreVeroneseSpec, point, p: int) -> list[list[int]]:
    """Embedded point, then its partials along each factor's non-pivot coordinates."""
    x = [c % p for coords in point for c in coords]
    monos = monomials(spec)
    rows = [[_monomial(exps, x, p) for exps in monos]]
    off = 0  # start of the factor's coordinates in x
    for (n, _), coords in zip(spec.factors, point):
        pivot = next(j for j, c in enumerate(coords) if c)
        for j in range(n + 1):
            if j != pivot:
                rows.append([_partial(exps, x, off + j, p) for exps in monos])
        off += n + 1
    return rows


def nonzero_points(spec: varieties.SegreVeroneseSpec, q: int):
    """Every parameter point over F_q, unnormalized: all nonzero vectors per factor."""
    per_factor = [
        [v for v in itertools.product(range(q), repeat=n + 1) if any(v)] for n, _ in spec.factors
    ]
    return itertools.product(*per_factor)


def variety_points(spec: varieties.SegreVeroneseSpec, q: int) -> list[list[int]]:
    """Distinct embedded F_q-points, each scaled to first nonzero coordinate 1, sorted."""
    seen = set()
    for point in nonzero_points(spec, q):
        vec = frame(spec, point, q)[0]
        inv = pow(next(v for v in vec if v), -1, q)
        seen.add(tuple(v * inv % q for v in vec))
    return [list(v) for v in sorted(seen)]


def count_decompositions(spec: varieties.SegreVeroneseSpec, s: int, rows, q: int) -> int:
    """Number of s-subsets of X(F_q) whose span contains every row of ``rows``."""
    rows = [list(row) for row in rows]
    return sum(
        rank(subset, q) == rank(list(subset) + rows, q)
        for subset in itertools.combinations(variety_points(spec, q), s)
    )


def count_nonzero_decompositions(spec: varieties.SegreVeroneseSpec, s: int, slices, q: int) -> int:
    """Number of s-subsets {P_i} of X(F_q) with every slice j = sum_i lambda_i[j] P_i, all lambda_i != 0.

    Every coefficient vector c of F_q^s is tried for every slice; a choice
    of one c per slice sets lambda_i[j] = c_i of slice j's choice.  Only the
    subsets whose span contains the slices are tried, as no other has a c.
    """
    slices = [list(row) for row in slices]
    count = 0
    for subset in itertools.combinations(variety_points(spec, q), s):
        if rank(subset, q) != rank(list(subset) + slices, q):
            continue
        combos = {c: [sum(ci * x[j] for ci, x in zip(c, subset)) % q for j in range(len(slices[0]))]
                  for c in itertools.product(range(q), repeat=s)}
        per_slice = [[c for c, v in combos.items() if v == row] for row in slices]
        count += any(all(any(c[i] for c in choice) for i in range(s))
                     for choice in itertools.product(*per_slice))
    return count


def maximal_minors(rows, p: int) -> list[int]:
    """All t x t minors of a t x c matrix, t = number of rows, column subsets in lexicographic order.

    Laplace expansion row by row, sharing sub-minors across column subsets.
    """
    m = [[int(v) % p for v in row] for row in rows]
    t, c = len(m), len(m[0])
    prev: dict[tuple[int, ...], int] = {(): 1}
    for i in range(t):
        cur: dict[tuple[int, ...], int] = {}
        for cols in itertools.combinations(range(c), i + 1):
            acc = 0
            for idx, j in enumerate(cols):
                term = m[i][j] * prev[cols[:idx] + cols[idx + 1:]]
                acc += term if (i + idx) % 2 == 0 else -term
            cur[cols] = acc % p
        prev = cur
    return [prev[cols] for cols in itertools.combinations(range(c), t)]


def _minors_derivative(m: list[list[int]], dm: list[list[int]], p: int) -> list[int]:
    total = [0] * len(maximal_minors(m, p))
    for a in range(len(m)):
        replaced = m[:a] + [dm[a]] + m[a + 1:]
        total = [(t + v) % p for t, v in zip(total, maximal_minors(replaced, p))]
    return total


def plucker_direct_rank(
    spec: varieties.SegreVeroneseSpec, k: int, s: int, rng: random.Random, p: int
) -> int:
    """Rank of the Pluecker-minor Jacobian at the point ``grassec._direct_rank`` samples.

    Draws from ``rng`` in the same order, so with equal generators both see
    the same points and coefficient matrix.  The image is a cone, so this
    rank exceeds dim GS by the scaling direction.
    """
    w = min(k, s - 1)
    r = spec.ambient_dim
    for _ in range(varieties.MAX_RESAMPLES):
        points = [varieties.random_parameter_point(spec, rng, p) for _ in range(s)]
        frames = [frame(spec, u, p) for u in points]
        lam = [[rng.randrange(p) for _ in range(s)] for _ in range(w + 1)]
        m = [
            [sum(lam[a][b] * frames[b][0][j] for b in range(s)) % p for j in range(r + 1)]
            for a in range(w + 1)
        ]
        if rank(m, p) == w + 1:
            break
    else:
        raise SamplingError("degenerate coefficient matrix")

    columns = []
    for i in range(s):
        for partial in frames[i][1:]:
            dm = [[lam[a][i] * v % p for v in partial] for a in range(w + 1)]
            columns.append(_minors_derivative(m, dm, p))
    for a in range(w + 1):
        for b in range(s):
            dm = [[0] * (r + 1) for _ in range(w + 1)]
            dm[a] = frames[b][0]
            columns.append(_minors_derivative(m, dm, p))
    return rank(columns, p)


def generic_rank(
    spec: varieties.SegreVeroneseSpec,
    trials: int = secant.DEFAULT_TRIALS,
    seed: int = 0,
    primes: tuple[int, ...] = field.DEFAULT_PRIMES,
) -> int:
    """Least s with sigma_s filling P^r, ascending from ceil((r+1)/(n+1)) to r + 1."""
    r = spec.ambient_dim
    s = math.ceil((r + 1) / (spec.dim + 1))
    while s <= r + 1:
        if secant.secant_dim(spec, s, trials=trials, seed=seed, primes=primes).fills_ambient:
            return s
        s += 1
    raise InconsistencyError(f"no filling secant variety found for {spec} up to s = r + 1")


def coordinate_points(spec: varieties.SegreVeroneseSpec) -> list[varieties.ParameterPoint]:
    """Every coordinate point (a unit vector per factor), in mixed radix over the factors."""
    return [tuple(tuple(int(i == j) for i in range(n + 1)) for (n, _), j in zip(spec.factors, js))
            for js in itertools.product(*(range(n + 1) for n, _ in spec.factors))]


def coordinate_terracini_rank(spec: varieties.SegreVeroneseSpec, s: int, rng: random.Random,
                              p: int) -> int:
    """``terracini_rank(spec, s, rng, p, coordinates=True)`` without deleting any column.

    The same draws from ``rng``: min(floor(3s/4), len(packing)) points of the
    spec's coordinate packing, then the other points.  All s frames are
    stacked and ranked whole.
    """
    points = coordinate_points(spec)
    packing = secant._packing(spec)
    kept = [points[i] for i in rng.sample(packing, min(3 * s // 4, len(packing)))]
    kept += [varieties.random_parameter_point(spec, rng, p) for _ in range(s - len(kept))]
    return rank([row for point in kept for row in frame(spec, point, p)], p) - 1
