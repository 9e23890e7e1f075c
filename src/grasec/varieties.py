"""Segre-Veronese varieties: embeddings and tangent frames.

A variety is described by an ordered list of factors (n_i, d_i): the image
of P^{n_1} x ... x P^{n_t} under the complete linear system of multidegree
(d_1, ..., d_t).  Coordinates on the ambient space are all monomials of
that multidegree, ordered first-factor-major with degree-lexicographic
ordering inside each factor (largest exponent on the first variable
first).  With this ordering, prepending a degree-one factor P^k turns the
ambient vector into k+1 consecutive slices of length r+1.

Parameter points are plain nested tuples: one tuple of length n_i + 1 per
factor, of integers in the int64 range, each nonzero mod p.

Embeddings and tangent frames come from one builder, :func:`tangent_frame`,
which takes a list of points and returns their frames as one stack: the
ambient vector is the Kronecker product of the per-factor Veronese
vectors, and a tangent direction of factor i swaps in that factor's
partial derivative, whose entries follow the power rule a_j * x^(a - e_j).
One :func:`field.dual_evaluate` call evaluates every factor's table at all points.

Random points take one path to frames, :func:`random_frames`: s points drawn
in turn from one generator, each factor a uniform nonzero vector.  At a
fixed seed that order fixes every computed dimension.  A caller rejecting a
degenerate draw redraws at most MAX_RESAMPLES times.

Frame invariant: every tangent frame has rank n + 1 over every prime.  With
x_p the pivot (first nonzero coordinate) of each factor, the columns where
each factor takes x_p^d, or one factor takes x_p^(d-1) * x_j (j != p), make
the frame triangular with nonzero powers of the pivots on the diagonal.
At pivots 1 the x_p^d column is the first nonzero one and reads 1, and the
others read every x_j: a normalized point embeds to a normalized vector
that determines the point.
"""

from __future__ import annotations

import functools
import itertools
import math
import random
from dataclasses import dataclass

import numpy as np

from . import field

ParameterPoint = tuple[tuple[int, ...], ...]

MAX_RESAMPLES = 5  # draws of a degenerate random point set before SamplingError


@dataclass(frozen=True)
class SegreVeroneseSpec:
    """Factors (n_i, d_i) of a Segre-Veronese variety."""

    factors: tuple[tuple[int, int], ...]

    def __post_init__(self) -> None:
        if not self.factors:
            raise ValueError("at least one factor is required")
        for n, d in self.factors:
            if n < 1 or d < 1:
                raise ValueError(f"invalid factor ({n}, {d}): need n >= 1 and d >= 1")

    @property
    def dim(self) -> int:
        """Dimension of the variety (sum of the factor dimensions)."""
        return sum(n for n, _ in self.factors)

    @property
    def ambient_dim(self) -> int:
        """Projective dimension r of the ambient space."""
        return math.prod(math.comb(n + d, n) for n, d in self.factors) - 1

    @classmethod
    def parse(cls, text: str) -> "SegreVeroneseSpec":
        """Parse the shared spec string: comma-separated ``n`` or ``n:d`` tokens."""
        factors = []
        for token in text.split(","):
            token = token.strip()
            if not token:
                raise ValueError(f"empty factor token in spec string {text!r}")
            if ":" in token:
                n_str, d_str = token.split(":", 1)
                factors.append((int(n_str), int(d_str)))
            else:
                factors.append((int(token), 1))
        return cls(tuple(factors))

    def __str__(self) -> str:
        return ",".join(f"{n}" if d == 1 else f"{n}:{d}" for n, d in self.factors)


def prepend_projective_factor(spec: SegreVeroneseSpec, k: int) -> SegreVeroneseSpec:
    """Spec of the Segre product P^k x X: factor (k, 1) in front of X, and X itself for k = 0."""
    if k < 0:
        raise ValueError(f"k must be >= 0, got k={k}")
    return SegreVeroneseSpec(((k, 1),) + spec.factors) if k else spec


@functools.lru_cache(maxsize=None)
def _power_rule(n: int, d: int) -> tuple[np.ndarray, np.ndarray]:
    """Exponents and power-rule coefficients of a Veronese vector and its partials.

    Entry 0 of the leading axis is the Veronese vector itself (coefficient
    1); entry 1 + j is the partial along x_j, whose coordinate with exponent
    a is a_j * x^(a - e_j).  Where a_j = 0 the coefficient is 0 and the
    exponent is clipped to stay a valid table index.
    """
    exps = np.array([np.bincount(c, minlength=n + 1)  # N x (n+1), in the module's order
                     for c in itertools.combinations_with_replacement(range(n + 1), d)])
    lowered = exps[None] - np.eye(n + 1, dtype=np.int64)[:, None, :]
    exponents = np.concatenate([exps[None], np.maximum(lowered, 0)])
    coeffs = np.concatenate([np.ones((1, len(exps)), dtype=np.int64), exps.T])
    exponents.flags.writeable = coeffs.flags.writeable = False  # shared by the cache
    return exponents, coeffs


@functools.lru_cache(maxsize=None)
def _frame_table(spec: SegreVeroneseSpec) -> tuple[np.ndarray, np.ndarray, tuple, int]:
    """Every factor's :func:`_power_rule` table on one flat axis, read-only like it.

    ``gather[j, e]`` indexes the powers x^0 .. x^(top-1) of all coordinates, flattened:
    that of variable j of entry e's factor, or x_0^0 = 1 where it has no variable j.
    ``parts`` holds each factor's coordinate slice, table slice and table shape.
    """
    top, slots = max(d for _, d in spec.factors) + 1, max(n for n, _ in spec.factors) + 1
    gathers, parts, first, start = [], [], 0, 0
    for n, d in spec.factors:
        exponents, c = _power_rule(n, d)
        index = (first + np.arange(n + 1)) * top + exponents
        gathers.append(np.pad(index, [(0, 0), (0, 0), (0, slots - n - 1)]).reshape(-1, slots))
        parts.append((slice(first, first + n + 1), slice(start, start + c.size), c.shape))
        first, start = first + n + 1, start + c.size
    gather = np.concatenate(gathers).T.copy()
    coeff = np.concatenate([_power_rule(n, d)[1].ravel() for n, d in spec.factors])
    gather.flags.writeable = coeff.flags.writeable = False  # shared by the cache
    return gather, coeff, tuple(parts), top


def tangent_frame(spec: SegreVeroneseSpec, points: list[ParameterPoint], p: int) -> np.ndarray:
    """Frames of ``points``, an int64 stack of shape (len(points), n + 1, r + 1), mod p.

    Row 0 of each frame is the embedded point and rows 1..n its affine-chart
    partials: per factor they run over the coordinates other than that
    point's pivot (first nonzero) one, which gives rank n + 1 over every
    prime, the module's frame invariant.  Every row is the Kronecker product
    over factors of the factor's Veronese vector, except that the factor
    owning the row's direction contributes its partial instead, all from one
    :func:`field.dual_evaluate` call; entries are reduced after every
    product, which keeps the int64 arithmetic exact for p < 2**31.
    """
    field._check_modulus(p)
    if any(len(u) != len(spec.factors) for u in points):
        raise ValueError("parameter point has the wrong number of factors")
    if any(len(x) != n + 1 for u in points for x, (n, _) in zip(u, spec.factors)):
        raise ValueError("factor coordinate vector has the wrong length")
    gather, coeff, parts, top = _frame_table(spec)
    x = np.array([[c for v in u for c in v] for u in points], dtype=np.int64)
    x = x.reshape(len(points), parts[-1][0].stop) % p
    values = field.dual_evaluate(x, gather, coeff, top, p)
    nrows, stack, row = spec.dim + 1, np.arange(len(points))[:, None], 1
    frames = np.ones((len(points), nrows, 1), dtype=np.int64)
    for (n, _), (coords, entries, shape) in zip(spec.factors, parts):
        if not x[:, coords].any(axis=1).all():
            raise ValueError("factor coordinate vector is zero")
        # partial 1 + j + (j >= pivot) is the j-th non-pivot one; row 0 and
        # the rows of the other factors take the Veronese vector (entry 0)
        pick = np.zeros((len(points), nrows), dtype=np.int64)
        j = np.arange(n)
        pick[:, row:row + n] = 1 + j + (j >= (x[:, coords] != 0).argmax(axis=1)[:, None])
        row += n
        block = values[:, entries].reshape((len(points),) + shape)[stack, pick]
        frames = frames[..., None] * block[:, :, None, :]
        frames %= p  # in place: the product is the largest array built here
        # the width is spelled out: -1 cannot be inferred for an empty stack
        frames = frames.reshape(len(points), nrows, frames.shape[2] * frames.shape[3])
    return frames


@functools.lru_cache(maxsize=None)
def _coordinate_supports(spec: SegreVeroneseSpec) -> np.ndarray:
    """Column of each (unit) frame row at every coordinate point, shape (prod(n_i + 1), n + 1).

    A coordinate point is e_j in every factor, in mixed radix over the factors.  Its
    rows, in :func:`tangent_frame`'s order, sit at prod x_j^d, then per factor at each
    x_j^(d-1) x_k, k != j.  Built once per spec and read-only, like :func:`_power_rule`.
    """
    digits = np.indices([n + 1 for n, _ in spec.factors]).reshape(len(spec.factors), -1)
    stride, base = spec.ambient_dim + 1, 0
    deltas = [np.zeros((digits.shape[1], 1), dtype=np.int64)]
    for (n, d), j in zip(spec.factors, digits):
        exps = _power_rule(n, d)[0][0]
        stride //= len(exps)
        eye = np.eye(n + 1, dtype=np.int64)
        # table[j, k]: this factor's column offset of x_j^(d-1) x_k
        table = (exps == ((d - 1) * eye[:, None] + eye)[:, :, None]).all(-1).argmax(-1) * stride
        k = np.arange(n)
        deltas.append(table[j[:, None], k + (k >= j[:, None])] - table[j, j][:, None])
        base = base + table[j, j]
    supports = base[:, None] + np.concatenate(deltas, axis=1)
    supports.flags.writeable = False  # shared by the cache
    return supports


def embed(spec: SegreVeroneseSpec, point: ParameterPoint, p: int) -> list[int]:
    """Ambient coordinates of the embedded point, length r + 1."""
    return tangent_frame(spec, [point], p)[0, 0].tolist()


def _nonzero_vector(length: int, rng: random.Random, p: int) -> tuple[int, ...]:
    """Uniform nonzero vector of F_p^length: uniform vectors drawn until one is nonzero."""
    while True:
        coords = tuple(rng.randrange(p) for _ in range(length))
        if any(coords):
            return coords


def random_parameter_point(spec: SegreVeroneseSpec, rng: random.Random, p: int) -> ParameterPoint:
    """Uniform parameter point with every factor vector nonzero."""
    field._check_modulus(p)  # before any draw: over p < 2 no nonzero vector exists
    return tuple(_nonzero_vector(n + 1, rng, p) for n, _ in spec.factors)


def random_frames(spec: SegreVeroneseSpec, s: int, rng: random.Random, p: int) -> np.ndarray:
    """Frames of s points drawn from ``rng`` in turn, shape (s, n + 1, r + 1), mod p."""
    return tangent_frame(spec, [random_parameter_point(spec, rng, p) for _ in range(s)], p)
