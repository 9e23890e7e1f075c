"""Segre-Veronese varieties: embeddings and tangent frames.

A variety is described by an ordered list of factors (n_i, d_i): the image
of P^{n_1} x ... x P^{n_t} under the complete linear system of multidegree
(d_1, ..., d_t).  Coordinates on the ambient space are all monomials of
that multidegree, ordered first-factor-major with degree-lexicographic
ordering inside each factor (largest exponent on the first variable
first).  With this ordering, prepending a degree-one factor P^k turns the
ambient vector into k+1 consecutive slices of length r+1.

Parameter points are plain nested tuples: one coordinate tuple of length
n_i + 1 per factor, each nonzero.

Embeddings and tangent frames come from one builder: the ambient vector is
the Kronecker product of the per-factor Veronese vectors, and a tangent
direction of factor i swaps in that factor's partial derivative, whose
entries follow the power rule a_j * x^(a - e_j).
"""

from __future__ import annotations

import functools
import itertools
import math
import random
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from . import field
from .errors import SamplingError

ParameterPoint = tuple[tuple[int, ...], ...]


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
        count = 1
        for n, d in self.factors:
            count *= math.comb(n + d, n)
        return count - 1

    def factor_offsets(self) -> list[int]:
        """Start index of each factor inside the concatenated parameter vector."""
        offsets = [0]
        for n, _ in self.factors[:-1]:
            offsets.append(offsets[-1] + n + 1)
        return offsets

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


def _degree_monomials(nvars: int, degree: int) -> list[tuple[int, ...]]:
    if nvars == 1:
        return [(degree,)]
    out = []
    for e in range(degree, -1, -1):
        for rest in _degree_monomials(nvars - 1, degree - e):
            out.append((e,) + rest)
    return out


def _flatten(spec: SegreVeroneseSpec, point: ParameterPoint) -> list[int]:
    if len(point) != len(spec.factors):
        raise ValueError("parameter point has the wrong number of factors")
    flat: list[int] = []
    for (n, _), coords in zip(spec.factors, point):
        if len(coords) != n + 1:
            raise ValueError("factor coordinate vector has the wrong length")
        if not any(coords):
            raise ValueError("factor coordinate vector is zero")
        flat.extend(int(c) for c in coords)
    return flat


@functools.lru_cache(maxsize=None)
def _power_rule(n: int, d: int) -> tuple[np.ndarray, np.ndarray]:
    """Exponents and power-rule coefficients of a Veronese vector and its partials.

    Entry 0 of the leading axis is the Veronese vector itself (coefficient
    1); entry 1 + j is the partial along x_j, whose coordinate with exponent
    a is a_j * x^(a - e_j).  Where a_j = 0 the coefficient is 0 and the
    exponent is clipped to stay a valid table index.
    """
    exps = np.array(_degree_monomials(n + 1, d), dtype=np.int64)   # N x (n+1)
    lowered = exps[None] - np.eye(n + 1, dtype=np.int64)[:, None, :]
    exponents = np.concatenate([exps[None], np.maximum(lowered, 0)])
    coeffs = np.concatenate([np.ones((1, len(exps)), dtype=np.int64), exps.T])
    exponents.flags.writeable = coeffs.flags.writeable = False  # shared by the cache
    return exponents, coeffs


def _frame_rows(spec: SegreVeroneseSpec, point: ParameterPoint, p: int) -> np.ndarray:
    """Embedding of ``point`` (row 0) and its n affine-chart partials, reduced mod p.

    Per factor the partials run over the coordinates other than the pivot
    (first nonzero) one, so projective rescaling never degenerates the
    frame.  Every row is the Kronecker product over factors of the factor's
    Veronese vector, except that the factor owning the row's direction
    contributes its partial instead; entries are reduced after every
    product, which keeps the int64 arithmetic exact for p < 2**31.
    """
    x = field.as_matrix(_flatten(spec, point), p)[0]
    nrows = spec.dim + 1
    frame = np.ones((nrows, 1), dtype=np.int64)
    row = 1
    for (n, d), coords, off in zip(spec.factors, point, spec.factor_offsets()):
        block = field.dual_evaluate(x[off:off + n + 1], *_power_rule(n, d), p)
        pivot = next(j for j, c in enumerate(coords) if c)
        # row 0 and the rows of the other factors take the Veronese vector
        pick = np.zeros(nrows, dtype=np.int64)
        pick[row:row + n] = [1 + j for j in range(n + 1) if j != pivot]
        row += n
        frame = (frame[:, :, None] * block[pick][:, None, :] % p).reshape(nrows, -1)
    return frame


def embed(spec: SegreVeroneseSpec, point: ParameterPoint, p: int) -> list[int]:
    """Ambient coordinates of the embedded point, length r + 1."""
    return _frame_rows(spec, point, p)[0].tolist()


def tangent_frame(spec: SegreVeroneseSpec, point: ParameterPoint, p: int) -> np.ndarray:
    """n + 1 ambient vectors spanning the tangent space to the cone at embed(point).

    Row 0 is the embedded point; the other rows are the partials along the
    affine-chart directions of each factor.  Raises SamplingError if the
    frame is degenerate (rank < n + 1), which signals the caller to
    resample.
    """
    frame = _frame_rows(spec, point, p)
    if field.matrix_rank(frame, p) < spec.dim + 1:
        raise SamplingError(f"degenerate tangent frame on {spec} at {point}")
    return frame


def random_parameter_point(
    spec: SegreVeroneseSpec, rng: random.Random, p: int
) -> ParameterPoint:
    """Uniform parameter point with every factor vector nonzero."""
    point = []
    for n, _ in spec.factors:
        while True:
            coords = tuple(rng.randrange(p) for _ in range(n + 1))
            if any(coords):
                break
        point.append(coords)
    return tuple(point)


def enumerate_parameter_points(spec: SegreVeroneseSpec, q: int) -> Iterator[ParameterPoint]:
    """All F_q-rational parameter points, one canonical representative each.

    Projective normalization: first nonzero coordinate equal to 1.
    """
    def factor_points(n: int) -> list[tuple[int, ...]]:
        pts = []
        for pivot in range(n + 1):
            free = n - pivot
            for tail in itertools.product(range(q), repeat=free):
                pts.append((0,) * pivot + (1,) + tail)
        return pts

    per_factor = [factor_points(n) for n, _ in spec.factors]
    yield from itertools.product(*per_factor)
