"""Grassmann secant variety dimensions, computed two independent ways.

GS_X(k, s) is the closure, inside the Grassmannian of k-planes of the
ambient space of X, of the planes lying in the span of s independent
points of X.  Its dimension is computed here both

* through the slice map: dim GS_X(w, s) =
  dim sigma_s(Seg(P^k x X)) - (w+1)(k+1) + 1 with w = min(k, s-1), and
* directly, as the rank of the differential of the parameterization
  (points, coefficient matrix) -> the spanned w-plane L, with tangent
  vectors taken in T_L Gr = Hom(L, V/L): each derivative of the spanning
  matrix is reduced modulo L and kept off L's pivots, for the s*n point
  parameters and the coefficients outside an invertible block, a
  ((w+1)(r-w)) x (s*n + (w+1)(s-1-w)) matrix whose rank is the dimension.

Agreement of the two values on every instance is the package's central
executable identity.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

import numpy as np

from . import field, secant, varieties
from .errors import SamplingError


@dataclass(frozen=True)
class GrassmannSecantReport:
    """dim GS_X(w, s) by the direct route, and ``seg``: the report of sigma_s(Seg(P^k x X))."""

    spec: varieties.SegreVeroneseSpec
    k: int
    s: int
    dim_direct: int
    seg: secant.SecantReport
    seed: int

    @property
    def w(self) -> int:
        return _plane_dim(self.spec, self.k, self.s)

    @property
    def dim_phi(self) -> int:  # the slice-map route: seg_dim - ((w+1)(k+1) - 1)
        return self.seg.dim - ((self.w + 1) * (self.k + 1) - 1)

    @property
    def expected_dim(self) -> int:
        return expected_gs_dim(self.spec, self.k, self.s)

    @property
    def defect(self) -> int:
        return self.expected_dim - self.dim_direct

    @property
    def cross_check(self) -> bool:  # the slice-map and direct routes agree
        return self.dim_phi == self.dim_direct

    @property
    def seg_dim(self) -> int:
        return self.seg.dim

    @property
    def seg_expected_dim(self) -> int:
        return self.seg.expected_dim

    @property
    def defect_transfer(self) -> bool | None:
        """Where :func:`_transfers`, whether GS and the Segre secant have equal defects, else None."""
        return self.defect == self.seg.defect if _transfers(self.spec, self.k, self.s) else None

    def to_dict(self) -> dict:
        return {
            "spec": str(self.spec),
            "k": self.k,
            "s": self.s,
            "w": self.w,
            "dim_phi": self.dim_phi,
            "dim_direct": self.dim_direct,
            "expected_dim": self.expected_dim,
            "defect": self.defect,
            "cross_check": "pass" if self.cross_check else "fail",
            "seg_dim": self.seg_dim,
            "seg_expected_dim": self.seg_expected_dim,
            "defect_transfer": self.defect_transfer,
            "seed": self.seed,
        }


def expected_gs_dim(spec: varieties.SegreVeroneseSpec, k: int, s: int) -> int:
    """min(s*n + (w+1)(s-1-w), (w+1)(r-w)) with w = min(k, s-1): the parameter-count prediction."""
    w = _plane_dim(spec, k, s)
    return min(s * spec.dim + (w + 1) * (s - 1 - w), (w + 1) * (spec.ambient_dim - w))


def _transfers(spec: varieties.SegreVeroneseSpec, k: int, s: int) -> bool:
    """k <= s-1 < r: where the defect of GS_X(k, s) equals that of sigma_s(Seg(P^k x X))."""
    return k <= s - 1 < spec.ambient_dim


def _plane_dim(spec: varieties.SegreVeroneseSpec, k: int, s: int) -> int:
    """Check (k, s) against X and return w = min(k, s-1).

    The slice span of a general point of sigma_s(Seg(P^k x X)) is a w-plane.
    """
    secant._check_order(spec, k, s)
    return min(k, s - 1)


def _direct_rank(spec: varieties.SegreVeroneseSpec, w: int, s: int, rng: random.Random,
                 p: int) -> int:
    for _ in range(varieties.MAX_RESAMPLES):
        frames = varieties.random_frames(spec, s, rng, p)
        lam = field.as_matrix(
            [[rng.randrange(p) for _ in range(s)] for _ in range(w + 1)], p
        )
        basis, pivots = field._echelon(field.matmul_mod(lam, frames[:, 0], p), p)
        if len(pivots) == w + 1:
            break
    else:
        raise SamplingError(f"degenerate coefficient matrix for GS on {spec}")

    # Each parameter derivative dM of M = lam @ P is an outer product: a
    # column of lam times a frame partial, or a unit vector times a row of
    # P.  Reducing dM modulo L = rowspace(M), dM - dM[:, pivots] @ rref(M),
    # reduces just that row vector and zeroes it at L's pivots: the rows are
    # Hom(L, V/L) off those pivots.
    n, r = spec.dim, spec.ambient_dim
    rest = np.delete(np.arange(r + 1), pivots)
    rows = frames.reshape(-1, r + 1)
    reduced = ((rows[:, rest] - field.matmul_mod(rows[:, pivots], basis[:, rest], p)) % p
               ).reshape(s, n + 1, r - w).transpose(2, 0, 1)
    # s*n point parameters: lam[a, i] times each reduced partial at point i
    point_part = lam[:, None, :, None] * reduced[None, :, :, 1:] % p
    # With J the pivot columns of lam's echelon form, lam_J is invertible, so a
    # coefficient direction is g @ lam (g @ M lies in L) plus one outside J:
    # the (w+1)(s-1-w) outside J span them all, reduced point b in row a.
    outside = np.delete(np.arange(s), field._echelon(lam, p, jordan=False)[1])
    coeff_part = np.eye(w + 1, dtype=np.int64)[:, None, :, None] * reduced[:, outside, 0][:, None]
    height = (w + 1) * (r - w)  # spelled out: -1 cannot be inferred with no rows (w = r)
    jacobian = np.concatenate([point_part.reshape(height, s * n),
                               coeff_part.reshape(height, (w + 1) * len(outside))], axis=1)
    return field.matrix_rank(jacobian, p)


def gs_dim_direct(
    spec: varieties.SegreVeroneseSpec,
    k: int,
    s: int,
    trials: int = secant.DEFAULT_TRIALS,
    seed: int = 0,
    primes: tuple[int, ...] = field.DEFAULT_PRIMES,
) -> int:
    """dim GS_X(w, s) as the rank of the parameterization's differential into Hom(L, V/L)."""
    w = _plane_dim(spec, k, s)
    bound = expected_gs_dim(spec, k, s)
    return secant._max_rank(
        lambda rng, p: _direct_rank(spec, w, s, rng, p), bound, trials, seed, primes
    )[0]


def gs_report(
    spec: varieties.SegreVeroneseSpec,
    k: int,
    s: int,
    trials: int = secant.DEFAULT_TRIALS,
    seed: int = 0,
    primes: tuple[int, ...] = field.DEFAULT_PRIMES,
) -> GrassmannSecantReport:
    """Both dimension computations: :func:`gs_dim_direct` and the secant of Seg(P^k x X)."""
    dim_direct = gs_dim_direct(spec, k, s, trials=trials, seed=seed, primes=primes)
    seg = secant.secant_dim(varieties.prepend_projective_factor(spec, k), s,
                            trials=trials, seed=seed, primes=primes)
    return GrassmannSecantReport(spec, k, s, dim_direct, seg, seed)
