"""Grassmann secant variety dimensions, computed two independent ways.

GS_X(k, s) is the closure, inside the Grassmannian of k-planes of the
ambient space of X, of the planes lying in the span of s independent
points of X.  Its dimension is computed here both

* through the slice map: dim GS_X(w, s) =
  dim sigma_s(Seg(P^k x X)) - (w+1)(k+1) + 1 with w = min(k, s-1), and
* directly, as the rank of the differential of the parameterization
  (points, coefficient matrix) -> the spanned w-plane L, with tangent
  vectors taken in T_L Gr = Hom(L, V/L): each derivative of the spanning
  matrix is reduced modulo L.  The rank is the dimension itself; the
  scaling of the coefficient matrix moves inside L and reduces to zero.

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
    spec: str
    k: int
    s: int
    w: int
    dim_phi: int
    dim_direct: int
    expected_dim: int
    cross_check: bool
    seg_dim: int
    seg_expected_dim: int
    defect_transfer: bool | None
    seed: int

    @property
    def defect(self) -> int:
        return self.expected_dim - self.dim_direct

    def to_dict(self) -> dict:
        return {
            "spec": self.spec,
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


def expected_gs_dim(n: int, k: int, s: int, r: int) -> int:
    """min(s*n + (k+1)(s-1-k), (k+1)(r-k)): the parameter-count prediction."""
    if not 0 <= k <= s - 1 <= r:
        raise ValueError(f"need 0 <= k <= s-1 <= r, got k={k}, s={s}, r={r}")
    return min(s * n + (k + 1) * (s - 1 - k), (k + 1) * (r - k))


def _plane_dim(spec: varieties.SegreVeroneseSpec, k: int, s: int) -> int:
    """Check (k, s) against X and return w = min(k, s-1).

    The slice span of a general point of sigma_s(Seg(P^k x X)) is a w-plane.
    """
    secant._check_order(spec, k, s)
    return min(k, s - 1)


def _direct_rank(
    spec: varieties.SegreVeroneseSpec,
    w: int,
    s: int,
    rng: random.Random,
    p: int,
) -> int:
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
    # therefore reduces just that row vector.
    r = spec.ambient_dim
    rows = frames.reshape(-1, r + 1)
    reduced = ((rows - field.matmul_mod(rows[:, pivots], basis, p)) % p).reshape(frames.shape)
    # s*n point parameters: lam[:, i] times each reduced partial at point i
    point_part = lam.T[:, None, :, None] * reduced[:, 1:, None, :] % p
    # (w+1)*s coefficient parameters: reduced point b placed in row a
    coeff_part = np.zeros((w + 1, s, w + 1, r + 1), dtype=np.int64)
    for a in range(w + 1):
        coeff_part[a, :, a] = reduced[:, 0]
    jacobian = np.concatenate([
        point_part.reshape(-1, (w + 1) * (r + 1)),
        coeff_part.reshape(-1, (w + 1) * (r + 1)),
    ])
    return field.matrix_rank(jacobian.T, p)


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
    bound = expected_gs_dim(spec.dim, w, s, spec.ambient_dim)
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
    """Both dimension computations plus expected dimension and defect checks.

    ``dim_phi`` is the slice-map route, read off the secant dimension of
    Seg(P^k x X); ``dim_direct`` is :func:`gs_dim_direct`.
    ``defect_transfer`` verifies, when k <= s-1 < r, that the Grassmann
    secant defect equals the secant defect of Seg(P^k x X).
    """
    n, r = spec.dim, spec.ambient_dim
    w = _plane_dim(spec, k, s)
    dim_direct = gs_dim_direct(spec, k, s, trials=trials, seed=seed, primes=primes)
    seg = varieties.prepend_projective_factor(spec, k)
    seg_report = secant.secant_dim(seg, s, trials=trials, seed=seed, primes=primes)
    dim_phi = seg_report.dim - ((w + 1) * (k + 1) - 1)
    expected = expected_gs_dim(n, w, s, r)

    defect_transfer: bool | None = None
    if k <= s - 1 < r:
        defect_transfer = (expected - dim_direct) == seg_report.defect

    return GrassmannSecantReport(
        spec=str(spec),
        k=k,
        s=s,
        w=w,
        dim_phi=dim_phi,
        dim_direct=dim_direct,
        expected_dim=expected,
        cross_check=(dim_phi == dim_direct),
        seg_dim=seg_report.dim,
        seg_expected_dim=seg_report.expected_dim,
        defect_transfer=defect_transfer,
        seed=seed,
    )
