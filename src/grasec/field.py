"""Exact linear algebra over prime fields.

Everything downstream reduces to matrix ranks over F_p, so this module is
deliberately small: dense integer matrices reduced mod p, one elimination
kernel (:func:`_echelon`) behind every rank, row rank profile, echelon
form and row-space basis, and the monomial-table evaluator that builds
every tangent frame (:func:`dual_evaluate`).  :func:`quotient` is the one map
V -> V/L by a span L: the subspace test, the direct Grassmann-secant
route's Hom(L, V/L) and the decomposition count all reduce through it,
and its image of the identity is a kernel basis of the span.  Every
modulus is checked once, by trial division, to be a prime below 2**31.
:func:`rref` and :func:`maximal_minors`, like ``varieties.embed``, have
no caller in the package; they stay only because the benchmark's
per-layer metrics name them.

Matrices are numpy int64 arrays.  With p < 2**31 every product of two
reduced entries, and every difference of two such products, stays inside
the int64 range, so the arithmetic is exact -- there is no tolerance
anywhere in this package.  Sums of several such products can overflow, so
matrix products (:func:`matmul_mod`) split the left factor into 16-bit
limbs and multiply in float64, 64 inner terms at a time: such a sum stays
below 64 * 2**16 * 2**31 = 2**53, where float64 is exact.  Eliminations
delay the reduction too, as FFLAS-FFPACK does.  From 2**13 entries the
per-column loop (:func:`_gauss_jordan`) takes each step's factors and
pivot row as balanced residues, |v| <= p // 2 < 2**30, so each product is
below 2**60 and an entry in [0, p) stays inside int64 for 7 updates
(2**31 + 7 * 2**60 < 2**63); it reduces the pivot column before each step,
so pivots and factors come from exact residues, and the trailing block
after every 7th.  Wider than 128 columns and larger than 256 in some
dimension, :func:`_echelon` is blocked: each 64-column panel finds its
pivots with the per-column loop on a 128-row head, inverts its pivot block
by halving through the Schur complement (:func:`_inverse`), and clears the
pivot columns with one limb product.  A rank or row rank profile only
clears the rows below each pivot; bases get the full reduced echelon form.
"""

from __future__ import annotations

import functools
import itertools
import math

import numpy as np

DEFAULT_PRIME = 2_147_483_647       # 2**31 - 1, the largest prime the int64 kernels allow
CONFIRMATION_PRIME = 2_147_483_629  # second large prime for confirmation runs
DEFAULT_PRIMES = (DEFAULT_PRIME, CONFIRMATION_PRIME)

_MAX_MODULUS = 2**31
_PANEL = 64            # 64 * (2**16 - 1) * (2**31 - 2) < 2**53: exact limb products
_BLOCKED_ABOVE = 128   # columns, and twice that in the larger dimension: one panel is faster below
_LAZY_FROM = 2**13     # entries; smaller matrices reduce after every step
_DELAY = 7             # 2**31 + 7 * 2**60 < 2**63: updates between reductions of the trailing block


def _is_prime(n: int) -> bool:
    """Trial division by every d in [2, isqrt(n)]: exact, and at most 46340 divisors below 2**31."""
    return n >= 2 and bool(np.all(n % np.arange(2, math.isqrt(n) + 1)))


# Cached: matrix construction checks its modulus on every call.
@functools.lru_cache(maxsize=64)
def _check_modulus(p: int) -> None:
    if not 2 <= p < _MAX_MODULUS:
        raise ValueError(f"modulus {p} outside the supported range [2, 2**31)")
    if not _is_prime(p):
        raise ValueError(f"modulus {p} is not prime")


def as_matrix(rows, p: int) -> np.ndarray:
    """Copy ``rows`` into an int64 array with entries in [0, p), reducing only if needed."""
    _check_modulus(p)
    m = np.array(rows, dtype=np.int64)
    if m.ndim == 1:
        m = m.reshape(1, -1)
    if m.ndim != 2:
        raise ValueError("expected a matrix (2-dimensional array)")
    return m if not m.size or 0 <= m.min() <= m.max() < p else m % p


def _limb_sum(left: np.ndarray, right: np.ndarray, p: int) -> np.ndarray:
    """acc = (hi @ right mod p) * 2**16 + lo @ right, congruent to left @ right mod p.

    With left = hi * 2**16 + lo (int64, at most _PANEL columns) and float64
    ``right``, all entries in [0, p), each limb product is below
    64 * (2**16 - 1) * (p - 1) < 2**53, so exact, and acc < 2**53 + 2**47:
    block - acc lies in (-2**54, 2**31) for block in [0, p), inside int64.
    """
    hi = ((left >> 16).astype(np.float64) @ right).astype(np.int64) % p
    return (hi << 16) + ((left & 0xFFFF).astype(np.float64) @ right).astype(np.int64)


def _limb_product(a: np.ndarray, b: np.ndarray, p: int) -> np.ndarray:
    """a @ b mod p for int64 matrices with entries in [0, p), _PANEL inner terms at a time."""
    out = np.zeros((a.shape[0], b.shape[1]), dtype=np.int64)
    for j in range(0, a.shape[1], _PANEL):
        out += _limb_sum(a[:, j:j + _PANEL], b[j:j + _PANEL].astype(np.float64), p)
        out %= p
    return out


def _subtract_product(block: np.ndarray, left: np.ndarray, right: np.ndarray, p: int) -> None:
    """block <- (block - left @ right) mod p in place, for float64 ``right``; see _limb_sum."""
    block -= _limb_sum(left, right, p)
    block %= p


def matmul_mod(a, b, p: int) -> np.ndarray:
    """Exact matrix product mod p, as float64 products of 16-bit limbs."""
    return _limb_product(as_matrix(a, p), as_matrix(b, p), p)


def _reduce(v: np.ndarray, p: int, scratch: np.ndarray) -> None:
    """v %= p in place, as v - (v // p) * p: numpy divides by a scalar far faster than it takes %."""
    np.floor_divide(v, p, out=scratch)
    scratch *= p
    v -= scratch


def _gauss_jordan(m: np.ndarray, p: int, jordan: bool = True) -> tuple[list[int], list[tuple[int, int]]]:
    """Reduce ``m`` (entries in [0, p)) in place, one column at a time.

    Returns the pivot columns and the row swaps made, in order.  The RREF
    is unique, so the pivot row may be any row with a nonzero entry.  At
    pivot column c the pivot row is zero left of c, so each update touches
    columns ``c:`` only.  With ``jordan`` false only rows from the pivot
    down are updated: a Jordan step changes only rows that hold a pivot
    already, so the pivots and swaps are the same.  From _LAZY_FROM
    entries the reduction mod p is delayed (see the module docstring).
    """
    nrows, ncols = m.shape
    lazy, half = m.size >= _LAZY_FROM, p // 2
    scratch = np.empty_like(m) if lazy else None
    pivots: list[int] = []
    swaps: list[tuple[int, int]] = []
    for c in range(ncols):
        r = len(pivots)
        if r == nrows:
            break
        first = 0 if jordan else r
        if lazy:
            m[first:, c] %= p
        if not m[r, c]:
            i = r + int(m[r:, c].argmax())
            if not m[i, c]:
                continue
            m[[r, i]] = m[[i, r]]
            swaps.append((r, i))
        right = m[first:, c:]
        inv = pow(int(m[r, c]), -1, p)
        # Subtracting factors[i] * (row r) clears column c in the other
        # updated rows and leaves inv * (row r) in row r.
        factors = right[:, 0] * inv % p
        factors[r - first] = 1 - inv
        if lazy:  # balanced residues, |v| <= p // 2
            right -= ((factors + half) % p - half)[:, None] * ((m[r, c:] + half) % p - half)
            if len(pivots) % _DELAY == _DELAY - 1:
                _reduce(right, p, scratch[first:, c:])
        else:
            right -= factors[:, None] * m[r, c:]
            right %= p
        pivots.append(c)
    if lazy:
        _reduce(m, p, scratch)
    return pivots, swaps


def _inverse(t: np.ndarray, p: int) -> np.ndarray:
    """inv(t) mod p for a square ``t`` whose leading principal minors are all nonzero.

    Halving: with t = [[a, b], [c, d]], z = c inv(a) and S = d - z b (the
    Schur complement), inv(t) = [inv(a) ([I | 0] - b L) ; L] with
    L = [-inv(S) z | inv(S)].  a and S keep nonzero leading minors, so no
    pivoting is needed; blocks of at most 16 rows reduce [t | I] instead.
    """
    k = len(t)
    if k <= 16:
        m = np.hstack([t, np.eye(k, dtype=np.int64)])
        _gauss_jordan(m, p)
        return m[:, k:]
    h = k // 2
    a_inv = _inverse(t[:h, :h], p)
    z = _limb_product(t[h:, :h], a_inv, p)
    s_inv = _inverse((t[h:, h:] - _limb_product(z, t[:h, h:], p)) % p, p)
    lower = np.hstack([-_limb_product(s_inv, z, p) % p, s_inv])
    upper = (np.eye(h, k, dtype=np.int64) - _limb_product(t[:h, h:], lower, p)) % p
    return np.vstack([_limb_product(a_inv, upper, p), lower])


def _echelon(rows, p: int, jordan: bool = True) -> tuple[np.ndarray, list[int]]:
    """Reduced row-echelon basis of the row space over F_p, and its pivot columns.

    Each pivot is scaled to 1 and alone in its column, so equal row spaces
    give byte-identical bases.  With ``jordan`` false (the rank path) only
    rows below a pivot are cleared: the same pivots, on an echelon basis.
    Past _BLOCKED_ABOVE columns and twice that in the larger dimension,
    each _PANEL-column panel of the rows without a pivot yet finds pivot
    rows and columns C forward only on a copy, first among 2 * _PANEL of
    those rows (a pivot in every column there leaves none for other rows),
    else among all.  Those rows move up, are scaled by inv(T), T their C
    columns, and :func:`_subtract_product` clears C below them (and above,
    for the RREF).  T's rows are in pivot order and C is increasing, and
    each pivot was found after eliminating only the earlier ones, so
    T = L U with L unit lower triangular and the pivots on U's diagonal:
    every leading principal minor of T is nonzero, as :func:`_inverse`
    needs.  A panel short of pivots stops the loop once the rows without
    one are zero.
    """
    m = as_matrix(rows, p)
    nrows, ncols = m.shape
    if ncols <= _BLOCKED_ABOVE or max(nrows, ncols) <= 2 * _BLOCKED_ABOVE:
        pivots = _gauss_jordan(m, p, jordan)[0]
        return m[:len(pivots)], pivots
    pivots = []
    for c0 in range(0, ncols, _PANEL):
        r, width = len(pivots), min(_PANEL, ncols - c0)
        cols, swaps = _gauss_jordan(m[r:r + 2 * _PANEL, c0:c0 + _PANEL].copy(), p, False)
        if len(cols) < width and nrows - r > 2 * _PANEL:
            cols, swaps = _gauss_jordan(m[r:, c0:c0 + _PANEL].copy(), p, False)
        k = len(cols)
        if k:
            for a, b in swaps:
                m[[r + a, r + b]] = m[[r + b, r + a]]
            top = m[r:r + k, c0:]
            top[:] = _limb_product(_inverse(top[:, cols], p), top, p)
            right = top.astype(np.float64)
            # in place, in row chunks, so the update's temporaries stay small
            for start, stop in ((0, r if jordan else 0), (r + k, nrows)):
                for i in range(start, stop, _PANEL):
                    block = m[i:min(i + _PANEL, stop), c0:]
                    _subtract_product(block, block[:, cols], right, p)
            pivots.extend(c0 + c for c in cols)
        # short of pivots, the panel left the other rows zero up to its last column
        if k < width and not m[r + k:, c0 + _PANEL:].any():
            break
    return m[:len(pivots)], pivots


def matrix_rank(rows, p: int) -> int:
    """Rank of a matrix over F_p, by forward elimination only (see :func:`_echelon`)."""
    return len(_echelon(rows, p, jordan=False)[1])


def rank_profile(rows, p: int) -> list[int]:
    """Indices of the rows that lie outside the span of the rows before them, increasing.

    They are the pivot columns of the forward elimination of the transpose,
    so the number of them below t is the rank of the first t rows.
    """
    return _echelon(np.ascontiguousarray(np.atleast_2d(rows).T), p, jordan=False)[1]


def rref(rows, p: int) -> np.ndarray:
    """Fully reduced row-echelon form over F_p (unique, pivots scaled to 1), in the input's shape."""
    m = as_matrix(rows, p)
    basis, _ = _echelon(m, p)
    out = np.zeros_like(m)
    out[:basis.shape[0]] = basis
    return out


def row_space_basis(rows, p: int) -> np.ndarray:
    """Canonical basis of the row space: the nonzero rows of the RREF.

    Equal row spaces yield byte-identical output, so subspace equality is
    plain array comparison.
    """
    return _echelon(rows, p)[0]


def quotient(span_rows, rows, p: int) -> tuple[int, np.ndarray]:
    """dim L and the image pi(rows) in V/L, for L the row space of ``span_rows``.

    With B the reduced echelon basis of L from :func:`_echelon` and J its
    pivot columns, pi maps a row v to v - v[J] @ B, which is zero on J, and
    keeps the columns off J: c - dim L of them for rows of length c.  A row
    lies in L iff its image is zero, and the columns of the image of the
    c x c identity are a basis of the kernel {x : span_rows @ x = 0}.
    """
    m = as_matrix(rows, p)
    basis, pivots = _echelon(span_rows, p)
    if basis.shape[1] != m.shape[1]:
        raise ValueError("span and quotient rows have different lengths")
    rest = np.delete(np.arange(m.shape[1]), pivots)
    return len(pivots), (m[:, rest] - _limb_product(m[:, pivots], basis[:, rest], p)) % p


def subspace_contains(span_rows, candidate_rows, p: int) -> bool:
    """True iff every row of ``candidate_rows`` lies in the row space of ``span_rows``."""
    return not quotient(span_rows, candidate_rows, p)[1].any()


def dual_evaluate(x, gather: np.ndarray, coeffs: np.ndarray, top: int, p: int) -> np.ndarray:
    """``coeffs[e] * prod_j powers[gather[j, e]]`` mod p at each point (row) of ``x``.

    ``powers`` holds x^0 .. x^(top-1) of every coordinate, coordinate-major,
    so ``gather[j, e]`` picks the power of entry e's j-th variable, or
    x_0^0 = 1 where it has fewer; the result has shape (len(x), len(coeffs)).
    On a power-rule table (entry 0 a Veronese vector, entry 1 + j its
    partials a_j * x^(a - e_j)) this evaluates at x + eps*e_j for every j:
    entry 0 is the value part, 1 + j the eps part.  Entries are reduced
    after every product, which keeps the int64 arithmetic exact.
    """
    _check_modulus(p)
    x = np.asarray(x, dtype=np.int64) % p
    powers = np.ones(x.shape + (top,), dtype=np.int64)
    for e in range(1, top):
        powers[..., e] = powers[..., e - 1] * x % p
    powers = powers.reshape(len(x), x.shape[1] * top)  # -1 cannot be inferred for an empty stack
    values = np.asarray(coeffs, dtype=np.int64) % p
    for index in gather:  # one gather-multiply per variable slot
        values = values * powers[:, index] % p
    return values


def maximal_minors(rows, p: int) -> list[int]:
    """All t x t minors of a t x c matrix over F_p, t = number of rows.

    Column subsets run in lexicographic order, matching the fixed Pluecker
    coordinate ordering.  Computed by Laplace expansion row by row, sharing
    sub-minors across column subsets.
    """
    m = as_matrix(rows, p).tolist()
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
