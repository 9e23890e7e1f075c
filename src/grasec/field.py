"""Exact linear algebra over prime fields.

Everything downstream reduces to matrix ranks over F_p, so this module is
deliberately small: dense integer matrices reduced mod p, rank via
division-free Gaussian elimination, canonical reduced row-echelon bases,
evaluation of monomial tables at a point (the value and first partials of
a Veronese vector in one call), and maximal minors of small matrices
(Pluecker coordinates).  Every modulus is checked to be a prime below
2**31.

Matrices are numpy int64 arrays.  With p < 2**31 every product of two
reduced entries, and every difference of two such products, stays inside
the int64 range, so the arithmetic is exact -- there is no tolerance
anywhere in this package.  Sums of several such products can overflow, so
matrix products go through :func:`matmul_mod`, which uses exact Python
integers.
"""

from __future__ import annotations

import functools
import itertools

import numpy as np

DEFAULT_PRIME = 2_147_483_647       # 2**31 - 1, fast reduction
CONFIRMATION_PRIME = 2_147_483_629  # second large prime for confirmation runs
DEFAULT_PRIMES = (DEFAULT_PRIME, CONFIRMATION_PRIME)

_MAX_MODULUS = 2**31


def _is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin; bases 2, 3, 5, 7 are exact below 3.2e9."""
    bases = (2, 3, 5, 7)
    if n < 2:
        return False
    if n in bases:
        return True
    if any(n % b == 0 for b in bases):
        return False
    d, twos = n - 1, 0
    while d % 2 == 0:
        d //= 2
        twos += 1
    for b in bases:
        x = pow(b, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(twos - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


# Cached: matrix construction checks its modulus on every call.
@functools.lru_cache(maxsize=64)
def _check_modulus(p: int) -> None:
    if not 2 <= p < _MAX_MODULUS:
        raise ValueError(f"modulus {p} outside the supported range [2, 2**31)")
    if not _is_prime(p):
        raise ValueError(f"modulus {p} is not prime")


def as_matrix(rows, p: int) -> np.ndarray:
    """Copy ``rows`` into an int64 array with entries reduced into [0, p)."""
    _check_modulus(p)
    m = np.array(rows, dtype=np.int64)
    if m.ndim == 1:
        m = m.reshape(1, -1)
    if m.ndim != 2:
        raise ValueError("expected a matrix (2-dimensional array)")
    return m % p


def matmul_mod(a, b, p: int) -> np.ndarray:
    """Exact matrix product mod p.

    A plain int64 ``a @ b`` overflows once three or more products of
    entries near p are summed, so the product is taken over Python's
    arbitrary-precision integers and reduced afterwards.
    """
    left = as_matrix(a, p).astype(object)
    right = as_matrix(b, p).astype(object)
    return ((left @ right) % p).astype(np.int64)


def matrix_rank(rows, p: int) -> int:
    """Rank of a matrix over F_p, by division-free Gaussian elimination.

    Rows below the pivot are cleared as ``pivot*row - factor*pivot_row``,
    so no inverses are needed; pivoting picks the first row with a nonzero
    entry in the current column, which makes the procedure deterministic.
    """
    m = as_matrix(rows, p)
    nrows, ncols = m.shape
    r = 0
    for c in range(ncols):
        if r == nrows:
            break
        piv = None
        for i in range(r, nrows):
            if m[i, c]:
                piv = i
                break
        if piv is None:
            continue
        if piv != r:
            m[[r, piv]] = m[[piv, r]]
        pivot = int(m[r, c])
        if r + 1 < nrows:
            below = m[r + 1:]
            factors = below[:, c].copy()
            below[...] = (below * pivot - np.outer(factors, m[r])) % p
        r += 1
    return r


def rref(rows, p: int) -> np.ndarray:
    """Fully reduced row-echelon form over F_p (unique, pivots scaled to 1)."""
    m = as_matrix(rows, p)
    nrows, ncols = m.shape
    r = 0
    for c in range(ncols):
        if r == nrows:
            break
        piv = None
        for i in range(r, nrows):
            if m[i, c]:
                piv = i
                break
        if piv is None:
            continue
        if piv != r:
            m[[r, piv]] = m[[piv, r]]
        inv = pow(int(m[r, c]), -1, p)
        m[r] = (m[r] * inv) % p
        factors = m[:, c].copy()
        factors[r] = 0
        m[...] = (m - np.outer(factors, m[r])) % p
        r += 1
    return m


def row_space_basis(rows, p: int) -> np.ndarray:
    """Canonical basis of the row space: the nonzero rows of the RREF.

    Equal row spaces yield byte-identical output, so subspace equality is
    plain array comparison.
    """
    m = rref(rows, p)
    nonzero = [i for i in range(m.shape[0]) if m[i].any()]
    return m[nonzero]


def subspace_contains(span_rows, candidate_rows, p: int) -> bool:
    """True iff every row of ``candidate_rows`` lies in the row space of ``span_rows``."""
    span = as_matrix(span_rows, p)
    cand = as_matrix(candidate_rows, p)
    base = matrix_rank(span, p)
    return matrix_rank(np.vstack([span, cand]), p) == base


def dual_evaluate(x, exponents: np.ndarray, coeffs: np.ndarray, p: int) -> np.ndarray:
    """Entrywise ``coeffs * x**exponents`` mod p, for a table of monomials.

    ``exponents`` has shape ``coeffs.shape + (len(x),)``.  Given the power-rule
    table of a Veronese vector (entry 0 the vector, entry 1 + j its partials
    a_j * x^(a - e_j)), this is the evaluation at x + eps*e_j for every j at
    once: entry 0 is the value part, entry 1 + j the eps part.  Entries are
    reduced after every product, which keeps the int64 arithmetic exact.
    """
    _check_modulus(p)
    x = np.asarray(x, dtype=np.int64) % p
    top = int(exponents.max(initial=0))
    powers = np.ones((len(x), top + 1), dtype=np.int64)
    for e in range(1, top + 1):
        powers[:, e] = powers[:, e - 1] * x % p
    out = np.asarray(coeffs, dtype=np.int64) % p
    for j in range(len(x)):
        out = out * powers[j, exponents[..., j]] % p
    return out


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
