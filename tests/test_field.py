"""Exact linear algebra over F_p: ranks, canonical bases, minors, moduli."""

import contextlib
import itertools
import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference
from grasec import field, secant, varieties

P = field.DEFAULT_PRIME


class TestMatrixRank:
    def test_identity(self):
        assert field.matrix_rank(np.eye(3, dtype=np.int64), P) == 3

    def test_zero_matrix(self):
        assert field.matrix_rank(np.zeros((2, 5), dtype=np.int64), P) == 0

    def test_proportional_rows(self):
        assert field.matrix_rank([[1, 2], [2, 4]], 101) == 1

    def test_rank_equals_transpose_rank(self):
        rng = random.Random(5)
        m = [[rng.randrange(P) for _ in range(4)] for _ in range(6)]
        mat = field.as_matrix(m, P)
        assert field.matrix_rank(mat, P) == field.matrix_rank(mat.T, P)

    def test_random_invertible_matrices_have_full_rank(self):
        # L (unit lower) times U (upper, nonzero diagonal) is invertible
        rng = random.Random(42)
        for _ in range(100):
            size = rng.randrange(2, 6)
            lower = np.eye(size, dtype=np.int64)
            upper = np.zeros((size, size), dtype=np.int64)
            for i in range(size):
                upper[i, i] = rng.randrange(1, P)
                for j in range(i):
                    lower[i, j] = rng.randrange(P)
                for j in range(i + 1, size):
                    upper[i, j] = rng.randrange(P)
            m = field.matmul_mod(lower, upper, P)
            assert field.matrix_rank(m, P) == size

    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(
            st.lists(st.integers(0, 100), min_size=3, max_size=3),
            min_size=2,
            max_size=4,
        ),
        st.randoms(use_true_random=False),
    )
    def test_rank_invariant_under_row_permutation_and_scaling(self, rows, rnd):
        base = field.matrix_rank(rows, 101)
        shuffled = list(rows)
        rnd.shuffle(shuffled)
        assert field.matrix_rank(shuffled, 101) == base
        scaled = [[v * rnd.randrange(1, 101) % 101 for v in row] for row in rows]
        # scaling each row by its own nonzero scalar keeps the rank
        scale = [rnd.randrange(1, 101) for _ in rows]
        scaled = [[v * c % 101 for v in row] for row, c in zip(rows, scale)]
        assert field.matrix_rank(scaled, 101) == base


def test_as_matrix_reduces_entries_outside_the_field():
    # an int64 input already in [0, p) is copied without a second mod pass
    raw = np.array([[-1, 7, 8, -15], [2**40, 0, 6, 3]], dtype=np.int64)
    reduced = field.as_matrix(raw, 7)
    assert reduced.tolist() == [[6, 0, 1, 6], [2**40 % 7, 0, 6, 3]]
    assert raw[0, 0] == -1
    done = np.array([[0, 6], [3, 1]], dtype=np.int64)
    copy = field.as_matrix(done, 7)
    assert copy.tolist() == done.tolist() and not np.shares_memory(copy, done)
    assert field.as_matrix([[-3, 10]], 7).tolist() == [[4, 3]]


class TestRref:
    def test_hand_reduction(self):
        out = field.rref([[1, 1, 0], [0, 1, 1]], P)
        assert out.tolist() == [[1, 0, P - 1], [0, 1, 1]]

    def test_canonical_row_space(self):
        a = [[1, 2, 3], [0, 1, 1]]
        b = [[1, 3, 4], [2, 5, 7]]  # same row space, different presentation
        basis_a = field.row_space_basis(a, P)
        basis_b = field.row_space_basis(b, P)
        assert basis_a.tolist() == basis_b.tolist()

    def test_proportional_rows_collapse(self):
        assert field.row_space_basis([[0, 1], [0, 2]], P).tolist() == [[0, 1]]

    def test_identity_fixed_point(self):
        eye = np.eye(2, dtype=np.int64)
        assert field.row_space_basis(eye, P).tolist() == eye.tolist()


class TestSubspaceContains:
    def test_contained_vector(self):
        span = [[1, 0, 1], [0, 1, 1]]
        assert field.subspace_contains(span, [[1, 1, 2]], P)

    def test_missing_vector(self):
        span = [[1, 0, 0]]
        assert not field.subspace_contains(span, [[0, 1, 0]], P)

    @pytest.mark.parametrize("q", [2, 3, 5, 7, P])
    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_single_span_matches_the_stack_and_the_reference(self, q, data):
        # the stack ranks (span ; candidates) and (span ; zero rows) side by side
        width = data.draw(st.integers(1, 6))
        row = st.lists(st.integers(0, q - 1), min_size=width, max_size=width)
        span = data.draw(st.lists(row, min_size=1, max_size=5))
        cand = data.draw(st.lists(row, min_size=1, max_size=3))
        if data.draw(st.booleans()):
            span.insert(data.draw(st.integers(0, len(span))), [0] * width)
        if data.draw(st.booleans()):
            cand.append([0] * width)
        if data.draw(st.booleans()):
            span.append(span[0])
        if data.draw(st.booleans()):
            cand.append(data.draw(st.sampled_from(span)))
        ranks = [reference.rank(span + cand, q), reference.rank(span, q)]
        assert field.subspace_contains(span, cand, q) is (ranks[0] == ranks[1])
        stack = np.stack([np.array(m, dtype=np.int64).T
                          for m in (span + cand, span + [[0] * width] * len(cand))], axis=-1)
        assert field._stacked_pivots(stack, q).tolist() == ranks

    @pytest.mark.parametrize("span", [[[0, 0]], [[1, 2]]])
    def test_width_mismatch_rejected(self, span):
        with pytest.raises(ValueError):
            field.subspace_contains(span, [[0, 0, 0]], P)


class TestMatmulMod:
    def test_matches_python_integers(self):
        rng = random.Random(9)
        a = [[rng.randrange(P) for _ in range(5)] for _ in range(3)]
        b = [[rng.randrange(P) for _ in range(4)] for _ in range(5)]
        expected = [
            [sum(a[i][t] * b[t][j] for t in range(5)) % P for j in range(4)]
            for i in range(3)
        ]
        assert field.matmul_mod(a, b, P).tolist() == expected

    def test_large_entries_no_overflow(self):
        # three products of entries near p overflow a plain int64 matmul
        a = [[P - 1, P - 2, P - 3]]
        b = [[P - 1], [P - 2], [P - 3]]
        expected = ((P - 1) ** 2 + (P - 2) ** 2 + (P - 3) ** 2) % P
        assert field.matmul_mod(a, b, P).tolist() == [[expected]]


_PRIMES = pytest.mark.parametrize("q", [2, 3, 5, 7, P])


class TestLimbProduct:
    """matmul_mod sums float64 limb products _PANEL inner terms at a time."""

    @pytest.mark.parametrize("depth", [64, 65, 128, 200])
    def test_all_entries_p_minus_one(self, depth):
        a, b = [[P - 1] * depth] * 3, [[P - 1] * 2] * depth
        expected = depth * (P - 1) ** 2 % P
        assert field.matmul_mod(a, b, P).tolist() == [[expected] * 2] * 3

    @pytest.mark.parametrize("depth", [64, 127])
    def test_largest_odd_limb_products(self, depth):
        # low limb 2**16 - 1 times an odd entry: 127 such terms sum to an odd
        # number above 2**53, which no float64 holds, so a panel wider than
        # 64 could not be exact
        a, b = [[0x7FFEFFFF] * depth], [[P - 2]] * depth
        assert 127 * 0xFFFF * (P - 2) > 2**53
        assert field.matmul_mod(a, b, P).tolist() == [[depth * 0x7FFEFFFF * (P - 2) % P]]

    @_PRIMES
    @settings(max_examples=12, deadline=None)
    @given(st.integers(1, 6), st.integers(0, 200), st.integers(1, 6), st.integers(0, 2**32 - 1))
    def test_matches_python_integers_at_any_depth(self, q, rows, depth, cols, seed):
        rng = np.random.default_rng(seed)
        # entries from the top of the range stress the 2**53 bound
        a = q - 1 - rng.integers(0, min(q, 2**16), (rows, depth))
        b = q - 1 - rng.integers(0, min(q, 2**16), (depth, cols))
        expected = (a.astype(object) @ b.astype(object)) % q
        assert field.matmul_mod(a, b, q).tolist() == expected.tolist()


class TestSubtractProduct:
    """The trailing update reduces block - left @ right once, from (-2**54, 2**31)."""

    @pytest.mark.parametrize("low", [0, P - 1])
    @pytest.mark.parametrize("entry,factor", [(P - 1, P - 1), (0x7FFEFFFF, P - 2)])
    def test_extreme_entries_at_depth_64(self, low, entry, factor):
        block = np.array([[low, P - 1 - low], [0, P - 1]], dtype=np.int64)
        left = np.full((2, 64), entry, dtype=np.int64)
        right = np.full((64, 2), factor, dtype=np.float64)
        expected = [[(int(v) - 64 * entry * factor) % P for v in row] for row in block.tolist()]
        field._subtract_product(block, left, right, P)
        assert block.tolist() == expected


def _one_panel(rows, q):
    """The per-column loop over the whole matrix, which the blocked route must match."""
    m = field.as_matrix(rows, q)
    pivots = field._gauss_jordan(m, q)[0]
    return m[:len(pivots)], pivots


@contextlib.contextmanager
def _blocked_route(force):
    """Record the size of every block :func:`field._inverse` inverts; with ``force``, every
    _echelon call takes the blocked route, whatever the matrix's shape."""
    inverted, inverse = [], field._inverse
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(field, "_inverse", lambda t, p: inverted.append(len(t)) or inverse(t, p))
        if force:
            mp.setattr(field, "_BLOCKED_ABOVE", 0)
        yield inverted


@st.composite
def _blocked_matrices(draw, q, max_rows, max_cols):
    """Matrices over F_q wider than _BLOCKED_ABOVE columns: X @ Y mod q of any rank, tall or
    wide, optionally with duplicated rows and with one panel's columns zero in all rows
    or in the first 2 * _PANEL rows only, so that its pivots lie below the head.  Most
    are within 2 * _BLOCKED_ABOVE in both dimensions, so tests force the blocked route."""
    nrows = draw(st.integers(1, max_rows))
    ncols = draw(st.integers(field._BLOCKED_ABOVE + 1, max_cols))
    rank = draw(st.integers(0, min(nrows, ncols)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    m = field.matmul_mod(rng.integers(0, q, (nrows, rank)), rng.integers(0, q, (rank, ncols)), q)
    if draw(st.booleans()):
        m = m[rng.integers(0, nrows, nrows)]
    if draw(st.booleans()):
        start = draw(st.sampled_from(range(0, ncols, field._PANEL)))
        zero_rows = draw(st.sampled_from([nrows, 2 * field._PANEL]))
        m[:zero_rows, start:start + field._PANEL] = 0
    return m


class TestBlockedEchelon:
    @_PRIMES
    @settings(max_examples=6, deadline=None)
    @given(data=st.data())
    def test_matches_one_panel_loop(self, q, data):
        m = data.draw(_blocked_matrices(q, max_rows=300, max_cols=400))
        with _blocked_route(force=True) as inverted:
            basis, pivots = field._echelon(m, q)
            rank = field.matrix_rank(m, q)
        expected_basis, expected_pivots = _one_panel(m, q)
        assert pivots == expected_pivots
        assert bool(inverted) == bool(pivots)
        assert basis.dtype.name == "int64"
        assert np.array_equal(basis, expected_basis)
        assert rank == len(expected_pivots)

    @_PRIMES
    @settings(max_examples=4, deadline=None)
    @given(data=st.data())
    def test_matches_reference(self, q, data):
        m = data.draw(_blocked_matrices(q, max_rows=60, max_cols=260))
        expected, pivots = reference.rref(m.tolist(), q)
        with _blocked_route(force=True) as inverted:
            assert field.rref(m, q).tolist() == expected
            assert field.row_space_basis(m, q).tolist() == expected[:len(pivots)]
            assert field.matrix_rank(m, q) == len(pivots)
        assert bool(inverted) == bool(pivots)

    def test_full_and_empty_panels(self):
        # panel 0 finds 64 pivots, panel 1 none, panels 2 and 3 the other 86
        rng = np.random.default_rng(3)
        m = rng.integers(0, P, (150, 300))
        m[:, 64:128] = 0
        with _blocked_route(force=False) as inverted:
            basis, pivots = field._echelon(m, P)
            assert field.matrix_rank(m, P) == 150
        assert inverted
        assert pivots == list(range(64)) + list(range(128, 214))
        expected_basis, _ = _one_panel(m, P)
        assert np.array_equal(basis, expected_basis)

    @pytest.mark.parametrize("zero", [slice(0, 64), slice(63, 64)])
    def test_panel_pivots_below_the_head(self, zero):
        # rows 0-199 are zero in all of panel 0 or in its last column, so its
        # 2 * _PANEL-row head finds no pivot or 63 of them, and the search
        # falls back to the whole panel
        m = np.random.default_rng(4).integers(0, P, (300, 200))
        m[:200, zero] = 0
        with _blocked_route(force=False) as inverted:
            basis, pivots = field._echelon(m, P)
            assert field.matrix_rank(m, P) == 200
        assert inverted
        assert pivots == list(range(200))
        expected_basis, _ = _one_panel(m, P)
        assert np.array_equal(basis, expected_basis)
        assert basis.tolist() == reference.rref(m.tolist(), P)[0][:200]

    def test_stops_once_the_rows_without_a_pivot_are_zero(self, monkeypatch):
        # rank 100: panel 0 takes 64 pivots (forward-only head search, then
        # the 64 x 64 inverse halved down to four [16 x 16 | I] loops), panel
        # 1 the other 36 (head, whole-panel rerun, four [9 x 9 | I] loops);
        # panels 2-6 run nothing, on the basis and on the rank path alike
        rng = np.random.default_rng(6)
        m = field.matmul_mod(rng.integers(0, P, (300, 100)), rng.integers(0, P, (100, 400)), P)
        calls, gauss_jordan = [], field._gauss_jordan

        def counted(panel, p, jordan=True):
            calls.append((panel.shape, jordan))
            return gauss_jordan(panel, p, jordan)

        monkeypatch.setattr(field, "_gauss_jordan", counted)
        expected_calls = [
            ((128, 64), False), *[((16, 32), True)] * 4,
            ((128, 64), False), ((236, 64), False), *[((9, 18), True)] * 4,
        ]
        basis, pivots = field._echelon(m, P)
        assert calls == expected_calls
        calls.clear()
        assert field.matrix_rank(m, P) == 100
        assert calls == expected_calls
        monkeypatch.undo()
        expected_basis, expected_pivots = _one_panel(m, P)
        assert pivots == expected_pivots == list(range(100))
        assert np.array_equal(basis, expected_basis)
        assert basis.tolist() == reference.rref(m.tolist(), P)[0][:100]

    @pytest.mark.parametrize("text,s,rank", [
        ("4,4,4", 10, 125),
        ("2,2,2,2,2", 22, 242),
        ("1,1,1,1,1,1,1,1,1", 52, 512),
        ("4,4,4,4", 36, 612),
    ])
    def test_secant_scale_frame_stacks(self, text, s, rank):
        # the two smaller stacks (130 x 125, 242 x 243) are below the cutoff
        spec = varieties.SegreVeroneseSpec.parse(text)
        for q in (P, 2, 3, 5, 7):
            frames = varieties.random_frames(spec, s, random.Random(secant.subseed(0, 0, q)), q)
            rows = frames.reshape(-1, spec.ambient_dim + 1)
            with _blocked_route(force=True) as inverted:
                basis, pivots = field._echelon(rows, q)
                assert field.matrix_rank(rows, q) == len(pivots)
            assert inverted
            if q == P:
                assert len(pivots) == rank
            expected_basis, expected_pivots = _one_panel(rows, q)
            assert pivots == expected_pivots
            assert np.array_equal(basis, expected_basis)


class TestInverse:
    @_PRIMES
    @pytest.mark.parametrize("k", [1, 2, 15, 16, 17, 33, 36, 63, 64])
    def test_matches_reference(self, k, q):
        # unit lower times upper with a nonzero diagonal: every leading
        # principal minor is nonzero, as for a panel's pivot block
        rng = np.random.default_rng(k)
        lower = np.tril(rng.integers(0, q, (k, k)), -1) + np.eye(k, dtype=np.int64)
        upper = np.triu(rng.integers(0, q, (k, k)), 1) + np.diag(rng.integers(1, q, k))
        t = field.matmul_mod(lower, upper, q)
        inverse = field._inverse(t, q)
        augmented = np.hstack([t, np.eye(k, dtype=np.int64)]).tolist()
        assert inverse.tolist() == [row[k:] for row in reference.rref(augmented, q)[0]]
        assert field.matmul_mod(inverse, t, q).tolist() == np.eye(k, dtype=np.int64).tolist()


def _gauss_jordan_on(m, q, lazy, jordan=True):
    """Pivots, swaps and the reduced copy of ``m`` from the per-column loop, with the delayed
    reduction forced on or off; checks that the loop took the path it was sent down."""
    out, reduced, reduce = m.copy(), [], field._reduce
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(field, "_LAZY_FROM", 0 if lazy else m.size + 1)
        mp.setattr(field, "_reduce", lambda v, p, scratch: reduced.append(v.shape) or reduce(v, p, scratch))
        pivots, swaps = field._gauss_jordan(out, q, jordan)
    assert bool(reduced) == lazy
    return pivots, swaps, out


@st.composite
def _elimination_matrices(draw, q, max_rows, max_cols, min_entries=1):
    """Matrices over F_q with at least ``min_entries`` entries: X @ Y mod q of any rank, or
    every entry q // 2 or q - 1, optionally with zero leading rows, so that pivots need swaps."""
    nrows = draw(st.integers(-(-min_entries // max_cols), max_rows))
    ncols = draw(st.integers(-(-min_entries // nrows), max_cols))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        rank = draw(st.integers(0, min(nrows, ncols)))
        m = field.matmul_mod(rng.integers(0, q, (nrows, rank)), rng.integers(0, q, (rank, ncols)), q)
    else:
        m = np.where(rng.integers(0, 2, (nrows, ncols)) == 1, q // 2, q - 1)
    m[:draw(st.integers(0, nrows // 2))] = 0
    return m


_REFERENCE_PRIMES = pytest.mark.parametrize("q", [2, 3, 101, P])


class TestDelayedReduction:
    """The per-column loop gives the same pivots, swaps and matrix with and without the
    delayed reduction, and both give the reference RREF."""

    @staticmethod
    def _check(m, q, lazy):
        expected, expected_pivots = reference.rref(m.tolist(), q)
        for jordan in (True, False):
            pivots, swaps, out = _gauss_jordan_on(m, q, lazy, jordan)
            other_pivots, other_swaps, other = _gauss_jordan_on(m, q, not lazy, jordan)
            assert (pivots, swaps) == (other_pivots, other_swaps)
            assert pivots == expected_pivots
            assert out.tolist() == other.tolist()
            assert out.min() >= 0 and out.max() < q
            if jordan:
                assert out.tolist() == expected

    @_REFERENCE_PRIMES
    @settings(max_examples=30, deadline=None)
    @given(data=st.data())
    def test_lazy_path_on_small_matrices(self, q, data):
        self._check(data.draw(_elimination_matrices(q, max_rows=12, max_cols=14)), q, lazy=True)

    @_REFERENCE_PRIMES
    @settings(max_examples=2, deadline=None)
    @given(data=st.data())
    def test_eager_path_on_large_matrices(self, q, data):
        m = data.draw(_elimination_matrices(q, max_rows=90, max_cols=100, min_entries=field._LAZY_FROM))
        self._check(m, q, lazy=False)

    @pytest.mark.parametrize("multiplier", [P - P // 2, P - 1])
    def test_largest_products_do_not_overflow(self, multiplier):
        # M = L U, 24 x 40, with every multiplier below L's diagonal -(p // 2) (or -1)
        # and U's entries on and above its diagonal p // 2, except 1 in every other column
        # past 24: each step adds (p // 2)**2 ~ 2**60 to the entries in the other columns,
        # so nine steps without a reduction pass 2**63 there (as would four with -1 taken
        # as p - 1), and the wrapped entries change the RREF
        half = P // 2
        lower = np.tril(np.full((24, 24), multiplier), -1) + np.eye(24, dtype=np.int64)
        upper = np.triu(np.full((24, 40), half))
        upper[:, 24::2] = 1
        m = field.matmul_mod(lower, upper, P)
        self._check(m, P, lazy=True)


class TestQuotient:
    """field.quotient: dim L and pi(rows) in V/L, against the reference RREF and ranks."""

    @_REFERENCE_PRIMES
    @settings(max_examples=30, deadline=None)
    @given(data=st.data())
    def test_matches_the_reference(self, q, data):
        span = data.draw(_elimination_matrices(q, max_rows=6, max_cols=8))
        rows = data.draw(_elimination_matrices(q, max_rows=5, max_cols=span.shape[1]))
        rows = np.pad(rows, [(0, 0), (0, span.shape[1] - rows.shape[1])])
        if data.draw(st.booleans()):  # a row inside L
            rows = np.vstack([rows, field.matmul_mod(np.ones((1, len(span)), dtype=np.int64), span, q)])
        d, image = field.quotient(span, rows, q)
        echelon, pivots = reference.rref(span.tolist(), q)
        rest = [j for j in range(span.shape[1]) if j not in pivots]
        assert d == len(pivots) == reference.rank(span.tolist(), q)
        assert image.dtype.name == "int64"
        assert image.tolist() == [[(v[j] - sum(v[c] * b[j] for c, b in zip(pivots, echelon))) % q
                                   for j in rest] for v in rows.tolist()]
        # rank (L ; rows) = dim L + rank pi(rows), and pi(v) = 0 exactly on L
        assert reference.rank(span.tolist() + rows.tolist(), q) == d + reference.rank(image.tolist(), q)
        assert [not any(row) for row in image.tolist()] == [
            reference.rank(span.tolist() + [v], q) == d for v in rows.tolist()]

    @_REFERENCE_PRIMES
    @pytest.mark.parametrize("c", [1, 4, 7])
    def test_image_of_the_identity_is_a_kernel_basis(self, q, c):
        span = np.random.default_rng(c).integers(0, q, (3, c))
        d, kernel = field.quotient(span, np.eye(c, dtype=np.int64), q)
        assert kernel.shape == (c, c - d)
        assert not field.matmul_mod(span, kernel, q).any()
        assert reference.rank(kernel.tolist(), q) == c - d

    def test_zero_span_is_the_identity(self):
        rows = [[3, 0, 5], [0, 0, 0]]
        d, image = field.quotient([[0, 0, 0], [0, 0, 0]], rows, 7)
        assert d == 0 and image.tolist() == rows

    def test_whole_space_leaves_no_columns(self):
        d, image = field.quotient([[1, 2], [3, 4]], [[5, 6], [1, 1], [0, 0]], 7)
        assert d == 2 and image.shape == (3, 0)

    @pytest.mark.parametrize("span", [[[0, 0]], [[1, 2]], [[1, 0, 0, 0]]])
    def test_width_mismatch_rejected(self, span):
        with pytest.raises(ValueError, match="different lengths"):
            field.quotient(span, [[0, 0, 1]], P)


def test_secant_scale_ranks_run_no_matrix_product(monkeypatch):
    # the four residuals (65 x 60, 66 x 67, 130 x 122, 187 x 200) are all within
    # 2 * _BLOCKED_ABOVE, so no rank multiplies float64 limbs (BLAS)
    def no_product(*args):
        raise AssertionError("limb product on a secant_scale rank")

    monkeypatch.setattr(field, "_limb_sum", no_product)
    monkeypatch.setattr(field, "_limb_product", no_product)
    for text, s, dim in [("4,4,4", 10, 124), ("2,2,2,2,2", 22, 241),
                         ("1,1,1,1,1,1,1,1,1", 52, 511), ("4,4,4,4", 36, 611)]:
        spec = varieties.SegreVeroneseSpec.parse(text)
        assert secant.secant_dim(spec, s, trials=1, seed=0, primes=(P,)).dim == dim


def test_dual_evaluate_matches_scalar_monomials():
    # gather[j, e] = variable * top + exponent of slot j of entry e; slot 2 of
    # entry 0 is padded, as in a factor narrower than the widest, and reads x_0^0
    top, nvars = 4, 3
    for p in (2, 5, 7, P):
        rng = random.Random(p)
        points = [[rng.randrange(-p, 2 * p) for _ in range(nvars)] for _ in range(4)]
        monomials = [[(rng.randrange(nvars), rng.randrange(top)) for _ in range(3)] for _ in range(6)]
        monomials[0][2] = (0, 0)
        gather = np.array([[v * top + a for v, a in m] for m in monomials]).T
        coeffs = np.array([rng.randrange(-p, p) for _ in monomials])
        expected = [[int(c) * math.prod(pow(x[v], a, p) for v, a in m) % p
                     for c, m in zip(coeffs, monomials)] for x in points]
        assert field.dual_evaluate(points, gather, coeffs, top, p).tolist() == expected
        empty = field.dual_evaluate(np.zeros((0, nvars), dtype=np.int64), gather, coeffs, top, p)
        assert empty.shape == (0, len(monomials))


class TestMaximalMinors:
    """field.maximal_minors and the oracle's own copy, both against the permutation sum."""

    @staticmethod
    def _brute_det(sub, p):
        size = len(sub)
        total = 0
        for perm in itertools.permutations(range(size)):
            sign = 1
            for a in range(size):
                for b in range(a + 1, size):
                    if perm[a] > perm[b]:
                        sign = -sign
            term = sign
            for i in range(size):
                term *= sub[i][perm[i]]
            total += term
        return total % p

    def test_against_brute_force(self):
        rng = random.Random(3)
        for _ in range(20):
            t = rng.randrange(1, 4)
            c = rng.randrange(t, t + 4)
            m = [[rng.randrange(P) for _ in range(c)] for _ in range(t)]
            combos = list(itertools.combinations(range(c), t))
            brute = [
                self._brute_det([[m[i][j] for j in cols] for i in range(t)], P)
                for cols in combos
            ]
            assert field.maximal_minors(m, P) == brute
            assert reference.maximal_minors(m, P) == brute


def test_modulus_range_is_enforced():
    with pytest.raises(ValueError):
        field.matrix_rank([[1]], 2**31)
    with pytest.raises(ValueError):
        field.as_matrix([[1]], 1)


def test_composite_modulus_rejected():
    # 561 is a Carmichael number; 2047 and 25326001 are strong pseudoprimes
    # to base 2 and to bases 2, 3, 5; 46327 * 46337 is a product of two primes
    # next to sqrt(2**31), the largest divisors trial division must reach
    for n in (4, 9, 561, 2047, 25326001, 46337**2, 46327 * 46337, 2**31 - 2):
        with pytest.raises(ValueError, match=f"modulus {n} is not prime"):
            field.as_matrix([[1]], n)
    for p in (2, 3, 5, 7, 101, field.DEFAULT_PRIME, field.CONFIRMATION_PRIME):
        assert field.as_matrix([[p + 1]], p).tolist() == [[1]]


def test_primality_matches_trial_division():
    def trial(n):
        return n >= 2 and all(n % d for d in range(2, int(n**0.5) + 1))

    for n in range(3000):
        assert field._is_prime(n) == trial(n), n


def test_primality_matches_a_sieve():
    limit = 2**15
    sieve = np.ones(limit, dtype=bool)
    sieve[:2] = False
    for d in range(2, math.isqrt(limit) + 1):
        sieve[d * d::d] = False
    assert [field._is_prime(n) for n in range(limit)] == sieve.tolist()
    assert field._is_prime(field.DEFAULT_PRIME) and field._is_prime(field.CONFIRMATION_PRIME)
    assert not field._is_prime(46327 * 46337) and not field._is_prime(2**31 - 2)
