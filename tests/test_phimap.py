"""The slice map, secant witnesses and micro-enumeration."""

import dataclasses
import itertools
import random

import numpy as np
import pytest

import reference
from grasec import field, phimap, secant, varieties
from grasec.phimap import SlicedTensor
from grasec.varieties import SegreVeroneseSpec

P = field.DEFAULT_PRIME


def _unbuilt(*args, **kwargs):
    raise AssertionError("built before the size check")


def _rng(seed, p):
    """The stream ``random_secant_point`` used to draw from for ``seed`` over F_p."""
    return random.Random(secant.subseed(seed, 0, p))


class TestSlicedTensor:
    def test_zero_tensor_rejected(self):
        with pytest.raises(ValueError):
            SlicedTensor(P, ((0, 0), (0, 0)))

    def test_bad_shape_rejected(self):
        with pytest.raises(ValueError):
            SlicedTensor(P, ((1, 2), (3,)))


class TestPhi:
    def test_k_zero_is_the_point_itself(self):
        tensor = SlicedTensor(P, ((0, 2, 4, 0),))
        plucker = phimap.phi(tensor)
        assert plucker.w == 0
        assert plucker.basis == ((0, 1, 2, 0),)

    def test_coordinate_point_construction(self):
        # with P_i = e_i the slice matrix is the block [lambda^T | 0]
        spec = SegreVeroneseSpec.parse("1,1")  # r = 3
        lambdas = ((1, 2), (3, 4), (5, 6))
        embedded = [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0]]
        tensor = phimap.assemble_tensor(lambdas, embedded, P)
        assert tensor.slices == ((1, 3, 5, 0), (2, 4, 6, 0))
        # the row space is spanned by the first s coordinates only
        basis = phimap.phi(tensor).basis
        for row in basis:
            assert row[3] == 0
        # both hold plain Python ints, not numpy scalars
        assert {type(v) for row in tensor.slices + basis for v in row} == {int}

    def test_scale_invariance(self):
        rng = random.Random(21)
        witness = phimap.random_secant_point(
            SegreVeroneseSpec.parse("2:2"), 1, 3, p=P, rng=rng
        )
        plucker = phimap.phi(witness.tensor)
        for _ in range(10):
            c = rng.randrange(1, P)
            assert phimap.phi(witness.tensor.scaled(c)).basis == plucker.basis

    def test_plucker_three_term_relation(self):
        # p01*p23 - p02*p13 + p03*p12 = 0 for any 2-plane in 4 coordinates
        rng = random.Random(6)
        for _ in range(10):
            rows = [[rng.randrange(P) for _ in range(4)] for _ in range(2)]
            if field.matrix_rank(rows, P) < 2:
                continue
            p01, p02, p03, p12, p13, p23 = reference.maximal_minors(rows, P)
            assert (p01 * p23 - p02 * p13 + p03 * p12) % P == 0


class TestWitnesses:
    def test_slice_formula_holds_exactly(self):
        rng = random.Random(17)
        spec = SegreVeroneseSpec.parse("1,2")
        witness = phimap.random_secant_point(spec, 2, 3, p=P, rng=rng)
        for j in range(3):
            expected = [
                sum(witness.lambdas[i][j] * witness.embedded_points[i][c]
                    for i in range(3)) % P
                for c in range(spec.ambient_dim + 1)
            ]
            assert list(witness.tensor.slices[j]) == expected

    def test_witness_stores_its_decomposition(self):
        witness = phimap.random_secant_point(SegreVeroneseSpec.parse("1,1"), 1, 2, _rng(4, P), P)
        assert [f.name for f in dataclasses.fields(witness)] == ["p", "lambdas", "embedded_points"]
        assert witness.tensor == phimap.assemble_tensor(witness.lambdas, witness.embedded_points, P)
        assert witness == phimap.SecantWitness(P, witness.lambdas, witness.embedded_points)

    def test_containment_in_witness_span(self):
        rng = random.Random(23)
        for text in ("1,1", "2:2", "1:3"):
            spec = SegreVeroneseSpec.parse(text)
            witness = phimap.random_secant_point(spec, 1, 3, p=P, rng=rng)
            plucker = phimap.phi(witness.tensor)
            assert field.subspace_contains(
                witness.embedded_points, plucker.basis, P
            )

    def test_rank_one_witness(self):
        witness = phimap.random_secant_point(
            SegreVeroneseSpec.parse("1,1"), 1, 1, _rng(2, P), P
        )
        # all slices proportional to the single point: w = 0
        assert phimap.phi(witness.tensor).w == 0


class TestCounting:
    def test_enumerated_points_are_distinct_and_on_x(self):
        spec = SegreVeroneseSpec.parse("1,1")
        points = phimap.enumerate_variety_points(spec, 5)
        assert points.shape == (36, 4)
        # every enumerated row has the 2x2 determinant vanishing
        for row in points.tolist():
            assert (row[0] * row[3] - row[1] * row[2]) % 5 == 0

    def test_generic_rank_two_tensor_unique(self):
        spec = SegreVeroneseSpec.parse("1,1,1")
        witness = phimap.random_secant_point(spec, 0, 2, _rng(1, 5), 5)
        assert phimap.count_decompositions(spec, 2, witness.tensor) == 1

    def test_matrices_never_two_identifiable(self):
        spec = SegreVeroneseSpec.parse("1,1")
        witness = phimap.random_secant_point(spec, 0, 2, _rng(1, 5), 5)
        assert phimap.count_decompositions(spec, 2, witness.tensor) > 1

    def test_paired_counts_agree(self):
        spec = SegreVeroneseSpec.parse("1,1")
        witness = phimap.random_secant_point(spec, 1, 2, _rng(3, 5), 5)
        n_b = phimap.count_decompositions(spec, 2, witness.tensor)
        n_pi = phimap.count_decompositions(spec, 2, phimap.phi(witness.tensor))
        assert n_b == n_pi

    @pytest.mark.parametrize("rows", [((1, 2, 3, 4, 0),), ((0, 0, 1, 2, 3),), ((1, 2, 3),), ()])
    def test_target_of_the_wrong_width_rejected(self, rows):
        # X(F_5) of 1,1 has rows of length r + 1 = 4
        with pytest.raises(ValueError, match="different lengths"):
            phimap.count_decompositions(SegreVeroneseSpec.parse("1,1"), 2, phimap.PluckerPoint(5, rows))

    def test_tensor_count_exceeds_the_decomposition_count_when_dim_l_is_below_s(self):
        # d = 2 < s = 3: 34 of the 330 subsets whose span contains the slices
        # hold only decompositions with a zero coefficient point lambda_i
        spec = SegreVeroneseSpec.parse("1,1")
        tensor = phimap.random_secant_point(spec, 1, 3, _rng(0, 5), 5).tensor
        assert reference.rank(tensor.slices, 5) == 2
        assert phimap.count_decompositions(spec, 3, tensor) == 330
        assert phimap.count_decompositions(spec, 3, phimap.phi(tensor)) == 330
        assert reference.count_nonzero_decompositions(spec, 3, tensor.slices, 5) == 296

    @pytest.mark.parametrize("text,q,k,s,seed", [
        ("1,1", 5, 1, 2, 0), ("1,1", 3, 2, 3, 2), ("1:2", 5, 2, 3, 1),
        ("1,1,1", 2, 1, 2, 2), ("1,1,1", 2, 2, 3, 0),
    ])
    def test_tensor_count_is_the_decomposition_count_when_dim_l_is_s(self, text, q, k, s, seed):
        spec = SegreVeroneseSpec.parse(text)
        tensor = phimap.random_secant_point(spec, k, s, _rng(seed, q), q).tensor
        assert reference.rank(tensor.slices, q) == s
        assert phimap.count_decompositions(spec, s, tensor) == \
            reference.count_nonzero_decompositions(spec, s, tensor.slices, q)

    def test_budget_enforced(self, monkeypatch):
        spec = SegreVeroneseSpec.parse("1,1")
        witness = phimap.random_secant_point(spec, 0, 2, _rng(1, 5), 5)
        monkeypatch.setattr(varieties, "DEFAULT_ENUMERATION_BUDGET", 10)
        with pytest.raises(phimap.BudgetExceededError):
            phimap.count_decompositions(spec, 2, witness.tensor)

    def test_budget_checked_before_enumeration(self, monkeypatch):
        # #X(F_7) = 57**3 points would take seconds to enumerate
        def unreachable(spec, q):
            raise AssertionError("enumerated X(F_q) before checking the budget")

        spec = SegreVeroneseSpec.parse("2,2,2")
        witness = phimap.random_secant_point(spec, 0, 2, _rng(1, 7), 7)
        monkeypatch.setattr(phimap, "enumerate_variety_points", unreachable)
        monkeypatch.setattr(varieties, "DEFAULT_ENUMERATION_BUDGET", 10)
        with pytest.raises(phimap.BudgetExceededError,
                           match="^17148131028 span tests exceed the budget of 10$"):
            phimap.count_decompositions(spec, 2, witness.tensor)

    @pytest.mark.parametrize("s", [0, -1])
    @pytest.mark.parametrize("rows", [((0, 0, 0, 0),), ((1, 0, 0, 0),)])
    def test_order_below_one_rejected(self, s, rows):
        # the package's rule s >= 1, before the budget check: no prefix has s - 1 < 0 points
        with pytest.raises(ValueError, match=f"^need s >= 1, got s={s}$"):
            phimap.count_decompositions(SegreVeroneseSpec.parse("1,1"), s, phimap.PluckerPoint(5, rows))

    def test_frames_of_x_checked_before_any_point_is_listed(self, monkeypatch):
        # C(8**8, 1) subsets fit the budget, but X(F_7) of 1^8 would take
        # 8**8 frames of 9 x 256 entries
        def unlisted(*args, **kwargs):
            raise AssertionError("listed points of X(F_q) before the size check")

        monkeypatch.setattr(itertools, "product", unlisted)
        target = phimap.PluckerPoint(7, ((1,) + (0,) * 255,))
        with pytest.raises(phimap.BudgetExceededError,
                           match=r"^1,1,1,1,1,1,1,1 at 16777216 point\(s\) needs 38654705664 entries"):
            phimap.count_decompositions(SegreVeroneseSpec.parse(",".join("1" * 8)), 1, target)

    def test_oversized_witness_raises_before_any_table(self, monkeypatch):
        # 30:30 has C(60, 30) monomials
        monkeypatch.setattr(varieties, "_power_rule", _unbuilt)
        with pytest.raises(phimap.BudgetExceededError, match="above the budget of 100000000$"):
            phimap.random_secant_point(SegreVeroneseSpec.parse("30:30"), 1, 2, _rng(0, P), P)

    def test_witness_builds_no_packing(self):
        # sigma_2 of 1^14 is rejected by its packing's P**2 bits; a witness
        # checks only its tables and frames
        spec = SegreVeroneseSpec.parse(",".join("1" * 14))
        with pytest.raises(phimap.BudgetExceededError, match="^sigma_2 of "):
            secant._check_size(spec, 2)
        assert len(phimap.random_secant_point(spec, 1, 2, _rng(0, P), P).embedded_points) == 2

    def test_large_field_rejected(self):
        # q is the target's field: one built over F_11 or F_P cannot be enumerated
        spec = SegreVeroneseSpec.parse("1,1")
        for p in (11, P):
            witness = phimap.random_secant_point(spec, 1, 2, _rng(3, p), p)
            for target in (witness.tensor, phimap.phi(witness.tensor)):
                with pytest.raises(ValueError, match=f"needs a prime q <= 7, got q={p}$"):
                    phimap.count_decompositions(spec, 2, target)

    def test_prime_power_field_rejected(self):
        # Z/4 is not the field F_4, so a target over it must not enumerate
        target = SlicedTensor(4, ((1, 0, 0, 1), (0, 1, 1, 0)))
        with pytest.raises(ValueError, match="needs a prime q <= 7, got q=4$"):
            phimap.count_decompositions(SegreVeroneseSpec.parse("1,1"), 2, target)
