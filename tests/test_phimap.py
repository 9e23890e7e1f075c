"""The slice map, secant witnesses and micro-enumeration."""

import random

import numpy as np
import pytest

from grasec import field, phimap, varieties
from grasec.phimap import SlicedTensor
from grasec.varieties import SegreVeroneseSpec

P = field.DEFAULT_PRIME


class TestSlicedTensor:
    def test_zero_tensor_rejected(self):
        with pytest.raises(ValueError):
            SlicedTensor(1, 1, P, ((0, 0), (0, 0)))

    def test_bad_shape_rejected(self):
        with pytest.raises(ValueError):
            SlicedTensor(1, 1, P, ((1, 2), (3,)))


class TestPhi:
    def test_k_zero_is_the_point_itself(self):
        tensor = SlicedTensor(0, 3, P, ((0, 2, 4, 0),))
        plucker = phimap.phi(tensor)
        assert plucker.w == 0
        assert plucker.basis == ((0, 1, 2, 0),)

    def test_coordinate_point_construction(self):
        # with P_i = e_i the slice matrix is the block [lambda^T | 0]
        spec = SegreVeroneseSpec.parse("1,1")  # r = 3
        lambdas = ((1, 2), (3, 4), (5, 6))
        embedded = [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0]]
        tensor = phimap.assemble_tensor(spec, lambdas, embedded, P)
        assert tensor.slices == ((1, 3, 5, 0), (2, 4, 6, 0))
        # the row space is spanned by the first s coordinates only
        for row in phimap.phi(tensor).basis:
            assert row[3] == 0

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
            p01, p02, p03, p12, p13, p23 = field.maximal_minors(rows, P)
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
            SegreVeroneseSpec.parse("1,1"), 1, 1, seed=2, p=P
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
        witness = phimap.random_secant_point(spec, 0, 2, seed=1, p=5)
        assert phimap.count_decompositions(spec, 5, 2, witness.tensor) == 1

    def test_matrices_never_two_identifiable(self):
        spec = SegreVeroneseSpec.parse("1,1")
        witness = phimap.random_secant_point(spec, 0, 2, seed=1, p=5)
        assert phimap.count_decompositions(spec, 5, 2, witness.tensor) > 1

    def test_paired_counts_agree(self):
        spec = SegreVeroneseSpec.parse("1,1")
        witness = phimap.random_secant_point(spec, 1, 2, seed=3, p=5)
        n_b = phimap.count_decompositions(spec, 5, 2, witness.tensor)
        n_pi = phimap.count_decompositions(spec, 5, 2, phimap.phi(witness.tensor))
        assert n_b == n_pi

    def test_target_over_another_field_rejected(self):
        # reducing a target built over F_P mod 5 would count another tensor
        spec = SegreVeroneseSpec.parse("1,1")
        witness = phimap.random_secant_point(spec, 1, 2, seed=3, p=P)
        for target in (witness.tensor, phimap.phi(witness.tensor)):
            with pytest.raises(ValueError, match="F_5"):
                phimap.count_decompositions(spec, 5, 2, target)

    def test_budget_enforced(self):
        spec = SegreVeroneseSpec.parse("1,1")
        witness = phimap.random_secant_point(spec, 0, 2, seed=1, p=5)
        with pytest.raises(phimap.BudgetExceededError):
            phimap.count_decompositions(spec, 5, 2, witness.tensor, budget=10)

    def test_large_field_rejected(self):
        spec = SegreVeroneseSpec.parse("1,1")
        witness = phimap.random_secant_point(spec, 0, 2, seed=1, p=5)
        with pytest.raises(ValueError):
            phimap.count_decompositions(spec, 11, 2, witness.tensor)

    def test_prime_power_field_rejected(self):
        # Z/4 is not the field F_4, so q = 4 must not enumerate
        spec = SegreVeroneseSpec.parse("1,1")
        witness = phimap.random_secant_point(spec, 0, 2, seed=1, p=5)
        with pytest.raises(ValueError, match="enumeration"):
            phimap.count_decompositions(spec, 4, 2, witness.tensor)
