"""Secant dimensions, defects, generic ranks and range classification."""

import random

import pytest

from grasec import field, secant
from grasec.errors import InconsistencyError
from grasec.varieties import SegreVeroneseSpec

PENCILS = SegreVeroneseSpec.parse("1,1,1,1,1")
CUBES = SegreVeroneseSpec.parse("3,3,3")


class TestExpectedDim:
    def test_filling_case(self):
        assert secant.expected_secant_dim(PENCILS, 6) == 31

    def test_first_secant_is_the_variety(self):
        spec = SegreVeroneseSpec.parse("2:2")
        assert secant.expected_secant_dim(spec, 1) == spec.dim

    def test_matrix_triple(self):
        assert secant.expected_secant_dim(CUBES, 7) == 63


class TestSecantDim:
    def test_pencils_sigma6_fills(self):
        rep = secant.secant_dim(PENCILS, 6)
        assert rep.dim == 31 and rep.fills_ambient and rep.defect == 0

    def test_pencils_sigma5(self):
        rep = secant.secant_dim(PENCILS, 5)
        assert rep.dim == 29 and rep.defect == 0 and not rep.fills_ambient

    def test_defective_three_by_three(self):
        # 3x3 matrices of rank <= 2 form the determinant hypersurface (dim 7)
        rep = secant.secant_dim(SegreVeroneseSpec.parse("2,2"), 2)
        assert rep.dim == 7 and rep.expected_dim == 8 and rep.defect == 1

    def test_cubes_sigma7_fills(self):
        rep = secant.secant_dim(CUBES, 7)
        assert rep.dim == 63 and rep.fills_ambient

    def test_certification_labels(self):
        exact = secant.secant_dim(PENCILS, 6)
        assert "exact" in exact.certification
        defective = secant.secant_dim(SegreVeroneseSpec.parse("2,2"), 2)
        assert "defective" in defective.certification

    def test_invalid_s_rejected(self):
        with pytest.raises(ValueError):
            secant.secant_dim(PENCILS, 0)

    @pytest.mark.parametrize("budget", [{"trials": 0}, {"primes": ()}])
    def test_empty_budget_rejected(self, budget):
        with pytest.raises(ValueError):
            secant.secant_dim(PENCILS, 3, **budget)

    @pytest.mark.parametrize("route", [
        secant.secant_dim,
        pytest.param(lambda spec, s: secant.classify_secant_range(spec, range(1, s + 1)),
                     id="classify_secant_range"),
    ])
    def test_order_above_r_plus_one_rejected_before_sampling(self, route, monkeypatch):
        # 2x2 matrices have r = 3: sigma_4 fills P^3 and s = 5 says nothing new
        matrices = SegreVeroneseSpec.parse("1,1")
        assert route(matrices, 4)
        monkeypatch.setattr(secant, "terracini_rank", None)
        with pytest.raises(ValueError, match="need k >= 0, s >= 1 and s - 1 <= r, got k=0, s=5, r=3"):
            route(matrices, 5)

    def test_repeated_prime_rejected(self):
        # trial t on prime p always draws the same points, so p twice reruns them
        p = field.DEFAULT_PRIMES[0]
        with pytest.raises(ValueError, match="once"):
            secant.secant_dim(PENCILS, 3, primes=(p, p))


class TestTrialLedger:
    def test_stops_at_first_certifying_trial(self):
        rep = secant.secant_dim(PENCILS, 3)
        assert rep.trials_used == 1
        assert rep.to_dict()["primes_used"] == [field.DEFAULT_PRIME]

    def test_defective_runs_the_whole_budget(self):
        rep = secant.secant_dim(SegreVeroneseSpec.parse("2,2"), 2, trials=2)
        assert rep.trials_used == 4 and rep.primes_used == field.DEFAULT_PRIMES

    def test_loop_order_and_seeds(self):
        calls = []

        def rank_at(rng, p):
            calls.append((rng.random(), p))
            return 2 if len(calls) < 4 else 3

        dim, ran = secant._max_rank(rank_at, 3, 2, 5, (7, 11, 13))
        assert dim == 3 and ran == (7, 7, 11, 11)
        expected = [(random.Random(secant.subseed(5, t, p)).random(), p)
                    for p in (7, 11) for t in range(2)]
        assert calls == expected

    def test_evaluation_cap(self):
        calls = []

        def rank_at(rng, p):
            calls.append(p)
            return 3

        with pytest.raises(ValueError, match="65 rank evaluations, above the cap of 64"):
            secant._max_rank(rank_at, 3, 13, 0, (7, 11, 13, 17, 19))
        assert calls == []
        assert secant._max_rank(rank_at, 3, 32, 0, (7, 11)) == (3, (7,))

    def test_rank_above_bound_raises(self):
        with pytest.raises(InconsistencyError, match="exceeds the expected dimension 3"):
            secant._max_rank(lambda rng, p: 4, 3, 1, 0, (7,))


class TestGenericRank:
    def test_pencils(self):
        assert secant.generic_rank(PENCILS) == 6

    def test_cubes(self):
        assert secant.generic_rank(CUBES) == 7

    def test_two_by_two_matrices(self):
        assert secant.generic_rank(SegreVeroneseSpec.parse("1,1")) == 2


class TestClassifyRange:
    def test_fill_propagates_upward(self):
        reports = secant.classify_secant_range(PENCILS, range(1, 9))
        assert [rep.s for rep in reports] == list(range(1, 9))
        assert reports[6].propagated and reports[7].propagated
        assert reports[6].dim == reports[7].dim == 31
        assert reports[6].trials_used == 0 and reports[6].primes_used == ()

    def test_nondefective_propagates_downward(self):
        reports = secant.classify_secant_range(PENCILS, range(1, 9))
        for rep in reports[:5]:
            assert rep.defect == 0
        # s <= 4 are filled in by monotonicity from the computed s = 5
        assert all(rep.propagated for rep in reports[:4])

    def test_defective_entry_forces_computation(self):
        reports = secant.classify_secant_range(SegreVeroneseSpec.parse("2,2"), range(1, 4))
        assert [rep.defect for rep in reports] == [0, 1, 0]
        assert not any(rep.propagated for rep in reports)

    def test_propagated_dims_match_direct_computation(self):
        spec = SegreVeroneseSpec.parse("1,1,1")
        for rep in secant.classify_secant_range(spec, range(1, 5)):
            direct = secant.secant_dim(spec, rep.s)
            assert rep.dim == direct.dim


class TestInvariants:
    def test_monotone_in_s(self):
        spec = SegreVeroneseSpec.parse("2:3")
        dims = [secant.secant_dim(spec, s).dim for s in range(1, 6)]
        for lo, hi in zip(dims, dims[1:]):
            assert lo <= hi <= lo + spec.dim + 1

    def test_determinism(self):
        a = secant.secant_dim(PENCILS, 5, seed=3)
        b = secant.secant_dim(PENCILS, 5, seed=3)
        assert a == b

    def test_two_prime_agreement(self):
        for spec_text, s in (("1,1,1,1,1", 5), ("2,2", 2), ("2:2", 3)):
            spec = SegreVeroneseSpec.parse(spec_text)
            dims = {
                secant.secant_dim(spec, s, primes=(p,)).dim
                for p in field.DEFAULT_PRIMES
            }
            assert len(dims) == 1

    def test_subseed_is_stable_and_spread(self):
        a = secant.subseed(7, 0, field.DEFAULT_PRIME)
        assert a == secant.subseed(7, 0, field.DEFAULT_PRIME)
        assert a != secant.subseed(7, 1, field.DEFAULT_PRIME)
        assert a != secant.subseed(7, 0, field.CONFIRMATION_PRIME)
