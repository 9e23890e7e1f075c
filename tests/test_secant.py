"""Secant dimensions, defects, generic ranks and range classification."""

import dataclasses
import math
import os
import random
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import reference
from test_criteria import CENSUS_SPECS
from grasec import field, reproduce, secant, varieties
from grasec.errors import InconsistencyError
from grasec.varieties import SegreVeroneseSpec, prepend_projective_factor

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
        # the coordinate attempt, then trials x primes
        rep = secant.secant_dim(SegreVeroneseSpec.parse("2,2"), 2, trials=2)
        assert rep.trials_used == 2 * 2 + 1 and rep.primes_used == field.DEFAULT_PRIMES

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

    @staticmethod
    def _spy(monkeypatch, short=False) -> list:
        """Record every secant_dim call; ``short`` makes each report's dim r - 1, so none fills."""
        real, calls = secant.secant_dim, []

        def spy(*args, **kwargs):
            calls.append((args, kwargs))
            rep = real(*args, **kwargs)
            return dataclasses.replace(rep, dim=rep.spec.ambient_dim - 1) if short else rep

        monkeypatch.setattr(secant, "secant_dim", spy)
        return calls

    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("text", ["1,1,1,1,1", "3,3,3", "1,1", "2:2", "1,3,3", "2,2"])
    def test_walk_matches_ascending_loop(self, text, seed, monkeypatch):
        spec = SegreVeroneseSpec.parse(text)
        calls = self._spy(monkeypatch)
        rank = secant.generic_rank(spec, seed=seed)
        walk = calls[:]
        calls.clear()
        assert rank == reference.generic_rank(spec, seed=seed)
        assert walk == calls

    def test_none_filling_raises(self, monkeypatch):
        spec = SegreVeroneseSpec.parse("1,1")
        calls = self._spy(monkeypatch, short=True)
        message = "^no filling secant variety found for 1,1 up to s = r \\+ 1$"
        with pytest.raises(InconsistencyError, match=message):
            secant.generic_rank(spec)
        walk = calls[:]
        calls.clear()
        with pytest.raises(InconsistencyError, match=message):
            reference.generic_rank(spec)
        assert walk == calls and [args[1] for args, _ in calls] == [2, 3, 4]


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

    @pytest.mark.parametrize("text,orders", [
        ("1,1,1,1,1", range(1, 9)), ("2,2", range(1, 6)), ("2:2", range(1, 7)),
    ])
    def test_propagated_reports_ran_nothing(self, text, orders):
        reports = secant.classify_secant_range(SegreVeroneseSpec.parse(text), orders)
        assert any(rep.propagated for rep in reports)
        for rep in reports:
            assert rep.propagated == (rep.trials_used == 0) == rep.to_dict()["propagated"]
            assert (rep.primes_used == ()) == rep.propagated

    def test_propagated_dims_match_direct_computation(self):
        spec = SegreVeroneseSpec.parse("1,1,1")
        for rep in secant.classify_secant_range(spec, range(1, 5)):
            direct = secant.secant_dim(spec, rep.s)
            assert rep.dim == direct.dim


def _veronese_specs(max_r: int) -> list[str]:
    """Every n:d with n <= 5 and 2 <= d <= 5 whose ambient dimension is at most max_r."""
    return [f"{n}:{d}" for n in range(1, 6) for d in range(2, 6)
            if math.comb(n + d, n) - 1 <= max_r]


def _alexander_hirschowitz_defective(n: int, d: int, s: int) -> bool:
    """Alexander-Hirschowitz (1995): when sigma_s(v_d(P^n)) is defective."""
    return (d == 2 and 2 <= s <= n) or (n, d, s) in {(2, 4, 5), (3, 4, 9), (4, 4, 14), (4, 3, 7)}


class TestDefectivityOracle:
    """The engine against classical classifications, not against its own slow path."""

    @pytest.mark.parametrize("text", _veronese_specs(130))
    def test_veronese_matches_alexander_hirschowitz(self, text):
        spec = SegreVeroneseSpec.parse(text)
        (n, d), = spec.factors
        top = math.ceil((spec.ambient_dim + 1) / (n + 1))
        reports = secant.classify_secant_range(spec, range(1, top + 1))
        assert [rep.defect > 0 for rep in reports] == [
            _alexander_hirschowitz_defective(n, d, s) for s in range(1, top + 1)
        ]

    @pytest.mark.parametrize("text,s", [("1,1,1,1", 3), ("2,2,2", 4), ("1,1,3", 3), ("2,3,3", 5)])
    def test_known_defective_segre_products(self, text, s):
        # Abo, Ottaviani & Peterson, Trans. AMS 2009
        assert secant.secant_dim(SegreVeroneseSpec.parse(text), s).defect == 1


def _random_only(spec, s, seed=0, primes=field.DEFAULT_PRIMES):
    """dim sigma_s from the random trials alone, without the coordinate attempt."""
    return secant._max_rank(lambda rng, p: secant.terracini_rank(spec, s, rng, p),
                            secant.expected_secant_dim(spec, s), secant.DEFAULT_TRIALS, seed,
                            primes)[0]


# the benchmark's secant_dim rows, r = 124, 241, 511, 611
SECANT_SCALE = (("4,4,4", 10), ("2,2,2,2,2", 22), ("1,1,1,1,1,1,1,1,1", 52), ("4,4,4,4", 36))


class TestPacking:
    """The coordinate packing the attempt draws from, built once per spec."""

    @pytest.mark.parametrize("text", ["1,1,1,1", "2:3,1", "3:2,2", "4,4,4"])
    def test_supports_are_disjoint_in_the_frames(self, text):
        spec = SegreVeroneseSpec.parse(text)
        packing = secant._packing(spec)
        points = reference.coordinate_points(spec)
        frames = varieties.tangent_frame(spec, [points[v] for v in packing], field.DEFAULT_PRIME)
        columns = [c for frame in frames for row in frame for c in np.flatnonzero(row)]
        assert len(columns) == len(set(columns)) == len(packing) * (spec.dim + 1)

    @pytest.mark.parametrize("text", ["1,1,1,1", "2:3,1", "3:2,2", "4,4,4", "1:5", "2,2,2,2,2"])
    def test_is_maximal(self, text):
        spec = SegreVeroneseSpec.parse(text)
        supports = varieties._coordinate_supports(spec).tolist()
        packing = secant._packing(spec)
        covered = {c for v in packing for c in supports[v]}
        assert list(packing) == sorted(set(packing))
        assert all(covered.intersection(supports[v]) for v in range(len(supports)) if v not in packing)

    def test_does_not_depend_on_the_hash_seed(self):
        code = ("from grasec import secant, varieties\n"
                "for text in ('3:2,2', '2,2,2,2,2', '1,1,1,1,1,1,1,1,1'):\n"
                "    print(secant._packing(varieties.SegreVeroneseSpec.parse(text)))\n")
        src = str(Path(secant.__file__).resolve().parents[1])
        outputs = {subprocess.run([sys.executable, "-c", code], capture_output=True, check=True,
                                  env=dict(os.environ, PYTHONPATH=src, PYTHONHASHSEED=seed)).stdout
                   for seed in ("1", "2")}
        here = "".join(f"{secant._packing(SegreVeroneseSpec.parse(text))}\n"
                       for text in ("3:2,2", "2,2,2,2,2", "1,1,1,1,1,1,1,1,1"))
        assert outputs == {here.encode()}

    @pytest.mark.parametrize("text,size", [("4,4,4", 5), ("2,2,2,2,2", 18),
                                           ("1,1,1,1,1,1,1,1,1", 40), ("4,4,4,4", 25)])
    def test_sizes_on_the_benchmark_specs(self, text, size):
        # the optimal codes of minimum distance 3: A_5(3,3), A_3(5,3), A(9,3), A_5(4,3)
        assert len(secant._packing(SegreVeroneseSpec.parse(text))) == size

    # what a search through all PACKING_ROUNDS returns: stopping once an
    # all-degree-1 spec meets its Singleton bound must not change it
    PINNED = {
        "4,4,4": (10, 46, 52, 93, 109),
        "3,3,3": (10, 29, 35, 52),
        "2,2,2,2,2": (2, 12, 33, 49, 64, 80, 85, 105, 124, 128, 135, 149, 179, 181, 194, 198,
                      223, 237),
        "1,1,1,1,1,1,1,1,1": (3, 22, 36, 47, 56, 72, 93, 98, 113, 126, 138, 159, 169, 178, 181,
                              193, 212, 231, 236, 251, 256, 283, 284, 298, 311, 325, 334, 338,
                              361, 372, 390, 397, 401, 419, 446, 459, 471, 472, 480, 509),
        "4,4,4,4": (19, 30, 63, 76, 122, 133, 162, 196, 215, 229, 270, 278, 317, 339, 356, 386,
                    424, 425, 457, 493, 502, 541, 559, 598, 610),
    }

    @pytest.mark.parametrize("text", sorted(PINNED))
    def test_pinned_packings(self, text):
        assert secant._packing(SegreVeroneseSpec.parse(text)) == self.PINNED[text]


class TestCoordinateAttempt:
    """The coordinate-point certificate against the random-only route and a dense rank."""

    @pytest.mark.parametrize("text,s", [("1,1,1,1", 3), ("1,1,1,1", 4), ("2,2", 2), ("2:3", 3),
                                        ("3:2,2", 4), ("1,1,1", 2), ("2:2,1", 5)])
    @pytest.mark.parametrize("seed", [0, 1])
    def test_residual_rank_matches_the_whole_matrix(self, text, s, seed):
        spec = SegreVeroneseSpec.parse(text)
        fast = secant.terracini_rank(spec, s, random.Random(seed), 101, coordinates=True)
        assert fast == reference.coordinate_terracini_rank(spec, s, random.Random(seed), 101)

    # packings of 2, 9, 2 and 2 points: the first two hold s and rank
    # nothing, the others rank a residual
    @pytest.mark.parametrize("text,s", [("1,1,1", 2), ("3,2,2,2", 5), ("1,1,1,1", 3),
                                        ("2:2,1", 5)])
    @pytest.mark.parametrize("p", [2, 3, 101, field.DEFAULT_PRIME])
    def test_matches_the_whole_matrix_on_every_prime(self, text, s, p, monkeypatch):
        spec = SegreVeroneseSpec.parse(text)
        ranks = []
        monkeypatch.setattr(field, "matrix_rank",
                            lambda rows, p, real=field.matrix_rank: ranks.append(p) or real(rows, p))
        fast = secant.terracini_rank(spec, s, random.Random(7), p, coordinates=True)
        assert fast == reference.coordinate_terracini_rank(spec, s, random.Random(7), p)
        assert bool(ranks) == (len(secant._packing(spec)) < s)

    @pytest.mark.parametrize("text", CENSUS_SPECS)
    def test_packing_never_claims_more_than_random_points(self, text):
        # every s the packing holds is certified by the attempt alone, and the
        # random trials reach the same dimension
        spec = SegreVeroneseSpec.parse(text)
        primes = (field.DEFAULT_PRIME,)
        for s in range(1, len(secant._packing(spec)) + 1):
            rep = secant.secant_dim(spec, s, primes=primes)
            assert rep.trials_used == 1, s
            expected = secant.expected_secant_dim(spec, s)
            assert rep.dim == expected == _random_only(spec, s, primes=primes), s

    @pytest.mark.parametrize("text,s", SECANT_SCALE)
    def test_certifies_the_benchmark_rows_alone(self, text, s):
        spec = SegreVeroneseSpec.parse(text)
        rep = secant.secant_dim(spec, s, trials=1, primes=(field.DEFAULT_PRIME,))
        assert rep.trials_used == 1 and rep.primes_used == (field.DEFAULT_PRIME,)
        assert rep.dim == rep.expected_dim == _random_only(spec, s)

    @pytest.mark.parametrize("text,s", SECANT_SCALE + (("1,1,1,1,1,1,1,1,1,1", 94),))
    def test_certifies_alone_on_ten_seeds(self, text, s):
        spec = SegreVeroneseSpec.parse(text)
        for seed in range(10):
            rep = secant.secant_dim(spec, s, trials=1, seed=seed, primes=(field.DEFAULT_PRIME,))
            assert rep.trials_used == 1 and rep.dim == rep.expected_dim, seed

    def test_matches_random_route_on_catalog_grid(self):
        for text in reproduce.PHI_GRID_SPECS:
            spec = SegreVeroneseSpec.parse(text)
            for k in reproduce.PHI_GRID_K:
                seg = prepend_projective_factor(spec, k)
                for s in reproduce.PHI_GRID_S:
                    assert secant.secant_dim(seg, s).dim == _random_only(seg, s), (text, k, s)

    @pytest.mark.parametrize("text", _veronese_specs(130))
    def test_matches_random_route_on_veronese_oracle_cells(self, text):
        spec = SegreVeroneseSpec.parse(text)
        for s in range(1, math.ceil((spec.ambient_dim + 1) / (spec.dim + 1)) + 1):
            assert secant.secant_dim(spec, s).dim == _random_only(spec, s), s

    @pytest.mark.parametrize("text,s", [("1,1,1,1", 3), ("2,2,2", 4), ("1,1,3", 3), ("2,3,3", 5)])
    def test_defective_results_come_from_the_trials(self, text, s, monkeypatch):
        spec = SegreVeroneseSpec.parse(text)
        calls = []
        rank = secant.terracini_rank

        def recorded(spec, s, rng, p, coordinates=False):
            calls.append((p, coordinates))
            return rank(spec, s, rng, p, coordinates)

        monkeypatch.setattr(secant, "terracini_rank", recorded)
        rep = secant.secant_dim(spec, s)
        # the attempt first, on the first prime, then every trial
        assert calls == [(field.DEFAULT_PRIME, True)] + [
            (p, False) for p in field.DEFAULT_PRIMES for _ in range(secant.DEFAULT_TRIALS)]
        assert rep.trials_used == len(calls) and rep.defect == 1
        assert rep.dim == _random_only(spec, s)


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
