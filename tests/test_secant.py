"""Secant dimensions, defects, generic ranks and range classification."""

import dataclasses
import itertools
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
from grasec import field, grassec, reproduce, secant, varieties
from grasec.errors import BudgetExceededError, InconsistencyError
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

    def test_huge_range_rejected_without_iterating_it(self):
        # min() and max() of range(1, 10**9) take a minute; its ends are read directly
        with pytest.raises(ValueError, match="got k=0, s=999999999, r=3$"):
            secant.classify_secant_range(SegreVeroneseSpec.parse("1,1"), range(1, 10**9))

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

    def test_every_prime_is_checked_before_any_evaluation(self):
        # the first prime would meet the bound at once; the composite second one still raises
        calls = []

        def rank_at(rng, p):
            calls.append(p)
            return 3

        with pytest.raises(ValueError, match="modulus 4 is not prime"):
            secant._max_rank(rank_at, 3, 1, 0, (7, 4))
        assert calls == []

    def test_rank_above_bound_raises(self):
        with pytest.raises(InconsistencyError, match="exceeds the expected dimension 3"):
            secant._max_rank(lambda rng, p: 4, 3, 1, 0, (7,))

    def test_arrays_take_the_entrywise_maximum_until_every_bound_is_met(self):
        values = iter([[1, 5, 2], [3, 4, 2], [2, 5, 6], [9, 9, 9]])
        dim, ran = secant._max_rank(lambda rng, p: np.array(next(values)), [3, 5, 6], 2, 0, (7, 11))
        assert dim == [3, 5, 6] and ran == (7, 7, 11)
        assert all(type(value) is int for value in dim)

    def test_array_entry_above_its_bound_raises_naming_it(self):
        with pytest.raises(InconsistencyError,
                           match="^computed dimension 7 exceeds the expected dimension 6$"):
            secant._max_rank(lambda rng, p: np.array([1, 7, 2]), [3, 6, 1], 1, 0, (7,))


class TestGenericRank:
    def test_pencils(self):
        assert secant.generic_rank(PENCILS) == 6

    def test_cubes(self):
        assert secant.generic_rank(CUBES) == 7

    def test_two_by_two_matrices(self):
        assert secant.generic_rank(SegreVeroneseSpec.parse("1,1")) == 2

    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("text", ["1,1,1,1,1", "3,3,3", "1,1", "2:2", "1,3,3", "2,2"])
    def test_walk_matches_ascending_loop(self, text, seed):
        spec = SegreVeroneseSpec.parse(text)
        assert secant.generic_rank(spec, seed=seed) == reference.generic_rank(spec, seed=seed)

    def test_none_filling_raises(self, monkeypatch):
        # every report's dim made r - 1, so none fills: the top order doubles up to r + 1
        real, calls = secant.classify_secant_range, []

        def short(spec, orders, **kwargs):
            calls.append((orders[0], orders[-1]))
            return [dataclasses.replace(rep, dim=spec.ambient_dim - 1)
                    for rep in real(spec, orders, **kwargs)]

        monkeypatch.setattr(secant, "classify_secant_range", short)
        for text, ranges in (("1,1", [(2, 2), (2, 4)]),  # f = 2, r + 1 = 4
                             ("1,1,1,1,1", [(6, 6), (6, 12), (6, 24), (6, 32)])):  # f = 6, r + 1 = 32
            calls.clear()
            message = f"^no filling secant variety found for {text} up to s = r \\+ 1$"
            with pytest.raises(InconsistencyError, match=message):
                secant.generic_rank(SegreVeroneseSpec.parse(text), trials=1)
            assert calls == ranges, text


class TestClassifyRange:
    """A range is read off one evaluation sequence at its top order."""

    def test_empty_range_raises_before_any_evaluation(self, monkeypatch):
        calls = self._spy(monkeypatch)
        with pytest.raises(ValueError, match="need at least one order s"):
            secant.classify_secant_range(SegreVeroneseSpec.parse("2,2"), range(3, 1))
        assert calls == []

    @staticmethod
    def _spy(monkeypatch) -> list:
        """Record the (s, coordinates) of every terracini_rank call."""
        real, calls = secant.terracini_rank, []

        def spy(spec, s, rng, p, coordinates=False):
            calls.append((s, coordinates))
            return real(spec, s, rng, p, coordinates)

        monkeypatch.setattr(secant, "terracini_rank", spy)
        return calls

    @pytest.mark.parametrize("text,orders", [
        ("1,1,1,1,1", range(1, 9)), ("2,2", range(1, 6)), ("2:2", range(1, 7)),
        ("1,1,1", range(1, 5)), ("2,2", range(4, 6)), ("1,1,1,1", range(2, 5)),
    ])
    def test_dims_match_single_orders(self, text, orders, monkeypatch):
        spec = SegreVeroneseSpec.parse(text)
        calls = self._spy(monkeypatch)
        reports = secant.classify_secant_range(spec, orders)
        ran, top = calls[:], max(orders)
        # the attempt first, then random trials only, every one at the top order
        assert ran[0] == (top, True) and set(ran[1:]) <= {(top, False)}
        assert [rep.s for rep in reports] == list(orders)
        for rep in reports:
            assert rep.trials_used == len(ran) and rep.to_dict()["trials_used"] == len(ran)
            assert rep.primes_used == field.DEFAULT_PRIMES[:1 + (len(ran) > 4)]
            assert "propagated" not in rep.to_dict()
            assert rep.dim == secant.secant_dim(spec, rep.s).dim, rep.s

    # the walk's two monotonicity rules are properties of prefixes, so every
    # profile, and the entrywise maximum of profiles, obeys them unasked
    MONOTONE = ("1,1,1,1,1", "3,3,3", "2:2", "2,2", "1,1,1,1", "2:3,1")

    def test_fill_propagates_upward(self):
        for text in self.MONOTONE:
            spec = SegreVeroneseSpec.parse(text)
            top = secant._fill_floor(spec) + 2
            for seed, coordinates in itertools.product(range(3), (False, True)):
                dims = secant.terracini_rank(spec, top, random.Random(seed), 101, coordinates)
                fills = dims == spec.ambient_dim
                assert not (fills[:-1] & ~fills[1:]).any(), (text, seed, coordinates)
            fills = [rep.fills_ambient for rep in secant.classify_secant_range(spec, range(1, top + 1))]
            assert fills == sorted(fills) and fills[-1], text

    def test_nondefective_propagates_downward(self):
        for text in self.MONOTONE:
            spec = SegreVeroneseSpec.parse(text)
            top, n1 = secant._fill_floor(spec) + 2, spec.dim + 1
            for seed, coordinates in itertools.product(range(3), (False, True)):
                dims = secant.terracini_rank(spec, top, random.Random(seed), 101, coordinates)
                free = dims == np.arange(1, top + 1) * n1 - 1  # no relation among the frames yet
                assert not (~free[:-1] & free[1:]).any(), (text, seed, coordinates)
            reports = secant.classify_secant_range(spec, range(1, top + 1))
            free = [rep.dim == rep.s * n1 - 1 for rep in reports]
            assert free == sorted(free, reverse=True) and free[0], text

    @pytest.mark.parametrize("spec,orders,ran,dims", [
        # the attempt's four packing points and one random point give sigma_5 = 27 < 29
        (PENCILS, range(1, 9), 2, [5, 11, 17, 23, 29, 31, 31, 31]),
        (CUBES, range(1, 10), 1, [9, 19, 29, 39, 49, 59, 63, 63, 63]),
    ])
    def test_stops_once_every_order_is_certified(self, spec, orders, ran, dims, monkeypatch):
        calls = self._spy(monkeypatch)
        reports = secant.classify_secant_range(spec, orders)
        assert calls == [(max(orders), True)] + [(max(orders), False)] * (ran - 1)
        assert [rep.dim for rep in reports] == dims
        assert all(rep.defect == 0 and rep.trials_used == ran for rep in reports)

    def test_defective_entry_forces_computation(self, monkeypatch):
        # sigma_2 of 3x3 matrices is defective, so no evaluation meets every bound
        calls = self._spy(monkeypatch)
        reports = secant.classify_secant_range(SegreVeroneseSpec.parse("2,2"), range(1, 4))
        assert [rep.defect for rep in reports] == [0, 1, 0]
        assert calls == [(3, True)] + [(3, False)] * (2 * secant.DEFAULT_TRIALS)
        assert all(rep.trials_used == 7 and rep.primes_used == field.DEFAULT_PRIMES
                   for rep in reports)


def _veronese_specs(max_r: int) -> list[str]:
    """Every n:d with n <= 5 and 2 <= d <= 5 whose ambient dimension is at most max_r."""
    return [f"{n}:{d}" for n in range(1, 6) for d in range(2, 6)
            if math.comb(n + d, n) - 1 <= max_r]


def _alexander_hirschowitz_defective(n: int, d: int, s: int) -> bool:
    """Alexander-Hirschowitz (1995): when sigma_s(v_d(P^n)) is defective."""
    return (d == 2 and 2 <= s <= n) or (n, d, s) in {(2, 4, 5), (3, 4, 9), (4, 4, 14), (4, 3, 7)}


def _segre_formats(max_size: int, prefix: tuple[int, ...] = (), size: int = 1):
    """Every n_1 <= ... <= n_t with t >= 3, each n_i >= 1 and prod(n_i + 1) <= max_size."""
    if len(prefix) >= 3:
        yield prefix
    n = prefix[-1] if prefix else 1
    while size * (n + 1) <= max_size:
        yield from _segre_formats(max_size, prefix + (n,), size * (n + 1))
        n += 1


def _abo_ottaviani_peterson_defective(dims: tuple[int, ...], s: int) -> bool:
    """When sigma_s(P^n_1 x ... x P^n_t), t >= 3 and n_1 <= ... <= n_t, is defective.

    The list of Abo, Ottaviani & Peterson (Trans. AMS 2009), with (P^1)^4 at
    s = 3 from Catalisano, Geramita & Gimigliano (2011): the unbalanced
    case, a - b < s < min(n_t + 1, a) with a = prod(n_i + 1) and
    b = sum(n_i) over i < t; P^2 x P^n x P^n, n even, at s = 3n/2 + 1;
    P^2 x P^3 x P^3 at s = 5; and P^1 x P^1 x P^n x P^n at s = 2n + 1.
    """
    *rest, top = dims
    a, b = math.prod(n + 1 for n in rest), sum(rest)
    return (a - b < s < min(top + 1, a)
            or (len(dims) == 3 and dims[0] == 2 and dims[1] == top and top % 2 == 0
                and s == 3 * top // 2 + 1)
            or (dims == (2, 3, 3) and s == 5)
            or (len(dims) == 4 and dims[:2] == (1, 1) and dims[2] == top and s == 2 * top + 1))


def segre_oracle(max_size: int) -> tuple[int, int, int, list]:
    """Formats, cells, defective cells and oracle mismatches of every Segre format up to max_size.

    Each format is classified from s = 1 up to its generic rank, one trial
    per prime; run from the repository root as
    ``PYTHONPATH=src:tests python -c 'from test_secant import segre_oracle; print(segre_oracle(256))'``.
    """
    formats, cells, defective, mismatches = 0, 0, 0, []
    for dims in _segre_formats(max_size):
        spec = SegreVeroneseSpec.parse(",".join(map(str, dims)))
        rank = secant.generic_rank(spec, trials=1)
        formats += 1
        for rep in secant.classify_secant_range(spec, range(1, rank + 1), trials=1):
            cells += 1
            defective += rep.defect > 0
            if (rep.defect > 0) != _abo_ottaviani_peterson_defective(dims, rep.s):
                mismatches.append((dims, rep.s, rep.defect))
    return formats, cells, defective, mismatches


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

    def test_segre_products_match_abo_ottaviani_peterson(self):
        # every format with at least three factors and r + 1 <= 128, walked up
        # to its generic rank; CI runs the same census up to r + 1 <= 256
        assert segre_oracle(128) == (169, 1226, 168, [])


def _random_only(spec, s, seed=0, primes=field.DEFAULT_PRIMES):
    """dim sigma_s from the random trials alone, without the coordinate attempt."""
    return secant._max_rank(lambda rng, p: secant.terracini_rank(spec, s, rng, p)[-1],
                            secant.expected_secant_dim(spec, s), secant.DEFAULT_TRIALS, seed,
                            primes)[0]


# the benchmark's secant_dim rows, r = 124, 241, 511, 611
SECANT_SCALE = (("4,4,4", 10), ("2,2,2,2,2", 22), ("1,1,1,1,1,1,1,1,1", 52), ("4,4,4,4", 36))


def _unbuilt(*args, **kwargs):
    raise AssertionError("built before the size check")


class TestSizeCheck:
    @pytest.mark.parametrize("text,s", [
        ("30:30", 2),       # C(60, 30) monomials in the power-rule table
        (",".join("1" * 20), 2),  # a packing of 2**20 bitsets of 2**20 bits
        (",".join("1" * 14), 16384),  # a frame stack of 16384 x 15 x 16384 entries
    ])
    def test_oversized_input_raises_before_anything_is_built(self, text, s, monkeypatch):
        monkeypatch.setattr(varieties, "_power_rule", _unbuilt)
        monkeypatch.setattr(varieties, "tangent_frame", _unbuilt)
        monkeypatch.setattr(secant, "_packing", _unbuilt)
        spec = SegreVeroneseSpec.parse(text)
        for call in (lambda: secant.secant_dim(spec, s), lambda: grassec.gs_dim_direct(spec, 1, s)):
            with pytest.raises(BudgetExceededError, match="above the budget of 100000000"):
                call()

    def test_every_test_and_benchmark_input_fits(self):
        # the largest orders any test, golden, CI step or benchmark row reaches:
        # the r + 1 <= 256 oracle at s = r + 1, 1^10 at s = 94 and 1^11 at s = 171
        cases = [(",".join(map(str, dims)), None) for dims in _segre_formats(256)]
        cases += [*SECANT_SCALE, (",".join("1" * 10), 94), (",".join("1" * 11), 171)]
        for text, s in cases:
            spec = SegreVeroneseSpec.parse(text)
            secant._check_size(spec, s or spec.ambient_dim + 1)
            secant._check_size(prepend_projective_factor(spec, 3), 5)  # gs_report at k = 3


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
        assert fast.tolist() == reference.coordinate_terracini_rank(spec, s, random.Random(seed), 101)

    # packings of 2, 9, 2 and 2 points: the first two hold s and rank
    # nothing, the others rank a residual
    @pytest.mark.parametrize("text,s", [("1,1,1", 2), ("3,2,2,2", 5), ("1,1,1,1", 3),
                                        ("2:2,1", 5)])
    @pytest.mark.parametrize("p", [2, 3, 101, field.DEFAULT_PRIME])
    def test_matches_the_whole_matrix_on_every_prime(self, text, s, p, monkeypatch):
        spec = SegreVeroneseSpec.parse(text)
        ranks = []
        monkeypatch.setattr(field, "rank_profile",
                            lambda rows, p, real=field.rank_profile: ranks.append(p) or real(rows, p))
        fast = secant.terracini_rank(spec, s, random.Random(7), p, coordinates=True)
        assert fast.tolist() == reference.coordinate_terracini_rank(spec, s, random.Random(7), p)
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

    @pytest.mark.parametrize("text,s", SECANT_SCALE)
    def test_profile_is_packing_plus_residual_prefix_ranks(self, text, s, monkeypatch):
        # entry t - 1 is min(t, c)(n+1) - 1 plus the rank of the residual's first
        # (t - c)(n+1) rows; the last entry is c(n+1) + rank(residual) - 1
        spec, p = SegreVeroneseSpec.parse(text), field.DEFAULT_PRIME
        residuals, profile = [], field.rank_profile
        monkeypatch.setattr(field, "rank_profile",
                            lambda rows, p: residuals.append(rows) or profile(rows, p))
        dims = secant.terracini_rank(spec, s, random.Random(secant.subseed(0, -1, p)), p,
                                     coordinates=True)
        (rows,) = residuals
        n1 = spec.dim + 1
        c = s - len(rows) // n1
        assert dims[-1] == c * n1 + field.matrix_rank(rows, p) - 1 == secant.expected_secant_dim(spec, s)
        assert dims.tolist() == [min(t, c) * n1 - 1 + field.matrix_rank(rows[:max(t - c, 0) * n1], p)
                                 for t in range(1, s + 1)]

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
