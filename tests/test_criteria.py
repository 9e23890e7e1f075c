"""Identifiability criteria, case classification and the literature catalog."""

import dataclasses
import json
import math
import random

import pytest

from grasec import cli, criteria, field, grassec, phimap, reproduce, secant
from grasec.criteria import FAILS, HOLDS, NOT_DECIDED
from grasec.errors import InconsistencyError
from grasec.varieties import SegreVeroneseSpec, prepend_projective_factor


def _classify_to_generic_rank(spec, **budget):
    """The filling order by generic_rank search, then the range classification, for k = r - n."""
    seg = prepend_projective_factor(spec, spec.ambient_dim - spec.dim)
    fill = secant.generic_rank(seg, **budget)
    reports = secant.classify_secant_range(seg, range(1, fill + 1), **budget)
    for rep in reports:
        if rep.defect != 0:
            raise InconsistencyError(
                f"defect {rep.defect} at s = {rep.s} on {seg}, expected none for k = r - n"
            )
    return reports


def _case_id(text):
    """A never-defective case named by its spec and k = r - n, e.g. ``2:2-3``."""
    spec = SegreVeroneseSpec.parse(text)
    return f"{text}-{spec.ambient_dim - spec.dim}"


KS_RULE = "need k >= 0, s >= 1 and s - 1 <= r"
P = field.DEFAULT_PRIME
CURVE_10 = SegreVeroneseSpec.parse("1:10")  # rational normal curve: n = 1, r = 10
CURVE_4 = SegreVeroneseSpec.parse("1:4")    # n = 1, r = 4
CUBIC = SegreVeroneseSpec.parse("1:3")      # twisted cubic: n = 1, r = 3


def _tre(spec, s, k, **budget):
    """theorem_tre judged on a freshly computed report of sigma_s(X)."""
    return criteria.theorem_tre(secant.secant_dim(spec, s, **budget), k)


def _hand_report(spec, s, dim):
    """A report of sigma_s(X) built by hand, as if one rank evaluation on P had given ``dim``."""
    return secant.SecantReport(spec, s, dim, 1, (P,), 0)


class TestTheoremTre:
    def test_inequalities_hold(self):
        assert _tre(CURVE_10, s=3, k=1).outcome == HOLDS

    def test_ambient_too_small(self):
        assert _tre(CURVE_4, s=3, k=2).outcome == NOT_DECIDED

    def test_defectivity_certified_by_computation(self):
        spec = SegreVeroneseSpec.parse("2:4")  # n=2, r=14
        step = _tre(spec, s=4, k=1)
        assert step.outcome == HOLDS
        assert step.inputs["s_defective"] is False and "defectivity_source" not in step.inputs

    def test_reads_only_its_report(self, monkeypatch):
        computed = secant.secant_dim(CURVE_10, 3)
        assert criteria.theorem_tre(computed, 1).outcome == HOLDS

        def no_secant(*args, **kwargs):
            raise AssertionError("a secant was computed")
        monkeypatch.setattr(secant, "secant_dim", no_secant)
        monkeypatch.setattr(secant, "terracini_rank", no_secant)
        defective = _hand_report(CURVE_10, 3, computed.expected_dim - 1)
        step = criteria.theorem_tre(defective, 1)
        assert step.outcome == NOT_DECIDED
        assert step.inputs["s_defective"] is True
        assert step.inputs["hypotheses"]["X not s-defective"] is False


class TestCodimensionCriterion:
    def test_holds(self):
        assert criteria.codimension_criterion(CURVE_10, 3).outcome == HOLDS

    def test_fails_inequality(self):
        # Veronese surface: n = 2, r = 5
        assert criteria.codimension_criterion(SegreVeroneseSpec.parse("2:2"), 4).outcome \
            == NOT_DECIDED

    def test_boundary(self):
        # twisted cubic, s = 2: codimension 2 is not > 2
        assert criteria.codimension_criterion(SegreVeroneseSpec.parse("1:3"), 2).outcome \
            == NOT_DECIDED

    @pytest.mark.parametrize("n,d,s", [(1, 10, 0)])
    def test_impossible_input_rejected(self, n, d, s):
        with pytest.raises(ValueError, match=KS_RULE):
            criteria.codimension_criterion(SegreVeroneseSpec(((n, d),)), s)


class TestRecheck:
    def test_chain_is_replayable(self):
        for step in (
            _tre(CURVE_10, 3, 1),
            _tre(CURVE_4, 3, 2),
            criteria.codimension_criterion(CURVE_10, 3),
        ):
            assert criteria.recheck_step(step) == step.outcome

    def test_unknown_step_rejected(self):
        step = criteria.CriterionStep("nonsense", {}, HOLDS, "", "computed")
        with pytest.raises(ValueError):
            criteria.recheck_step(step)

    def test_recheck_reads_the_recorded_facts(self):
        step = _tre(CURVE_10, 3, 1)
        assert step.name == "rank-defect-criterion" and step.outcome == HOLDS
        defective = dataclasses.replace(step, inputs={**step.inputs, "s_defective": True})
        assert criteria.recheck_step(defective) == NOT_DECIDED
        # and back, whatever outcome is stored
        cleared = dataclasses.replace(
            defective, inputs={**defective.inputs, "s_defective": False}, outcome=NOT_DECIDED
        )
        assert criteria.recheck_step(cleared) == HOLDS

    @pytest.mark.parametrize("make", [
        lambda: _tre(CURVE_4, 3, 2),
        lambda: criteria.codimension_criterion(CUBIC, 2),
    ])
    def test_recheck_ignores_the_stored_verdict(self, make):
        step = make()
        assert step.outcome == NOT_DECIDED
        forced = {key: True for key in step.inputs["hypotheses"]}
        forged = dataclasses.replace(
            step, inputs={**step.inputs, "hypotheses": forced}, outcome=HOLDS
        )
        assert criteria.recheck_step(forged) == NOT_DECIDED

    @pytest.mark.parametrize("argv", [
        ["--spec", "1:10", "--k", "2", "--s", "3"],
        ["--format", "4,4", "--k", "3", "--s", "4"],
    ])
    def test_steps_read_back_from_cli_json_replay(self, argv, capsys):
        assert cli.main(["identifiability", *argv]) == 0
        (result,) = json.loads(capsys.readouterr().out)["results"]
        chain = result.get("identifiability", result)["chain"]
        computed = [entry for entry in chain if entry["provenance"] == "computed"]
        assert {entry["name"] for entry in computed} == {
            "rank-defect-criterion", "excess-codimension-criterion",
        }
        for entry in computed:
            step = criteria.CriterionStep(
                entry["name"], entry["inputs"], entry["outcome"],
                entry["anchor_quote"], entry["provenance"],
            )
            assert criteria.recheck_step(step) == entry["outcome"], entry["name"]


    def test_steps_rebuild_from_their_dicts(self):
        # every attribute of a step is named as its JSON key, so a printed
        # step rebuilds by keyword, and a rebuilt computed step still replays
        chain = criteria.identifiability_report(SegreVeroneseSpec.parse("3,3"), 3, 5).chain
        assert {st.provenance for st in chain} == {"computed", "recorded-from-literature"}
        for step in chain:
            rebuilt = criteria.CriterionStep(**step.to_dict())
            assert rebuilt == step, step.name
            if rebuilt.provenance == "computed":
                assert criteria.recheck_step(rebuilt) == step.outcome, step.name


class TestDimsegreClassify:
    def test_case_i(self):
        case = criteria.dimsegre_classify(n=1, r=3, k=2, s=5)
        assert (case.label, case.dim, case.defective) == ("i", 11, False)

    def test_case_ii_a(self):
        case = criteria.dimsegre_classify(n=1, r=3, k=5, s=2)
        assert (case.label, case.dim, case.defective) == ("ii-a", 13, False)

    def test_case_ii_b(self):
        case = criteria.dimsegre_classify(n=2, r=5, k=6, s=5)
        assert (case.label, case.dim, case.defective) == ("ii-b", 39, True)

    def test_case_iii(self):
        case = criteria.dimsegre_classify(n=2, r=5, k=2, s=3)
        assert case.label == "iii"
        assert case.dim == min(3 * (2 + 2 + 1) - 1, 3 * 6 - 1)

    def test_case_iv_defers(self):
        case = criteria.dimsegre_classify(n=2, r=5, k=1, s=3)
        assert (case.label, case.dim, case.defective) == ("iv", None, None)

    def test_predicted_dims_match_terracini(self):
        # cases i, ii-a, ii-b, iii as executable identities
        instances = (
            ("1:3", 2, 5),  # i
            ("1:3", 5, 2),  # ii-a
            ("6:1,2:2", None, 5),  # ii-b, spec already includes the P^6 factor
            ("2:2", 2, 3),  # iii
        )
        for text, k, s in instances:
            spec = SegreVeroneseSpec.parse(text)
            if k is None:
                seg, inner = spec, SegreVeroneseSpec.parse("2:2")
                k_val = 6
            else:
                seg, inner = prepend_projective_factor(spec, k), spec
                k_val = k
            case = criteria.dimsegre_classify(
                inner.dim, inner.ambient_dim, k_val, s
            )
            assert case.dim == secant.secant_dim(seg, s).dim

    def test_case_iv_gap_identity(self):
        # dim sigma_s(Seg(P^k x X)) = dim GS_X(k, s) + k^2 + 2k
        spec = SegreVeroneseSpec.parse("2:2")
        k, s = 1, 3
        assert criteria.dimsegre_classify(2, 5, k, s).label == "iv"
        seg_dim = secant.secant_dim(prepend_projective_factor(spec, k), s).dim
        gs_dim = grassec.gs_dim_direct(spec, k, s)
        assert seg_dim == gs_dim + k**2 + 2 * k


class TestNeverDefective:
    def test_veronese_surface(self):
        reports = criteria.never_defective_check(SegreVeroneseSpec.parse("2:2"), trials=1)
        assert all(rep.defect == 0 for rep in reports)
        assert reports[-1].fills_ambient

    def test_projective_space_k_zero(self):
        # X = P^3 has r = n, so k = r - n = 0 and Seg(P^0 x X) is X itself
        reports = criteria.never_defective_check(SegreVeroneseSpec.parse("3"))
        assert len(reports) == 1
        assert reports[0].defect == 0 and reports[0].fills_ambient

    @pytest.mark.parametrize("text", reproduce.NEVER_DEFECTIVE_CASES, ids=_case_id)
    def test_matches_generic_rank_search(self, text):
        spec = SegreVeroneseSpec.parse(text)
        assert criteria.never_defective_check(spec, seed=5) == \
            _classify_to_generic_rank(spec, seed=5)

    def test_defect_message_matches_generic_rank_search(self):
        # over F_2 the frames of Seg(P^2 x P^1 x P^2) lose rank at s = 3, both
        # in the coordinate attempt's residual and in the random trial
        spec, budget = SegreVeroneseSpec.parse("1,2"), {"trials": 1, "primes": (2,)}
        with pytest.raises(InconsistencyError) as old:
            _classify_to_generic_rank(spec, **budget)
        with pytest.raises(InconsistencyError, match="defect") as new:
            criteria.never_defective_check(spec, **budget)
        assert str(new.value) == str(old.value) == \
            "defect 3 at s = 3 on 2,1,2, expected none for k = r - n"

    def test_packing_certifies_over_the_smallest_prime(self):
        # sigma_2(P^1 x P^1 x P^1) fills P^7; the packing of Seg(P^1 x P^1 x P^1)
        # holds 2 points, whose unit frame rows certify that over F_2 too
        spec, budget = SegreVeroneseSpec.parse("1,1"), {"trials": 1, "primes": (2,)}
        reports = criteria.never_defective_check(spec, **budget)
        assert reports == _classify_to_generic_rank(spec, **budget)
        assert [rep.defect for rep in reports] == [0, 0] and reports[-1].fills_ambient


class TestCatalog:
    def test_catalog_loads(self):
        # the catalog keeps only what the engine does not compute: no generic rank
        entries = criteria.load_catalog()
        assert all({"id", "fact", "statement"} <= set(entry) for entry in entries)
        assert len(entries) == 6
        assert not any("rank" in entry["id"] or "value" in entry for entry in entries)

    def test_recorded_identifiable_4x4(self):
        steps = criteria.recorded_facts((4, 4), 3, 5)
        outcomes = {st.name: st.outcome for st in steps}
        assert outcomes["system-4x4-identifiable-below-6"] == HOLDS
        assert all(st.provenance == "recorded-from-literature" for st in steps)

    def test_recorded_two_decompositions_4x4(self):
        steps = criteria.recorded_facts((4, 4), 3, 6)
        outcomes = {st.name: st.outcome for st in steps}
        assert outcomes["system-4x4-two-decompositions"] == FAILS

    def test_binary_pencil_rank_is_the_formula(self):
        # pencils of t-fold binary tensors are (t+1)-fold binary tensors: Seg(P^1 x (P^1)^t),
        # whose generic rank is ceil(2^(t+1) / (t+2)) for t >= 4
        ranks = []
        for t in range(4, 11):
            seg = prepend_projective_factor(criteria.format_to_spec((2,) * t), 1)
            assert seg == SegreVeroneseSpec.parse(",".join("1" * (t + 1)))
            ranks.append(secant.generic_rank(seg))
            assert ranks[-1] == math.ceil(2 ** (t + 1) / (t + 2)), t
        assert ranks == [6, 10, 16, 29, 52, 94, 171]

    def test_matrix_system_rule(self):
        steps = criteria.recorded_facts((8, 8), 7, 4)
        assert any(
            st.name == "matrix-systems-sixteenth" and st.outcome == HOLDS
            for st in steps
        )
        assert not any(
            st.name == "matrix-systems-sixteenth"
            for st in criteria.recorded_facts((8, 8), 7, 5)
        )


class TestReports:
    def test_identifiability_fails_for_recorded_nonidentifiable(self):
        verdict = criteria.identifiability_report(criteria.format_to_spec((2, 2, 2, 2)), 1, 5)
        assert verdict.verdict == FAILS
        assert "recorded-from-literature" in verdict.provenance

    def test_identifiability_holds_for_4x4_rank5(self):
        verdict = criteria.identifiability_report(criteria.format_to_spec((4, 4)), 3, 5)
        assert verdict.verdict == HOLDS

    def test_computed_and_recorded_both_in_chain(self):
        verdict = criteria.identifiability_report(SegreVeroneseSpec.parse("3,3"), 3, 5)
        provenances = {step.provenance for step in verdict.chain}
        assert "computed" in provenances and "recorded-from-literature" in provenances

    def test_spec_route(self):
        verdict = criteria.identifiability_report(SegreVeroneseSpec.parse("2:4"), 1, 4)
        assert verdict.verdict == HOLDS

    @pytest.mark.parametrize("spec,k,s", [
        (SegreVeroneseSpec.parse("2:2"), 3, 2), (criteria.format_to_spec((3, 3)), 5, 2),
    ], ids=["spec-2:2", "format-3x3"])
    def test_empty_chain_has_no_provenance(self, spec, k, s):
        # with k >= s no criterion applies and no fact is recorded: nothing ran
        verdict = criteria.identifiability_report(spec, k, s)
        assert (verdict.chain, verdict.verdict, verdict.provenance) == ((), NOT_DECIDED, "none")
        # an undecided chain that is not empty holds computed steps only
        undecided = criteria.identifiability_report(criteria.format_to_spec((4, 4)), 1, 3)
        assert undecided.chain and (undecided.verdict, undecided.provenance) == (NOT_DECIDED, "computed")

    def test_linear_system_generic_ranks(self):
        report = criteria.linear_system_report((2, 2, 2, 2), 1, 5)
        assert report["generic_rank"] == 6
        report = criteria.linear_system_report((4, 4), 3, 5)
        assert report["generic_rank"] == 7

    @pytest.mark.parametrize("fmt,k,s", [
        ((2, 2, 2, 2), 1, 4), ((2, 2, 2, 2), 1, 5), ((4, 4), 3, 5), ((4, 4), 3, 6),
    ])
    def test_linear_system_report_nests_the_verdict(self, fmt, k, s, monkeypatch):
        # the format, k and the recorded facts are printed once: in the config and the verdict
        calls, real = [], criteria.recorded_facts

        def counted(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(criteria, "recorded_facts", counted)
        report = criteria.linear_system_report(fmt, k, s, trials=1)
        assert calls == [(fmt, k, s)]
        assert set(report) == {"generic_rank", "identifiability"}
        verdict = criteria.identifiability_report(criteria.format_to_spec(fmt), k, s, trials=1)
        assert report["identifiability"] == verdict.to_dict()

    def test_exactly_one_subject_kind(self):
        # a Segre product of two or more factors is named by its tensor format
        for text, subject in (("1,1", "2x2"), ("1,2,3", "2x3x4"), ("1:3", "1:3"),
                              ("3", "3"), ("1,1:2", "1,1:2")):
            verdict = criteria.identifiability_report(SegreVeroneseSpec.parse(text), 1, 2)
            assert verdict.subject == subject

    @pytest.mark.parametrize("call", [
        lambda: criteria.identifiability_report(SegreVeroneseSpec.parse("2:4"), -2, 0),
        lambda: criteria.identifiability_report(criteria.format_to_spec((4, 4)), 1, 0),
        lambda: criteria.linear_system_report((4, 4), 1, s=0),
        lambda: criteria.linear_system_report((4, 4), -1, s=3),
        lambda: criteria.theorem_tre(_hand_report(CURVE_10, 0, -1), 1),
        lambda: criteria.theorem_tre(_hand_report(CURVE_10, 3, 5), -1),
        lambda: criteria.codimension_criterion(CURVE_10, 0),
        lambda: phimap.random_secant_point(CURVE_10, -1, 2, random.Random(0), P),
        lambda: phimap.random_secant_point(CURVE_10, 1, 0, random.Random(0), P),
        lambda: secant.expected_secant_dim(CURVE_10, 0),
    ], ids=["spec-k-2-s0", "format-s0", "system-s0", "system-k-1", "tre-s0", "tre-k-1",
            "codim-s0", "witness-k-1", "witness-s0", "expected-s0"])
    def test_invalid_k_s_rejected_before_any_secant(self, call, monkeypatch):
        def no_secant(*args, **kwargs):
            raise AssertionError("a secant was computed")
        monkeypatch.setattr(secant, "secant_dim", no_secant)
        with pytest.raises(ValueError, match=KS_RULE):
            call()

    @pytest.mark.parametrize("call", [
        lambda: criteria.identifiability_report(SegreVeroneseSpec.parse("1:3"), 0, 6),
        lambda: criteria.identifiability_report(SegreVeroneseSpec.parse("1:3"), 1, 6),
        lambda: criteria.linear_system_report((2, 2), 1, s=5),
        lambda: criteria.theorem_tre(_hand_report(CUBIC, 6, 3), 1),
        lambda: criteria.codimension_criterion(SegreVeroneseSpec.parse("1:3"), 6),
        lambda: phimap.random_secant_point(CUBIC, 1, 6, random.Random(0), P),
        lambda: secant.expected_secant_dim(CUBIC, 5),
    ], ids=["spec-k0", "spec-k1", "system", "tre", "codim", "witness", "expected"])
    def test_order_above_r_plus_one_rejected_before_any_secant(self, call, monkeypatch):
        # the twisted cubic and 2x2 matrices both have r = 3
        monkeypatch.setattr(secant, "terracini_rank", None)
        with pytest.raises(ValueError, match=KS_RULE):
            call()

    def test_format_validation(self):
        with pytest.raises(ValueError):
            criteria.format_to_spec((4,))
        with pytest.raises(ValueError):
            criteria.format_to_spec((1, 4))


def test_parameter_count_hypothesis_is_the_inequality_its_key_names():
    # every k in 0..r+1 and s in 1..r+1; for k >= s the parameter count of
    # grassec.expected_gs_dim is taken at w = s-1 and differs from the key
    differs, seen = 0, set()
    for text in ("1,1", "2:2", "1:4", "2:3", "1,2", "1,1,1", "3:2", "1:10", "1:3", "2,2"):
        spec = SegreVeroneseSpec.parse(text)
        n, r = spec.dim, spec.ambient_dim
        for s in range(1, r + 2):
            sigma = secant.secant_dim(spec, s, trials=1)
            for k in range(r + 2):
                step = criteria.theorem_tre(sigma, k)
                value = step.inputs["hypotheses"]["s*n + (k+1)(s-1-k) < (k+1)(r-k)"]
                assert value == (s * n + (k + 1) * (s - 1 - k) < (k + 1) * (r - k)), (text, k, s)
                assert criteria.recheck_step(step) == step.outcome
                w_plane = grassec.expected_gs_dim(spec, k, s) < (k + 1) * (r - k)
                if 0 < k <= s - 1:  # the only cells the CLI reaches: unchanged
                    assert value == w_plane, (text, k, s)
                    seen.add(value)
                differs += value != w_plane
    assert seen == {True, False} and differs == 134
    # e.g. 1,1 at s = 2, k = 2: 2*2 + 3*(-1) = 1 < 3 = 3*(3-2)
    assert _tre(SegreVeroneseSpec.parse("1,1"), s=2, k=2) \
        .inputs["hypotheses"]["s*n + (k+1)(s-1-k) < (k+1)(r-k)"] is True


def test_soundness_guard_on_positive_verdicts():
    # a "holds" verdict must never coincide with a filling secant variety: the
    # rule's last hypothesis keeps sigma_s(Seg(P^k x X)) expected below P^N
    for text, k, s in (("2:4", 1, 4), ("2:3", 1, 2), ("1:4", 1, 2)):
        spec = SegreVeroneseSpec.parse(text)
        assert _tre(spec, s, k, trials=1).outcome == HOLDS, (text, k, s)
        seg = prepend_projective_factor(spec, k)
        assert secant.expected_secant_dim(seg, s) < seg.ambient_dim, (text, k, s)


CENSUS_SPECS = ("2:2", "1,1,1", "1:4", "2:3", "1,2", "1,1,1,1", "3:2", "2,2", "1,1,2", "3:3",
                "2,2,2", "4,4", "1,1,1,1,1", "2:4", "3,3,3")


def test_census_theorem_tre_judges_one_walk_per_spec():
    # every 0 < k <= min(3, s-1), s <= r: 3r - 6 cells per spec.  theorem_tre on
    # the reports of one classify_secant_range walk gives the step of the
    # single-cell verdict, which computes its own sigma_s(X)
    tre_holds, verdicts, failing = 0, {HOLDS: 0, FAILS: 0, NOT_DECIDED: 0}, []
    for text in CENSUS_SPECS:
        spec = SegreVeroneseSpec.parse(text)
        r = spec.ambient_dim
        for sigma in secant.classify_secant_range(spec, range(2, r + 1)):
            for k in range(1, min(3, sigma.s - 1) + 1):
                step = criteria.theorem_tre(sigma, k)
                verdict = criteria.identifiability_report(spec, k, sigma.s)
                (single,) = [st for st in verdict.chain if st.name == "rank-defect-criterion"]
                assert step == single, (text, k, sigma.s)
                outcomes = {st.outcome for st in verdict.chain}
                assert not {HOLDS, FAILS} <= outcomes, (text, k, sigma.s)
                verdicts[verdict.verdict] += 1
                if verdict.verdict == FAILS:
                    failing.append((text, k, sigma.s, verdict.provenance))
                if step.outcome == HOLDS:
                    tre_holds += 1
                    seg = prepend_projective_factor(spec, k)
                    assert not secant.secant_dim(seg, sigma.s, trials=1).fills_ambient, \
                        (text, k, sigma.s)
    assert sum(verdicts.values()) == sum(
        3 * SegreVeroneseSpec.parse(text).ambient_dim - 6 for text in CENSUS_SPECS) == 660
    assert tre_holds == 42
    assert verdicts == {HOLDS: 61, FAILS: 1, NOT_DECIDED: 598}
    # the one "fails" is recorded: rank-5 pencils of 2x2x2x2 tensors have two decompositions
    assert failing == [("1,1,1,1", 1, 5, "recorded-from-literature")]
