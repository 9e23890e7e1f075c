"""Identifiability criteria, case classification and the literature catalog."""

import pytest

from grasec import criteria, grassec, reproduce, secant
from grasec.criteria import FAILS, HOLDS, NOT_DECIDED
from grasec.errors import InconsistencyError
from grasec.varieties import SegreVeroneseSpec, prepend_projective_factor


def _classify_to_generic_rank(spec, k, **budget):
    """The filling order by generic_rank search, then the range classification."""
    seg = prepend_projective_factor(spec, k)
    fill = secant.generic_rank(seg, **budget)
    reports = secant.classify_secant_range(seg, fill, **budget)
    for rep in reports:
        if rep.defect != 0:
            raise InconsistencyError(
                f"defect {rep.defect} at s = {rep.s} on {seg}, expected none for k = r - n"
            )
    return reports


class TestTheoremTre:
    def test_inequalities_hold(self):
        verdict = criteria.theorem_tre(n=1, r=10, s=3, k=1, s_defective=False)
        assert verdict.verdict == HOLDS

    def test_ambient_too_small(self):
        verdict = criteria.theorem_tre(n=1, r=4, s=3, k=2, s_defective=False)
        assert verdict.verdict == NOT_DECIDED

    def test_defectivity_certified_by_computation(self):
        spec = SegreVeroneseSpec.parse("2:4")  # n=2, r=14
        verdict = criteria.theorem_tre(2, 14, s=4, k=1, spec=spec)
        assert verdict.verdict == HOLDS
        assert verdict.chain[0].inputs["defectivity_source"] == "computed"

    def test_flag_or_spec_required(self):
        with pytest.raises(ValueError):
            criteria.theorem_tre(1, 10, 3, 1)

    def test_spec_must_match_n_and_r(self):
        # (n, r) = (1, 100) would pass r > s*n + s - 1; the Veronese surface has (2, 5)
        with pytest.raises(ValueError, match="does not describe 2:2"):
            criteria.theorem_tre(1, 100, 3, 1, spec=SegreVeroneseSpec.parse("2:2"))


class TestCodimensionCriterion:
    def test_holds(self):
        assert criteria.codimension_criterion(1, 10, 3).verdict == HOLDS

    def test_fails_inequality(self):
        assert criteria.codimension_criterion(2, 5, 4).verdict == NOT_DECIDED

    def test_boundary(self):
        # twisted cubic, s = 2: codimension 2 is not > 2
        assert criteria.codimension_criterion(1, 3, 2).verdict == NOT_DECIDED

    @pytest.mark.parametrize("n,r,s", [(1, 10, 0), (-5, 0, 1), (3, 2, 1)])
    def test_impossible_input_rejected(self, n, r, s):
        with pytest.raises(ValueError, match="need 0 <= n <= r and s >= 1"):
            criteria.codimension_criterion(n, r, s)


class TestRecheck:
    def test_chain_is_replayable(self):
        for verdict in (
            criteria.theorem_tre(1, 10, 3, 1, s_defective=False),
            criteria.theorem_tre(1, 4, 3, 2, s_defective=False),
            criteria.codimension_criterion(1, 10, 3),
        ):
            for step in verdict.chain:
                assert criteria.recheck_step(step) == step.outcome

    def test_unknown_step_rejected(self):
        step = criteria.CriterionStep("nonsense", {}, HOLDS, "", "computed")
        with pytest.raises(ValueError):
            criteria.recheck_step(step)


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
        reports = criteria.never_defective_check(
            SegreVeroneseSpec.parse("2:2"), 3, trials=1
        )
        assert all(rep.defect == 0 for rep in reports)
        assert reports[-1].fills_ambient

    def test_projective_space_k_zero(self):
        # X = P^3 has r = n, so k = r - n = 0 and Seg(P^0 x X) is X itself
        reports = criteria.never_defective_check(SegreVeroneseSpec.parse("3"), 0)
        assert len(reports) == 1
        assert reports[0].defect == 0 and reports[0].fills_ambient

    def test_wrong_k_rejected(self):
        with pytest.raises(ValueError):
            criteria.never_defective_check(SegreVeroneseSpec.parse("2:2"), 2)

    @pytest.mark.parametrize("text,k", reproduce.NEVER_DEFECTIVE_CASES)
    def test_matches_generic_rank_search(self, text, k):
        spec = SegreVeroneseSpec.parse(text)
        assert criteria.never_defective_check(spec, k, seed=5) == \
            _classify_to_generic_rank(spec, k, seed=5)

    def test_defect_message_matches_generic_rank_search(self):
        # over F_3 the random frames of Seg(P^1 x P^1 x P^1) lose rank at s = 2
        spec, budget = SegreVeroneseSpec.parse("1,1"), {"trials": 1, "primes": (3,)}
        with pytest.raises(InconsistencyError) as old:
            _classify_to_generic_rank(spec, 1, **budget)
        with pytest.raises(InconsistencyError, match="defect") as new:
            criteria.never_defective_check(spec, 1, **budget)
        assert str(new.value) == str(old.value)


class TestCatalog:
    def test_catalog_loads(self):
        entries = criteria.load_catalog()
        assert {"id", "fact", "statement"} <= set(entries[0])
        assert len(entries) >= 8

    def test_recorded_identifiable_4x4(self):
        steps = criteria.recorded_facts((4, 4), 3, 5)
        outcomes = {st.name: st.outcome for st in steps}
        assert outcomes["system-4x4-identifiable-below-6"] == HOLDS
        assert all(st.provenance == "recorded-from-literature" for st in steps)

    def test_recorded_two_decompositions_4x4(self):
        steps = criteria.recorded_facts((4, 4), 3, 6)
        outcomes = {st.name: st.outcome for st in steps}
        assert outcomes["system-4x4-two-decompositions"] == FAILS

    def test_recorded_pencil_rank_both_readings(self):
        steps = criteria.recorded_facts((2, 2, 2, 2, 2), 1, 3)
        rank_steps = [st for st in steps if st.name == "binary-pencil-generic-rank"]
        assert rank_steps
        inputs = rank_steps[0].inputs
        assert inputs["generic_rank"] == 10  # ceil(2**6 / 7)
        assert inputs["alternative_reading"] == 6  # ceil(2**5 / 6)

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
        verdict = criteria.identifiability_report(1, 5, format_dims=(2, 2, 2, 2))
        assert verdict.verdict == FAILS
        assert "recorded-from-literature" in verdict.provenance

    def test_identifiability_holds_for_4x4_rank5(self):
        verdict = criteria.identifiability_report(3, 5, format_dims=(4, 4))
        assert verdict.verdict == HOLDS

    def test_computed_and_recorded_both_in_chain(self):
        verdict = criteria.identifiability_report(3, 5, format_dims=(4, 4))
        provenances = {step.provenance for step in verdict.chain}
        assert "computed" in provenances and "recorded-from-literature" in provenances

    def test_spec_route(self):
        verdict = criteria.identifiability_report(
            1, 4, spec=SegreVeroneseSpec.parse("2:4")
        )
        assert verdict.verdict == HOLDS

    def test_linear_system_generic_ranks(self):
        report = criteria.linear_system_report((2, 2, 2, 2), 1)
        assert report["generic_rank"] == 6
        report = criteria.linear_system_report((4, 4), 3)
        assert report["generic_rank"] == 7

    def test_exactly_one_subject_kind(self):
        with pytest.raises(ValueError):
            criteria.identifiability_report(1, 2)
        with pytest.raises(ValueError):
            criteria.identifiability_report(
                1, 2, format_dims=(2, 2), spec=SegreVeroneseSpec.parse("1,1")
            )

    @pytest.mark.parametrize("call", [
        lambda: criteria.identifiability_report(-2, 0, spec=SegreVeroneseSpec.parse("2:4")),
        lambda: criteria.identifiability_report(1, 0, format_dims=(4, 4)),
        lambda: criteria.linear_system_report((4, 4), 1, s=0),
        lambda: criteria.linear_system_report((4, 4), -1, s=3),
    ], ids=["spec-k-2-s0", "format-s0", "system-s0", "system-k-1"])
    def test_invalid_k_s_rejected_before_any_secant(self, call, monkeypatch):
        def no_secant(*args, **kwargs):
            raise AssertionError("a secant was computed")
        monkeypatch.setattr(secant, "secant_dim", no_secant)
        with pytest.raises(ValueError, match="need k >= 0 and s >= 1"):
            call()

    @pytest.mark.parametrize("call", [
        lambda: criteria.identifiability_report(0, 6, spec=SegreVeroneseSpec.parse("1:3")),
        lambda: criteria.identifiability_report(1, 6, spec=SegreVeroneseSpec.parse("1:3")),
        lambda: criteria.linear_system_report((2, 2), 1, s=5),
    ], ids=["spec-k0", "spec-k1", "system"])
    def test_order_above_r_plus_one_rejected_before_any_secant(self, call, monkeypatch):
        # the twisted cubic and 2x2 matrices both have r = 3
        monkeypatch.setattr(secant, "terracini_rank", None)
        with pytest.raises(ValueError, match="s - 1 <= r"):
            call()

    def test_format_validation(self):
        with pytest.raises(ValueError):
            criteria.format_to_spec((4,))
        with pytest.raises(ValueError):
            criteria.format_to_spec((1, 4))


def test_soundness_guard_on_positive_verdicts():
    # a "holds" verdict must never coincide with a filling secant variety
    for text, k, s in (("2:4", 1, 4), ("2:3", 1, 2), ("1:4", 1, 2)):
        spec = SegreVeroneseSpec.parse(text)
        verdict = criteria.theorem_tre(
            spec.dim, spec.ambient_dim, s, k, spec=spec, trials=1
        )
        if verdict.verdict != HOLDS:
            continue
        seg = prepend_projective_factor(spec, k)
        assert not secant.secant_dim(seg, s, trials=1).fills_ambient
