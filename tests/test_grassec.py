"""Grassmann secant dimensions: formula route vs direct Jacobian route."""

import pytest

from grasec import field, grassec, secant
from grasec.varieties import SegreVeroneseSpec

V2P2 = SegreVeroneseSpec.parse("2:2")
V3P1 = SegreVeroneseSpec.parse("1:3")


class TestExpectedDim:
    def test_veronese_surface(self):
        assert grassec.expected_gs_dim(V2P2, 1, 3) == 8

    def test_k_zero_reduces_to_secant(self):
        for spec_text, s in (("2:2", 2), ("1,1", 2), ("1:3", 3)):
            spec = SegreVeroneseSpec.parse(spec_text)
            assert grassec.expected_gs_dim(spec, 0, s) == secant.expected_secant_dim(spec, s)

    def test_twisted_cubic_chords(self):
        assert grassec.expected_gs_dim(V3P1, 1, 2) == 2

    def test_k_above_s_minus_one_takes_the_w_plane(self):
        # k = 3 > s - 1 = 2: the value at w = 2, the expected_dim gs_report prints
        assert grassec.expected_gs_dim(V2P2, 3, 3) == grassec.expected_gs_dim(V2P2, 2, 3) == \
            grassec.gs_report(V2P2, 3, 3, trials=1).expected_dim == 6
        for k, s in ((-1, 3), (1, 0), (1, 7)):
            with pytest.raises(ValueError, match=f"^need k >= 0, s >= 1 and s - 1 <= r, "
                                                 f"got k={k}, s={s}, r=5$"):
                grassec.expected_gs_dim(V2P2, k, s)


class TestPhiRoute:
    def test_twisted_cubic(self):
        assert grassec.gs_report(V3P1, 1, 2).dim_phi == 2

    def test_k_zero_is_plain_secant(self):
        assert grassec.gs_report(V2P2, 0, 3).dim_phi == secant.secant_dim(V2P2, 3).dim

    def test_veronese_surface_nondefective(self):
        assert grassec.gs_report(V2P2, 1, 3).dim_phi == 8

    def test_hypothesis_violation_rejected(self):
        with pytest.raises(ValueError):
            grassec.gs_report(V3P1, 1, 6)


class TestDirectRoute:
    def test_twisted_cubic(self):
        assert grassec.gs_dim_direct(V3P1, 1, 2) == 2

    @pytest.mark.parametrize("budget", [{"trials": 0}, {"primes": ()}])
    def test_empty_budget_rejected(self, budget):
        with pytest.raises(ValueError):
            grassec.gs_dim_direct(V3P1, 1, 2, **budget)

    def test_repeated_prime_rejected(self):
        p = field.DEFAULT_PRIMES[0]
        with pytest.raises(ValueError, match="once"):
            grassec.gs_dim_direct(V3P1, 1, 2, primes=(p, p))

    def test_chordal_case_is_sn(self):
        # k = s-1 with sn small: dim GS = s * n
        assert grassec.gs_dim_direct(V2P2, 1, 2) == 4

    def test_k_zero_secant_of_matrices(self):
        spec = SegreVeroneseSpec.parse("1,1")
        assert grassec.gs_dim_direct(spec, 0, 2) == 3

    def test_last_grassmann_secant_rule(self):
        # dim GS_X(s-1, s) = min(s*n, s*(r-s+1)) on tested instances
        for text, k, s in (("2:2", 1, 2), ("1:3", 2, 3), ("1,1", 1, 2)):
            spec = SegreVeroneseSpec.parse(text)
            expected = min(s * spec.dim, s * (spec.ambient_dim - s + 1))
            assert grassec.gs_dim_direct(spec, k, s, trials=1) == expected


@pytest.mark.parametrize("route", [
    grassec.expected_gs_dim, grassec.gs_dim_direct, grassec.gs_report,
])
@pytest.mark.parametrize("k,s", [(-1, 2), (1, 0), (1, 6)])
def test_plane_dim_rejects_bad_k_s(route, k, s):
    # V3P1 has r = 3: k = -1, s = 0 and s - 1 > r are each out of range
    with pytest.raises(ValueError, match="need k >= 0, s >= 1 and s - 1 <= r"):
        route(V3P1, k, s)


class TestReport:
    def test_cross_check_passes(self):
        rep = grassec.gs_report(V3P1, 1, 2)
        assert rep.cross_check and rep.dim_phi == rep.dim_direct == 2

    def test_defective_instance_and_transfer(self):
        # sigma_4 of P^2 x P^2 x P^2 is defective; the defect transfers to GS
        rep = grassec.gs_report(SegreVeroneseSpec.parse("2,2"), 2, 4)
        assert rep.dim_phi == rep.dim_direct == 17
        assert rep.expected_dim == 18 and rep.defect == 1
        assert rep.defect_transfer is True

    def test_k_zero_reduces_to_secant_report(self):
        rep = grassec.gs_report(V2P2, 0, 3)
        sec = secant.secant_dim(V2P2, 3)
        assert rep.dim_phi == rep.dim_direct == sec.dim
        assert rep.seg_dim == sec.dim

    def test_slice_identity_in_report(self):
        rep = grassec.gs_report(V2P2, 1, 3)
        assert rep.seg_dim - rep.dim_direct == (rep.w + 1) * (rep.k + 1) - 1

    def test_w_reduction_when_k_exceeds_s_minus_1(self):
        rep = grassec.gs_report(V3P1, 3, 2)
        assert rep.w == 1
        assert rep.cross_check

    def test_determinism(self):
        assert grassec.gs_report(V2P2, 1, 3, seed=5) == \
            grassec.gs_report(V2P2, 1, 3, seed=5)
