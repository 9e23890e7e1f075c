"""Acceptance suite: the headline results, one printed PASS/FAIL line each.

Every check is exact (finite-field arithmetic has no tolerance); the
stated runtime budgets are asserted with time.monotonic.
"""

import json
import random
import time

import pytest

import reference
from grasec import cli, criteria, field, grassec, phimap, reproduce, secant, varieties
from grasec.varieties import SegreVeroneseSpec, prepend_projective_factor

GRID_SPECS = ("2:2", "1:3", "1,2", "2,2")
GRID_K = (1, 2, 3)
GRID_S = (2, 3, 4)


def report(name: str, ok: bool) -> None:
    print(f"{'PASS' if ok else 'FAIL'}: {name}")
    assert ok, name


@pytest.fixture(scope="module")
def grid_reports():
    reports = []
    for text in GRID_SPECS:
        spec = SegreVeroneseSpec.parse(text)
        for k in GRID_K:
            for s in GRID_S:
                if s - 1 > spec.ambient_dim:
                    continue
                reports.append(grassec.gs_report(spec, k, s, trials=1))
    return reports


def test_01_pencils_of_2x2x2x2_tensors():
    start = time.monotonic()
    spec = SegreVeroneseSpec.parse("1,1,1,1,1")
    sigma6 = secant.secant_dim(spec, 6)
    sigma5 = secant.secant_dim(spec, 5)
    rank = secant.generic_rank(spec)
    elapsed = time.monotonic() - start
    ok = (
        sigma6.dim == 31 and sigma6.fills_ambient
        and sigma5.dim == 29 and sigma5.dim < 31
        and rank == 6
        and elapsed < 1.0
    )
    report("pencils of 2x2x2x2 tensors: sigma6 fills P^31, sigma5 = 29, rank 6", ok)


def test_02_4x4_matrix_systems():
    start = time.monotonic()
    spec = SegreVeroneseSpec.parse("3,3,3")
    sigma7 = secant.secant_dim(spec, 7)
    sigma6 = secant.secant_dim(spec, 6)
    rank = secant.generic_rank(spec)
    elapsed = time.monotonic() - start
    ok = (
        sigma7.dim == 63 and sigma7.fills_ambient
        and sigma6.dim == 59
        and rank == 7
        and elapsed < 2.0
    )
    report("4x4 matrix systems: sigma7 fills P^63, sigma6 = 59, rank 7", ok)


def test_03_slice_map_dimension_identity_grid(grid_reports):
    start = time.monotonic()
    ok = all(
        rep.cross_check
        and rep.seg_dim - rep.dim_direct == (rep.w + 1) * (rep.k + 1) - 1
        for rep in grid_reports
    )
    elapsed = time.monotonic() - start
    ok = ok and elapsed < 60.0 and len(grid_reports) == 36
    report("slice-map identity grid: dim_direct = dim_phi on all 36 points", ok)


def test_04_defect_transfer_on_grid(grid_reports):
    relevant = [rep for rep in grid_reports if grassec._transfers(rep.spec, rep.k, rep.s)]
    ok = bool(relevant) and all(
        rep.defect_transfer
        and rep.seg_dim - rep.dim_direct == rep.k**2 + 2 * rep.k
        for rep in relevant
    )
    report("defect transfer: GS and Segre secant defects agree on the grid", ok)


def test_05_never_defective_for_k_equal_codimension():
    start = time.monotonic()
    ok = True
    for text in ("2:2", "3:2", "1:3"):
        reports = criteria.never_defective_check(SegreVeroneseSpec.parse(text), trials=1)
        ok = ok and all(rep.defect == 0 for rep in reports)
    elapsed = time.monotonic() - start
    ok = ok and elapsed < 120.0
    report("never defective for k = r - n on v2(P^2), v2(P^3), v3(P^1)", ok)


def test_06_defective_case_ii_b_instance():
    spec = SegreVeroneseSpec.parse("6:1,2:2")
    rep = secant.secant_dim(spec, 5)
    case = criteria.dimsegre_classify(n=2, r=5, k=6, s=5)
    ok = (
        rep.dim == 39 and rep.expected_dim == 41
        and case.label == "ii-b" and case.dim == 39 and case.defective
    )
    report("case ii-b: Seg(P^6 x v2(P^2)) sigma5 has dim 39 < expected 41", ok)


def test_07_slice_map_consistency_100_witnesses():
    specs = ("1,1", "1,1,1", "2:2", "1:3", "1,2")
    p = field.DEFAULT_PRIME
    ok = True
    count = 0
    for i, text in enumerate(specs):
        spec = SegreVeroneseSpec.parse(text)
        for j in range(20):
            rng = random.Random(secant.subseed(0, 100 * i + j, p))
            s = 2 + (j % 3)
            k = 1 + (j % 2)
            witness = phimap.random_secant_point(spec, k, s, p=p, rng=rng)
            plucker = phimap.phi(witness.tensor)
            count += 1
            ok = ok and field.subspace_contains(
                witness.embedded_points, plucker.basis, p
            )
            ok = ok and plucker.w + 1 == min(k, s - 1) + 1
            for _ in range(10):
                scaled = witness.tensor.scaled(rng.randrange(1, p))
                ok = ok and phimap.phi(scaled).basis == plucker.basis
    ok = ok and count == 100
    report("slice map: containment, rank and scale invariance on 100 witnesses", ok)


def test_08_cardinality_pairs_over_f5():
    # only d = dim phi(T) = s is the general point, so witnesses whose slices are
    # proportional (d = 1) are redrawn, as in the catalog row; there the count on
    # phi(T) is the brute-force count of decompositions with nonzero coefficients
    start = time.monotonic()
    spec = SegreVeroneseSpec.parse("1,1")
    ok = True
    for i in range(20):
        rng = random.Random(secant.subseed(i, 0, 5))
        for _ in range(varieties.MAX_RESAMPLES):
            tensor = phimap.random_secant_point(spec, 1, 2, rng, 5).tensor
            if (span := phimap.phi(tensor)).w == 1:
                break
        else:
            pytest.fail(f"witness {i}: every redraw had proportional slices")
        n_pi = phimap.count_decompositions(spec, 2, span)
        ok = ok and n_pi == reference.count_nonzero_decompositions(spec, 2, tensor.slices, 5)
    elapsed = time.monotonic() - start
    ok = ok and elapsed < 60.0
    report("cardinality: |E(Pi)| = the brute-force decomposition count on 20 F_5 instances", ok)


def test_09_criterion_soundness_sweep():
    # the rule's last hypothesis is s(n+k+1) < (k+1)(r+1), so a "holds" cell must
    # have sigma_s(Seg(P^k x X)) expected below its ambient space
    rng = random.Random(20240823)
    specs = ("1,1", "2:2", "1:4", "2:3", "1,2", "2:4")
    holds_seen = 0
    ok = True
    for _ in range(15):
        spec = SegreVeroneseSpec.parse(rng.choice(specs))
        s = rng.randrange(2, 5)
        k = rng.randrange(1, s)
        step = criteria.theorem_tre(secant.secant_dim(spec, s, trials=1), k)
        ok = ok and criteria.recheck_step(step) == step.outcome
        if step.outcome != criteria.HOLDS:
            continue
        holds_seen += 1
        seg = prepend_projective_factor(spec, k)
        ok = ok and secant.expected_secant_dim(seg, s) < seg.ambient_dim
    ok = ok and holds_seen > 0
    report("criterion soundness: holds never coincides with a filling secant", ok)


def test_10_reproduce_determinism(capsys):
    code1 = cli.main(["reproduce", "--seed", "7"])
    first = capsys.readouterr().out
    code2 = cli.main(["reproduce", "--seed", "7"])
    second = capsys.readouterr().out
    ok = code1 == 0 and code2 == 0 and first == second

    per_prime = [
        reproduce.run_catalog(seed=7, primes=(p,)) for p in field.DEFAULT_PRIMES
    ]
    rows_a, rows_b = per_prime
    ok = ok and all(
        a["computed"] == b["computed"] and a["status"] == b["status"] == "PASS"
        for a, b in zip(rows_a, rows_b)
    )
    payload = json.loads(first)
    ok = ok and all(row["status"] == "PASS" for row in payload["checks"])
    report("determinism: byte-identical reproduce output, prime-independent dims", ok)
