"""The reproduction catalog: every headline claim as a pass/fail check.

Each check is a dict {name, anchor_quote, computed, expected, status} so a
run doubles as machine-readable test evidence.  All randomness is derived
from the single seed, so identical configurations give byte-identical
serialized output.
"""

from __future__ import annotations

import functools
import random

from . import criteria, field, grassec, phimap, secant, varieties
from .errors import InconsistencyError, SamplingError

PHI_GRID_SPECS = ("2:2", "1:3", "1,2", "2,2")
PHI_GRID_K = (1, 2, 3)
PHI_GRID_S = (2, 3, 4)

NEVER_DEFECTIVE_CASES = ("2:2", "3:2", "1:3")


def _check(name: str, anchor: str, computed, expected) -> dict:
    return {
        "name": name,
        "anchor_quote": anchor,
        "computed": computed,
        "expected": expected,
        "status": "PASS" if computed == expected else "FAIL",
    }


def _secant_checks(seed: int, primes: tuple[int, ...], trials: int) -> list[dict]:
    # each range reads sigma_1 .. sigma_top off one evaluation sequence at
    # s = top, and the generic rank is read off the same reports
    table = (  # spec, top; (name, expected, anchor) of sigma_top, sigma_{top-1}, generic rank
        ("1,1,1,1,1", 6, (
            ("pencil-2x2x2x2-sigma6", {"dim": 31, "fills": True},
             "the 6th secant variety of the five-fold Segre product of P^1 fills P^31"),
            ("pencil-2x2x2x2-sigma5", 29,
             "the 5th secant variety of the five-fold Segre product of P^1 has dimension 29 < 31"),
            ("pencil-2x2x2x2-generic-rank", 6, "the generic pencil of 2x2x2x2 tensors has rank 6"),
        )),
        ("3,3,3", 7, (
            ("matrix-4x4-sigma7", {"dim": 63, "fills": True},
             "the 7th secant variety of P^3 x P^3 x P^3 fills P^63"),
            ("matrix-4x4-sigma6", 59, "the 6th secant variety of P^3 x P^3 x P^3 has dimension 59"),
            ("matrix-4x4-generic-rank", 7,
             "the generic dimension-3 linear system of 4x4 matrices has rank 7"),
        )),
    )
    checks = []
    for text, top, rows in table:
        spec = varieties.SegreVeroneseSpec.parse(text)
        reps = secant.classify_secant_range(spec, range(1, top + 1), trials=trials, seed=seed, primes=primes)
        computed = ({"dim": reps[-1].dim, "fills": reps[-1].fills_ambient},
                    reps[-2].dim, secant._filling_order(reps))
        checks += [_check(name, anchor, value, expected)
                   for (name, expected, anchor), value in zip(rows, computed)]
    return checks


def _grid_checks(seed: int, primes: tuple[int, ...]) -> list[dict]:
    cases = [(spec, k, s) for spec in map(varieties.SegreVeroneseSpec.parse, PHI_GRID_SPECS)
             for k in PHI_GRID_K for s in PHI_GRID_S if s - 1 <= spec.ambient_dim]
    total, transfers = len(cases), sum(grassec._transfers(*case) for case in cases)

    @functools.cache  # the direct route depends on k only through w = min(k, s - 1)
    def direct(spec: varieties.SegreVeroneseSpec, w: int, s: int) -> int:
        return grassec.gs_dim_direct(spec, w, s, trials=1, seed=seed, primes=primes)

    # sigma_s(Seg(P^k x X)) from one walk per (X, k) over the grid's s-range:
    # every order is read off one evaluation sequence at the top order, so
    # the cells of lower orders rank prefixes of the same point sets
    @functools.cache
    def walk(spec: varieties.SegreVeroneseSpec, k: int) -> dict[int, secant.SecantReport]:
        seg = varieties.prepend_projective_factor(spec, k)
        orders = range(min(PHI_GRID_S), max(PHI_GRID_S) + 1)
        return {rep.s: rep for rep in secant.classify_secant_range(
            seg, orders, trials=1, seed=seed, primes=primes)}

    try:
        reports = [grassec.GrassmannSecantReport(spec, k, s, direct(spec, min(k, s - 1), s),
                                                 walk(spec, k)[s], seed) for spec, k, s in cases]
    except SamplingError as exc:
        identity = transfer = {"error": str(exc)}
    else:
        # cross_check is the identity seg_dim - dim_direct == (w+1)(k+1) - 1,
        # which is the gap k^2 + 2k wherever the transfer applies (w = k)
        identity_pass = sum(rep.cross_check for rep in reports)
        transfer_pass = sum(bool(rep.defect_transfer and rep.cross_check) for rep in reports)
        identity, transfer = f"{identity_pass}/{total}", f"{transfer_pass}/{transfers}"
    return [
        _check(
            "slice-map-dimension-identity-grid",
            "dim of the s-th secant of Seg(P^k x X) exceeds dim GS_X(w,s) by exactly (w+1)(k+1)-1",
            identity, f"{total}/{total}",
        ),
        _check(
            "defect-transfer-grid",
            "for k <= s-1 < r the Grassmann secant defect equals the secant defect of Seg(P^k x X); the dimension gap is k^2+2k",
            transfer, f"{transfers}/{transfers}",
        ),
    ]


def _never_defective_checks(seed: int, primes: tuple[int, ...], trials: int) -> list[dict]:
    checks = []
    for text in NEVER_DEFECTIVE_CASES:
        spec = varieties.SegreVeroneseSpec.parse(text)
        try:
            reports = criteria.never_defective_check(spec, trials=trials, seed=seed, primes=primes)
            computed = {"defects": sorted({rep.defect for rep in reports})}
        except InconsistencyError as exc:
            computed = {"error": str(exc)}
        checks.append(_check(
            f"never-defective-{text}-k{spec.ambient_dim - spec.dim}",
            "for k = r - n no secant variety of Seg(P^k x X) is defective",
            computed, {"defects": [0]},
        ))
    return checks


def _dimsegre_check(seed: int, primes: tuple[int, ...], trials: int) -> dict:
    veronese = varieties.SegreVeroneseSpec.parse("2:2")
    seg = varieties.prepend_projective_factor(veronese, 6)
    report = secant.secant_dim(seg, 5, trials=trials, seed=seed, primes=primes)
    case = criteria.dimsegre_classify(n=veronese.dim, r=veronese.ambient_dim, k=6, s=5)
    return _check(
        "dimsegre-case-ii-b-p6-x-veronese-p2",
        "for s-1 < min(r, k) and s-1 > r-n the dimension is s(k+r-s+2)-1 and the secant variety is defective",
        {"dim": report.dim, "case": case.label, "predicted": case.dim,
         "expected_dim": report.expected_dim},
        {"dim": 39, "case": "ii-b", "predicted": 39, "expected_dim": 41},
    )


def _slice_map_checks(seed: int, primes: tuple[int, ...]) -> dict:
    p = primes[0]
    specs = ["1,1", "1,1,1", "2:2", "1:3", "1,2"]
    total = 4 * len(specs)
    ok = 0
    try:
        for i, text in enumerate(specs):
            spec = varieties.SegreVeroneseSpec.parse(text)
            for j in range(4):
                rng = random.Random(secant.subseed(seed, 1000 + 10 * i + j, p))
                s = 2 + (j % 3)
                k = 1 + (j % 2)
                witness = phimap.random_secant_point(spec, k, s, rng, p)
                tensor = witness.tensor
                plucker = phimap.phi(tensor)
                contained = field.subspace_contains(
                    witness.embedded_points, plucker.basis, p
                )
                rank_ok = plucker.w == min(k, s - 1)
                scale_ok = all(
                    phimap.phi(tensor.scaled(rng.randrange(1, p))).basis
                    == plucker.basis
                    for _ in range(5)
                )
                if contained and rank_ok and scale_ok:
                    ok += 1
    except SamplingError as exc:
        computed = {"error": str(exc)}
    else:
        computed = f"{ok}/{total}"
    return _check(
        "slice-map-containment-and-scaling",
        "the slice span of a secant point lies in the span of its witness points and is scale invariant",
        computed, f"{total}/{total}",
    )


def _cardinality_check(seed: int) -> dict:
    spec = varieties.SegreVeroneseSpec.parse("1,1")
    q = 5
    pairs = 5
    equal = 0
    try:
        for i in range(pairs):
            rng = random.Random(secant.subseed(seed + i, 0, q))
            # only d = dim phi(T) = s is the general point: for d < s the subset
            # count is not the decomposition count, so proportional slices are redrawn
            for _ in range(varieties.MAX_RESAMPLES):
                span = phimap.phi(tensor := phimap.random_secant_point(spec, 1, 2, rng, q).tensor)
                if span.w == 1:
                    break
            else:
                raise SamplingError(f"every slice pair drawn on {spec} over F_{q} was proportional")
            # with d = 2 both coefficients are nonzero, so T's decompositions are the pairs of
            # singular members x*T_0 + y*T_1 of its slice pencil, read x0y0, x0y1, x1y0, x1y1
            (a, b, c, d), (e, f, g, h) = tensor.slices
            m = sum((x * a + y * e) * (x * d + y * h) % q == (x * b + y * f) * (x * c + y * g) % q
                    for x, y in [(0, 1)] + [(1, y) for y in range(q)])
            if phimap.count_decompositions(spec, 2, span) == m * (m - 1) // 2:
                equal += 1
    except SamplingError as exc:
        computed = {"error": str(exc)}
    else:
        computed = f"{equal}/{pairs}"
    return _check(
        "decomposition-count-pairs-f5",
        "the sets of point tuples computing a subspace and computing a general point of the slice-map fiber have the same cardinality",
        computed, f"{pairs}/{pairs}",
    )


def _soundness_check(seed: int, primes: tuple[int, ...]) -> dict:
    # parameter choices must not depend on the prime list, only on the seed
    rng = random.Random(secant.subseed(seed, 424242, 0))
    specs = ["1,1", "2:2", "1:4", "2:3", "1,2"]
    violations = holds_seen = 0

    @functools.cache  # the draws repeat (spec, s) pairs
    def secant_dim(spec: varieties.SegreVeroneseSpec, s: int) -> secant.SecantReport:
        return secant.secant_dim(spec, s, trials=1, seed=seed, primes=primes)

    for _ in range(12):
        spec = varieties.SegreVeroneseSpec.parse(rng.choice(specs))
        s = rng.randrange(2, 5)
        k = rng.randrange(1, s)
        step = criteria.theorem_tre(secant_dim(spec, s), k)
        if step.outcome != criteria.HOLDS:
            continue
        holds_seen += 1
        if criteria.recheck_step(step) != criteria.HOLDS:
            violations += 1
        # the rule's last hypothesis is s(n+k+1) < (k+1)(r+1): sigma_s(Seg(P^k x X)) expected below P^N
        seg = varieties.prepend_projective_factor(spec, k)
        if secant.expected_secant_dim(seg, s) == seg.ambient_dim:
            violations += 1
    return _check(
        "identifiability-criterion-soundness",
        "a positive identifiability verdict never coincides with a filling secant variety of Seg(P^k x X)",
        {"holds_seen": holds_seen, "violations": violations},
        {"holds_seen": holds_seen, "violations": 0},
    )


def run_catalog(
    seed: int = 0,
    primes: tuple[int, ...] = field.DEFAULT_PRIMES,
    trials: int = secant.DEFAULT_TRIALS,
) -> list[dict]:
    """Run every reproduction check and return the rows in a fixed order."""
    checks: list[dict] = []
    checks.extend(_secant_checks(seed, primes, trials))
    checks.extend(_grid_checks(seed, primes))
    checks.extend(_never_defective_checks(seed, primes, trials))
    checks.append(_dimsegre_check(seed, primes, trials))
    checks.append(_slice_map_checks(seed, primes))
    checks.append(_cardinality_check(seed))
    checks.append(_soundness_check(seed, primes))
    return checks
