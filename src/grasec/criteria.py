"""Identifiability and defectivity criteria, plus linear-system reports.

Two kinds of evidence are kept strictly apart:

* computed -- inequalities checked here, with any defectivity hypothesis
  certified by a fresh tangent-frame computation;
* recorded-from-literature -- facts from the static catalog shipped with
  the package (data/literature.json), never recomputed at full scale.

Criteria are sufficient conditions, so apart from recorded
non-identifiability facts a criterion never answers "fails": the honest
third verdict is "not decided".
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from importlib import resources

from . import field, secant, varieties
from .errors import InconsistencyError

HOLDS = "holds"
FAILS = "fails"
NOT_DECIDED = "not decided"


@dataclass(frozen=True)
class CriterionStep:
    name: str
    inputs: dict
    outcome: str
    anchor: str
    provenance: str  # "computed" or "recorded-from-literature"

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "inputs": self.inputs,
            "outcome": self.outcome,
            "anchor_quote": self.anchor,
            "provenance": self.provenance,
        }


@dataclass(frozen=True)
class IdentifiabilityVerdict:
    subject: str
    k: int
    s: int
    verdict: str
    chain: tuple[CriterionStep, ...]
    provenance: str

    def to_dict(self) -> dict:
        return {
            "subject": self.subject,
            "k": self.k,
            "s": self.s,
            "verdict": self.verdict,
            "chain": [step.to_dict() for step in self.chain],
            "provenance": self.provenance,
        }


@dataclass(frozen=True)
class DimsegreCase:
    """Case classification for dim sigma_s(Seg(P^k x X)) from (n, r, k, s)."""

    label: str                 # one of i, ii-a, ii-b, iii, iv
    dim: int | None            # None in case iv (needs a Grassmann secant run)
    defective: bool | None


def _verdict_from_chain(subject: str, k: int, s: int, chain) -> IdentifiabilityVerdict:
    decisive = [st for st in chain if st.outcome in (HOLDS, FAILS)]
    if any(st.outcome == FAILS for st in decisive):
        verdict = FAILS
    elif any(st.outcome == HOLDS for st in decisive):
        verdict = HOLDS
    else:
        verdict = NOT_DECIDED
    provenance = "+".join(sorted({st.provenance for st in decisive})) or "computed"
    return IdentifiabilityVerdict(
        subject=subject, k=k, s=s, verdict=verdict,
        chain=tuple(chain), provenance=provenance,
    )


def theorem_tre(
    n: int,
    r: int,
    s: int,
    k: int,
    s_defective: bool | None = None,
    spec: varieties.SegreVeroneseSpec | None = None,
    trials: int = secant.DEFAULT_TRIALS,
    seed: int = 0,
    primes: tuple[int, ...] = field.DEFAULT_PRIMES,
) -> IdentifiabilityVerdict:
    """Sufficient criterion for (k, s)-identifiability of an n-dim X in P^r.

    Hypotheses: 0 < k <= s-1, the ambient dimension strictly exceeds
    s*n + s - 1 (so the s-th secant variety of the Segre product cannot
    cover its span), X is not s-defective, and
    s*n + (k+1)(s-1-k) < (k+1)(r-k).  When ``s_defective`` is None and a
    spec is given, the defectivity hypothesis is certified by computation.
    """
    if min(n, r, s, k) < 0:
        raise ValueError("parameters must be non-negative")
    if spec is not None and (n, r) != (spec.dim, spec.ambient_dim):
        raise ValueError(f"(n, r) = ({n}, {r}) does not describe {spec}: it has "
                         f"n = {spec.dim}, r = {spec.ambient_dim}")
    defectivity_source = "flag"
    if s_defective is None:
        if spec is None:
            raise ValueError("pass s_defective or a spec to certify it")
        report = secant.secant_dim(spec, s, trials=trials, seed=seed, primes=primes)
        s_defective = report.defect > 0
        defectivity_source = "computed"
    hypotheses = {
        "0 < k <= s-1": 0 < k <= s - 1,
        "r > s*n + s - 1": r > s * n + s - 1,
        "X not s-defective": not s_defective,
        "s*n + (k+1)(s-1-k) < (k+1)(r-k)": s * n + (k + 1) * (s - 1 - k) < (k + 1) * (r - k),
    }
    outcome = HOLDS if all(hypotheses.values()) else NOT_DECIDED
    step = CriterionStep(
        name="rank-defect-criterion",
        inputs={
            "n": n, "r": r, "s": s, "k": k,
            "s_defective": bool(s_defective),
            "defectivity_source": defectivity_source,
            "hypotheses": hypotheses,
        },
        outcome=outcome,
        anchor=(
            "If r > s*n + s - 1, X is not s-defective and "
            "s*n + (k+1)(s-1-k) < (k+1)(r-k) for 0 < k <= s-1, then the "
            "(k,s)-identifiability holds for X."
        ),
        provenance="computed",
    )
    subject = str(spec) if spec is not None else f"X(n={n}, r={r})"
    return _verdict_from_chain(subject, k, s, [step])


def codimension_criterion(n: int, r: int, s: int) -> IdentifiabilityVerdict:
    """If the codimension r - n exceeds s, then (s-1, s)-identifiability holds."""
    if n < 0 or r < n or s < 1:
        raise ValueError(f"need 0 <= n <= r and s >= 1, got n={n}, r={r}, s={s}")
    ok = r - n > s
    step = CriterionStep(
        name="excess-codimension-criterion",
        inputs={"n": n, "r": r, "s": s, "k": s - 1, "hypotheses": {"r - n > s": ok}},
        outcome=HOLDS if ok else NOT_DECIDED,
        anchor=(
            "If the codimension of X exceeds s, a general (s-1)-space inside "
            "an s-secant (s-1)-space lies in exactly one of them, so the "
            "(s-1, s)-identifiability holds."
        ),
        provenance="computed",
    )
    return _verdict_from_chain(f"X(n={n}, r={r})", s - 1, s, [step])


def recheck_step(step: CriterionStep) -> str:
    """Re-evaluate a serialized computed step from its recorded inputs."""
    if step.name not in ("rank-defect-criterion", "excess-codimension-criterion"):
        raise ValueError(f"cannot recheck step {step.name!r}")
    ins = step.inputs
    n, r, s, k = ins["n"], ins["r"], ins["s"], ins["k"]
    if step.name == "rank-defect-criterion":
        ok = (
            0 < k <= s - 1
            and r > s * n + s - 1
            and not ins["s_defective"]
            and s * n + (k + 1) * (s - 1 - k) < (k + 1) * (r - k)
        )
        return HOLDS if ok else NOT_DECIDED
    return HOLDS if r - n > s else NOT_DECIDED


def dimsegre_classify(n: int, r: int, k: int, s: int) -> DimsegreCase:
    """Closed-form case split for dim sigma_s(Seg(P^k x X)).

    Exactly one case applies: (i) s-1 >= r fills the ambient space;
    (ii) s-1 < min(r, k) splits on s-1 <=> r-n (ii-b is defective);
    (iii) s-1 = k < r; (iv) k < s-1 < r needs the Grassmann secant
    dimension (the gap to it is exactly k**2 + 2k).
    """
    if min(n, k) < 0 or s < 1 or r < n:
        raise ValueError("illegal parameters")
    N = (k + 1) * (r + 1) - 1
    if s - 1 >= r:
        return DimsegreCase("i", N, False)
    if s - 1 < k:
        if s - 1 <= r - n:
            return DimsegreCase("ii-a", s * (k + n + 1) - 1, False)
        return DimsegreCase("ii-b", s * (k + r - s + 2) - 1, True)
    if s - 1 == k:
        return DimsegreCase("iii", min(s * (k + n + 1) - 1, N), False)
    return DimsegreCase("iv", None, None)


def never_defective_check(
    spec: varieties.SegreVeroneseSpec,
    k: int,
    trials: int = secant.DEFAULT_TRIALS,
    seed: int = 0,
    primes: tuple[int, ...] = field.DEFAULT_PRIMES,
) -> list[secant.SecantReport]:
    """For k = r - n, verify that no secant variety of Seg(P^k x X) is defective.

    Runs the full classification up to the order ceil((N+1)/(m+1)) of
    Seg(P^k x X) in P^N, m = k + n, and raises on any nonzero defect.  A
    non-defective secant variety of that order fills P^N, so it is the
    filling order whenever the check passes.
    """
    n, r = spec.dim, spec.ambient_dim
    if k != r - n:
        raise ValueError(f"this check applies only to k = r - n = {r - n}, got k = {k}")
    seg = varieties.prepend_projective_factor(spec, k)
    fill = math.ceil((seg.ambient_dim + 1) / (seg.dim + 1))
    reports = secant.classify_secant_range(seg, fill, trials=trials, seed=seed, primes=primes)
    for rep in reports:
        if rep.defect != 0:
            raise InconsistencyError(
                f"defect {rep.defect} at s = {rep.s} on {seg}, expected none for k = r - n"
            )
    return reports


# ---------------------------------------------------------------------------
# Literature catalog
# ---------------------------------------------------------------------------

def load_catalog() -> list[dict]:
    text = resources.files("grasec").joinpath("data/literature.json").read_text()
    return json.loads(text)


def recorded_facts(format_dims: tuple[int, ...], k: int, s: int) -> list[CriterionStep]:
    """Catalog entries applying to dimension-k systems of the given format."""
    steps: list[CriterionStep] = []
    t = len(format_dims)
    for entry in load_catalog():
        inputs = {"format": list(format_dims), "k": k, "s": s, "catalog_id": entry["id"]}
        if "format" in entry:
            if tuple(entry["format"]) != tuple(format_dims) or entry.get("k") != k:
                continue
            fact = entry["fact"]
            if fact == "generic-rank":
                outcome = "info"
                inputs["generic_rank"] = entry["value"]
            elif fact == "identifiable":
                if s > entry["s_max"]:
                    continue
                outcome = HOLDS
            elif fact == "not-identifiable":
                if s != entry["s"]:
                    continue
                outcome = FAILS
                inputs["decomposition_count"] = entry["decomposition_count"]
            else:
                continue
        elif entry.get("family") == "matrix-systems":
            if t != 2:
                continue
            a, b = sorted(format_dims)
            if not (16 * s <= a * b and b <= k + 1):
                continue
            outcome = HOLDS
        elif entry.get("family") == "all-two-pencil":
            if any(d != 2 for d in format_dims) or k != 1:
                continue
            if entry["fact"] == "generic-rank-formula":
                if t < 4:
                    continue
                outcome = "info"
                inputs["generic_rank"] = math.ceil(2 ** (t + 1) / (t + 2))
                inputs["alternative_reading"] = math.ceil(2**t / (t + 1))
            else:  # identifiable-if-rule
                if t < 5 or s * (t + 1) > 2**t:
                    continue
                outcome = HOLDS
        else:
            continue
        steps.append(
            CriterionStep(
                name=entry["id"],
                inputs=inputs,
                outcome=outcome,
                anchor=entry["statement"],
                provenance="recorded-from-literature",
            )
        )
    return steps


# ---------------------------------------------------------------------------
# Linear systems of tensors
# ---------------------------------------------------------------------------

def format_to_spec(format_dims) -> varieties.SegreVeroneseSpec:
    """Segre variety of decomposable tensors of the given side lengths."""
    if len(format_dims) < 2:
        raise ValueError("a tensor format needs at least two sides")
    if any(d < 2 for d in format_dims):
        raise ValueError("tensor side lengths must be >= 2")
    return varieties.SegreVeroneseSpec(tuple((d - 1, 1) for d in format_dims))


def _check_k_s(spec: varieties.SegreVeroneseSpec, k: int, s: int | None) -> None:
    """Reject k < 0, s < 1 and s - 1 > r (s = None means no s was given)."""
    if k < 0 or (s is not None and s < 1):
        raise ValueError(f"need k >= 0 and s >= 1, got k={k}, s={s}")
    if s is not None:
        secant._check_order(spec, s)


def identifiability_report(
    k: int,
    s: int,
    format_dims: tuple[int, ...] | None = None,
    spec: varieties.SegreVeroneseSpec | None = None,
    trials: int = secant.DEFAULT_TRIALS,
    seed: int = 0,
    primes: tuple[int, ...] = field.DEFAULT_PRIMES,
) -> IdentifiabilityVerdict:
    """Full verdict chain for (k, s)-identifiability of a format or a spec."""
    if (format_dims is None) == (spec is None):
        raise ValueError("pass exactly one of format_dims or spec")
    if format_dims is not None:
        spec = format_to_spec(format_dims)
    _check_k_s(spec, k, s)
    chain = recorded_facts(tuple(format_dims), k, s) if format_dims is not None else []
    n, r = spec.dim, spec.ambient_dim
    if 0 < k <= s - 1:
        computed = theorem_tre(
            n, r, s, k, spec=spec, trials=trials, seed=seed, primes=primes
        )
        chain.extend(computed.chain)
    if k == s - 1:
        chain.extend(codimension_criterion(n, r, s).chain)
    subject = (
        "x".join(str(d) for d in format_dims) if format_dims is not None else str(spec)
    )
    return _verdict_from_chain(subject, k, s, chain)


def linear_system_report(
    format_dims,
    k: int,
    s: int | None = None,
    trials: int = secant.DEFAULT_TRIALS,
    seed: int = 0,
    primes: tuple[int, ...] = field.DEFAULT_PRIMES,
) -> dict:
    """Generic rank of dimension-k systems of the given tensor format.

    The rank is the filling order of the secant varieties of the Segre
    product with P^k prepended.  Identifiability verdicts (computed and
    recorded) are attached when ``s`` is given.
    """
    format_dims = tuple(int(d) for d in format_dims)
    spec = format_to_spec(format_dims)
    _check_k_s(spec, k, s)
    prepended = varieties.prepend_projective_factor(spec, k)
    rank = secant.generic_rank(prepended, trials=trials, seed=seed, primes=primes)
    report = {
        "format": list(format_dims),
        "k": k,
        "generic_rank": rank,
        "rank_rule": (
            "minimal s whose s-th secant variety of the Segre product with "
            "a prepended P^k fills the ambient space"
        ),
        "recorded_facts": [st.to_dict() for st in recorded_facts(format_dims, k, s or rank)],
    }
    if s is not None:
        verdict = identifiability_report(
            k, s, format_dims=format_dims, trials=trials, seed=seed, primes=primes
        )
        report["identifiability"] = verdict.to_dict()
    return report
