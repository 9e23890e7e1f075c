"""Identifiability and defectivity criteria, plus linear-system reports.

Two kinds of evidence are kept strictly apart:

* computed -- inequalities a criterion checks on the reports it is given:
  :func:`theorem_tre` judges a report of sigma_s(X) that it does not compute
  itself; :func:`identifiability_report`, the one builder of a verdict, does.
  One rule table maps each computed step name to its anchor and its named
  hypotheses as a function of the step's recorded inputs; it builds every
  step, and :func:`recheck_step` re-derives an outcome from ``name`` + ``inputs`` alone;
* recorded-from-literature -- identifiability facts from the static catalog
  shipped with the package (data/literature.json), which holds only what
  the engine does not compute: generic ranks come from :mod:`grasec.secant`.

Every step of a chain either decides the verdict or is a computed criterion
that did not.  Criteria are sufficient conditions, so apart from recorded
non-identifiability facts a criterion never answers "fails": the honest
third verdict is "not decided".
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass
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
    anchor_quote: str
    provenance: str  # "computed" or "recorded-from-literature"

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass(frozen=True)
class IdentifiabilityVerdict:
    """The chain of criterion steps for (k, s)-identifiability of ``subject``."""

    subject: str
    k: int
    s: int
    chain: tuple[CriterionStep, ...]

    @property
    def verdict(self) -> str:
        """FAILS if a step fails, else HOLDS if one holds, else NOT_DECIDED."""
        outcomes = {step.outcome for step in self.chain}
        if FAILS in outcomes:
            return FAILS
        return HOLDS if HOLDS in outcomes else NOT_DECIDED

    @property
    def provenance(self) -> str:
        """The provenances of the deciding steps, sorted and joined by '+'.

        Recorded steps all decide, so an undecided chain is "computed"; an empty one is "none".
        """
        decisive = {st.provenance for st in self.chain if st.outcome in (HOLDS, FAILS)}
        return "+".join(sorted(decisive)) or ("computed" if self.chain else "none")

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


# computed step name -> (anchor, its named hypotheses as a function of the recorded inputs)
_RULES = {
    "rank-defect-criterion": (
        "If r > s*n + s - 1, X is not s-defective and s*n + (k+1)(s-1-k) < (k+1)(r-k) "
        "for 0 < k <= s-1, then the (k,s)-identifiability holds for X.",
        lambda n, r, s, k, s_defective, **_: {
            "0 < k <= s-1": 0 < k <= s - 1,
            "r > s*n + s - 1": r > s * n + s - 1,
            "X not s-defective": not s_defective,
            "s*n + (k+1)(s-1-k) < (k+1)(r-k)": s * n + (k + 1) * (s - 1 - k) < (k + 1) * (r - k),
        },
    ),
    "excess-codimension-criterion": (
        "If the codimension of X exceeds s, a general (s-1)-space inside an s-secant "
        "(s-1)-space lies in exactly one of them, so the (s-1, s)-identifiability holds.",
        lambda n, r, s, **_: {"r - n > s": r - n > s},
    ),
}


def _computed_step(name: str, **facts) -> CriterionStep:
    anchor, rule = _RULES[name]
    hypotheses = rule(**facts)
    outcome = HOLDS if all(hypotheses.values()) else NOT_DECIDED
    return CriterionStep(name, {**facts, "hypotheses": hypotheses}, outcome, anchor, "computed")


def theorem_tre(sigma: secant.SecantReport, k: int) -> CriterionStep:
    """The ``rank-defect-criterion`` for (k, s)-identifiability of X, judged on sigma_s(X).

    X and s are read off the report ``sigma``, and non-defectivity off its defect.
    """
    spec, s = sigma.spec, sigma.s
    secant._check_order(spec, k, s)
    return _computed_step("rank-defect-criterion", n=spec.dim, r=spec.ambient_dim, s=s, k=k,
                          s_defective=sigma.defect > 0)


def codimension_criterion(spec: varieties.SegreVeroneseSpec, s: int) -> CriterionStep:
    """If the codimension r - n exceeds s, then (s-1, s)-identifiability holds."""
    secant._check_order(spec, s - 1, s)
    return _computed_step("excess-codimension-criterion", n=spec.dim, r=spec.ambient_dim, s=s, k=s - 1)


def recheck_step(step: CriterionStep) -> str:
    """Re-derive a computed step's outcome from its ``name`` and recorded ``inputs`` alone.

    ``step`` may be rebuilt from printed JSON, keys sorted; its stored
    ``outcome`` and ``hypotheses`` are not read.  Unknown names raise ``ValueError``.
    """
    if step.name not in _RULES:
        raise ValueError(f"cannot recheck step {step.name!r}")
    return _computed_step(step.name, **step.inputs).outcome


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
    trials: int = secant.DEFAULT_TRIALS,
    seed: int = 0,
    primes: tuple[int, ...] = field.DEFAULT_PRIMES,
) -> list[secant.SecantReport]:
    """Verify that no secant variety of Seg(P^k x X) is defective, for k = r - n.

    k is the codimension of X, so X fixes it.  Runs the full classification
    up to the order ceil((N+1)/(m+1)) of Seg(P^k x X) in P^N, m = k + n, and
    raises on any nonzero defect.  A non-defective secant variety of that
    order fills P^N, so it is the filling order whenever the check passes.
    """
    seg = varieties.prepend_projective_factor(spec, spec.ambient_dim - spec.dim)
    orders = range(1, secant._fill_floor(seg) + 1)
    reports = secant.classify_secant_range(seg, orders, trials=trials, seed=seed, primes=primes)
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
    """Catalog entries deciding (k, s)-identifiability of dimension-k systems of the format."""
    steps: list[CriterionStep] = []
    t = len(format_dims)
    for entry in load_catalog():
        inputs, outcome = {"format": list(format_dims), "k": k, "s": s}, HOLDS
        if "format" in entry:
            if tuple(entry["format"]) != tuple(format_dims) or entry.get("k") != k:
                continue
            if entry["fact"] == "not-identifiable":
                if s != entry["s"]:
                    continue
                outcome, inputs["decomposition_count"] = FAILS, entry["decomposition_count"]
            elif s > entry["s_max"]:  # identifiable
                continue
        elif entry.get("family") == "matrix-systems":
            if t != 2:
                continue
            a, b = sorted(format_dims)
            if not (16 * s <= a * b and b <= k + 1):
                continue
        elif any(d != 2 for d in format_dims) or k != 1 or t < 5 or s * (t + 1) > 2**t:
            continue  # all-two-pencil
        steps.append(CriterionStep(name=entry["id"], inputs=inputs, outcome=outcome,
                                   anchor_quote=entry["statement"],
                                   provenance="recorded-from-literature"))
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


def _tensor_format(spec: varieties.SegreVeroneseSpec) -> tuple[int, ...] | None:
    """Side lengths n_i + 1 when X is a Segre product of two or more P^{n_i}, else None."""
    if len(spec.factors) >= 2 and all(d == 1 for _, d in spec.factors):
        return tuple(n + 1 for n, _ in spec.factors)
    return None


def identifiability_report(
    spec: varieties.SegreVeroneseSpec,
    k: int,
    s: int,
    trials: int = secant.DEFAULT_TRIALS,
    seed: int = 0,
    primes: tuple[int, ...] = field.DEFAULT_PRIMES,
) -> IdentifiabilityVerdict:
    """Full verdict chain for (k, s)-identifiability of X.

    A Segre product of two or more projective spaces is the variety of
    decomposable tensors of the format (n_i + 1): its chain starts with the
    recorded facts for that format and its subject is the format, e.g.
    ``2x2x2x2``.  Any other X has the spec string as subject.  The computed
    criteria follow, judged on one computed report of sigma_s(X).
    """
    secant._check_order(spec, k, s)
    fmt = _tensor_format(spec)
    chain = recorded_facts(fmt, k, s) if fmt else []
    if 0 < k <= s - 1:
        sigma = secant.secant_dim(spec, s, trials=trials, seed=seed, primes=primes)
        chain.append(theorem_tre(sigma, k))
    if k == s - 1:
        chain.append(codimension_criterion(spec, s))
    subject = "x".join(str(d) for d in fmt) if fmt else str(spec)
    return IdentifiabilityVerdict(subject, k, s, tuple(chain))


def linear_system_report(
    format_dims,
    k: int,
    s: int,
    trials: int = secant.DEFAULT_TRIALS,
    seed: int = 0,
    primes: tuple[int, ...] = field.DEFAULT_PRIMES,
) -> dict:
    """Generic rank and (k, s)-identifiability of dimension-k systems of a tensor format.

    The rank is the filling order of the secant varieties of the Segre
    product with P^k prepended; the verdict is :func:`identifiability_report`
    on the Segre product, whose chain holds the recorded facts for the format.
    """
    spec = format_to_spec(tuple(int(d) for d in format_dims))
    # the verdict comes first: it checks (k, s) before any secant is computed
    verdict = identifiability_report(spec, k, s, trials=trials, seed=seed, primes=primes)
    prepended = varieties.prepend_projective_factor(spec, k)
    return {
        "generic_rank": secant.generic_rank(prepended, trials=trials, seed=seed, primes=primes),
        "identifiability": verdict.to_dict(),
    }
