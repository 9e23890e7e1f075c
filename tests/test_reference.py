"""Fast paths against the plain-Python references in reference.py."""

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference
from grasec import field, grassec, phimap, reproduce, varieties
from grasec.errors import SamplingError
from grasec.phimap import SlicedTensor
from grasec.varieties import SegreVeroneseSpec

P = field.DEFAULT_PRIME


@st.composite
def _matrices(draw, q: int, max_side: int = 8, shape: tuple[int, int] | None = None):
    """Random, zero, duplicate-row or low-rank matrices over F_q, of ``shape`` or any up to max_side."""
    if shape is None:
        shape = draw(st.integers(1, max_side)), draw(st.integers(1, max_side))
    nrows, ncols = shape
    entry = st.integers(-q, 2 * q)
    kind = draw(st.sampled_from(["random", "zero", "duplicate", "low_rank"]))
    if kind == "zero":
        return [[0] * ncols for _ in range(nrows)]
    row = st.lists(entry, min_size=ncols, max_size=ncols)
    if kind == "random":
        return draw(st.lists(row, min_size=nrows, max_size=nrows))
    base = draw(st.lists(row, min_size=1, max_size=3))
    if kind == "duplicate":
        picks = draw(st.lists(st.integers(0, len(base) - 1), min_size=nrows, max_size=nrows))
        return [list(base[i]) for i in picks]
    coeffs = draw(st.lists(st.lists(entry, min_size=len(base), max_size=len(base)),
                           min_size=nrows, max_size=nrows))
    return [[sum(c * row[j] for c, row in zip(cs, base)) % q for j in range(ncols)]
            for cs in coeffs]


_ELIMINATION_PRIMES = st.sampled_from([2, 3, 5, 7, P])


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_prefix_ranks_and_rank_profile_match_reference(data):
    q = data.draw(_ELIMINATION_PRIMES)
    rows = data.draw(_matrices(q))
    ranks = [reference.rank(rows[:t], q) for t in range(len(rows) + 1)]
    assert reference.prefix_ranks(rows, q) == ranks
    assert [i for i in range(len(rows)) if ranks[i + 1] > ranks[i]] == field.rank_profile(rows, q)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_elimination_matches_reference(data):
    q = data.draw(_ELIMINATION_PRIMES)
    rows = data.draw(_matrices(q))
    expected, pivots = reference.rref(rows, q)
    assert field.matrix_rank(rows, q) == len(pivots)
    out = field.rref(rows, q)
    assert out.dtype.name == "int64"
    assert out.tolist() == expected
    assert field.row_space_basis(rows, q).tolist() == expected[:len(pivots)]


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_containment_matches_reference(data):
    # 1-6 spans of one shape against shared candidates: some rows inside
    # span 0, some anywhere
    q = data.draw(_ELIMINATION_PRIMES)
    shape = data.draw(st.integers(1, 8)), data.draw(st.integers(1, 8))
    spans = data.draw(st.lists(_matrices(q, shape=shape), min_size=1, max_size=6))
    span, ncols = spans[0], shape[1]
    inside = [[sum(c * row[j] for c, row in zip(cs, span)) % q for j in range(ncols)]
              for cs in data.draw(st.lists(st.lists(st.integers(0, q - 1), min_size=len(span),
                                                    max_size=len(span)), max_size=3))]
    anywhere = data.draw(st.lists(st.lists(st.integers(0, q - 1), min_size=ncols,
                                           max_size=ncols), max_size=2))
    candidates = inside + anywhere
    if not candidates:
        candidates = [[0] * ncols]
    expected = [reference.rank(m, q) == reference.rank(m + candidates, q) for m in spans]
    for m, contained in zip(spans, expected):
        single = field.subspace_contains(m, candidates, q)
        assert type(single) is bool
        assert single == contained
    if not anywhere:
        assert expected[0]


def _catalog_specs() -> list[str]:
    """Every variety whose frames the reproduction catalog builds, with two large ones."""
    bases = {"1,1,1,1,1", "3,3,3", "6:1,2:2", "1,1", "1,1,1", "1:4", "2:3",
             *reproduce.PHI_GRID_SPECS}
    texts = set(bases)
    for text in reproduce.PHI_GRID_SPECS + ("1:4", "2:3", "1,2"):
        for k in (1, 2, 3):
            texts.add(f"{k},{text}")
    for text in reproduce.NEVER_DEFECTIVE_CASES:
        spec = SegreVeroneseSpec.parse(text)
        texts.update((text, f"{spec.ambient_dim - spec.dim},{text}"))
    return sorted(texts) + ["1,1,1,1,1,1,1,1,1", "4,4,4,4"]


def _assert_frames_match(spec: SegreVeroneseSpec, points: list, p: int) -> None:
    """One frame call over ``points`` stacks each point's reference frame, of full rank."""
    expected = [reference.frame(spec, u, p) for u in points]
    frames = varieties.tangent_frame(spec, points, p)
    assert frames.dtype.name == "int64"
    assert frames.tolist() == expected
    for u, frame in zip(points, expected):
        assert varieties.embed(spec, u, p) == frame[0]
        assert reference.rank(frame, p) == spec.dim + 1


@pytest.mark.parametrize("text", _catalog_specs())
@pytest.mark.parametrize("p", [P, 5, 7])
def test_frames_match_power_rule_reference(text, p):
    spec = SegreVeroneseSpec.parse(text)
    rng = random.Random(f"{text}:{p}")
    _assert_frames_match(spec, [varieties.random_parameter_point(spec, rng, p) for _ in range(2)], p)


def test_frame_coefficients_reduce_mod_small_primes():
    # d/dy of (x^3, x^2 y, x y^2, y^3) is (0, x^2, 2xy, 3y^2)
    spec = SegreVeroneseSpec.parse("1:3")
    assert varieties.tangent_frame(spec, [((1, 1),)], 3).tolist() == [[[1, 1, 1, 1], [0, 1, 2, 0]]]
    assert varieties.tangent_frame(spec, [((1, 1),)], 2).tolist() == [[[1, 1, 1, 1], [0, 1, 0, 1]]]


@pytest.mark.parametrize("text", ["1:3", "2:2", "1,2", "1,1,1", "1:2,1:2"])
@pytest.mark.parametrize("q", [2, 3])
def test_every_frame_has_full_rank(text, q):
    # the frame invariant: no point of any factor degenerates the frame,
    # even where q divides a power-rule coefficient; one call takes points
    # whose factors have different pivots
    spec = SegreVeroneseSpec.parse(text)
    _assert_frames_match(spec, list(reference.nonzero_points(spec, q)), q)


# every field count_decompositions accepts; q = 7 on the specs whose
# reference listing stays fast
@pytest.mark.parametrize("q,text", [
    *((q, text) for q in (2, 3, 5)
      for text in ("2", "1:2", "2:2", "1:4", "1,1", "1:2,1", "2:3", "1,1,1")),
    *((7, text) for text in ("2", "1:2", "1:4", "1,1")),
])
def test_enumeration_matches_normalize_and_dedup(q, text):
    spec = SegreVeroneseSpec.parse(text)
    table = phimap.enumerate_variety_points(spec, q)
    points = table.tolist()
    assert points == reference.variety_points(spec, q)
    assert phimap.enumerate_variety_points(SegreVeroneseSpec.parse(text), q) is table
    assert not table.flags.writeable  # shared by the cache
    assert len(points) == math.prod((q ** (n + 1) - 1) // (q - 1) for n, _ in spec.factors)


def _count_target(spec: SegreVeroneseSpec, s: int, kind: str, rng: random.Random, q: int, k: int = 1):
    """A secant point over F_q, as a tensor or as its slice span, and its rows."""
    witness = phimap.random_secant_point(spec, k, s, rng, q)
    if kind == "tensor":
        return witness.tensor, witness.tensor.slices
    target = phimap.phi(witness.tensor)
    return target, target.basis


@pytest.mark.parametrize("text,q,s", [("1,1", 5, 2), ("1,1,1", 3, 2), ("2:2", 5, 3), ("1,2", 3, 3)])
@pytest.mark.parametrize("kind", ["tensor", "subspace"])
def test_count_matches_per_subset_reference(text, q, s, kind):
    spec = SegreVeroneseSpec.parse(text)
    target, rows = _count_target(spec, s, kind, random.Random(f"{text}:{s}"), q)
    count = phimap.count_decompositions(spec, s, target)
    assert count == reference.count_decompositions(spec, s, rows, q)
    assert count >= 1  # the witness's own points


@pytest.mark.parametrize("kind", ["tensor", "subspace"])
def test_count_of_a_point_target_matches_reference(kind):
    # a point target, d = 1 < s = 2: all 630 pairs of points of 1,1 over F_5
    spec = SegreVeroneseSpec.parse("1,1")
    target, rows = _count_target(spec, 2, kind, random.Random(4), 5, k=0)
    assert phimap.count_decompositions(spec, 2, target) == reference.count_decompositions(spec, 2, rows, 5)


def _unit_rows(count: int, width: int) -> tuple[tuple[int, ...], ...]:
    return tuple(tuple(int(i == j) for j in range(width)) for i in range(count))


@pytest.mark.parametrize("q", [2, 3, 5, 7])
@pytest.mark.parametrize("text,s,rows", [
    ("1,1", 2, None),              # a pencil's slice span, d = s: only the points inside L
    ("1,1", 2, _unit_rows(3, 4)),  # d > s: no subset passes
    ("1:2", 3, _unit_rows(3, 3)),  # L is the whole ambient space, d = s
    ("1:2", 4, _unit_rows(3, 3)),  # L is the whole ambient space, d < s: pi is zero
])
@pytest.mark.parametrize("kind", ["tensor", "subspace"])
def test_count_edge_targets_match_reference(q, text, s, rows, kind):
    spec = SegreVeroneseSpec.parse(text)
    if rows is None:
        target, rows = _count_target(spec, s, kind, random.Random(q), q)
    else:
        target = SlicedTensor(q, rows) if kind == "tensor" else phimap.PluckerPoint(q, rows)
    assert phimap.count_decompositions(spec, s, target) == reference.count_decompositions(spec, s, rows, q)


_factor = st.tuples(st.integers(1, 2), st.integers(1, 3))


@settings(max_examples=40, deadline=None)
@given(
    st.lists(_factor, min_size=1, max_size=3),
    st.sampled_from([2, 3, 5, 7, 101, P]),
    st.integers(0, 2**32),
)
def test_random_spec_frames_match_reference(factors, p, seed):
    spec = SegreVeroneseSpec(tuple(factors))
    point = varieties.random_parameter_point(spec, random.Random(seed), p)
    _assert_frames_match(spec, [point], p)


GS_CASES = (
    ("1:3", 1, 2), ("1:3", 2, 3), ("2:2", 1, 3), ("2:2", 2, 3), ("1,1", 0, 2),
    ("1,1", 1, 2), ("1,2", 1, 3), ("1:4", 1, 3), ("2,2", 1, 4), ("1:3", 3, 2),
)


@pytest.mark.parametrize("text,k,s", GS_CASES)
@pytest.mark.parametrize("seed", [0, 1])
def test_hom_rank_is_pluecker_rank_minus_one(text, k, s, seed):
    spec = SegreVeroneseSpec.parse(text)
    w = grassec._plane_dim(spec, k, s)
    direct = grassec._direct_rank(spec, w, s, random.Random(seed), P)
    assert direct == reference.plucker_direct_rank(spec, k, s, random.Random(seed), P) - 1


@pytest.mark.parametrize("text,k,s,shape", [case + (None,) for case in GS_CASES] + [
    # the three grassmann benchmark rows, and w = r, where Hom(L, V/L) = 0
    ("2:4", 3, 5, (44, 14)), ("3:3", 3, 5, (64, 19)), ("2,2,2", 3, 5, (92, 34)),
    ("1:3", 3, 4, (0, 4)),
])
def test_direct_jacobian_is_hom_by_parameters(text, k, s, shape, monkeypatch):
    # Hom(L, V/L) off L's pivots by s*n point parameters and the (w+1)(s-1-w)
    # coefficients outside lam's pivot columns; none of them when w = s - 1
    spec = SegreVeroneseSpec.parse(text)
    n, r, w = spec.dim, spec.ambient_dim, grassec._plane_dim(spec, k, s)
    shapes, rank = [], field.matrix_rank
    monkeypatch.setattr(field, "matrix_rank",
                        lambda rows, p: shapes.append(rows.shape) or rank(rows, p))
    value = grassec._direct_rank(spec, w, s, random.Random(0), P)
    expected = ((w + 1) * (r - w), s * n + (w + 1) * (s - 1 - w))
    assert shapes == [expected] and shape in (None, expected)
    assert w < r or value == 0


@settings(max_examples=25, deadline=None)
@given(
    st.lists(_factor, min_size=1, max_size=2).filter(
        lambda fs: SegreVeroneseSpec(tuple(fs)).ambient_dim <= 8
    ),
    st.integers(0, 2),
    st.integers(1, 4),
    st.sampled_from([101, P]),
    st.integers(0, 2**32),
)
def test_random_spec_hom_rank_matches_oracle(factors, k, s, p, seed):
    spec = SegreVeroneseSpec(tuple(factors))
    s = min(s, spec.ambient_dim + 1)
    w = grassec._plane_dim(spec, k, s)
    try:
        direct = grassec._direct_rank(spec, w, s, random.Random(seed), p)
    except SamplingError:
        with pytest.raises(SamplingError):
            reference.plucker_direct_rank(spec, k, s, random.Random(seed), p)
        return
    assert direct == reference.plucker_direct_rank(spec, k, s, random.Random(seed), p) - 1
