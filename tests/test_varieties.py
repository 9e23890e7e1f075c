"""Segre-Veronese specs, embeddings and tangent frames."""

import hashlib
import random

import numpy as np
import pytest

import reference
from grasec import field, phimap, secant, varieties
from grasec.varieties import SegreVeroneseSpec, prepend_projective_factor

P = field.DEFAULT_PRIME


class TestSpec:
    def test_ambient_dims(self):
        assert SegreVeroneseSpec.parse("1,1,1").ambient_dim == 7
        assert SegreVeroneseSpec.parse("3,3,3").ambient_dim == 63
        assert SegreVeroneseSpec.parse("2:2").ambient_dim == 5

    def test_dim_and_arity(self):
        spec = SegreVeroneseSpec.parse("2:2,1")
        assert spec.dim == 3

    def test_parse_str_roundtrip(self):
        for text in ("1,1,1,1", "2:2", "3:1,3:1", "6:1,2:2"):
            spec = SegreVeroneseSpec.parse(text)
            assert SegreVeroneseSpec.parse(str(spec)) == spec

    def test_invalid_specs_rejected(self):
        with pytest.raises(ValueError):
            SegreVeroneseSpec.parse("")
        with pytest.raises(ValueError):
            SegreVeroneseSpec(((0, 1),))
        with pytest.raises(ValueError):
            SegreVeroneseSpec(((1, 0),))

    def test_monomial_count_matches_ambient(self):
        for text in ("1,1", "2:2", "1:3", "2,2", "3:2"):
            spec = SegreVeroneseSpec.parse(text)
            assert len(reference.monomials(spec)) == spec.ambient_dim + 1


class TestEmbed:
    def test_segre_of_two_lines(self):
        spec = SegreVeroneseSpec.parse("1,1")
        assert varieties.embed(spec, ((1, 2), (1, 3)), P) == [1, 3, 2, 6]

    def test_twisted_cubic(self):
        spec = SegreVeroneseSpec.parse("1:3")
        assert varieties.embed(spec, ((1, 2),), P) == [1, 2, 4, 8]

    def test_coordinate_point(self):
        spec = SegreVeroneseSpec.parse("1,2")
        assert varieties.embed(spec, ((1, 0), (0, 0, 1)), P) == [0, 0, 1, 0, 0, 0]

    def test_zero_factor_rejected(self):
        spec = SegreVeroneseSpec.parse("1,1")
        with pytest.raises(ValueError):
            varieties.embed(spec, ((0, 0), (1, 1)), P)

    def test_factor_zero_mod_p_rejected(self):
        # (7, 14) is the zero vector over F_7; its frame could not have full rank
        spec = SegreVeroneseSpec.parse("1,1")
        with pytest.raises(ValueError, match="zero"):
            varieties.tangent_frame(spec, [((7, 14), (1, 1))], 7)

    @pytest.mark.parametrize("bad,message", [
        (((1, 1),), "wrong number of factors"),
        (((1, 1), (1, 1, 1)), "wrong length"),
        (((1, 1), (5, 0)), "is zero"),
    ])
    def test_invalid_point_anywhere_in_the_list_rejected(self, bad, message):
        spec = SegreVeroneseSpec.parse("1,1")
        with pytest.raises(ValueError, match=message):
            varieties.tangent_frame(spec, [((1, 2), (3, 4)), bad], 5)

    def test_multihomogeneity(self):
        # scaling factor i by c scales the embedding by c**d_i
        rng = random.Random(2)
        spec = SegreVeroneseSpec.parse("1:3,2:2")
        for _ in range(10):
            point = varieties.random_parameter_point(spec, rng, P)
            base = varieties.embed(spec, point, P)
            c = rng.randrange(2, P)
            scaled_point = (tuple(v * c % P for v in point[0]), point[1])
            scaled = varieties.embed(spec, scaled_point, P)
            factor = pow(c, 3, P)
            assert scaled == [v * factor % P for v in base]


class TestTangentFrames:
    def test_bilinear_coordinate_point(self):
        spec = SegreVeroneseSpec.parse("1,1")
        frame = varieties.tangent_frame(spec, [((1, 0), (1, 0))], P)[0]
        assert field.matrix_rank(frame, P) == 3
        # the frame spans exactly the coordinates x00, x01, x10
        basis = field.row_space_basis(frame, P)
        assert basis.tolist() == [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0]]

    def test_conic_tangent(self):
        spec = SegreVeroneseSpec.parse("1:2")
        frame = varieties.tangent_frame(spec, [((1, 0),)], P)[0]
        basis = field.row_space_basis(frame, P)
        assert basis.tolist() == [[1, 0, 0], [0, 1, 0]]

    def test_random_frame_rank(self):
        spec = SegreVeroneseSpec.parse("2,2")
        rng = random.Random(11)
        point = varieties.random_parameter_point(spec, rng, P)
        frame = varieties.tangent_frame(spec, [point], P)[0]
        assert field.matrix_rank(frame, P) == 5

    @pytest.mark.parametrize("text", ["1,2", "1:3"])
    def test_no_points_give_an_empty_stack(self, text):
        spec = SegreVeroneseSpec.parse(text)
        frames = varieties.tangent_frame(spec, [], P)
        assert frames.shape == (0, spec.dim + 1, spec.ambient_dim + 1)
        assert frames.dtype == np.int64

    def test_each_frame_build_is_one_dual_evaluate_call(self, monkeypatch):
        # field.dual_evaluate is the one monomial evaluator: each frame stack,
        # empty or not, is one call on all its points, and so is an F_q
        # enumeration, on every product of normalized factor points
        stacks = {"frames": [], "evaluations": []}

        def spy(name, fn, arg):
            return lambda *args: stacks[name].append(len(args[arg])) or fn(*args)

        monkeypatch.setattr(varieties, "tangent_frame", spy("frames", varieties.tangent_frame, 1))
        monkeypatch.setattr(field, "dual_evaluate", spy("evaluations", field.dual_evaluate, 0))
        varieties.tangent_frame(SegreVeroneseSpec.parse("2:3,1"), [], P)
        varieties.random_frames(SegreVeroneseSpec.parse("1,2"), 3, random.Random(0), P)
        phimap.enumerate_variety_points.cache_clear()  # an earlier call would leave nothing to build
        phimap.enumerate_variety_points(SegreVeroneseSpec.parse("1:2,1,2"), 3)
        secant.secant_dim(SegreVeroneseSpec.parse("1,1,1"), 2)
        assert stacks["frames"][:3] == [0, 3, 4 * 4 * 13]
        assert stacks["frames"] == stacks["evaluations"]
        assert len(stacks["frames"]) > 3

    @pytest.mark.parametrize("text", ["1,1,1,1", "2:3,1", "3:2,2", "4,4,4"])
    def test_coordinate_supports_match_frames(self, text):
        # the supports read off the power-rule table against the dense frames
        spec = SegreVeroneseSpec.parse(text)
        points = reference.coordinate_points(spec)
        frames = varieties.tangent_frame(spec, points, P)
        supports = varieties._coordinate_supports(spec)
        assert supports.shape == (len(points), spec.dim + 1)
        for frame, support in zip(frames, supports):
            assert [np.flatnonzero(row).tolist() for row in frame] == [[c] for c in support]
            assert frame[np.arange(spec.dim + 1), support].tolist() == [1] * (spec.dim + 1)

    def test_coordinate_supports_are_cached_read_only(self):
        spec = SegreVeroneseSpec.parse("2:3,1")
        supports = varieties._coordinate_supports(spec)
        assert varieties._coordinate_supports(SegreVeroneseSpec.parse("2:3,1")) is supports
        assert not supports.flags.writeable
        gather, coeff, _, _ = table = varieties._frame_table(spec)
        assert varieties._frame_table(SegreVeroneseSpec.parse("2:3,1")) is table
        assert not gather.flags.writeable and not coeff.flags.writeable

    @pytest.mark.parametrize("points", [[], [((1, 2), (1, 0, 3))]])
    @pytest.mark.parametrize("n", [4, 561])
    def test_composite_modulus_rejected(self, points, n):
        with pytest.raises(ValueError, match=f"modulus {n} is not prime"):
            varieties.tangent_frame(SegreVeroneseSpec.parse("1,2"), points, n)

    def test_frame_contains_embedding(self):
        spec = SegreVeroneseSpec.parse("1:3")
        rng = random.Random(4)
        point = varieties.random_parameter_point(spec, rng, P)
        frame = varieties.tangent_frame(spec, [point], P)[0]
        assert field.subspace_contains(frame, [varieties.embed(spec, point, P)], P)


class TestPrepend:
    def test_pencil_spec(self):
        spec = SegreVeroneseSpec.parse("1,1,1,1")
        seg = prepend_projective_factor(spec, 1)
        assert seg == SegreVeroneseSpec.parse("1,1,1,1,1")
        assert seg.ambient_dim == 31

    def test_matrix_system_spec(self):
        seg = prepend_projective_factor(SegreVeroneseSpec.parse("3,3"), 3)
        assert seg.ambient_dim == 63

    def test_ambient_identity(self):
        for text, k in (("2:2", 2), ("1,2", 3), ("1:3", 1)):
            spec = SegreVeroneseSpec.parse(text)
            seg = prepend_projective_factor(spec, k)
            assert seg.ambient_dim + 1 == (k + 1) * (spec.ambient_dim + 1)

    def test_k_zero_is_the_variety_itself(self):
        spec = SegreVeroneseSpec.parse("1,1")
        assert prepend_projective_factor(spec, 0) is spec

    def test_negative_k_rejected(self):
        with pytest.raises(ValueError, match="k must be >= 0"):
            prepend_projective_factor(SegreVeroneseSpec.parse("1,1"), -1)



class TestDrawStream:
    """Digests of the points drawn at fixed seeds, recorded before the draws
    moved into :func:`varieties.random_frames`; the golden files pin the
    dimensions computed at these points, not the points themselves."""

    # every spec the catalog draws on at seed 0, drawn at s = 3
    CATALOG = ("1,1", "1,1,1", "1,1,1,1,1", "1,1,2", "1,1:3", "1,2", "1,2,2", "1,2:2", "1,2:3",
               "1:3", "1:4", "2,1,2", "2,1:3", "2,2", "2,2,2", "2,2:2", "2,2:3", "2:2", "2:3",
               "3,1,2", "3,1:3", "3,2,2", "3,2:2", "3,3,3", "6,2:2", "6,3:2")
    # the secant_scale benchmark rows
    SCALE = (("4,4,4", 10), ("2,2,2,2,2", 22), ("1,1,1,1,1,1,1,1,1", 52), ("4,4,4,4", 36))

    def test_frames(self):
        digest = hashlib.blake2b(digest_size=16)
        for text, s in [(text, 3) for text in self.CATALOG] + list(self.SCALE):
            spec = SegreVeroneseSpec.parse(text)
            for t in (0, 1):
                rng = random.Random(secant.subseed(0, t, P))
                digest.update(varieties.random_frames(spec, s, rng, P).astype("<i8").tobytes())
        assert digest.hexdigest() == "12e1f1aa730670dacf27bf8ff8b3d819"

    @pytest.mark.parametrize("p,expected", [
        (2, "615dab06e365c0107743dbf130cf3e7c"),
        (101, "972fc762262c51982aaf8d8d07252d05"),
        (P, "2fa0d00eaf7ed1d7cfc5f2050c7fb2d7"),
    ])
    def test_frames_at_each_prime(self, p, expected):
        # the same specs and point counts at p = 2, 101 and P, each also as an
        # empty stack and with one point's coordinates unreduced; recorded
        # before the frames moved to one evaluation pass for all factors
        digest = hashlib.blake2b(digest_size=16)
        for text, s in [(text, 3) for text in self.CATALOG] + list(self.SCALE):
            spec = SegreVeroneseSpec.parse(text)
            rng = random.Random(secant.subseed(0, 0, p))
            points = [varieties.random_parameter_point(spec, rng, p) for _ in range(s)]
            points.append(tuple(tuple(c - 3 * p for c in v) for v in points[0]))
            for stack in ([], points):
                frames = varieties.tangent_frame(spec, stack, p)
                digest.update(repr(frames.shape).encode() + frames.astype("<i8").tobytes())
        assert digest.hexdigest() == expected

    def test_cardinality_witnesses(self):
        # the five 1,1 / F_5 witnesses of the catalog's decomposition-count row at seed 0
        spec = SegreVeroneseSpec.parse("1,1")
        digest = hashlib.blake2b(digest_size=16)
        for i in range(5):
            rng = random.Random(secant.subseed(i, 0, 5))
            witness = phimap.random_secant_point(spec, 1, 2, rng, 5)
            digest.update(repr((witness.lambdas, witness.embedded_points)).encode())
        assert digest.hexdigest() == "095f037694daf8361d67ac4e2e7afbfc"
