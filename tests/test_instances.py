import hashlib
import itertools
import json
import math
import random
from unittest import mock

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from netcon import (
    FAMILIES,
    L,
    L_ETPC,
    SWRT,
    USRT,
    GeneratorSpec,
    InstanceFormatError,
    all_pairs_shortest_paths,
    generate,
    read_instance,
    write_instance,
)
from netcon import instances
from netcon.instances import (
    GRID,
    _planar_edges,
    _rounded_dist,
    _segments_cross,
    instance_from_dict,
    instance_to_dict,
)

from helpers import reference_planar_edges, reference_segments_cross


class TestRoundedDist:
    def test_exact_squares(self):
        assert _rounded_dist((0, 0), (3, 4)) == 5
        assert _rounded_dist((0, 0), (0, 7)) == 7

    def test_rounding(self):
        # sqrt(2) = 1.414 -> 1; sqrt(8) = 2.83 -> 3
        assert _rounded_dist((0, 0), (1, 1)) == 1
        assert _rounded_dist((0, 0), (2, 2)) == 3

    def test_matches_float_round(self):
        rng = random.Random(71)
        for _ in range(500):
            p = (rng.randrange(1001), rng.randrange(1001))
            q = (rng.randrange(1001), rng.randrange(1001))
            d = math.dist(p, q)
            r = _rounded_dist(p, q)
            assert abs(r - d) <= 0.5


class TestSegmentsCross:
    def test_matches_exact_reference_on_grid(self):
        # every ordered pair of distinct segments between 5x5 grid points:
        # proper crossings, shared endpoints, collinear overlaps and touches
        points = list(itertools.product(range(5), repeat=2))
        segments = list(itertools.combinations(points, 2))
        mismatches = [
            (s, t)
            for s, t in itertools.permutations(segments, 2)
            if _segments_cross(*s, *t) != reference_segments_cross(*s, *t)
        ]
        assert mismatches == []

    def test_reference_cases(self):
        assert reference_segments_cross((0, 0), (2, 2), (0, 2), (2, 0))  # proper
        assert not reference_segments_cross((0, 0), (1, 1), (1, 1), (2, 0))  # shared end
        assert reference_segments_cross((0, 0), (2, 0), (1, 0), (3, 0))  # overlap
        assert reference_segments_cross((0, 0), (2, 0), (0, 0), (1, 0))  # nested
        assert not reference_segments_cross((0, 0), (1, 0), (1, 0), (2, 0))  # collinear chain
        assert reference_segments_cross((0, 0), (2, 0), (1, 0), (1, 1))  # T-touch
        assert not reference_segments_cross((0, 0), (1, 0), (0, 1), (1, 1))  # parallel

    # full-scale grid points; FLIPS reverses either segment and swaps the two
    POINTS = st.tuples(st.integers(0, GRID), st.integers(0, GRID))
    FLIPS = st.tuples(st.booleans(), st.booleans(), st.booleans())

    @staticmethod
    def arrange(s, t, flips):
        """Segments s and t with their ends and their order flipped as asked."""
        flip_s, flip_t, swap = flips
        s, t = s[::-1] if flip_s else s, t[::-1] if flip_t else t
        return (*t, *s) if swap else (*s, *t)

    @staticmethod
    def check(p1, p2, p3, p4, orientations=None):
        """_segments_cross agrees with the reference, computing the given
        number of orientations if one is given."""
        with mock.patch.object(instances, "_orient", wraps=instances._orient) as spy:
            got = _segments_cross(p1, p2, p3, p4)
        assert got == reference_segments_cross(p1, p2, p3, p4)
        if orientations is not None:
            assert spy.call_count == orientations

    @given(POINTS, POINTS, POINTS, FLIPS)
    def test_shared_endpoint(self, p, q, r, flips):
        # segments pq and pr, p at either end of each, in both orders: off a
        # common line they meet only at p, which two orientations settle
        assume(len({p, q, r}) == 3)
        collinear = (q[0] - p[0]) * (r[1] - p[1]) == (q[1] - p[1]) * (r[0] - p[0])
        self.check(*self.arrange((p, q), (p, r), flips), None if collinear else 2)

    @given(
        st.integers(0, 150),
        st.integers(-150, 150),
        st.tuples(st.integers(0, 5), st.integers(0, 5), st.integers(0, 5), st.integers(0, 5)),
        st.data(),
    )
    def test_collinear(self, dx, dy, ks, data):
        # four of six evenly spaced points on one line: overlaps, nested
        # segments, touches, chains through a shared endpoint and disjoint
        # pieces, all spanning up to 750 grid units; the generator never
        # compares a segment with itself
        assume((dx, dy) != (0, 0) and ks[0] != ks[1] and ks[2] != ks[3])
        assume({ks[0], ks[1]} != {ks[2], ks[3]})
        x0 = data.draw(st.integers(0, GRID - 5 * dx))
        y0 = data.draw(st.integers(max(0, -5 * dy), GRID - max(0, 5 * dy)))
        p1, p2, p3, p4 = [(x0 + k * dx, y0 + k * dy) for k in ks]
        self.check(*self.arrange((p1, p2), (p3, p4), data.draw(self.FLIPS)))

    @given(POINTS, POINTS, POINTS, POINTS, st.booleans(), st.booleans())
    def test_strictly_one_side(self, p1, p2, p3, p4, flip_s, flip_t):
        # p3 and p4 strictly on one side of the line p1p2: two orientations
        # settle it, whichever way round each segment is given
        def side(c):
            return (p2[0] - p1[0]) * (c[1] - p1[1]) - (p2[1] - p1[1]) * (c[0] - p1[0])

        assume(side(p3) * side(p4) > 0)
        self.check(*self.arrange((p1, p2), (p3, p4), (flip_s, flip_t, False)), 2)


class TestPlanarEdges:
    # distinct points of a 7x7 lattice: collinear overlaps, T-touches and
    # many equal squared distances
    @given(
        st.lists(
            st.tuples(st.integers(0, 6), st.integers(0, 6)),
            min_size=2,
            max_size=25,
            unique=True,
        )
    )
    @example([(0, 0), (1, 0), (2, 0), (3, 0), (4, 0)])  # only the path fits
    # the pair to (6, 6) comes after all 55 others, so the MST pass reads
    # past the first block of 4 n pairs
    @example([(x, y) for x in range(4) for y in range(3)][1:] + [(6, 6)])
    @settings(max_examples=150)
    def test_matches_reference(self, points):
        edges, expected = _planar_edges(points), reference_planar_edges(points)
        assert edges == expected
        target = math.ceil(1.75 * len(points))
        assert (len(edges) < target) == (len(expected) < target)

    def test_pair_keys_fit_int64(self):
        # each pair's key d² n² + i n + j is below (d² + 1) n², d² <= 2 GRID²,
        # at the largest n a spec accepts
        largest = (GRID + 1) ** 2
        GeneratorSpec("planar_road", largest, 0, USRT)
        with pytest.raises(ValueError):
            GeneratorSpec("planar_road", largest + 1, 0, USRT)
        assert (2 * GRID**2 + 1) * largest**2 < 2**63


class TestGenerators:
    def test_euclidean_complete_counts(self):
        inst = generate(GeneratorSpec("euclidean_complete", 5, 0, USRT))
        assert inst.net.m == 10

    def test_random_metric_triangle_inequality(self):
        inst = generate(GeneratorSpec("random_metric", 8, 1, USRT))
        net = inst.net
        direct = {}
        for a, b, w in net.edges:
            direct[(a, b)] = direct[(b, a)] = w
        dist = all_pairs_shortest_paths(net)
        for (a, b), w in direct.items():
            assert w == dist[a, b]

    def test_planar_road_structure(self):
        inst = generate(GeneratorSpec("planar_road", 40, 2, USRT))
        net = inst.net
        assert net.m == math.ceil(1.75 * 40) == 70
        # reconstruct the geometry from the same RNG draws
        rng = random.Random(2)
        points = []
        used = set()
        while len(points) < 40:
            p = (rng.randrange(1001), rng.randrange(1001))
            if p not in used:
                used.add(p)
                points.append(p)
        for (a1, b1, _), (a2, b2, _) in itertools.combinations(net.edges, 2):
            assert not _segments_cross(
                points[a1], points[b1], points[a2], points[b2]
            )

    # sha256 of the sorted-key JSON of instance_to_dict; the MST and the
    # augmenting edges both follow the (d², i, j) candidate order, so a tie
    # drift in that order changes these bytes
    PLANAR_DIGESTS = {
        (35, 0): "caa073e0e642a8acb288296e4fe777cb4ee1a445caf1545ca19cc2176b8bee44",
        (35, 1): "0b1c28ba24a8dadb47c5b296bd768fdc42a9f331674e7934a119cb0f0af9b4b7",
        (35, 2): "2c6f82bdf22514cd9eee9942e8398f6d74424dc9573a0e4b6c7238a110697ba9",
        (40, 0): "e6d5686f8ec0aa977aac8329a2390183bfd9199bbb51c2bb5da27fe947b47fe7",
        (40, 1): "9afc5e27923394eec15013fe354009e75f86bc32aefa35f24bf9484c235bbae0",
        (40, 2): "9a2ae6e9460fbd97511d9d0c17a7407699def9cda33904fac1730b2cc8e6c542",
        (120, 0): "f183105b4b1fb16b6293156a0d899eb56c72dcba3f4c0f34055c331096b61942",
        (120, 1): "3c0f37129155baf5973ab0cf36fe2b4e80475b240625f5c1b9a608a81412c612",
        (120, 2): "594dbae0d75093c3e489916c382679bea767ca80803438edaffc821296cbb1bd",
        (250, 0): "9c2133a1b151a0c77eb51705703f6c7e8c770ef2fb68d74cc20cf75a189f1146",
        (1000, 0): "af889cecf28cd79d81a0a0810be282093611f6ade0a016d49aea94f79c008865",
    }

    # the same digests at n=20 pin the generator's constant ranges: SWRT
    # weights, random_metric edge lengths, and the 6 relevant pairs per vertex
    # (q = 120 of the 190 pairs, so the sample is a proper subset)
    RANGE_DIGESTS = {
        ("random_metric", SWRT, 0):
            "29fc2727a4cf930da7afda034e60ff1cc91ed3227d450cfdde3e580b543dc56b",
        ("random_metric", SWRT, 1):
            "d7d05273f3c3825c665f572440e9b6b0257bb1e1509e1e3d665106b1b1bd01d5",
        ("random_metric", SWRT, 2):
            "b242e5db0eac48e53a37c251371765c78b9500a5e110acdd608a9fbe60d6cff0",
        ("random_metric", L_ETPC, 0):
            "0e96ce88f7128effed7a7524373fce4f7672a28ed892dfaac2cd144ec4ada3aa",
        ("random_metric", L_ETPC, 1):
            "0b174e5aa69ae670ee7a87874905eca8821a678b335af81761392148739bcb22",
        ("random_metric", L_ETPC, 2):
            "61dae01d11fe6331c2db225baf0a8d6f7766048e8567b034cb2050f0b4637041",
        ("euclidean_complete", L_ETPC, 0):
            "ba5640112fd90af0ed1c1891d1a6140719b6c70480c0b117b184f3e595e926e9",
        ("euclidean_complete", L_ETPC, 1):
            "4c9ec5884b7240d6f08c10f40b6c43b16676a5fbacb8d0f89de0d025e7123a44",
        ("euclidean_complete", L_ETPC, 2):
            "817006109cb1100d321ca556656e3a7086e1044f7154cca6651609f5149982c9",
    }

    @staticmethod
    def digest(spec: GeneratorSpec) -> str:
        doc = instance_to_dict(generate(spec))
        return hashlib.sha256(json.dumps(doc, sort_keys=True).encode()).hexdigest()

    @pytest.mark.parametrize("n,seed", sorted(PLANAR_DIGESTS))
    def test_planar_road_digest(self, n, seed):
        digest = self.digest(GeneratorSpec("planar_road", n, seed, USRT))
        assert digest == self.PLANAR_DIGESTS[(n, seed)]

    @pytest.mark.parametrize("family,variant,seed", sorted(RANGE_DIGESTS))
    def test_range_digest(self, family, variant, seed):
        digest = self.digest(GeneratorSpec(family, 20, seed, variant))
        assert digest == self.RANGE_DIGESTS[(family, variant, seed)]

    def test_deterministic_per_seed(self):
        for family in FAMILIES:
            for variant in (USRT, SWRT, L, L_ETPC):
                spec = GeneratorSpec(family, 7, 5, variant)
                assert instance_to_dict(generate(spec)) == instance_to_dict(
                    generate(spec)
                )

    def test_different_seed_differs(self):
        a = generate(GeneratorSpec("euclidean_complete", 7, 0, USRT))
        b = generate(GeneratorSpec("euclidean_complete", 7, 1, USRT))
        assert instance_to_dict(a) != instance_to_dict(b)

    def test_variant_policies(self):
        swrt = generate(GeneratorSpec("euclidean_complete", 8, 3, SWRT))
        assert all(1 <= w <= 10 for w in swrt.weights)
        letpc = generate(GeneratorSpec("euclidean_complete", 8, 3, L_ETPC))
        assert letpc.q == min(6 * 8, 8 * 7 // 2)
        lat = generate(GeneratorSpec("euclidean_complete", 8, 3, L))
        assert all(d >= 0 for d in lat.vertex_due_dates)

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            GeneratorSpec("nope", 5, 0, USRT)
        with pytest.raises(ValueError):
            GeneratorSpec("euclidean_complete", 5, 0, "nope")
        with pytest.raises(ValueError):
            GeneratorSpec("euclidean_complete", 1, 0, USRT)


class TestSerialization:
    def test_round_trip_random(self, tmp_path):
        rng = random.Random(72)
        k = 0
        for family in FAMILIES:
            for variant in (USRT, SWRT, L, L_ETPC):
                for _ in range(9):
                    spec = GeneratorSpec(family, rng.randint(4, 8), rng.randrange(999), variant)
                    inst = generate(spec)
                    path = tmp_path / f"i{k}.json"
                    k += 1
                    write_instance(inst, path, family=family)
                    back, back_family = read_instance(path)
                    assert instance_to_dict(back) == instance_to_dict(inst)
                    assert back_family == family

    def test_family_annotation(self, tmp_path):
        inst = generate(GeneratorSpec("planar_road", 6, 0, USRT))
        path = tmp_path / "i.json"
        write_instance(inst, path, family="planar_road")
        assert json.loads(path.read_text())["family"] == "planar_road"
        assert read_instance(path)[1] == "planar_road"
        write_instance(inst, path)
        assert read_instance(path)[1] is None

    def test_missing_weights_named(self):
        doc = instance_to_dict(generate(GeneratorSpec("euclidean_complete", 5, 0, SWRT)))
        del doc["weights"]
        with pytest.raises(InstanceFormatError) as exc:
            instance_from_dict(doc)
        assert exc.value.field == "weights"

    def test_unknown_variant(self):
        doc = instance_to_dict(generate(GeneratorSpec("euclidean_complete", 5, 0, USRT)))
        doc["variant"] = "XYZ"
        with pytest.raises(InstanceFormatError) as exc:
            instance_from_dict(doc)
        assert exc.value.field == "variant"

    def test_bad_edges_and_version(self):
        doc = instance_to_dict(generate(GeneratorSpec("euclidean_complete", 5, 0, USRT)))
        doc2 = dict(doc, format_version=99)
        with pytest.raises(InstanceFormatError):
            instance_from_dict(doc2)
        doc3 = dict(doc, edges=[[0, 1]])
        with pytest.raises(InstanceFormatError) as exc:
            instance_from_dict(doc3)
        assert exc.value.field == "edges[0]"

    def test_invalid_json_file(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(InstanceFormatError):
            read_instance(path)
        for text in ("[]", '"USRT"', "3", "null"):
            path.write_text(text)
            with pytest.raises(InstanceFormatError, match="<root>: expected a JSON object"):
                read_instance(path)
