import itertools
import json
import math
import random

import pytest

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
from netcon.instances import (
    _rounded_dist,
    _segments_cross,
    instance_from_dict,
    instance_to_dict,
)


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
