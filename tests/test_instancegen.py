import json

import pytest

from beliefmerge import (
    AllPositiveWeights,
    DistanceKind,
    formula_to_text,
    merge_scheme,
    models_of,
    random_instance,
    realize,
    replicated_blocks,
)
from beliefmerge._rng import Xoshiro256StarStar
from beliefmerge import instancegen
from beliefmerge.errors import EnumerationLimitError
from beliefmerge.instancefile import instance_payload, load_instance_file

from oracles import (
    LinConstraint,
    LinSystem,
    brute_vector,
    evaluate,
    feasible,
    minimality_system,
    mu_models,
)

DH = DistanceKind.hamming()


class TestRealize:
    def test_three_point_construction(self):
        inst = realize([[3, 0], [2, 2], [0, 3]])
        assert inst.universe.n == 6
        assert inst.m == 2
        assert len(mu_models(inst)) == 3
        assert sorted(inst.distances(DH).tolist()) == [[0, 3], [2, 2], [3, 0]]

    def test_zero_vector_gives_fully_agreeing_model(self):
        inst = realize([[0]])
        (model,) = mu_models(inst)
        assert evaluate(inst.profile[0], model)

    def test_narrowing_counterexample_vectors(self):
        inst = realize([[1, 0], [0, 1], [0, 2]])
        assert sorted(inst.distances(DH).tolist()) == [[0, 1], [0, 2], [1, 0]]

    def test_models_biject_with_distinct_vectors(self):
        rng = Xoshiro256StarStar(3)
        for _ in range(20):
            m = 1 + rng.below(3)
            vectors = {
                tuple(rng.below(4) for _ in range(m))
                for _ in range(1 + rng.below(4))
            }
            inst = realize(sorted(vectors))
            assert len(mu_models(inst)) == len(vectors)
            got = {brute_vector(DH, model, inst.profile) for model in mu_models(inst)}
            assert got == vectors

    def test_explicit_block_size(self):
        inst = realize([[1, 0]], n=4)
        assert inst.universe.n == 8

    def test_rejects_bad_specs(self):
        with pytest.raises(ValueError):
            realize([])
        with pytest.raises(ValueError):
            realize([[1, 2], [1]])
        with pytest.raises(ValueError):
            realize([[-1]])
        with pytest.raises(ValueError):
            realize([[3]], n=2)
        for n in (0, -3):
            with pytest.raises(ValueError, match="block size must be at least 1"):
                realize([[0]], n=n)

    def test_enumeration_guard_trips_before_building(self, monkeypatch):
        def refuse(names):
            raise AssertionError("realize built a universe past the guard")

        monkeypatch.setattr(instancegen, "Universe", refuse)
        with pytest.raises(EnumerationLimitError):
            realize([[25]])
        with pytest.raises(EnumerationLimitError):
            realize([[1, 0, 0]], n=9)


class TestReplicatedBlocks:
    def test_single_block_is_the_three_point_instance(self):
        inst = replicated_blocks(1)
        assert inst.universe.n == 6
        assert sorted(inst.distances(DH).tolist()) == [[0, 3], [1, 1], [3, 0]]
        merged = merge_scheme(inst, AllPositiveWeights(), DH)
        assert len(merged.models) == 3

    def test_single_vector_system_is_infeasible(self):
        # no lone weight pair keeps both extremes minimal at once
        system = LinSystem(
            2,
            [
                LinConstraint([2, -1], 0),   # 3w1 <= w1 + w2
                LinConstraint([-1, 2], 0),   # 3w2 <= w1 + w2
                LinConstraint([-1, 0], -1),
                LinConstraint([0, -1], -1),
            ],
        )
        assert feasible(system) is None

    def test_two_blocks_shape(self):
        inst = replicated_blocks(2)
        assert inst.universe.n == 12
        assert inst.m == 4
        assert len(mu_models(inst)) == 9
        vectors = set(map(tuple, inst.distances(DH).tolist()))
        assert vectors == {
            a + b for a in [(3, 0), (1, 1), (0, 3)] for b in [(3, 0), (1, 1), (0, 3)]
        }

    def test_every_model_selected_under_all_positive(self):
        for k in (1, 2):
            inst = replicated_blocks(k)
            merged = merge_scheme(inst, AllPositiveWeights(), DH)
            assert merged.models == frozenset(mu_models(inst))

    def test_extreme_pairs_share_no_weight_vector(self):
        # each sign-pattern model needs its own vector: for any two of
        # them the combined minimality system is infeasible
        inst = replicated_blocks(2)
        vectors = list(set(map(tuple, inst.distances(DH).tolist())))
        extremes = [v for v in vectors if (1, 1) not in (v[0:2], v[2:4])]
        assert len(extremes) == 4
        for a in range(len(extremes)):
            for b in range(a + 1, len(extremes)):
                sys_a = minimality_system(extremes[a], [v for v in vectors if v != extremes[a]])
                sys_b = minimality_system(extremes[b], [v for v in vectors if v != extremes[b]])
                combined = LinSystem(4, sys_a.constraints + sys_b.constraints)
                assert feasible(combined) is None

    def test_guard(self):
        with pytest.raises(ValueError):
            replicated_blocks(0)
        with pytest.raises(ValueError):
            replicated_blocks(4)


class TestRandomInstance:
    def test_deterministic_for_equal_seeds(self):
        a = random_instance(4, 3, seed=11)
        b = random_instance(4, 3, seed=11)
        assert formula_to_text(a.constraints) == formula_to_text(b.constraints)
        assert [formula_to_text(f) for f in a.profile] == [
            formula_to_text(f) for f in b.profile
        ]

    def test_different_seeds_differ(self):
        a = random_instance(4, 3, seed=1)
        b = random_instance(4, 3, seed=2)
        assert (
            formula_to_text(a.constraints) != formula_to_text(b.constraints)
            or [formula_to_text(f) for f in a.profile]
            != [formula_to_text(f) for f in b.profile]
        )

    def test_everything_consistent_by_construction(self):
        for seed in range(20):
            inst = random_instance(3, 4, seed=seed)
            assert mu_models(inst)
            for f in inst.profile:
                assert models_of(f, inst.universe)

    def test_guards(self):
        with pytest.raises(ValueError):
            random_instance(13, 2, seed=0)
        with pytest.raises(ValueError):
            random_instance(4, 6, seed=0)

    def test_round_trips_through_instance_file(self, tmp_path):
        inst = random_instance(4, 3, seed=5)
        path = tmp_path / "inst.json"
        path.write_text(json.dumps(instance_payload(inst)))
        loaded = load_instance_file(str(path)).instance()
        assert loaded.universe == inst.universe
        assert loaded.distances(DH).tolist() == inst.distances(DH).tolist()
        assert mu_models(loaded) == mu_models(inst)


class TestStream:
    def test_known_stream_prefix(self):
        # pins the stream contract; seed words for seed 0 follow the
        # published splitmix64 sequence starting 0xE220A8397B1DCDAF
        rng = Xoshiro256StarStar(0)
        assert [rng.next64() for _ in range(4)] == [
            0x99EC5F36CB75F2B4,
            0xBF6E1F784956452A,
            0x1A5F849D4933E6E0,
            0x6AA594F1262D2D2C,
        ]
        rng = Xoshiro256StarStar(12345)
        assert rng.next64() == 0xBE6A36374160D49B

    def test_below_is_in_range_and_deterministic(self):
        rng = Xoshiro256StarStar(7)
        draws = [rng.below(10) for _ in range(1000)]
        assert set(draws) <= set(range(10))
        rng2 = Xoshiro256StarStar(7)
        assert draws == [rng2.below(10) for _ in range(1000)]
