import random

import numpy as np
import pytest

from beliefmerge import (
    AllPositiveWeights,
    DistanceKind,
    Instance,
    Universe,
    maxcons,
    maxcons_disjunction,
    merge_scheme,
    models_of,
    parse_formula,
    random_instance,
    realize,
)
from beliefmerge.formulae import TRUE, conjunction

from oracles import (
    brute_maxcons,
    mu_models,
    subsat,
    subset_maxcons,
    subset_maxcons_disjunction,
)


def _inst(names, mu_text, profile_texts):
    u = Universe(names)
    return Instance(
        u, parse_formula(mu_text, u), [parse_formula(t, u) for t in profile_texts]
    )


class TestMaxcons:
    def test_contradictory_pair_splits(self):
        inst = _inst(["x"], "true", ["x", "!x"])
        assert set(maxcons(inst)) == {frozenset({0}), frozenset({1})}

    def test_six_literal_family_contains_mixed_pick(self):
        inst = _inst(["x", "y", "z"], "true", ["x", "y", "z", "!x", "!y", "!z"])
        got = set(maxcons(inst))
        assert frozenset({0, 4, 5}) in got  # {x, !y, !z}
        assert all(len(s) == 3 for s in got)
        assert len(got) == 8

    def test_profile_wholly_incompatible_with_mu(self):
        inst = _inst(["x", "y"], "x & y", ["!x", "!y & x"])
        assert maxcons(inst) == (frozenset(),)

    def test_jointly_consistent_profile_gives_single_full_maxcon(self):
        inst = _inst(["x", "y"], "true", ["x | y", "x"])
        assert maxcons(inst) == (frozenset({0, 1}),)

    def test_duplicates_stay_distinct_elements(self):
        inst = _inst(["x"], "true", ["x", "x", "!x"])
        assert set(maxcons(inst)) == {frozenset({0, 1}), frozenset({2})}

    @pytest.mark.parametrize("seed", range(12))
    def test_agrees_with_exhaustive_subset_oracle(self, seed):
        inst = random_instance(4, 4, seed=seed)
        assert set(maxcons(inst)) == brute_maxcons(inst)

    @pytest.mark.parametrize("seed", range(8))
    def test_each_maxcon_is_consistent_and_maximal(self, seed):
        inst = random_instance(4, 4, seed=seed)
        universe = inst.universe
        for s in maxcons(inst):
            body = conjunction([inst.constraints] + [inst.profile[i] for i in s])
            sat_models = models_of(body, universe)
            assert sat_models, "maxcon must be consistent with mu"
            for extra in set(range(inst.m)) - s:
                widened = conjunction([body, inst.profile[extra]])
                assert not models_of(widened, universe), "maxcon must be maximal"


class TestMaxconsDisjunction:
    def test_contradictory_pair_covers_everything(self):
        inst = _inst(["x"], "true", ["x", "!x"])
        assert maxcons_disjunction(inst) == frozenset(models_of(TRUE, inst.universe))

    def test_jointly_consistent_profile_is_plain_conjunction(self):
        inst = _inst(["x", "y"], "true", ["x | y", "x"])
        assert maxcons_disjunction(inst) == frozenset(
            models_of(parse_formula("x", inst.universe), inst.universe)
        )

    @pytest.mark.parametrize("seed", range(15))
    def test_equals_drastic_all_positive_merge(self, seed):
        inst = random_instance(4, 4, seed=seed)
        merged = merge_scheme(inst, AllPositiveWeights(), DistanceKind.drastic())
        assert maxcons_disjunction(inst) == merged.models

    @pytest.mark.parametrize("seed", range(8))
    def test_subsat_containment_characterization(self, seed):
        # a mu model satisfies some maxcon iff no mu model strictly
        # enlarges its satisfied subset
        inst = random_instance(4, 3, seed=seed)
        models = mu_models(inst)
        in_disjunction = maxcons_disjunction(inst)
        for i in models:
            si = subsat(i, inst.profile)
            beaten = any(
                si < subsat(j, inst.profile) for j in models
            )
            assert (i in in_disjunction) == (not beaten)


def _agrees_with_subset_oracle(inst):
    assert maxcons(inst) == subset_maxcons(inst)
    assert maxcons_disjunction(inst) == subset_maxcons_disjunction(inst)


def _realized_zero_one(m: int, rows: int, seed: int):
    rng = random.Random(seed)
    return realize([[rng.randrange(2) for _ in range(m)] for _ in range(rows)], 1)


class TestAgainstSubsetEnumerator:
    """The drastic-front maxcons against the 2^m subset enumerator it
    replaced (tests/oracles.py)."""

    @pytest.mark.parametrize("seed", range(180))
    def test_random_instances(self, seed):
        # every (n, m) with n in 1..6 and m in 1..5, six seeds each
        _agrees_with_subset_oracle(random_instance(1 + seed % 6, 1 + seed // 6 % 5, seed))

    @pytest.mark.parametrize("m", range(1, 13))
    def test_realized_zero_one_instances(self, m):
        _agrees_with_subset_oracle(_realized_zero_one(m, 1 + m % 7 * 2, m))

    @pytest.mark.parametrize("seed", range(20))
    def test_duplicate_profile_entries(self, seed):
        inst = random_instance(1 + seed % 4, 1 + seed % 3, seed)
        doubled = Instance(
            inst.universe, inst.constraints, list(inst.profile) + list(inst.profile)
        )
        _agrees_with_subset_oracle(doubled)

    @pytest.mark.parametrize(
        "names,mu,profile",
        [
            (["x", "y"], "x & y", ["!x", "!y", "!x | !y"]),  # no entry meets mu
            (["x", "y", "z"], "x & !y & z", ["x", "y", "!z", "z | y", "!x"]),  # one mu model
            (["x", "y"], "true", ["x", "x", "!x", "y", "y"]),
        ],
    )
    def test_edge_cases(self, names, mu, profile):
        _agrees_with_subset_oracle(_inst(names, mu, profile))


def test_eighteen_sources_wide_mu():
    """m = 18 sources, 80 mu models: the drastic merge and the table
    definition of a maxcon, without the 2^18 subset enumeration."""
    inst = _realized_zero_one(18, 80, 18)
    drastic = merge_scheme(inst, AllPositiveWeights(), DistanceKind.drastic())
    assert maxcons_disjunction(inst) == drastic.models
    found = maxcons(inst)
    assert found
    for s in found:
        body = np.logical_and.reduce([inst.mu_table] + [inst.profile_tables[i] for i in s])
        assert body.any(), "maxcon must be consistent with mu"
        for extra in set(range(inst.m)) - s:
            assert not (body & inst.profile_tables[extra]).any(), "maxcon must be maximal"
