import pytest

from beliefmerge import (
    AllPositiveWeights,
    DistanceKind,
    Instance,
    Model,
    Universe,
    maxcons,
    maxcons_disjunction,
    merge_scheme,
    models_of,
    parse_formula,
    random_instance,
)
from beliefmerge.formulae import TRUE, conjunction

from oracles import brute_maxcons, subsat


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
        mu_models = inst.mu_models()
        in_disjunction = maxcons_disjunction(inst)
        for i in mu_models:
            si = subsat(i, inst.profile)
            beaten = any(
                si < subsat(j, inst.profile) for j in mu_models
            )
            assert (i in in_disjunction) == (not beaten)
