from fractions import Fraction

import pytest

from beliefmerge import (
    AllPositiveWeights,
    DistanceKind,
    EqualWeights,
    ExpertWeights,
    ExplicitWeights,
    Instance,
    Model,
    OperatorConfig,
    Universe,
    check_arbitration_duplicate,
    check_disjunctive,
    check_majority,
    check_postulate,
    closest_pairs_merge,
    merge_scheme,
    models_of,
    parse_formula,
    random_instance,
    realize,
)
from beliefmerge._rng import Xoshiro256StarStar
from beliefmerge.errors import InconsistentConstraintsError, InconsistentProfileError
from beliefmerge.formulae import TRUE, And, Or, formula_from_models
from beliefmerge.postulates import (
    check_ic0,
    check_ic4,
    check_ic5,
    check_ic6,
    check_ic7,
    check_ic8,
    product_scheme,
)

from oracles import brute_closest_pairs, brute_score, evaluate, mu_models

DD = DistanceKind.drastic()
DH = DistanceKind.hamming()
ALL = AllPositiveWeights()

SCHEMES = [EqualWeights(), ExpertWeights(4), ALL, ExplicitWeights([[2, 1], [1, 3]])]


def _cfg(scheme=ALL, kind=DH):
    return OperatorConfig(kind, scheme)


def _mu_prime_from_vectors(inst, kind, wanted):
    vecs = list(map(tuple, inst.distances(kind).tolist()))
    chosen = [
        m for i, m in enumerate(mu_models(inst)) if vecs[i] in wanted
    ]
    return formula_from_models(chosen, inst.universe)


class TestCorePostulatesOnSuites:
    @pytest.mark.parametrize("scheme", SCHEMES)
    @pytest.mark.parametrize("kind", [DD, DH])
    @pytest.mark.parametrize("seed", range(4))
    def test_ic0_ic1_ic2_hold(self, scheme, kind, seed):
        m = 2 + seed % 2
        if isinstance(scheme, ExplicitWeights):
            scheme = ExplicitWeights([[2, 1, 4][:m], [1, 3, 2][:m]])
        inst = random_instance(3, m, seed=seed)
        cfg = OperatorConfig(kind, scheme)
        for pid in ("ic0", "ic1", "ic2"):
            assert check_postulate(pid, cfg, inst).passed, (pid, seed)

    @pytest.mark.parametrize("scheme", SCHEMES)
    @pytest.mark.parametrize("seed", range(3))
    def test_ic3_syntax_independence(self, scheme, seed):
        from beliefmerge.formulae import Not

        inst = random_instance(3, 2, seed=seed)
        other = Instance(
            inst.universe,
            Not(Not(inst.constraints)),
            [Or(f, f) for f in inst.profile],
        )
        cfg = OperatorConfig(DH, scheme)
        assert check_postulate("ic3", cfg, inst, other=other).passed

    def test_ic3_with_permutation_under_symmetric_scheme(self):
        inst = random_instance(3, 2, seed=1)
        other = Instance(
            inst.universe, inst.constraints, list(reversed(inst.profile))
        )
        verdict = check_postulate(
            "ic3", _cfg(ALL), inst, other=other, permutation=[1, 0]
        )
        assert verdict.passed

    def test_ic3_rejects_non_equivalent_aux(self):
        inst = random_instance(3, 2, seed=1)
        other = Instance(inst.universe, TRUE, inst.profile)
        if models_of(inst.constraints, inst.universe) != models_of(
            TRUE, inst.universe
        ):
            with pytest.raises(ValueError):
                check_postulate("ic3", _cfg(), inst, other=other)

    @pytest.mark.parametrize("scheme", SCHEMES)
    @pytest.mark.parametrize("kind", [DD, DH])
    @pytest.mark.parametrize("seed", range(4))
    def test_ic7_holds(self, scheme, kind, seed):
        if isinstance(scheme, ExplicitWeights):
            scheme = ExplicitWeights([v[:2] for v in scheme.vectors])
        inst = random_instance(3, 2, seed=seed)
        aux = random_instance(3, 1, seed=seed + 100)
        cfg = OperatorConfig(kind, scheme)
        verdict = check_postulate("ic7", cfg, inst, mu_prime=aux.constraints)
        assert verdict.passed


class TestIC4:
    def _fair_instance(self, seed):
        base = random_instance(3, 2, seed=seed)
        f1, f2 = base.profile
        return Instance(base.universe, Or(f1, f2), [f1, f2])

    @pytest.mark.parametrize("kind", [DD, DH])
    @pytest.mark.parametrize("seed", range(10))
    def test_holds_for_symmetric_scheme_and_triangle_distance(self, kind, seed):
        inst = self._fair_instance(seed)
        for scheme in (ALL, EqualWeights(), ExpertWeights(7), ExplicitWeights([[5, 2], [2, 5]])):
            assert check_postulate("ic4", OperatorConfig(kind, scheme), inst).passed

    def test_rough_distance_counterexample(self):
        # five-variable instance where the symmetric pair {[5,2],[2,5]}
        # still favours the first source once the distance is coarsened
        u = Universe(["x1", "x2", "x3", "x4", "x5"])
        f1 = parse_formula("x1 & x2 & x3 & x4 & x5", u)
        f2 = parse_formula("!x1 & !x2 & !x3 & !x4 & !x5", u)
        bridge = parse_formula("x1 & !x2 & !x3 & !x4 & !x5", u)
        mu = Or(Or(f1, f2), bridge)
        ds = DistanceKind.from_table(
            [[0, 0], [1, 1], [2, 2], [3, 2], [4, 2], [5, 5]], default=5
        )
        inst = Instance(u, mu, [f1, f2])
        assert sorted(inst.distances(ds).tolist()) == [[0, 5], [2, 1], [5, 0]]

        cfg = OperatorConfig(ds, ExplicitWeights([[5, 2], [2, 5]]))
        verdict = check_postulate("ic4", cfg, inst)
        assert not verdict.passed
        assert verdict.witness["consistent_with"] == 1

        merged = merge_scheme(inst, cfg.scheme, ds).models
        assert any(evaluate(f1, m) for m in merged)
        assert not any(evaluate(f2, m) for m in merged)

    def test_asymmetric_singleton_fails(self):
        u = Universe(["x"])
        f1, f2 = parse_formula("x", u), parse_formula("!x", u)
        inst = Instance(u, TRUE, [f1, f2])
        cfg = OperatorConfig(DH, ExplicitWeights([[2, 1]]))
        assert not check_postulate("ic4", cfg, inst).passed

    def test_aux_validation(self):
        inst = random_instance(3, 3, seed=0)
        with pytest.raises(ValueError):
            check_postulate("ic4", _cfg(), inst)
        u = Universe(["x"])
        bad = Instance(u, parse_formula("x", u), [parse_formula("x", u), parse_formula("!x", u)])
        with pytest.raises(ValueError):
            check_postulate("ic4", _cfg(), bad)


class TestIC5IC6:
    @pytest.mark.parametrize("seed", range(6))
    def test_explicit_product_passes_both(self, seed):
        inst = random_instance(3, 3, seed=seed)
        left = ExplicitWeights([[2], [1]])
        right = ExplicitWeights([[1, 3], [2, 2]])
        for pid in ("ic5", "ic6"):
            verdict = check_postulate(
                pid, _cfg(), inst, split=1, scheme_left=left, scheme_right=right
            )
            assert verdict.passed, (pid, seed)

    @pytest.mark.parametrize("seed", range(6))
    def test_all_positive_product_passes_both(self, seed):
        inst = random_instance(3, 3, seed=seed)
        for pid in ("ic5", "ic6"):
            verdict = check_postulate(pid, _cfg(ALL), inst, split=2)
            assert verdict.passed, (pid, seed)

    def test_product_scheme_shapes(self):
        combined = product_scheme(
            ExplicitWeights([[2], [1]]), ExplicitWeights([[1, 3]]), 1, 2, DH.largest(3)
        )
        assert isinstance(combined, ExplicitWeights)
        assert sorted(tuple(int(w) for w in v) for v in combined.vectors) == [
            (1, 1, 3),
            (2, 1, 3),
        ]
        assert isinstance(product_scheme(ALL, ALL, 1, 2, DH.largest(3)), AllPositiveWeights)
        with pytest.raises(ValueError):
            product_scheme(ALL, EqualWeights(), 1, 2, DH.largest(3))

    def test_product_scheme_joins_rational_parts(self):
        # each part alone clears to (1,), but together (1/2, 1) is (1, 2)
        combined = product_scheme(
            ExplicitWeights([[Fraction(1, 2)]]), ExplicitWeights([[1]]), 1, 1, DH.largest(3)
        )
        assert combined.vectors == ((Fraction(1, 2), Fraction(1)),)

    def test_split_validation(self):
        inst = random_instance(3, 2, seed=0)
        with pytest.raises(ValueError):
            check_postulate("ic5", _cfg(), inst, split=2)


class TestIC8:
    def test_fixed_counterexample_fails_with_documented_weights(self):
        inst = realize([[1, 0], [0, 1], [0, 2]])
        vecs = list(map(tuple, inst.distances(DH).tolist()))
        models = {vecs[i]: m for i, m in enumerate(mu_models(inst))}

        base = merge_scheme(inst, ALL, DH).models
        assert base == {models[(1, 0)], models[(0, 1)]}

        mu_prime = _mu_prime_from_vectors(inst, DH, {(1, 0), (0, 2)})
        verdict = check_postulate("ic8", _cfg(), inst, mu_prime=mu_prime)
        assert not verdict.passed
        new = verdict.witness["new_models"]
        assert [tuple(vecs[inst.model_index(m)]) for m in new] == [(0, 2)]

        # the narrowed instance really selects the dominated model at [2,1]
        assert brute_score([2, 1], (0, 2)) == brute_score([2, 1], (1, 0))

    def test_vacuous_when_restriction_misses_the_merge(self):
        inst = realize([[1, 0], [0, 1], [0, 2]])
        mu_prime = _mu_prime_from_vectors(inst, DH, {(0, 2)})
        verdict = check_postulate("ic8", _cfg(), inst, mu_prime=mu_prime)
        assert verdict.passed and verdict.vacuous


class TestClosestPairs:
    U2 = Universe(["x", "y"])

    def _pair(self, t1, t2):
        profile = [parse_formula(t, self.U2) for t in (t1, t2)]
        return Instance(self.U2, TRUE, profile)

    def test_opposite_corners(self):
        got = closest_pairs_merge(self._pair("x & y", "!x & !y"))
        assert got == {Model(self.U2, 0b11), Model(self.U2, 0b00)}

    def test_consistent_pair_keeps_common_models(self):
        got = closest_pairs_merge(self._pair("x", "x | y"))
        common = set(models_of(parse_formula("x", self.U2), self.U2))
        assert common <= got

    def test_unsatisfiable_inputs_error(self):
        with pytest.raises(InconsistentProfileError):
            closest_pairs_merge(self._pair("x & !x", "true"))

    def test_needs_two_formulae(self):
        inst = Instance(self.U2, TRUE, [parse_formula("x", self.U2)])
        with pytest.raises(ValueError):
            closest_pairs_merge(inst)

    def test_constraints_play_no_part(self):
        pair = self._pair("x & y", "!x & !y")
        narrowed = Instance(self.U2, parse_formula("x & !y", self.U2), pair.profile)
        assert closest_pairs_merge(narrowed) == closest_pairs_merge(pair)

    @pytest.mark.parametrize("seed", range(40))
    def test_agrees_with_pairwise_loop(self, seed):
        n = 1 + seed % 6
        base = random_instance(n, 2, seed=1000 + seed)
        f1, f2 = base.profile
        assert closest_pairs_merge(base) == brute_closest_pairs(base.universe, f1, f2)

    @pytest.mark.parametrize("seed", range(12))
    def test_equals_expert_merge_on_random_pairs(self, seed):
        base = random_instance(3, 2, seed=seed)
        inst = Instance(base.universe, TRUE, base.profile)
        expert = merge_scheme(inst, ExpertWeights(base.universe.n + 1), DH)
        assert closest_pairs_merge(inst) == expert.models


class TestMajority:
    UA = Universe(["a"])

    def _pair(self):
        return parse_formula("a", self.UA), parse_formula("!a", self.UA)

    @pytest.mark.parametrize("reps", [1, 2, 3, 4, 5])
    def test_all_positive_never_capitulates(self, reps):
        f1, f2 = self._pair()
        verdict = check_majority(_cfg(), self.UA, f1, f2, reps)
        assert not verdict.passed
        assert any(evaluate(f1, m) for m in verdict.witness["models"])

    def test_equal_weights_follow_the_majority(self):
        f1, f2 = self._pair()
        verdict = check_majority(_cfg(EqualWeights()), self.UA, f1, f2, 2)
        assert verdict.passed

    def test_identical_formulae_trivially_pass(self):
        f1 = parse_formula("a", self.UA)
        assert check_majority(_cfg(), self.UA, f1, f1, 3).passed

    def test_reps_validation(self):
        f1, f2 = self._pair()
        with pytest.raises(ValueError):
            check_majority(_cfg(), self.UA, f1, f2, 0)


class TestDisjunctive:
    def test_expert_scheme_is_disjunctive(self):
        for seed in range(8):
            base = random_instance(3, 2, seed=seed)
            inst = Instance(base.universe, TRUE, base.profile)
            a = base.universe.n * inst.m
            cfg = OperatorConfig(DH, ExpertWeights(a))
            assert check_disjunctive(cfg, inst).passed

    def test_equal_weights_break_it(self):
        u = Universe(["x", "y"])
        inst = Instance(u, TRUE, [parse_formula("x & y", u), parse_formula("!x & !y", u)])
        verdict = check_disjunctive(_cfg(EqualWeights()), inst)
        assert not verdict.passed
        assert len(verdict.witness["models"]) == 2  # both middle models

    def test_single_consistent_formula_passes(self):
        u = Universe(["x"])
        inst = Instance(u, TRUE, [parse_formula("x", u)])
        assert check_disjunctive(_cfg(EqualWeights()), inst).passed

    def test_vacuous_when_entry_conflicts_with_mu(self):
        u = Universe(["x", "y"])
        inst = Instance(u, parse_formula("x", u), [parse_formula("!x", u), parse_formula("y", u)])
        verdict = check_disjunctive(_cfg(), inst)
        assert verdict.passed and verdict.vacuous


class TestArbitrationDuplicate:
    @pytest.mark.parametrize("kind", [DD, DH])
    @pytest.mark.parametrize("seed", range(8))
    def test_duplicate_invariance_under_all_positive(self, kind, seed):
        inst = random_instance(3, 2, seed=seed)
        assert check_arbitration_duplicate(OperatorConfig(kind, ALL), inst).passed

    def test_single_formula_profile(self):
        inst = random_instance(3, 1, seed=0)
        assert check_arbitration_duplicate(_cfg(), inst).passed

    def test_requires_all_positive_scheme(self):
        inst = random_instance(3, 2, seed=0)
        with pytest.raises(ValueError):
            check_arbitration_duplicate(_cfg(EqualWeights()), inst)

    def test_equal_weights_really_do_differ_sometimes(self):
        # the majority effect the precondition shields against
        u = Universe(["a"])
        inst = Instance(u, TRUE, [parse_formula("a", u), parse_formula("!a", u)])
        doubled = Instance(u, TRUE, list(inst.profile) + [inst.profile[-1]])
        a = merge_scheme(inst, EqualWeights(), DH).models
        b = merge_scheme(doubled, EqualWeights(), DH).models
        assert a != b


class TestVerdictShape:
    def test_unknown_postulate(self):
        inst = random_instance(3, 2, seed=0)
        with pytest.raises(ValueError):
            check_postulate("ic9", _cfg(), inst)


def _satisfying(models, f) -> set[Model]:
    return {m for m in models if evaluate(f, m)}


def _assert_verdict(verdict, stray, key="models"):
    assert verdict.passed == (not stray)
    if stray:
        assert set(verdict.witness[key]) == set(stray)


def _random_models_formula(rng, u, size):
    """The disjunction of ``size`` seeded draws from the 2^n worlds."""
    worlds = {rng.below(1 << u.n) for _ in range(size)}
    return formula_from_models([Model(u, b) for b in worlds], u)


def test_table_native_checkers_match_per_model_filter():
    """Each checker that reads truth tables gives the verdict and witness
    models that filtering the merged set with the per-model oracle gives.
    The derived profiles the checkers read as row and column selections
    (the split halves, mu ∧ mu', the repeated entry, the duplicated
    source) are rebuilt here as Instances. Profile entries with one to
    three models make every failing branch reachable on a few seeds."""
    failures = dict.fromkeys(("ic4", "ic6", "ic8", "majority", "disjunctive"), 0)
    for seed in range(24):
        rng = Xoshiro256StarStar(seed)
        n = 3 + seed % 3
        u = Universe([f"v{j}" for j in range(1, n + 1)])
        mu = _random_models_formula(rng, u, 1 << (n - 1))
        profile = [_random_models_formula(rng, u, 1 + rng.below(3)) for _ in range(2 + seed % 2)]
        mu_prime = _random_models_formula(rng, u, 1 << (n - 1))
        inst = Instance(u, mu, profile)
        f1, f2 = profile[0], profile[1]
        pair = Instance(u, Or(f1, f2), [f1, f2])
        worlds = models_of(TRUE, u)
        for kind in (DD, DH):
            for scheme in (ALL, EqualWeights(), ExpertWeights()):
                cfg = OperatorConfig(kind, scheme)
                merged = merge_scheme(inst, scheme, kind).models

                _assert_verdict(check_ic0(cfg, inst), merged - _satisfying(merged, mu))

                lhs = _satisfying(merged, mu_prime)
                try:
                    narrowed = Instance(u, And(mu, mu_prime), profile)
                    rhs = merge_scheme(narrowed, scheme, kind).models
                except InconsistentConstraintsError:
                    rhs = frozenset()
                _assert_verdict(check_ic7(cfg, inst, mu_prime), lhs - rhs, "extra")
                verdict = check_ic8(cfg, inst, mu_prime)
                assert verdict.vacuous == (not lhs)
                _assert_verdict(verdict, rhs - merged if lhs else set(), "new_models")
                failures["ic8"] += not verdict.passed

                majority = merge_scheme(Instance(u, TRUE, [f1, f2, f2]), scheme, kind).models
                verdict = check_majority(cfg, u, f1, f2, 2)
                _assert_verdict(verdict, majority - _satisfying(majority, f2))
                failures["majority"] += not verdict.passed

                verdict = check_disjunctive(cfg, inst)
                conflict = any(not _satisfying(worlds, And(mu, f)) for f in profile)
                assert verdict.vacuous == conflict
                covered = set().union(*(_satisfying(merged, f) for f in profile))
                _assert_verdict(verdict, merged - covered if not conflict else set())
                failures["disjunctive"] += not verdict.passed

                m = len(profile)
                for split in range(1, m):
                    left = Instance(u, mu, profile[:split])
                    right = Instance(u, mu, profile[split:])
                    both = (merge_scheme(left, scheme, kind).models
                            & merge_scheme(right, scheme, kind).models)
                    product = product_scheme(scheme, scheme, split, m - split, kind.largest(n))
                    combined = merge_scheme(inst, product, kind).models
                    verdict = check_ic5(kind, inst, split, scheme, scheme)
                    _assert_verdict(verdict, both - combined, "extra")
                    verdict = check_ic6(kind, inst, split, scheme, scheme)
                    assert verdict.vacuous == (not both)
                    _assert_verdict(verdict, combined - both if both else set(), "extra")
                    failures["ic6"] += not verdict.passed

            doubled = Instance(u, mu, profile + [profile[-1]])
            merged = merge_scheme(inst, ALL, kind).models
            twice = merge_scheme(doubled, ALL, kind).models
            verdict = check_arbitration_duplicate(OperatorConfig(kind, ALL), inst)
            assert verdict.passed == (merged == twice)
            if not verdict.passed:
                assert (set(verdict.witness["base"]), set(verdict.witness["doubled"])) == (
                    merged, twice
                )

            for scheme in (ALL, EqualWeights(), ExplicitWeights([[3, 1]])):
                cfg = OperatorConfig(kind, scheme)
                merged = merge_scheme(pair, scheme, kind).models
                with_f1, with_f2 = (bool(_satisfying(merged, f)) for f in (f1, f2))
                verdict = check_ic4(cfg, pair)
                assert verdict.passed == (with_f1 == with_f2)
                if not verdict.passed:
                    assert verdict.witness["consistent_with"] == (1 if with_f1 else 2)
                failures["ic4"] += not verdict.passed
    # the seeds must reach the failing branches, not only the passing ones;
    # ic5 and arbitration are theorems of these operators and never fail
    assert all(failures.values()), failures


def test_derived_profiles_build_no_instance(monkeypatch):
    """ic5 to ic8 and arbitration merge row and column selections of the
    instance they are given; majority builds one two-entry instance and
    repeats its second column."""
    inst = random_instance(3, 3, seed=5)
    f1, f2 = inst.profile[:2]
    built = []
    init = Instance.__init__

    def counting(self, universe, constraints, profile):
        built.append(len(profile))
        init(self, universe, constraints, profile)

    monkeypatch.setattr(Instance, "__init__", counting)
    for kind in (DD, DH):
        for scheme in (ALL, EqualWeights()):
            cfg = OperatorConfig(kind, scheme)
            for split in (1, 2):
                check_ic5(kind, inst, split, scheme, scheme)
                check_ic6(kind, inst, split, scheme, scheme)
            # mu' = mu keeps every row, so both merges of ic7 and ic8 run
            check_ic7(cfg, inst, inst.constraints)
            check_ic8(cfg, inst, inst.constraints)
            assert built == []
            for reps in (1, 2, 5):
                check_majority(cfg, inst.universe, f1, f2, reps)
                assert built == [2]
                built.clear()
        check_arbitration_duplicate(OperatorConfig(kind, ALL), inst)
        assert built == []
