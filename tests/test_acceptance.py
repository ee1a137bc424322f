"""Acceptance suite: one test per criterion, exact assertions throughout.

Every expected value here is either a worked example reproduced from the
source material or recomputed by an independent oracle; nothing is
tuned. Run with ``pytest -v -s tests/test_acceptance.py`` to see one
status line per criterion.
"""

from itertools import combinations

import numpy as np

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
    algorithm1,
    check_arbitration_duplicate,
    check_disjunctive,
    check_majority,
    check_postulate,
    closest_pairs_merge,
    critical_weight_set,
    excluding_subset,
    maxcons_disjunction,
    merge_scheme,
    multi_source_merge,
    parse_formula,
    random_instance,
    realize,
    replicated_blocks,
    undominated,
)
from beliefmerge import merge as merge_module
from beliefmerge import postulates as postulates_module
from beliefmerge._rng import Xoshiro256StarStar
from beliefmerge.distance import distance_matrix
from beliefmerge.formulae import (
    TRUE,
    Or,
    formula_from_models,
    models_of,
    table_and_support,
    truth_table,
)
from beliefmerge.maxcons import maxcons_disjunction as _disj
from beliefmerge.merge import Instance as _Instance

from oracles import LinConstraint, LinSystem, feasible, minimality_system, mu_models

DD = DistanceKind.drastic()
DH = DistanceKind.hamming()
ALL = AllPositiveWeights()
BINARY_TABLE = DistanceKind.from_table([[0, 0], [1, 1]], default=1)
ROUGH = DistanceKind.from_table(
    [[0, 0], [1, 1], [2, 2], [3, 2], [4, 2], [5, 5]], default=5
)


def report(number: int, name: str, ok: bool = True):
    print(f"criterion {number:02d} ({name}): {'PASS' if ok else 'FAIL'}")
    assert ok


def suite_instances(count: int, base_seed: int, n_max: int, m_max: int):
    rng = Xoshiro256StarStar(base_seed)
    for _ in range(count):
        n = 2 + rng.below(n_max - 1)
        m = 1 + rng.below(m_max)
        yield random_instance(n, m, seed=rng.next64())


def vec_map(inst, kind):
    vectors = inst.distances(kind).tolist()
    return {tuple(vectors[i]): m for i, m in enumerate(mu_models(inst))}


def test_criterion_01_intro_tables():
    inst = realize([[3, 0], [1, 1], [0, 3]])
    models = vec_map(inst, DH)
    assert merge_scheme(inst, ExplicitWeights([[1, 1]]), DH).models == {models[(1, 1)]}
    assert merge_scheme(inst, ExplicitWeights([[2, 1]]), DH).models == {
        models[(1, 1)],
        models[(0, 3)],
    }
    report(1, "intro example, equal and [2,1] weights")


def test_criterion_02_undominated_excluded():
    inst = realize([[3, 0], [2, 2], [0, 3]])
    models = vec_map(inst, DH)
    merged = merge_scheme(inst, ALL, DH).models
    assert merged == {models[(3, 0)], models[(0, 3)]}
    printed_system = LinSystem(
        2,
        [
            LinConstraint([-1, 2], 0),   # 2w1 + 2w2 <= 3w1
            LinConstraint([2, -1], 0),   # 2w1 + 2w2 <= 3w2
            LinConstraint([-1, 0], -1),
            LinConstraint([0, -1], -1),
        ],
    )
    assert feasible(printed_system) is None
    report(2, "the [2,2] model is excluded and its system infeasible")


def test_criterion_03_drastic_equals_maxcons():
    mismatches = 0
    for inst in suite_instances(500, base_seed=1003, n_max=4, m_max=4):
        if maxcons_disjunction(inst) != merge_scheme(inst, ALL, DD).models:
            mismatches += 1
    assert mismatches == 0
    report(3, "drastic all-weights merge = maxcons disjunction, 500 instances")


def test_criterion_04_binary_codomain_dominance():
    mismatches = 0
    for inst in suite_instances(500, base_seed=1004, n_max=4, m_max=4):
        if undominated(inst, DD) != merge_scheme(inst, ALL, DD).models:
            mismatches += 1
        if undominated(inst, BINARY_TABLE) != merge_scheme(inst, ALL, BINARY_TABLE).models:
            mismatches += 1
    assert mismatches == 0
    report(4, "binary codomain: undominated = all-weights merge, 500 instances")


def test_criterion_05_exponential_construction():
    one = replicated_blocks(1)
    merged = merge_scheme(one, ALL, DH)
    assert len(merged.models) == 3

    single_vector_system = LinSystem(
        2,
        [
            LinConstraint([2, -1], 0),   # 3w1 <= w1 + w2
            LinConstraint([-1, 2], 0),   # 3w2 <= w1 + w2
            LinConstraint([-1, 0], -1),
            LinConstraint([0, -1], -1),
        ],
    )
    assert feasible(single_vector_system) is None

    two = replicated_blocks(2)
    assert merge_scheme(two, ALL, DH).models == frozenset(mu_models(two))
    vectors = sorted(set(map(tuple, two.distances(DH).tolist())))
    extremes = [v for v in vectors if (1, 1) not in (v[:2], v[2:])]
    assert len(extremes) == 4
    for a, b in combinations(extremes, 2):
        sys_a = minimality_system(a, [v for v in vectors if v != a])
        sys_b = minimality_system(b, [v for v in vectors if v != b])
        assert feasible(LinSystem(4, sys_a.constraints + sys_b.constraints)) is None
    report(5, "replicated blocks need 2^k weight vectors")


def test_criterion_06_m_models_bound():
    for inst in suite_instances(120, base_seed=1006, n_max=4, m_max=3):
        vectors = list(map(tuple, inst.distances(DH).tolist()))
        witnesses = merge_scheme(inst, ALL, DH).witnesses
        for idx, model in enumerate(mu_models(inst)):
            witness = witnesses.get(model)
            subset = excluding_subset(model, inst, DH)
            others = [d for j, d in enumerate(vectors) if j != idx]
            full = feasible(minimality_system(vectors[idx], others))
            assert (witness is None) == (subset is not None) == (full is None)
            if subset is not None:
                assert len(subset) <= inst.m
                restricted = minimality_system(
                    vectors[idx],
                    [vectors[inst.model_index(m)] for m in subset],
                )
                assert feasible(restricted) is None
    report(6, "excluded models certified by at most m other models")


def test_criterion_07_geometry_cross_oracle():
    rng = Xoshiro256StarStar(1007)
    mismatches = 0
    for _ in range(300):
        n = 2 + rng.below(5)
        inst = random_instance(n, 2, seed=rng.next64())
        viaLP = merge_scheme(inst, ALL, DH).models
        viaGeometry = algorithm1(inst, DH)
        scheme = ExplicitWeights(critical_weight_set(set(map(tuple, inst.distances(DH).tolist()))))
        viaCritical = merge_scheme(inst, scheme, DH).models
        if not (viaLP == viaGeometry == viaCritical):
            mismatches += 1
    assert mismatches == 0
    report(7, "algorithm 1 = critical weights = LP merge, 300 instances")


def _schemes_for(m: int):
    return [
        EqualWeights(),
        ExpertWeights(4),
        ALL,
        ExplicitWeights([[2, 1, 4][:m], [1, 3, 2][:m]]),
    ]


def test_criterion_08_postulates():
    from beliefmerge.formulae import Not

    # IC0-IC3 and IC7 for every scheme shape and both base distances
    for inst in suite_instances(40, base_seed=1008, n_max=4, m_max=3):
        aux = random_instance(inst.universe.n, 1, seed=inst.universe.n + 81)
        variant = _Instance(
            inst.universe, Not(Not(inst.constraints)), [Or(f, f) for f in inst.profile]
        )
        for kind in (DD, DH):
            for scheme in _schemes_for(inst.m):
                cfg = OperatorConfig(kind, scheme)
                assert check_postulate("ic0", cfg, inst).passed
                assert check_postulate("ic1", cfg, inst).passed
                assert check_postulate("ic2", cfg, inst).passed
                assert check_postulate("ic3", cfg, inst, other=variant).passed
                assert check_postulate("ic7", cfg, inst, mu_prime=aux.constraints).passed

    # IC4 under permutation-closed schemes and triangle distances
    rng = Xoshiro256StarStar(10081)
    for _ in range(25):
        base = random_instance(2 + rng.below(3), 2, seed=rng.next64())
        f1, f2 = base.profile
        fair = _Instance(base.universe, Or(f1, f2), [f1, f2])
        for kind in (DD, DH):
            for scheme in (ALL, EqualWeights(), ExpertWeights(9), ExplicitWeights([[5, 2], [2, 5]])):
                assert check_postulate("ic4", OperatorConfig(kind, scheme), fair).passed

    # the rough-distance counterexample breaks IC4 exactly as published
    u5 = Universe(["x1", "x2", "x3", "x4", "x5"])
    f1 = parse_formula("x1 & x2 & x3 & x4 & x5", u5)
    f2 = parse_formula("!x1 & !x2 & !x3 & !x4 & !x5", u5)
    bridge = parse_formula("x1 & !x2 & !x3 & !x4 & !x5", u5)
    ic4_inst = Instance(u5, Or(Or(f1, f2), bridge), [f1, f2])
    ic4_cfg = OperatorConfig(ROUGH, ExplicitWeights([[5, 2], [2, 5]]))
    ic4 = check_postulate("ic4", ic4_cfg, ic4_inst)
    assert not ic4.passed and ic4.witness["consistent_with"] == 1

    # IC8 counterexample: narrowing resurrects the dominated model
    narrowed = realize([[1, 0], [0, 1], [0, 2]])
    models = vec_map(narrowed, DH)
    mu_prime = formula_from_models(
        [models[(1, 0)], models[(0, 2)]], narrowed.universe
    )
    ic8 = check_postulate("ic8", OperatorConfig(DH, ALL), narrowed, mu_prime=mu_prime)
    assert not ic8.passed
    assert ic8.witness["new_models"] == [models[(0, 2)]]
    restricted = Instance(narrowed.universe, mu_prime, narrowed.profile)
    assert models[(0, 2)] in merge_scheme(restricted, ExplicitWeights([[2, 1]]), DH).models

    # majority keeps failing no matter the repetitions
    ua = Universe(["a"])
    fa, fna = parse_formula("a", ua), parse_formula("!a", ua)
    for reps in range(1, 6):
        verdict = check_majority(OperatorConfig(DH, ALL), ua, fa, fna, reps)
        assert not verdict.passed

    # arbitration-style duplicate invariance on the suite
    for inst in suite_instances(30, base_seed=10082, n_max=4, m_max=3):
        for kind in (DD, DH):
            assert check_arbitration_duplicate(OperatorConfig(kind, ALL), inst).passed

    report(8, "postulates: exact verdict pattern")


def _memo_by_identity(fn):
    """fn memoised on the identity of its arguments; each argument is
    held with the result, so no id is reused while the memo lives."""
    held = {}

    def memo(*args):
        key = tuple(map(id, args))
        if key not in held:
            held[key] = (args, fn(*args))
        return held[key][1]

    return memo


def test_criterion_09_disjunctive_property(monkeypatch):
    # closest pairs = expert merge, exhaustively over model-set pairs. Each
    # formula's truth table and support, and its distance column over the
    # whole cube, is computed once rather than once per pair it is in;
    # d(I, F) does not depend on the other candidates, so a merge reads
    # its rows off it.
    cube_column = _memo_by_identity(
        lambda table, n: distance_matrix(DH, np.arange(1 << n), [table], n)[:, 0]
    )

    def memo_distance_matrix(kind, cand_bits, truth_tables, n, supports=None):
        assert kind == DH
        return np.column_stack([cube_column(t, n)[cand_bits] for t in truth_tables])

    monkeypatch.setattr(merge_module, "truth_table", _memo_by_identity(truth_table))
    monkeypatch.setattr(
        merge_module, "table_and_support", _memo_by_identity(table_and_support)
    )
    for module in (merge_module, postulates_module):
        monkeypatch.setattr(module, "distance_matrix", memo_distance_matrix)
    for n in (2, 3):
        u = Universe([f"v{i}" for i in range(n)])
        everything = models_of(TRUE, u)
        formulas = []
        for bits in range(1, 1 << len(everything)):
            chosen = [m for i, m in enumerate(everything) if (bits >> i) & 1]
            formulas.append(formula_from_models(chosen, u))
        mismatches = 0
        for f1 in formulas:
            for f2 in formulas:
                inst = Instance(u, TRUE, [f1, f2])
                expert = merge_scheme(inst, ExpertWeights(n + 1), DH).models
                if closest_pairs_merge(inst) != expert:
                    mismatches += 1
        assert mismatches == 0, f"n={n}: {mismatches} mismatches"
    monkeypatch.undo()

    # expert weight k*m yields a disjunctive operator on random profiles
    rng = Xoshiro256StarStar(1009)
    for _ in range(40):
        n = 2 + rng.below(3)
        m = 1 + rng.below(3)
        base = random_instance(n, m, seed=rng.next64())
        free = Instance(base.universe, TRUE, base.profile)
        cfg = OperatorConfig(DH, ExpertWeights(max(2, n * m)))
        verdict = check_disjunctive(cfg, free)
        assert verdict.passed and not verdict.vacuous
    report(9, "closest pairs and expert schemes are disjunctive")


def test_criterion_10_multi_source():
    u3 = Universe(["x", "y", "z"])
    s1 = [parse_formula(t, u3) for t in ("x", "y", "z")]
    s2 = [parse_formula(t, u3) for t in ("!x", "!y")]
    s3 = [parse_formula(t, u3) for t in ("!x", "!z")]
    stray = Model(u3, 0b100)  # {x, !y, !z}

    for kind in (DD, DH):
        merged = multi_source_merge(u3, TRUE, [s1, s2, s3], ALL, kind)
        assert stray not in merged.models

    flat = Instance(u3, TRUE, s1 + s2 + s3)
    assert stray in _disj(flat)

    u2 = Universe(["x", "y"])
    pair = [
        [parse_formula("x", u2), parse_formula("y", u2)],
        [parse_formula("!x", u2), parse_formula("!y", u2)],
    ]
    merged = multi_source_merge(u2, TRUE, pair, EqualWeights(), DH)
    assert merged.models == frozenset(models_of(TRUE, u2))
    report(10, "multi-source merging differs from flattened maxcons")
