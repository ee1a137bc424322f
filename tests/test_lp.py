import random
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from beliefmerge import AllPositiveWeights, DistanceKind, lp, merge_scheme, random_instance, realize
from beliefmerge.lp import decide

from oracles import (
    LinConstraint,
    LinSystem,
    feasible,
    fraction_witness,
    grid_feasible,
    minimality_system,
    perfbench_inputs,
)


def _leq(coeffs, rhs):
    return LinConstraint(coeffs, rhs)


class TestFeasible:
    def test_mutual_double_requirement_is_infeasible(self):
        # both weights at least twice the other: 2w1+2w2 <= 3w1 and <= 3w2
        system = LinSystem(
            2,
            [
                _leq([-1, 2], 0),   # 2w2 <= w1
                _leq([2, -1], 0),   # 2w1 <= w2
                _leq([-1, 0], -1),  # w1 >= 1
                _leq([0, -1], -1),  # w2 >= 1
            ],
        )
        assert feasible(system) is None

    def test_single_lower_bound_witness(self):
        system = LinSystem(1, [_leq([-1], -1)])
        assert feasible(system) == (Fraction(1),)

    def test_witness_satisfies_all_constraints(self):
        system = LinSystem(
            2,
            [
                _leq([2, -1], 0),   # 3w1 <= w1 + w2
                _leq([-1, 0], -1),
                _leq([0, -1], -1),
            ],
        )
        point = feasible(system)
        assert point is not None
        assert all(c.holds_at(point) for c in system.constraints)
        assert point[1] >= 2 * point[0]

    def test_unconstrained_variable_defaults_to_zero(self):
        system = LinSystem(2, [_leq([1, 0], 4), _leq([-1, 0], -4)])
        assert feasible(system) == (Fraction(4), Fraction(0))

    def test_degenerate_blank_system(self):
        assert feasible(LinSystem(3, [])) == (Fraction(0),) * 3

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_soundness_on_random_systems(self, data):
        dim = data.draw(st.integers(min_value=1, max_value=3))
        rows = data.draw(
            st.lists(
                st.tuples(
                    st.lists(
                        st.integers(min_value=-4, max_value=4),
                        min_size=dim,
                        max_size=dim,
                    ),
                    st.integers(min_value=-6, max_value=6),
                ),
                max_size=6,
            )
        )
        system = LinSystem(dim, [LinConstraint(c, b) for c, b in rows])
        point = feasible(system)
        if point is not None:
            assert all(c.holds_at(point) for c in system.constraints)


class TestMinimalitySystem:
    def test_center_point_feasible_with_witness(self):
        system = minimality_system([1, 1], [(3, 0), (0, 3)])
        point = feasible(system)
        assert point is not None
        assert all(c.holds_at(point) for c in system.constraints)

    def test_paper_weights_satisfy_first_two_minimality(self):
        # the published example weights for the three-point instance
        system = minimality_system([3, 0], [(1, 1), (0, 3)])
        w = (Fraction(2), Fraction(4))
        assert all(c.holds_at(w) for c in system.constraints)

    def test_undominated_middle_point_excluded(self):
        system = minimality_system([2, 2], [(3, 0), (0, 3)])
        assert feasible(system) is None

    def test_empty_comparison_set_always_feasible(self):
        system = minimality_system([4, 7, 1], [])
        assert feasible(system) == (Fraction(1),) * 3

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            minimality_system([1, 1], [(1, 2, 3)])

    @pytest.mark.parametrize("seed", range(12))
    def test_agrees_with_grid_oracle(self, seed):
        # m=2 keeps the integer grid bound sound: feasibility regions are
        # cones with small rational extreme rays
        inst = random_instance(4, 2, seed=seed)
        vectors = list(map(tuple, inst.distances(DistanceKind.hamming()).tolist()))
        total = max(sum(v) for v in vectors)
        bound = 1 + total * 2
        for d in set(vectors):
            others = [e for e in set(vectors) if e != d]
            system = minimality_system(d, others)
            exact = feasible(system)
            grid = grid_feasible(system, bound)
            assert (exact is None) == (grid is None)


FRONT_34 = [
    tuple(int(x) for x in v.split(","))
    for v in (
        "0,0,1,3,3;0,0,2,3,2;0,1,1,2,3;0,1,2,3,1;0,1,3,0,3;0,1,3,2,2;0,1,3,3,0;"
        "0,2,1,2,2;0,2,2,1,2;0,2,3,1,1;0,3,1,3,0;1,0,2,2,3;1,0,2,3,1;1,0,3,0,3;"
        "1,1,0,3,2;1,1,3,2,1;1,2,2,2,0;1,2,3,1,0;1,3,0,1,3;2,0,0,3,3;2,0,3,1,1;"
        "2,0,3,3,0;2,1,1,1,3;2,1,1,2,1;2,1,2,1,1;2,1,3,0,2;2,2,0,2,2;2,2,2,0,2;"
        "2,3,0,3,0;3,0,0,3,1;3,1,0,2,2;3,1,3,0,0;3,3,0,0,1;3,3,2,0,0"
    ).split(";")
]


def _front(vectors):
    return [
        d for d in vectors
        if not any(e != d and all(a <= b for a, b in zip(e, d)) for e in vectors)
    ]


def _assert_certified(d, others, witness, certificate):
    """Exact integer / Fraction checks of whichever side decide returned."""
    assert (witness is None) != (certificate is None)
    if witness is not None:
        assert len(witness) == len(d)
        assert all(isinstance(x, int) and x > 0 for x in witness)
        score = sum(a * b for a, b in zip(witness, d))
        assert all(score <= sum(a * b for a, b in zip(witness, o)) for o in others)
    else:
        assert 1 <= len(certificate) <= len(d)
        assert all(isinstance(v, Fraction) and v > 0 for v in certificate.values())
        assert sum(certificate.values()) == 1
        combo = [sum(lam * others[j][c] for j, lam in certificate.items()) for c in range(len(d))]
        assert all(a <= b for a, b in zip(combo, d))
        assert any(a < b for a, b in zip(combo, d))


class TestDecide:
    def test_no_others_gives_unit_witness(self):
        assert decide((4, 7, 1), []) == ((1, 1, 1), None)

    def test_blocked_middle_is_excluded_by_both_extremes(self):
        others = [(3, 0), (0, 3)]
        witness, certificate = decide((2, 2), others)
        assert witness is None and set(certificate) == {0, 1}
        _assert_certified((2, 2), others, None, certificate)

    def test_dominated_vector_is_excluded_by_its_dominator(self):
        assert decide((2, 2), [(1, 2), (0, 5)]) == (None, {0: Fraction(1)})

    def test_intro_extreme_has_certified_witness(self):
        others = [(1, 1), (3, 0)]
        witness, certificate = decide((0, 3), others)
        assert certificate is None
        _assert_certified((0, 3), others, witness, None)

    @pytest.mark.parametrize("m", [1, 2, 3, 4, 5])
    def test_agrees_with_fourier_motzkin_on_seeded_fronts(self, m):
        rng = random.Random(4000 + m)
        sizes = {1: 4, 2: 14, 3: 14, 4: 12, 5: 9}
        outcomes = []
        for _ in range(40):
            points = {tuple(rng.randrange(5) for _ in range(m)) for _ in range(sizes[m])}
            front = _front(sorted(points))
            for d in sorted(points):
                others = [e for e in front if e != d]
                witness, certificate = decide(d, others)
                oracle = feasible(minimality_system(d, others))
                assert (witness is None) == (oracle is None), (d, others)
                _assert_certified(d, others, witness, certificate)
                outcomes.append(witness is None)
        assert any(outcomes) and not all(outcomes)

    def test_34_vector_five_coordinate_front_certifies(self):
        # a 34-vector m = 5 front on which Fourier-Motzkin ran past 400 s
        assert _front(FRONT_34) == FRONT_34
        selected = 0
        for d in FRONT_34:
            others = [e for e in FRONT_34 if e != d]
            witness, certificate = decide(d, others)
            _assert_certified(d, others, witness, certificate)
            selected += witness is not None
        assert 0 < selected < len(FRONT_34)


class TestWitnessReduction:
    """lp.decide's gcd-reduced witness against the Fraction route, on
    the (numerators, denominator) of every witness that decide builds."""

    @pytest.fixture
    def calls(self, monkeypatch):
        seen = []
        reduce = lp._witness

        def checked(values, denom):
            witness = reduce(values, denom)
            assert witness == fraction_witness(values, denom), (values, denom)
            seen.append((values, denom))
            return witness

        monkeypatch.setattr(lp, "_witness", checked)
        return seen

    @pytest.mark.parametrize("m", [2, 3, 4, 5, 6])
    def test_equals_fraction_route_on_seeded_fronts(self, calls, m):
        rng = random.Random(7000 + m)
        for _ in range(30):
            points = sorted({tuple(rng.randrange(7) for _ in range(m)) for _ in range(12)})
            front = _front(points)
            for d in front:
                decide(d, [e for e in front if e != d])
        # the reduction is not trivial: common factors and true denominators occur
        assert any(gcd(denom, *values) > 1 for values, denom in calls)
        assert any(denom // gcd(denom, *values) > 1 for values, denom in calls)

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_equals_fraction_route_on_benchmark_fronts(self, calls, seed):
        inputs = perfbench_inputs()
        for i in range(len(inputs.LP_SLOTS) * inputs.LP_COPIES):
            vectors, block = inputs.front_vectors(seed, i)
            merge_scheme(realize(vectors, block), AllPositiveWeights(), DistanceKind.hamming())
        assert calls
