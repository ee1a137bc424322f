import numpy as np
import pytest

from beliefmerge import (
    DistanceKind,
    Instance,
    Model,
    Universe,
    parse_formula,
    random_instance,
    realize,
)
from beliefmerge.distance import distance_matrix
from beliefmerge.errors import (
    DistanceTableError,
    UniverseMismatchError,
    UnsatisfiableFormulaError,
)
from beliefmerge.formulae import TRUE, truth_table

from oracles import (
    brute_formula_distance,
    brute_model_distance,
    brute_vector,
    dominates,
    evaluate,
    models_of,
    mu_models,
    subsat,
)

DD = DistanceKind.drastic()
DH = DistanceKind.hamming()
# the rough distance from the fairness counterexample: {0:0, 1:1, 2..4:2, >=5:5}
DS = DistanceKind.from_table([[0, 0], [1, 1], [2, 2], [3, 2], [4, 2], [5, 5]], default=5)

ABC = Universe(["a", "b", "c"])


class TestModelDistance:
    def test_hamming_differs_on_two(self):
        i = Model(ABC, 0b101)  # {a, !b, c}
        j = Model(ABC, 0b000)  # {!a, !b, !c}
        assert brute_model_distance(DH, i, j) == 2

    def test_drastic_identity(self):
        i = Model(ABC, 0b010)
        assert brute_model_distance(DD, i, i) == 0

    def test_drastic_any_difference_is_one(self):
        assert brute_model_distance(DD, Model(ABC, 0), Model(ABC, 7)) == 1

    def test_rough_table_maps_three_bit_difference_to_two(self):
        u = Universe(["v1", "v2", "v3", "v4", "v5"])
        i = Model(u, 0b11100)
        j = Model(u, 0b00000)
        assert brute_model_distance(DS, i, j) == 2

    def test_universe_mismatch(self):
        inst = Instance(ABC, TRUE, [TRUE])
        with pytest.raises(UniverseMismatchError):
            inst.model_index(Model(Universe(["a", "b"]), 0))

    @pytest.mark.parametrize("kind", [DD, DH, DS])
    def test_identity_zero_and_positivity(self, kind):
        models = models_of(TRUE, ABC)
        for i in models:
            assert brute_model_distance(kind, i, i) == 0
            for j in models:
                if i != j:
                    assert brute_model_distance(kind, i, j) > 0

    @pytest.mark.parametrize("kind", [DD, DH])
    def test_triangle_inequality_exhaustive(self, kind):
        u = Universe(["p", "q", "r", "s"])
        models = models_of(TRUE, u)
        for i in models:
            for j in models:
                dij = brute_model_distance(kind, i, j)
                for k in models:
                    via_k = brute_model_distance(kind, i, k) + brute_model_distance(kind, k, j)
                    assert via_k >= dij

    def test_rough_table_breaks_triangle(self):
        # 5 differing bits cost 5 directly but 2+1 through a midpoint
        u = Universe(["v1", "v2", "v3", "v4", "v5"])
        i, j, k = Model(u, 0b11111), Model(u, 0b00000), Model(u, 0b00001)
        via_k = brute_model_distance(DS, i, k) + brute_model_distance(DS, k, j)
        assert brute_model_distance(DS, i, j) > via_k


class TestDistanceTables:
    def test_drastic_equals_binary_table(self):
        binary = DistanceKind.from_table([[0, 0], [1, 1]], default=1)
        models = models_of(TRUE, ABC)
        for i in models:
            for j in models:
                assert brute_model_distance(DD, i, j) == brute_model_distance(binary, i, j)

    def test_table_must_send_zero_to_zero(self):
        with pytest.raises(DistanceTableError):
            DistanceKind.from_table([[0, 1], [1, 1]])
        with pytest.raises(DistanceTableError):
            DistanceKind.from_table([[1, 1]])

    def test_table_values_positive(self):
        with pytest.raises(DistanceTableError):
            DistanceKind.from_table([[0, 0], [1, 0]])

    def test_table_values_fit_int64(self):
        DistanceKind.from_table([[0, 0], [1, 2**63 - 1]], default=2**63 - 1)
        with pytest.raises(DistanceTableError):
            DistanceKind.from_table([[0, 0], [1, 2**63]])
        with pytest.raises(DistanceTableError):
            DistanceKind.from_table([[0, 0], [1, 1]], default=2**63)

    def test_table_keys_increasing(self):
        with pytest.raises(DistanceTableError):
            DistanceKind.from_table([[0, 0], [2, 1], [1, 1]])

    def test_uncovered_count_is_an_error(self):
        partial = DistanceKind.from_table([[0, 0], [1, 1]])
        with pytest.raises(DistanceTableError):
            partial.mapped(2)

    @pytest.mark.parametrize("n", range(1, 9))
    def test_largest_is_the_table_maximum(self, n):
        gapped = DistanceKind.from_table([[0, 0], [1, 1], [5, 9]])
        kinds = [DD, DH, DS, gapped, DistanceKind.from_table([[0, 0], [1, 4]], default=2)]
        for kind in kinds:
            try:
                want = int(kind.table_array(n).max())
            except DistanceTableError:
                with pytest.raises(DistanceTableError):
                    kind.largest(n)
                continue
            assert kind.largest(n) == want


def _column(kind: DistanceKind, f, universe: Universe) -> np.ndarray:
    """Distance from every world of the universe to f, in bitmask order."""
    worlds = np.arange(1 << universe.n, dtype=np.int64)
    return distance_matrix(kind, worlds, [truth_table(f, universe)], universe.n)[:, 0]


class TestFormulaDistance:
    def test_zero_iff_satisfying(self):
        f = parse_formula("a | b", ABC)
        column = _column(DH, f, ABC)
        for m in models_of(TRUE, ABC):
            assert (column[m.bits] == 0) == evaluate(f, m)

    def test_conjunction_counts_false_variables(self):
        u = Universe(["x1", "x2", "x3"])
        f = parse_formula("x1 & x2 & x3", u)
        i = Model(u, 0b100)  # two of the three are false
        assert _column(DH, f, u)[i.bits] == 2

    def test_negative_conjunction_from_derived_oracle(self):
        u = Universe(["a", "b"])
        f = parse_formula("!a & !b", u)
        i = Model(u, 0b11)
        assert brute_formula_distance(DH, i, f) == 2
        assert _column(DH, f, u)[i.bits] == 2

    def test_unsatisfiable_formula_is_an_error(self):
        f = parse_formula("a & !a", ABC)
        with pytest.raises(UnsatisfiableFormulaError):
            _column(DH, f, ABC)

    @pytest.mark.parametrize("kind", [DD, DH, DS])
    @pytest.mark.parametrize("seed", range(8))
    def test_agrees_with_brute_force(self, kind, seed):
        inst = random_instance(4, 3, seed=seed)
        matrix = inst.distances(kind)
        for m in mu_models(inst):
            row = matrix[inst.model_index(m)]
            for j, f in enumerate(inst.profile):
                assert row[j] == brute_formula_distance(kind, m, f)


class TestProfileDistanceVector:
    def test_intro_scenario_vectors(self):
        inst = realize([[3, 0], [1, 1], [0, 3]])
        assert sorted(inst.distances(DH).tolist()) == [[0, 3], [1, 1], [3, 0]]

    def test_all_satisfied_gives_zero_vector(self):
        profile = [parse_formula("a | b", ABC), parse_formula("c | !c", ABC)]
        i = Model(ABC, 0b110)
        inst = Instance(ABC, TRUE, profile)
        assert inst.distances(DH)[inst.model_index(i)].tolist() == [0, 0]

    def test_single_vector_realization_recomputed(self):
        inst = realize([[2, 2]], n=3)
        (model,) = mu_models(inst)
        assert brute_vector(DH, model, inst.profile) == (2, 2)
        assert inst.distances(DH).tolist() == [[2, 2]]

    def test_instance_vectors_match_per_model_computation(self):
        inst = random_instance(4, 3, seed=17)
        for kind in (DD, DH, DS):
            vectors = list(map(tuple, inst.distances(kind).tolist()))
            for idx, m in enumerate(mu_models(inst)):
                assert vectors[idx] == brute_vector(kind, m, inst.profile)


class TestSubsat:
    def test_all_satisfied(self):
        profile = [parse_formula("a | !a", ABC), parse_formula("true", ABC)]
        assert subsat(Model(ABC, 0), profile) == frozenset({0, 1})

    def test_contradictory_pair(self):
        u = Universe(["x"])
        profile = [parse_formula("x", u), parse_formula("!x", u)]
        assert subsat(Model(u, 1), profile) == frozenset({0})

    @pytest.mark.parametrize("seed", range(10))
    def test_drastic_dominance_equals_subsat_containment(self, seed):
        # containment of satisfied sets is exactly drastic vector dominance
        inst = random_instance(4, 4, seed=seed)
        models = mu_models(inst)
        vectors = inst.distances(DD).tolist()
        for a, i in enumerate(models):
            for b, j in enumerate(models):
                lhs = dominates(vectors[a], vectors[b])
                rhs = subsat(j, inst.profile) <= subsat(i, inst.profile)
                assert lhs == rhs
