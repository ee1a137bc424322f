from fractions import Fraction
from itertools import islice, product
from math import gcd

import numpy as np
import pytest

from beliefmerge import (
    AllPositiveWeights,
    DistanceKind,
    EqualWeights,
    ExpertWeights,
    ExplicitWeights,
    Instance,
    Model,
    Universe,
    excluding_subset,
    merge_scheme,
    models_of,
    multi_source_merge,
    parse_formula,
    random_instance,
    realize,
    undominated,
)
from beliefmerge._rng import Xoshiro256StarStar
from beliefmerge.errors import (
    DistanceTableError,
    InconsistentConstraintsError,
    InconsistentProfileError,
)
from beliefmerge.formulae import TRUE
from beliefmerge.maxcons import maxcons_disjunction
from beliefmerge import _kernels, merge as merge_module
from beliefmerge.merge import (
    _argmin_merge,
    _gcd_one_vectors,
    _midpoint_pairs,
    _scores,
    _screen_vectors,
    distinct_front,
)
from beliefmerge.weights import expand_scheme, integer_witness, parse_scheme

from oracles import (
    brute_merge_fixed,
    brute_score,
    brute_vector,
    feasible,
    full_row_lp_merge,
    minimality_system,
    mu_models,
    perfbench_inputs,
    recursive_gcd_one_vectors,
    row_generation_merge,
    spread_lp_merge,
    strictly_dominates,
    unique_rows,
)

DD = DistanceKind.drastic()
DH = DistanceKind.hamming()


def vec_of(inst, kind, model):
    return tuple(inst.distances(kind)[inst.model_index(model)].tolist())


def by_vector(inst, kind):
    return {vec_of(inst, kind, m): m for m in mu_models(inst)}


@pytest.fixture(scope="module")
def intro():
    return realize([[3, 0], [1, 1], [0, 3]])


@pytest.fixture(scope="module")
def blocked():
    return realize([[3, 0], [2, 2], [0, 3]])


class TestInstance:
    @pytest.mark.parametrize("seed", range(8))
    def test_drastic_matrix_from_tables_matches_brute_force(self, seed):
        inst = random_instance(2 + seed % 3, 1 + seed % 4, seed=seed)
        assert inst.distances(DD).tolist() == [
            list(brute_vector(DD, m, inst.profile)) for m in mu_models(inst)
        ]

    def test_rejects_inconsistent_constraints(self):
        u = Universe(["x"])
        with pytest.raises(InconsistentConstraintsError):
            Instance(u, parse_formula("x & !x", u), [parse_formula("x", u)])

    def test_rejects_inconsistent_profile_entry(self):
        u = Universe(["x", "y"])
        with pytest.raises(InconsistentProfileError) as err:
            Instance(u, TRUE, [parse_formula("x", u), parse_formula("y & !y", u)])
        assert err.value.index == 1

    def test_model_index_requires_mu_model(self):
        u = Universe(["x"])
        inst = Instance(u, parse_formula("x", u), [parse_formula("x", u)])
        with pytest.raises(ValueError):
            inst.model_index(Model(u, 0))

    def test_distance_matrix_and_tables_are_read_only(self, intro):
        matrix = intro.distances(DH)
        assert matrix.dtype == np.int64 and matrix.shape == (3, 2)
        with pytest.raises(ValueError):
            matrix[0, 0] = 7
        for table in (intro.mu_table, *intro.profile_tables):
            with pytest.raises(ValueError):
                table[0] = True
        assert intro.vectors(DH) == tuple(map(tuple, matrix.tolist()))
        assert all(type(x) is int for d in intro.vectors(DH) for x in d)


class TestMergeFixed:
    def test_intro_equal_weights_select_the_compromise(self, intro):
        got = merge_scheme(intro, ExplicitWeights([[1, 1]]), DH).models
        assert got == {by_vector(intro, DH)[(1, 1)]}

    def test_intro_doubled_first_source(self, intro):
        got = merge_scheme(intro, ExplicitWeights([[2, 1]]), DH).models
        models = by_vector(intro, DH)
        assert got == {models[(1, 1)], models[(0, 3)]}

    def test_joint_consistency_forces_conjunction(self):
        u = Universe(["a", "b"])
        inst = Instance(u, TRUE, [parse_formula("a", u), parse_formula("a | b", u)])
        expected = frozenset(models_of(parse_formula("a", u), u))
        for w in ([1, 1], [5, 2], [Fraction(1, 3), 7]):
            assert merge_scheme(inst, ExplicitWeights([w]), DH).models == expected

    def test_never_empty(self):
        for seed in range(6):
            inst = random_instance(3, 3, seed=seed)
            assert merge_scheme(inst, ExplicitWeights([[1, 2, 3]]), DH).models

    def test_rejects_wrong_length(self, intro):
        with pytest.raises(ValueError):
            merge_scheme(intro, ExplicitWeights([[1, 1, 1]]), DH)

    @pytest.mark.parametrize("seed", range(8))
    def test_agrees_with_brute_force(self, seed):
        inst = random_instance(4, 3, seed=seed)
        for w in ([1, 1, 1], [3, 1, 2], [1, 5, 1]):
            for kind in (DH, DD):
                got = merge_scheme(inst, ExplicitWeights([w]), kind).models
                assert got == brute_merge_fixed(inst, w, kind)


# weights whose scores pass 2^63 on DEEP's Hamming distances, so the
# matrix product runs on Python ints; DEEP's rows tie only up to 1 in 10^19
HUGE_SCHEMES = ["list:1/1000000007,1/998244353,3/7", "list:1,1,10000000000000000000"]
DEEP = [[1, 2, 1], [2, 0, 1], [0, 3, 2], [4, 4, 1], [3, 1, 3], [2, 2, 2]]


def _brute_scheme_merge(inst, vectors, kind):
    """Union of brute-force fixed merges; each model keeps the first vector."""
    witnesses = {}
    for w in vectors:
        for model in brute_merge_fixed(inst, w, kind):
            witnesses.setdefault(model, integer_witness(w))
    return witnesses


class TestFiniteSchemesAgainstBruteForce:
    @pytest.mark.parametrize("seed", range(10))
    def test_random_instances(self, seed):
        inst = random_instance(4, 3, seed=seed)
        texts = ["equal", "expert", "list:2,1,1;1,1,3;1/2,5/3,1"] + HUGE_SCHEMES
        for kind in (DD, DH):
            for text in texts:
                self._check(inst, parse_scheme(text), kind)

    def test_python_int_scores_stay_exact(self):
        inst = realize(DEEP)
        for text in HUGE_SCHEMES:
            vectors = expand_scheme(parse_scheme(text), DH.largest(inst.universe.n), 3)
            bound = int(inst.distances(DH).max()) * max(
                sum(integer_witness(w)) for w in vectors
            )
            assert bound >= 2**63
            self._check(inst, parse_scheme(text), DH)
        # 10^19 + 2 beats 10^19 + 3, which a float64 score would tie
        got = merge_scheme(inst, ExplicitWeights([[1, 1, 10**19]]), DH).models
        assert got == {by_vector(inst, DH)[(2, 0, 1)]}

    def _check(self, inst, scheme, kind):
        vectors = expand_scheme(scheme, kind.largest(inst.universe.n), inst.m)
        result = merge_scheme(inst, scheme, kind)
        assert result.witnesses == _brute_scheme_merge(inst, vectors, kind)
        assert result.models == frozenset(result.witnesses)
        for w in vectors:
            got = merge_scheme(inst, ExplicitWeights([w]), kind).models
            assert got == brute_merge_fixed(inst, w, kind)


class TestMinimalForSomePositive:
    def test_undominated_middle_vector_has_no_witness(self, blocked):
        middle = by_vector(blocked, DH)[(2, 2)]
        assert merge_scheme(blocked, AllPositiveWeights(), DH).witnesses.get(middle) is None

    def test_extreme_vector_has_verified_witness(self, intro):
        target = by_vector(intro, DH)[(0, 3)]
        witness = merge_scheme(intro, AllPositiveWeights(), DH).witnesses.get(target)
        assert witness is not None
        best = min(brute_score(witness, d) for d in intro.distances(DH).tolist())
        assert brute_score(witness, (0, 3)) == best
        # the published example weights work as well
        assert brute_score([4, 1], (0, 3)) == min(
            brute_score([4, 1], d) for d in intro.distances(DH).tolist()
        )

    def test_strictly_dominated_vector_has_no_witness(self):
        inst = realize([[1, 0], [0, 1], [0, 2]])
        dominated = by_vector(inst, DH)[(0, 2)]
        assert merge_scheme(inst, AllPositiveWeights(), DH).witnesses.get(dominated) is None

    def test_requires_mu_model(self, intro):
        outsider = Model(intro.universe, 0)
        with pytest.raises(ValueError):
            intro.model_index(outsider)


class TestMergeScheme:
    def test_all_positive_keeps_all_three(self, intro):
        result = merge_scheme(intro, AllPositiveWeights(), DH)
        assert result.models == frozenset(mu_models(intro))

    def test_all_positive_drops_cut_off_point(self, blocked):
        result = merge_scheme(blocked, AllPositiveWeights(), DH)
        models = by_vector(blocked, DH)
        assert result.models == {models[(3, 0)], models[(0, 3)]}

    def test_equal_scheme_matches_fixed_merge(self):
        for seed in range(5):
            inst = random_instance(4, 3, seed=seed)
            assert (
                merge_scheme(inst, EqualWeights(), DH).models
                == merge_scheme(inst, ExplicitWeights([[1, 1, 1]]), DH).models
            )

    def test_explicit_scheme_is_union_of_fixed_merges(self, intro):
        result = merge_scheme(intro, ExplicitWeights([[2, 4], [4, 1]]), DH)
        expected = (
            merge_scheme(intro, ExplicitWeights([[2, 4]]), DH).models
            | merge_scheme(intro, ExplicitWeights([[4, 1]]), DH).models
        )
        assert result.models == expected

    def test_expert_defaults_resolve_per_distance(self):
        inst = random_instance(3, 2, seed=9)
        for kind in (DD, DH):
            result = merge_scheme(inst, ExpertWeights(), kind)
            assert result.models

    @pytest.mark.parametrize("seed", range(10))
    def test_witnesses_certify_selection(self, seed):
        inst = random_instance(4, 3, seed=seed)
        for scheme in (AllPositiveWeights(), ExpertWeights(5), EqualWeights()):
            result = merge_scheme(inst, scheme, DH)
            vectors = inst.distances(DH).tolist()
            for model, w in result.witnesses.items():
                mine = brute_score(w, vec_of(inst, DH, model))
                assert mine == min(brute_score(w, d) for d in vectors)

    @pytest.mark.parametrize("seed", range(10))
    def test_selected_models_are_never_strictly_dominated(self, seed):
        inst = random_instance(4, 3, seed=seed)
        result = merge_scheme(inst, AllPositiveWeights(), DH)
        vectors = set(map(tuple, inst.distances(DH).tolist()))
        for m in result.models:
            mine = vec_of(inst, DH, m)
            assert not any(strictly_dominates(d, mine) for d in vectors)

    @pytest.mark.parametrize("seed", range(10))
    def test_witness_vectors_reproduce_all_positive_merge(self, seed):
        # finiteness: the collected witnesses form an equivalent explicit scheme
        inst = random_instance(4, 3, seed=seed)
        result = merge_scheme(inst, AllPositiveWeights(), DH)
        explicit = ExplicitWeights(sorted(set(result.witnesses.values())))
        again = merge_scheme(inst, explicit, DH)
        assert again.models == result.models


def _matrix(rng, k, m, low, high):
    """A k x m int64 matrix of seeded entries in [low, low + high)."""
    return np.array(
        [[low + rng.below(high) for _ in range(m)] for _ in range(k)], dtype=np.int64
    )


def _check_distinct(matrix):
    """distinct_front against the np.unique oracle and the dominance definition."""
    rows, first, inverse, front = distinct_front(matrix)
    want_rows, want_first, want_inverse = unique_rows(matrix)
    assert rows.dtype == np.int64
    assert np.array_equal(rows, want_rows)
    assert np.array_equal(first, want_first)
    assert np.array_equal(inverse, want_inverse)
    distinct = [tuple(r) for r in want_rows.tolist()]
    assert front.tolist() == [
        not any(strictly_dominates(e, d) for e in distinct) for d in distinct
    ]
    return rows, first, inverse, front


def _pooled(rng, k, pools):
    """A k x len(pools) int64 matrix whose column j draws from pools[j]."""
    return np.array(
        [[pool[rng.below(len(pool))] for pool in pools] for _ in range(k)], dtype=np.int64
    )


# columns whose ranges reach 2^63 - 1, 2^63 + 6 and 2^64 - 1
EXTREME_POOLS = [
    [0, 2**63 - 1, 5],
    [-(2**62) - 3, -(2**62), 5, 2**62, 2**62 + 3],
    [-(2**63), 0, 2**63 - 1],
]


class TestDistinctFront:
    SHAPES = [
        (1, 3, 0, 5),  # one row
        (40, 1, 0, 6),  # one column
        (30, 3, 7, 1),  # all rows equal
        (200, 3, 0, 2),  # many ties
        (60, 4, 0, 4),
        (80, 2, 2**62 - 3, 6),  # entries near 2^62
        (50, 3, 2**62, 3),
        (50, 3, -40, 80),  # negative entries, as visible_hull's points
        (60, 18, 0, 3),  # 3^18: one word, too wide to count
        (60, 18, 0, 2**20),  # three columns a word, six words
        (60, 30, 0, 7),  # 22 columns in the first word, 8 in the second
        (6144, 3, 0, 3),  # a kernel_wide matrix
    ]

    @pytest.mark.parametrize("seed", range(5))
    @pytest.mark.parametrize("shape", SHAPES)
    def test_matches_unique_rows(self, seed, shape):
        rng = Xoshiro256StarStar(seed)
        matrix = _matrix(rng, *shape)
        _check_distinct(matrix)
        _check_distinct(matrix[[rng.below(len(matrix)) for _ in range(len(matrix))]])

    @pytest.mark.parametrize("seed", range(5))
    @pytest.mark.parametrize("columns", [[0], [1], [2], [0, 1, 2], [2, 1, 0], [1, 0, 1, 2]])
    def test_columns_as_wide_as_int64(self, seed, columns):
        """A column whose range passes 2^63 is a raw word of its own; one
        reaching 2^63 - 1 still packs, as one digit of its own word."""
        rng = Xoshiro256StarStar(seed)
        pools = [EXTREME_POOLS[j] for j in columns] + [[0, 1, 2]]
        _check_distinct(_pooled(rng, 60, pools))

    @pytest.mark.parametrize("shape", [(300, 3, 0, 3), (80, 5, -3, 7), (60, 30, 0, 7)])
    def test_memory_orders(self, shape):
        """C-ordered, F-ordered and column-sliced inputs, as the
        kernel's column-major matrix, multi_source_merge's product and
        the postulate checkers' selections are."""
        wide = _matrix(Xoshiro256StarStar(9), shape[0], 2 * shape[1], *shape[2:])
        want = _check_distinct(np.ascontiguousarray(wide[:, ::2]))
        for matrix in (np.asfortranarray(wide[:, ::2]), wide[:, ::2],
                       np.asfortranarray(wide)[:, ::2]):
            got = _check_distinct(matrix)
            assert all(np.array_equal(g, w) for g, w in zip(got, want))

    @pytest.mark.parametrize("seed", range(3))
    def test_counting_and_sorting_agree(self, seed, monkeypatch):
        """The size rule forced each way on the same single-word matrices:
        the counting and the sorting grouping give the same four arrays."""
        rng = Xoshiro256StarStar(seed)
        matrices = [
            _matrix(rng, *shape)
            for shape in [(1, 3, 0, 5), (200, 3, 0, 2), (50, 3, -40, 80),
                          (80, 2, 2**62 - 3, 6), (2048, 3, 0, 5), (40, 4, 0, 30)]
        ]
        lexsort, sorted_calls = np.lexsort, []

        def spy(keys):
            sorted_calls.append(len(keys))
            return lexsort(keys)

        monkeypatch.setattr(np, "lexsort", spy)
        results = {}
        for slack in (-(2**40), 2**20):  # always sort; count every span up to 2^20
            monkeypatch.setattr(merge_module, "_COUNTING_SLACK", slack)
            results[slack] = [_check_distinct(m) for m in matrices]
            assert len(sorted_calls) == (len(matrices) if slack < 0 else 0)
            sorted_calls.clear()
        for by_sort, by_count in zip(*results.values()):
            assert all(np.array_equal(a, b) for a, b in zip(by_sort, by_count))


def _antichain(rng, m, top, level, count):
    """A seeded antichain drawn from the vectors with entries in 0..top
    whose entry sum is level or level + 1."""
    pool = [v for v in product(range(top + 1), repeat=m) if sum(v) in (level, level + 1)]
    chosen = []
    while pool and len(chosen) < count:
        v = pool.pop(rng.below(len(pool)))
        if not any(strictly_dominates(u, v) or strictly_dominates(v, u) for u in chosen):
            chosen.append(v)
    return np.array(chosen, dtype=np.int64)


def _all_positive(matrix):
    """The merge core's all-positive merge of a bare matrix as (rows,
    weights, witness_index), each row standing for the world of its
    index."""
    result = merge_module._scheme_merge(
        Universe(["x"]), np.arange(len(matrix)), matrix, AllPositiveWeights(),
        int(matrix.max()),
    )
    return result.bits, result.weights, result.witness_index


def _check_spread(matrix, rows, weights, witness_index):
    """The merge of matrix equals spread_lp_merge's, witnesses included."""
    want_rows, want_weights, want_index = spread_lp_merge(matrix)
    assert rows.tolist() == want_rows.tolist()
    assert list(weights) == want_weights
    assert witness_index.tolist() == want_index.tolist()


class TestRowGeneration:
    """The screened all-weights merge against the full-row oracle, row
    generation alone and the slot-spreading merge: the same selected
    rows, the slot-spreading merge's witnesses, each witness minimal over
    the whole matrix and each midpoint exclusion re-checked, all in
    Python ints."""

    @pytest.fixture(autouse=True)
    def exclusions(self, monkeypatch):
        """(d, a, b) for every exclusion the exclude screen makes."""
        self.exclusions = []
        pairs_of = merge_module._midpoint_pairs

        def recorded(front_rows, asked):
            pairs = pairs_of(front_rows, asked)
            values = front_rows.tolist()
            self.exclusions.extend(
                (values[i], values[a], values[b])
                for i, (a, b) in zip(asked.tolist(), pairs.tolist())
                if a >= 0
            )
            return pairs

        monkeypatch.setattr(merge_module, "_midpoint_pairs", recorded)

    def _check(self, matrix):
        start = len(self.exclusions)
        rows, weights, witness_index = _all_positive(matrix)
        _check_spread(matrix, rows, weights, witness_index)
        assert rows.tolist() == sorted(full_row_lp_merge(matrix))
        assert rows.tolist() == row_generation_merge(matrix)[0].tolist()
        values = matrix.tolist()
        for row, j in zip(rows.tolist(), witness_index.tolist()):
            w = weights[j]
            assert min(w) > 0
            scores = [sum(a * b for a, b in zip(v, w)) for v in values]
            assert scores[row] == min(scores)
        selected = {tuple(v) for v in matrix[rows].tolist()}
        for d, a, b in self.exclusions[start:]:
            gap = [2 * x - y - z for x, y, z in zip(d, a, b)]
            assert min(gap) >= 0 and any(gap)
            assert tuple(d) not in selected

    @pytest.mark.parametrize("m", range(1, 9))
    @pytest.mark.parametrize("seed", range(4))
    def test_random_matrices(self, m, seed):
        # duplicates and dominated rows go through the inverse
        rng = Xoshiro256StarStar(100 * m + seed)
        self._check(_matrix(rng, 5 + rng.below(40), m, 0, 2 + rng.below(5)))

    @pytest.mark.parametrize(
        "m, top, level, count",
        [(2, 6, 5, 8), (3, 4, 6, 15), (4, 3, 6, 20), (5, 2, 5, 15),
         (6, 3, 9, 30), (7, 2, 7, 30), (8, 2, 8, 40),
         (2, 20, 20, 15), (3, 12, 16, 20), (5, 4, 10, 60), (6, 3, 8, 80)],
    )
    @pytest.mark.parametrize("seed", range(3))
    def test_two_level_antichains(self, m, top, level, count, seed):
        self._check(_antichain(Xoshiro256StarStar(seed), m, top, level, count))

    @pytest.mark.parametrize("seed", range(3))
    def test_entries_near_two_to_the_62(self, seed):
        # witness scores pass 2^63 and are checked in Python ints
        self._check(_matrix(Xoshiro256StarStar(seed), 30, 3, 2**62 - 3, 6))

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_benchmark_fronts(self, seed):
        inputs = perfbench_inputs()
        for i in range(len(inputs.LP_SLOTS) * inputs.LP_COPIES):
            vectors, _ = inputs.front_vectors(seed, i)
            self._check(np.array(vectors, dtype=np.int64))
        assert self.exclusions

    def test_doubled_rows_past_two_to_the_63(self):
        # 2d passes int64; the differences d - a and b - d do not
        big = 2**62
        matrix = np.array([[big, big + 3], [big + 3, big], [big + 2, big + 2]], dtype=np.int64)
        self._check(matrix)
        assert self.exclusions == [([big + 2] * 2, [big, big + 3], [big + 3, big])]

    def test_nearest_rows_past_two_to_the_63(self):
        # L1 distances to the last row pass 2^63: the seed order is exact
        big = 2**63 - 1
        self._check(
            np.array([[1, 1, 3], [1, 2, 1], [3, 1, 2], [3, 2, 0], [big, 0, 1]], dtype=np.int64)
        )

    @pytest.mark.parametrize("m", [2, 3, 4])
    def test_entries_up_to_two_to_the_63(self, m):
        entries = [0, 1, 2, 3, 2**62, 2**63 - 1]
        rng = Xoshiro256StarStar(m)
        for _ in range(40):
            rows = 2 + rng.below(11)
            values = [[entries[rng.below(len(entries))] for _ in range(m)] for _ in range(rows)]
            self._check(np.array(values, dtype=np.int64))

    def test_front_of_at_most_m_plus_one_rows(self):
        # the select screen decides it; any LP would hold every other front row
        matrix = np.array([[3, 0], [1, 1], [0, 3], [2, 2]], dtype=np.int64)
        self._check(matrix)

    @pytest.mark.parametrize("cells", [1, 40, 4096])
    @pytest.mark.parametrize(
        "matrix",
        [
            np.array([[1, 5, 5], [5, 5, 0], [2, 0, 1], [1, 3, 6]], dtype=np.int64),
            _antichain(Xoshiro256StarStar(0), 3, 12, 16, 20),
            _antichain(Xoshiro256StarStar(5), 4, 3, 6, 20),
        ],
        ids=["m_plus_one_rows", "m3", "m4"],
    )
    def test_first_question_seeds_the_m_nearest_rows(self, matrix, cells, monkeypatch):
        """Each front row's first LP holds the m front rows nearest to it
        in L1 (ties in front order), listed in front order: every other
        row on a front of at most m + 1 rows. On these fronts the screens
        leave at least two rows to the LP. The cell budget that chunks
        the screens changes none of it."""
        monkeypatch.setattr(_kernels, "CELLS", cells)
        asked = {}
        decide = merge_module.lp.decide

        def spy(d, others):
            asked.setdefault(tuple(d), others)
            return decide(d, others)

        monkeypatch.setattr(merge_module.lp, "decide", spy)
        _all_positive(matrix)
        rows, _, _, front = distinct_front(matrix)
        front_rows = [tuple(r) for r in rows[front].tolist()]
        m = matrix.shape[1]
        for d, others in asked.items():
            i = front_rows.index(d)
            l1 = [sum(abs(a - b) for a, b in zip(d, e)) for e in front_rows]
            nearest = [j for j in sorted(range(len(front_rows)), key=l1.__getitem__) if j != i]
            assert others == [list(front_rows[j]) for j in sorted(nearest[:m])]
        assert len(asked) > 1

    def test_scores_past_two_to_the_63_are_exact(self):
        matrix = np.array([[2**62, 1], [1, 2**62]], dtype=np.int64)
        scores = _scores(matrix, [(3, 1)], 2**62)
        assert scores.dtype == object
        assert scores[0].tolist() == [3 * 2**62 + 1, 3 + 2**62]
        # the bound max entry * max weight sum decides: 2^63 is past int64
        assert _scores(matrix, [(1, 1)], 2**62).dtype == object
        assert _scores(matrix - 1, [(1, 1)], 2**62 - 1).dtype == np.int64


class TestScreens:
    """The two exact screens before the all-weights LP."""

    def test_a_midpoint_equal_to_the_row_does_not_exclude_it(self):
        front = np.array([[0, 4], [4, 0], [2, 2], [1, 3]], dtype=np.int64)
        assert _midpoint_pairs(front, np.array([2, 3])).tolist() == [[-1, -1], [-1, -1]]
        front = np.array([[0, 4], [4, 0], [3, 3]], dtype=np.int64)
        assert _midpoint_pairs(front, np.array([2])).tolist() == [[0, 1]]

    def test_pairs_in_small_blocks(self, monkeypatch):
        front = _antichain(Xoshiro256StarStar(1), 4, 6, 12, 40)
        asked = np.arange(len(front))
        want = _midpoint_pairs(front, asked)
        monkeypatch.setattr(_kernels, "CELLS", 1)
        assert np.array_equal(_midpoint_pairs(front, asked), want)
        # shifted by 2^62, so that doubled rows pass 2^63: the same pairs
        assert np.array_equal(_midpoint_pairs(front + 2**62, asked), want)
        assert (want[:, 0] >= 0).any()

    @pytest.mark.parametrize("m", range(1, 9))
    def test_screen_vectors_are_the_first_with_gcd_one(self, m):
        want, total = [], m
        while len(want) < 64 and (m > 1 or total == 1):
            want += sorted(
                v for v in product(range(1, total - m + 2), repeat=m)
                if sum(v) == total and gcd(*v) == 1
            )
            total += 1
        vectors, array, top = _screen_vectors(m)
        assert list(vectors) == want[:64]
        assert vectors[0] == (1,) * m
        assert array.dtype == np.int64 and not array.flags.writeable
        assert array.tolist() == [list(v) for v in vectors]
        assert top == max(map(sum, vectors))

    def test_screen_vectors_match_the_recursive_composer(self):
        for m in range(1, 71):
            want = list(islice(recursive_gcd_one_vectors(m), 64))
            assert list(islice(_gcd_one_vectors(m), 64)) == want, m
        # far past the recursion limit: the cut points need no recursion
        vectors = _screen_vectors(5000)[0]
        assert vectors[:2] == ((1,) * 5000, (1,) * 4999 + (2,))
        assert vectors[-1] == (1,) * 4937 + (2,) + (1,) * 62

    def test_screen_witnesses_are_its_tuples(self):
        # the array only scores; a witness is one of the cached tuples
        matrix = np.array([[0, 4, 1], [4, 0, 1], [2, 2, 1], [1, 1, 3]], dtype=np.int64)
        _, weights, _ = _all_positive(matrix)
        vectors = _screen_vectors(3)[0]
        assert weights and all(any(w is v for v in vectors) for w in weights)
        assert all(type(x) is int for w in weights for x in w)

    @pytest.mark.parametrize(
        "matrix",
        [
            np.array([[2, 3, 1]], dtype=np.int64),
            np.array([[2, 3, 1], [2, 3, 1], [4, 3, 1], [2, 5, 7]], dtype=np.int64),
            np.array([[7]] * 3 + [[9]], dtype=np.int64),
        ],
        ids=["one_row", "dominated_and_repeated", "m1"],
    )
    def test_one_row_front_is_witnessed_by_ones_without_an_lp(self, matrix, monkeypatch):
        monkeypatch.setattr(merge_module.lp, "decide", None)  # any call fails
        rows, weights, witness_index = _all_positive(matrix)
        best = matrix.sum(axis=1) == matrix.sum(axis=1).min()
        assert rows.tolist() == np.flatnonzero(best).tolist()
        assert [weights[j] for j in witness_index.tolist()] == [(1,) * matrix.shape[1]] * len(rows)

    def test_lp_work_on_benchmark_fronts(self, monkeypatch):
        """The LP calls and simplex pivots of one round of perfbench's
        lp_front inputs (seed 1). Row generation alone makes 339 calls
        and 1810 pivots there; rows the screens settle never reach the
        simplex."""
        counts = {"decide": 0, "pivot": 0}

        def counted(name, function):
            def call(*args):
                counts[name] += 1
                return function(*args)
            return call

        monkeypatch.setattr(merge_module.lp, "decide", counted("decide", merge_module.lp.decide))
        monkeypatch.setattr(merge_module.lp, "_pivot", counted("pivot", merge_module.lp._pivot))
        inputs = perfbench_inputs()
        for i in range(len(inputs.LP_SLOTS) * inputs.LP_COPIES):
            vectors, block = inputs.front_vectors(1, i)
            merge_scheme(realize(vectors, block), AllPositiveWeights(), DH)
        assert counts["decide"] <= 26
        assert counts["pivot"] <= 159


NON_MONOTONE = DistanceKind.from_table([(0, 0), (1, 5), (2, 1), (3, 4)], default=2)


class TestWitnessRule:
    """One witness rule for every scheme: a model is selected exactly
    when some entry of result.weights makes it minimal, its witness is
    the first such entry, and every entry is a positive integer vector.
    The all-positive merge's entries are its critical weights, each the
    witness of some model."""

    @pytest.mark.parametrize("kind", [DH, DD, NON_MONOTONE], ids=["hamming", "drastic", "table"])
    @pytest.mark.parametrize("seed", range(8))
    def test_first_minimal_entry_witnesses(self, seed, kind):
        inst = random_instance(3 + seed % 3, 1 + seed % 4, seed=seed)
        m = inst.m
        listed = [[1 + (i + j) % 3 for j in range(m)] for i in range(3)]
        texts = ["equal", "expert", "all", "list:" + ";".join(
            [",".join(map(str, v)) for v in listed] + [",".join(["1/2"] + ["5/3"] * (m - 1))]
        )]
        values = inst.distances(kind).tolist()
        for text in texts:
            result = merge_scheme(inst, parse_scheme(text), kind)
            assert result.weights
            assert all(type(x) is int and x > 0 for w in result.weights for x in w)
            assert all(len(w) == m for w in result.weights)
            scores = [[sum(a * b for a, b in zip(w, v)) for v in values] for w in result.weights]
            first = {}
            for j, row_scores in enumerate(scores):
                for r, score in enumerate(row_scores):
                    if score == min(row_scores):
                        first.setdefault(r, j)
            selected = [int(inst.mu_bits[r]) for r in sorted(first)]
            assert result.bits.tolist() == selected
            assert result.witness_index.tolist() == [first[r] for r in sorted(first)]
            if text == "all":
                assert sorted(set(first.values())) == list(range(len(result.weights)))


class TestCriticalWeights:
    """The all-positive merge on whole instances against
    spread_lp_merge: equal rows, weights and witness indices under a
    monotone, the drastic and a non-monotone distance."""

    @pytest.mark.parametrize("kind", [DH, DD, NON_MONOTONE], ids=["hamming", "drastic", "table"])
    def test_random_instances(self, kind):
        for seed in range(200):
            inst = random_instance(2 + seed % 5, 1 + seed % 5, seed=seed)
            result = merge_scheme(inst, AllPositiveWeights(), kind)
            matrix = inst.distances(kind)
            rows = np.searchsorted(inst.mu_bits, result.bits)
            _check_spread(matrix, rows, result.weights, result.witness_index)


def _brute_argmin(matrix, vectors):
    """(rows, witness_index) by Python-int scores, one vector at a time:
    a row is chosen at the first vector under which it is minimal."""
    witness = {}
    for j, w in enumerate(vectors):
        scores = [sum(a * b for a, b in zip(w, row)) for row in matrix.tolist()]
        for r, s in enumerate(scores):
            if s == min(scores):
                witness.setdefault(r, j)
    rows = sorted(witness)
    return rows, [witness[r] for r in rows]


class TestArgminMerge:
    def _check(self, matrix, vectors):
        rows, witness_index = _argmin_merge(matrix, vectors, int(matrix.max()))
        assert (rows.tolist(), witness_index.tolist()) == _brute_argmin(matrix, vectors)

    @pytest.mark.parametrize("seed", range(6))
    def test_random_matrices_and_schemes(self, seed):
        rng = Xoshiro256StarStar(seed)
        m = 1 + rng.below(5)
        matrix = _matrix(rng, 5 + rng.below(300), m, 0, 2 + rng.below(6))
        vectors = [tuple(1 + rng.below(6) for _ in range(m)) for _ in range(1 + rng.below(20))]
        self._check(matrix, vectors)

    def test_a_single_vector(self):
        matrix = np.array([[2, 0], [1, 1], [0, 2], [3, 3], [1, 1]], dtype=np.int64)
        self._check(matrix, [(1, 1)])  # four rows tie at 2
        self._check(matrix, [(2, 1)])

    def test_ties_go_to_the_first_vector(self):
        # row 1 is minimal under all three vectors, row 0 ties it under the last
        matrix = np.array([[0, 4], [1, 1], [4, 0]], dtype=np.int64)
        rows, witness_index = _argmin_merge(matrix, [(1, 2), (1, 1), (3, 1)], 4)
        assert rows.tolist() == [0, 1] and witness_index.tolist() == [2, 0]
        self._check(matrix, [(1, 2), (1, 1), (3, 1)])
        self._check(matrix, [(1, 1), (1, 1), (2, 1)])  # a repeated vector

    def test_scores_past_two_to_the_63(self):
        # 3 * 2^62 + 1 and 2^62 + 3 pass int64: the object path decides
        matrix = np.array([[2**62, 1], [1, 2**62], [2**61, 2**61]], dtype=np.int64)
        vectors = [(3, 1), (1, 3), (1, 1)]
        assert _scores(matrix, vectors, 2**62).dtype == object
        self._check(matrix, vectors)
        self._check(matrix, [(2, 2)])


class TestScoreBound:
    """The int64 or Python-int choice reads the kind's largest value,
    not the matrix."""

    def _dtypes(self, monkeypatch):
        seen = []
        scores = merge_module._scores

        def spy(*args):
            out = scores(*args)
            seen.append(out.dtype)
            return out

        monkeypatch.setattr(merge_module, "_scores", spy)
        return seen

    def test_unreached_table_value_forces_python_ints(self, monkeypatch):
        # every distance here is 0 or 1, but the table reaches 2^62 at count 3
        u = Universe(["a", "b", "c"])
        kind = DistanceKind.from_table([(0, 0), (1, 1), (2, 1), (3, 2**62)])
        inst = Instance(u, TRUE, [parse_formula(t, u) for t in ("a | b", "!a | c", "b | !c")])
        assert int(inst.distances(kind).max()) == 1 and kind.largest(3) == 2**62
        assert np.array_equal(inst.distances(kind), inst.distances(DH))
        seen = self._dtypes(monkeypatch)
        for scheme in (EqualWeights(), ExplicitWeights([[1, 2, 3]]), AllPositiveWeights()):
            result = merge_scheme(inst, scheme, kind)
            assert seen and set(seen) == {np.dtype(object)}
            del seen[:]
            assert result == merge_scheme(inst, scheme, DH)  # the same matrix, bound 3
            assert seen and set(seen) == {np.dtype(np.int64)}
            del seen[:]

    def test_hamming_bound_is_n(self, monkeypatch):
        inst = random_instance(5, 3, seed=4)
        seen = self._dtypes(monkeypatch)
        merge_scheme(inst, EqualWeights(), DH)
        assert seen == [np.int64]
        # (2^61 + 2) * 5 passes 2^63 although no score here reaches 2^62
        matrix = inst.distances(DH)
        scores = merge_module._scores(matrix, [(2**61, 1, 1)], 5)
        assert scores.dtype == object
        assert scores[0].tolist() == [2**61 * a + b + c for a, b, c in matrix.tolist()]


class TestMergeResult:
    @pytest.mark.parametrize("seed", range(6))
    def test_arrays_back_the_views(self, seed):
        inst = random_instance(4, 3, seed=seed)
        for scheme in (AllPositiveWeights(), EqualWeights(), ExpertWeights(5)):
            result = merge_scheme(inst, scheme, DH)
            bits = result.bits.tolist()
            assert bits == sorted(bits) and not result.bits.flags.writeable
            assert len(result.witness_index) == len(bits)
            assert result.witnesses == {
                Model(inst.universe, b): result.weights[j]
                for b, j in zip(bits, result.witness_index.tolist())
            }
            assert result.models == frozenset(result.witnesses)
            assert result == merge_scheme(inst, scheme, DH)


class TestUndominated:
    def test_matches_all_positive_for_drastic(self):
        for seed in range(10):
            inst = random_instance(4, 3, seed=seed)
            assert (
                undominated(inst, DD)
                == merge_scheme(inst, AllPositiveWeights(), DD).models
            )

    def test_strictly_larger_than_all_positive_on_blocked(self, blocked):
        assert undominated(blocked, DH) == frozenset(mu_models(blocked))

    def test_single_model(self):
        u = Universe(["x"])
        inst = Instance(u, parse_formula("x", u), [parse_formula("x", u)])
        assert undominated(inst, DH) == frozenset(mu_models(inst))


class TestExcludingSubset:
    def test_blocked_middle_has_two_witnesses(self, blocked):
        middle = by_vector(blocked, DH)[(2, 2)]
        subset = excluding_subset(middle, blocked, DH)
        assert subset is not None and len(subset) == 2
        assert {vec_of(blocked, DH, m) for m in subset} == {(3, 0), (0, 3)}

    def test_selected_model_has_none(self, intro):
        for m in mu_models(intro):
            assert excluding_subset(m, intro, DH) is None

    @pytest.mark.parametrize("seed", range(8))
    def test_subset_bound_and_consistency_with_full_system(self, seed):
        inst = random_instance(4, 3, seed=seed)
        vectors = list(map(tuple, inst.distances(DH).tolist()))
        witnesses = merge_scheme(inst, AllPositiveWeights(), DH).witnesses
        for idx, model in enumerate(mu_models(inst)):
            selected = witnesses.get(model) is not None
            subset = excluding_subset(model, inst, DH)
            full = feasible(
                minimality_system(
                    vectors[idx], [d for j, d in enumerate(vectors) if j != idx]
                )
            )
            assert selected == (subset is None) == (full is not None)
            if subset is not None:
                assert len(subset) <= inst.m
                restricted = minimality_system(
                    vectors[idx], [vec_of(inst, DH, m) for m in subset]
                )
                assert feasible(restricted) is None


class TestMultiSource:
    U3 = Universe(["x", "y", "z"])

    def _sources(self):
        u = self.U3
        return [
            [parse_formula(t, u) for t in ("x", "y", "z")],
            [parse_formula(t, u) for t in ("!x", "!y")],
            [parse_formula(t, u) for t in ("!x", "!z")],
        ]

    @pytest.mark.parametrize("kind", [DD, DH])
    def test_three_source_exclusion(self, kind):
        result = multi_source_merge(
            self.U3, TRUE, self._sources(), AllPositiveWeights(), kind
        )
        excluded = Model(self.U3, 0b100)  # {x, !y, !z}
        assert excluded not in result.models

    def test_excluded_model_still_in_flat_maxcons(self):
        flat = [f for s in self._sources() for f in s]
        inst = Instance(self.U3, TRUE, flat)
        assert Model(self.U3, 0b100) in maxcons_disjunction(inst)

    def test_two_source_equal_merge_keeps_all_four(self):
        u = Universe(["x", "y"])
        sources = [
            [parse_formula("x", u), parse_formula("y", u)],
            [parse_formula("!x", u), parse_formula("!y", u)],
        ]
        result = multi_source_merge(u, TRUE, sources, EqualWeights(), DH)
        assert result.models == frozenset(models_of(TRUE, u))

    @pytest.mark.parametrize("seed", range(6))
    def test_singleton_sources_collapse_to_plain_merge(self, seed):
        inst = random_instance(3, 3, seed=seed)
        sources = [[f] for f in inst.profile]
        for scheme in (AllPositiveWeights(), EqualWeights()):
            split = multi_source_merge(
                inst.universe, inst.constraints, sources, scheme, DH
            )
            plain = merge_scheme(inst, scheme, DH)
            assert split.models == plain.models

    def test_unreached_large_value_keeps_sums_in_int64(self):
        """Source sums are refused only when the entries really reach
        2^63: 2^62 is in the table but no distance here is past 1."""
        u = Universe(["a", "b"])
        kind = DistanceKind.from_table([(0, 0), (1, 1), (2, 2**62)], default=2**62)
        sources = [[parse_formula("a", u), parse_formula("b", u)], [parse_formula("!a", u)]]
        result = multi_source_merge(u, TRUE, sources, EqualWeights(), kind)
        # equal source weights score a world by the sum of all three distances
        flat = Instance(u, TRUE, [f for s in sources for f in s]).distances(kind)
        scores = flat[:, 0] + flat[:, 1] + flat[:, 2]
        assert result.bits.tolist() == np.flatnonzero(scores == scores.min()).tolist()

    def test_default_expert_overrules_the_other_sources_together(self):
        # the source sums are (0, 1) at a and (4, 0) at !a, so no entry is
        # above 1 * 4 and the expert weight is 4 * 2 + 1 = 9; each world wins
        # when its own source is the expert
        u = Universe(["a"])
        sources = [[parse_formula("a", u)] * 4, [parse_formula("!a", u)]]
        result = multi_source_merge(u, TRUE, sources, ExpertWeights(), DH)
        assert result.witnesses == {Model(u, 0b1): (9, 1), Model(u, 0b0): (1, 9)}

    def test_rejects_empty_source(self):
        with pytest.raises(ValueError):
            multi_source_merge(self.U3, TRUE, [[]], EqualWeights(), DH)

    def test_source_sums_past_int64_are_refused(self):
        # summed in int64, source 1's 2 * 2^62 at world 0 would wrap to
        # -2^63 and select !a,!b; the right answer is a,b (score 2^62)
        u = Universe(["a", "b"])
        kind = DistanceKind.from_table([(0, 0), (1, 2**62)], default=2**62)
        sources = [
            [parse_formula("a & b", u), parse_formula("a & b", u)],
            [parse_formula("!a & !b", u)],
        ]
        with pytest.raises(DistanceTableError):
            multi_source_merge(u, TRUE, sources, EqualWeights(), kind)
        # one step below the limit the sums are exact
        kind = DistanceKind.from_table([(0, 0), (1, 2**62 - 1)], default=2**62 - 1)
        result = multi_source_merge(u, TRUE, sources, EqualWeights(), kind)
        assert result.models == {Model(u, 0b11)}
