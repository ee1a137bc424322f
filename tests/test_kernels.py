import tracemalloc

import numpy as np
import pytest

from beliefmerge import (
    DistanceKind,
    Instance,
    Model,
    Universe,
    _kernels,
    parse_formula,
    random_instance,
    realize,
)
from beliefmerge.distance import distance_matrix
from beliefmerge.errors import UnsatisfiableFormulaError
from beliefmerge.formulae import TRUE
from beliefmerge.instancefile import parse_distance_spec

from oracles import brute_vector, full_cube_matrix, perfbench_inputs, sweep_column


def _random_case(seed, n_cands, n_targets, bits=24):
    rng = np.random.default_rng(seed)
    cands = rng.integers(0, 1 << bits, n_cands).astype(np.int64)
    targets = rng.integers(0, 1 << bits, n_targets).astype(np.int64)
    return cands, targets


def _tables(bits=24):
    """identity, non-monotone (bumpy and a zigzag as perfbench's table
    distance), plateaued non-decreasing, and drastic plainly and scaled:
    the last two are flat above 0 and never reach the pairwise or sweep
    paths."""
    identity = np.arange(bits + 1, dtype=np.int64)
    bumpy = np.array([0] + [((h * 7) % 5) + 1 for h in range(1, bits + 1)], dtype=np.int64)
    plateau = np.array([0] + [1 + 2 * (h // 3) for h in range(1, bits + 1)], dtype=np.int64)
    zigzag = np.array(([0, 2, 1, 3, 2] + [4] * bits)[: bits + 1], dtype=np.int64)
    drastic = (identity > 0).astype(np.int64)
    return identity, bumpy, plateau, zigzag, drastic, 7 * drastic


SEARCHED = 4  # tables of _tables that take the pairwise or sweep path
MONOTONE = (True, False, True, False, True, True)  # per table of _tables


def _reference(cands, targets, table):
    return np.array(
        [min(table[int(c ^ t).bit_count()] for t in targets) for c in cands],
        dtype=np.int64,
    )


def _brute_matrix(cands, truth_tables, table):
    """Every candidate against every target by popcount, column by column."""
    out = np.empty((len(cands), len(truth_tables)), dtype=np.int64)
    for j, t in enumerate(truth_tables):
        targets = np.flatnonzero(t)
        for lo in range(0, len(cands), 256):
            counts = np.bitwise_count(cands[lo : lo + 256, None] ^ targets[None, :])
            out[lo : lo + 256, j] = table[counts].min(axis=1)
    return out


def _truth_table(targets, n):
    t = np.zeros(1 << n, dtype=bool)
    t[targets] = True
    return t


class TestNumpyKernel:
    @pytest.mark.parametrize("seed", range(3))
    def test_matches_bit_count_reference(self, seed):
        """count-min for the non-decreasing tables, the per-pair gather
        for every table: both readouts are exact where they run."""
        cands, targets = _random_case(seed, 100, 37)
        for table, monotone in zip(_tables(), MONOTONE):
            want = _reference(cands, targets, table)
            got = _kernels._min_mapped_numpy(cands, targets, table, monotone)
            assert np.array_equal(got, want)
            gathered = _kernels._min_mapped_numpy(cands, targets, table, False)
            assert np.array_equal(gathered, want)

    def test_chunked_path(self, monkeypatch):
        """Both readouts on each side of a chunk boundary and past two."""
        chunk = 4096
        monkeypatch.setattr(_kernels, "CELLS", chunk * 8)  # chunk candidates x 8 targets
        for size in (chunk - 1, chunk + 1, chunk * 2 + 5):
            cands, targets = _random_case(7, size, 8)
            for table, monotone in list(zip(_tables(), MONOTONE))[:SEARCHED]:
                got = _kernels._min_mapped_numpy(cands, targets, table, monotone)
                assert np.array_equal(got, _reference(cands, targets, table))


def _cube_case(seed, n, n_cands, n_targets):
    rng = np.random.default_rng(seed)
    cands = rng.integers(0, 1 << n, n_cands).astype(np.int64)
    targets = rng.choice(1 << n, n_targets, replace=False).astype(np.int64)
    return cands, targets


def _swept(cands, targets, table, n, monkeypatch):
    """One column through the entry with the size rule forced to sweep."""
    monkeypatch.setattr(_kernels, "_SWEEP_OVERHEAD", -(1 << n))
    return _kernels.min_mapped_matrix(cands, [_truth_table(targets, n)], table, n)[:, 0]


class TestSweepKernel:
    @pytest.mark.parametrize("n", [1, 3, 6, 10])
    @pytest.mark.parametrize("seed", range(2))
    def test_matches_bit_count_reference(self, seed, n, monkeypatch):
        cands, targets = _cube_case(seed, n, min(3 << n, 500), max(1, (1 << n) // 3))
        for table in _tables(n):
            got = _swept(cands, targets, table, n, monkeypatch)
            assert np.array_equal(got, _reference(cands, targets, table))

    def test_single_target_full_cube_of_candidates(self, monkeypatch):
        n = 8
        cands = np.arange(1 << n, dtype=np.int64)
        targets = np.array([0b10110001], dtype=np.int64)
        for table in _tables(n):
            got = _swept(cands, targets, table, n, monkeypatch)
            assert np.array_equal(got, _reference(cands, targets, table))

    def test_every_world_a_target(self, monkeypatch):
        n = 7
        cands, targets = _cube_case(3, n, 50, 1 << n)
        for table in _tables(n):
            got = _swept(cands, targets, table, n, monkeypatch)
            assert np.array_equal(got, np.zeros(50, dtype=np.int64))


def _brute_sets(cands, seeds):
    """Per seed row and candidate c, the OR of 1 << popcount(c ^ t) over
    the row's targets t."""
    out = np.zeros((len(seeds), len(cands)), dtype=np.int64)
    for j, row in enumerate(seeds):
        targets = np.flatnonzero(row)
        for lo in range(0, len(cands), 64):
            counts = np.bitwise_count(cands[lo : lo + 64, None] ^ targets[None, :])
            out[j, lo : lo + 64] = np.bitwise_or.reduce(1 << counts.astype(np.int64), axis=1)
    return out


class TestTwoHalfSweep:
    @pytest.mark.parametrize("n", range(1, 15))
    def test_matches_brute_force_popcount(self, n):
        """Odd and even splits of the bits, 1 to 4 rows of one target up
        to the whole cube, read back in world order."""
        rng = np.random.default_rng(100 + n)
        worlds = np.concatenate(([0, (1 << n) - 1], rng.integers(0, 1 << n, 300)))
        cands = rng.permutation(np.unique(worlds)).astype(np.int64)
        counts = [1, max(1, (1 << n) // 8), max(1, (1 << n) // 2), 1 << n]
        for k in range(1, 5):
            seeds = np.array(
                [_truth_table(rng.choice(1 << n, c, replace=False), n) for c in counts[:k]]
            )
            got = _kernels._sweep(seeds.astype(np.uint32), n)
            assert got.dtype == np.uint32 and got.shape == (k, 1 << n)
            assert np.array_equal(got[:, cands], _brute_sets(cands, seeds))


def _spy(monkeypatch, names):
    """Record, in order, which of the named kernel functions run."""
    calls = []
    for name in names:
        fn = getattr(_kernels, name)

        def wrapped(*args, _fn=fn, _name=name):
            calls.append(_name)
            return _fn(*args)

        monkeypatch.setattr(_kernels, name, wrapped)
    return calls


class TestMatrixKernel:
    @pytest.mark.parametrize("forced", [False, True])
    @pytest.mark.parametrize("n", range(1, 14))
    def test_matches_brute_force_and_column_oracle(self, n, forced, monkeypatch):
        """Targets from one world up to the whole cube; unforced, the
        columns fall on both sides of the size rule from n = 7 on, and
        forced, every column sweeps in one batch."""
        if forced:
            monkeypatch.setattr(_kernels, "_SWEEP_OVERHEAD", -(1 << n))
        rng = np.random.default_rng(n)
        cands = rng.integers(0, 1 << n, min(3 << n, 600)).astype(np.int64)
        counts = sorted({1, 2, max(1, (1 << n) // 8), (1 << n) // 2 or 1, 1 << n})
        truth_tables = [
            _truth_table(rng.choice(1 << n, c, replace=False), n) for c in counts
        ]
        for table in _tables(n):
            got = _kernels.min_mapped_matrix(cands, truth_tables, table, n)
            assert np.array_equal(got, _brute_matrix(cands, truth_tables, table))
            for j, t in enumerate(truth_tables):
                assert np.array_equal(got[:, j], sweep_column(cands, np.flatnonzero(t), table, n))

    def test_one_matrix_mixes_sweep_and_pairwise_columns(self, monkeypatch):
        # at n = 10 with 200 candidates, a column sweeps from 154 targets on
        n = 10
        rng = np.random.default_rng(5)
        cands = rng.integers(0, 1 << n, 200).astype(np.int64)
        truth_tables = [
            _truth_table(rng.choice(1 << n, c, replace=False), n)
            for c in (5, 300, 40, 700, 1 << n)
        ]
        calls = _spy(monkeypatch, ["_min_mapped_numpy", "_sweep"])
        for table in _tables(n):
            got = _kernels.min_mapped_matrix(cands, truth_tables, table, n)
            assert np.array_equal(got, _brute_matrix(cands, truth_tables, table))
        assert calls == ["_min_mapped_numpy", "_min_mapped_numpy", "_sweep"] * SEARCHED

    def test_batches_split_at_the_cube_cell_cap(self, monkeypatch):
        n = 9
        rng = np.random.default_rng(8)
        cands = rng.integers(0, 1 << n, 400).astype(np.int64)
        truth_tables = [
            _truth_table(rng.choice(1 << n, 200 + 50 * j, replace=False), n)
            for j in range(5)
        ]
        tables = _tables(n)
        whole = [_kernels.min_mapped_matrix(cands, truth_tables, t, n) for t in tables]
        monkeypatch.setattr(_kernels, "CELLS", 2 << n)  # two columns a batch
        calls = _spy(monkeypatch, ["_min_mapped_numpy", "_sweep"])
        for table, expected in zip(tables, whole):
            got = _kernels.min_mapped_matrix(cands, truth_tables, table, n)
            assert np.array_equal(got, expected)
            assert np.array_equal(got, _brute_matrix(cands, truth_tables, table))
        assert calls == ["_sweep"] * 3 * SEARCHED


    @pytest.mark.parametrize("per_batch", [1, 2])
    @pytest.mark.parametrize("n", [4, 7, 12, 13])
    def test_hamming_and_zigzag_in_split_batches(self, n, per_batch, monkeypatch):
        """Every column swept, one or two columns a batch: the column-major
        matrix matches brute-force popcount for Hamming and the ZIGZAG table."""
        monkeypatch.setattr(_kernels, "_SWEEP_OVERHEAD", -(1 << n))
        monkeypatch.setattr(_kernels, "CELLS", per_batch << n)
        rng = np.random.default_rng(20 + n)
        cands = rng.integers(0, 1 << n, 600).astype(np.int64)
        truth_tables = [
            _truth_table(rng.choice(1 << n, c, replace=False), n)
            for c in (1, 3, (1 << n) // 4 or 1, (1 << n) // 2 or 1, 1 << n)
        ]
        calls = _spy(monkeypatch, ["_sweep"])
        identity, _, _, zigzag, _, _ = _tables(n)
        for table in (identity, zigzag):
            got = _kernels.min_mapped_matrix(cands, truth_tables, table, n)
            assert got.flags.f_contiguous and got.dtype == np.int64
            assert np.array_equal(got, _brute_matrix(cands, truth_tables, table))
        assert len(calls) == 2 * -(-len(truth_tables) // per_batch)


class TestPairwiseReadouts:
    @pytest.mark.parametrize("extra", [-1, 0, 1])
    def test_one_monotone_flag_per_matrix(self, extra, monkeypatch):
        """Every column pairwise, the one-target column across its chunk
        boundary and the others in many chunks: the matrix tests
        monotonicity once and hands the same flag to each column."""
        n = 8
        monkeypatch.setattr(_kernels, "_SWEEP_OVERHEAD", 1 << 40)
        monkeypatch.setattr(_kernels, "CELLS", 4096)
        rng = np.random.default_rng(extra + 2)
        cands = rng.integers(0, 1 << n, 4096 + extra).astype(np.int64)
        truth_tables = [_truth_table(rng.choice(1 << n, c, replace=False), n) for c in (1, 5, 40)]
        flags = []
        pairwise = _kernels._min_mapped_numpy

        def spy(*args):
            flags.append(args[3])
            return pairwise(*args)

        monkeypatch.setattr(_kernels, "_min_mapped_numpy", spy)
        for table in _tables(n)[:SEARCHED]:
            got = _kernels.min_mapped_matrix(cands, truth_tables, table, n)
            assert np.array_equal(got, _brute_matrix(cands, truth_tables, table))
        assert flags == [m for m in MONOTONE[:SEARCHED] for _ in truth_tables]

    def test_sweep_gets_the_same_flag(self, monkeypatch):
        n = 7
        monkeypatch.setattr(_kernels, "_SWEEP_OVERHEAD", -(1 << n))
        cands, targets = _cube_case(4, n, 300, 20)
        flags = []
        read_sets = _kernels._read_sets

        def spy(*args):
            flags.append(args[2])
            return read_sets(*args)

        monkeypatch.setattr(_kernels, "_read_sets", spy)
        for table in _tables(n)[:SEARCHED]:
            got = _kernels.min_mapped_matrix(cands, [_truth_table(targets, n)], table, n)
            assert np.array_equal(got[:, 0], _reference(cands, targets, table))
        assert flags == list(MONOTONE[:SEARCHED])


class TestCellBudget:
    def test_pairwise_block_stays_within_the_budget(self):
        """20 candidates against one 2^19-model entry at n = 20 take the
        pairwise path in blocks of CELLS // 2^19 candidates: a single
        20 x 2^19 int64 block would be 84 MB."""
        n = 20
        rng = np.random.default_rng(9)
        cands = rng.integers(0, 1 << n, 20).astype(np.int64)
        targets = np.sort(rng.choice(1 << n, 1 << 19, replace=False)).astype(np.int64)
        assert len(cands) * len(targets) < n * ((1 << n) + _kernels._SWEEP_OVERHEAD)
        truth = _truth_table(targets, n)
        table = np.arange(n + 1, dtype=np.int64)
        tracemalloc.start()
        try:
            got = _kernels.min_mapped_matrix(cands, [truth], table, n)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 32 << 20
        want = [int(np.bitwise_count(c ^ targets).min()) for c in cands.tolist()]
        assert got[:, 0].tolist() == want


class TestDispatch:
    # the rule at n = 10: sweep from 10 * (2^10 + 2048) = 30720 pairs on
    @pytest.mark.parametrize(
        "n_cands, n_targets, path",
        [(30, 40, "_min_mapped_numpy"), (512, 512, "_sweep")],
    )
    def test_both_sides_of_size_rule(self, n_cands, n_targets, path, monkeypatch):
        n = 10
        cands, targets = _cube_case(11, n, n_cands, n_targets)
        calls = _spy(monkeypatch, ["_sweep", "_min_mapped_numpy"])
        for table in _tables(n):
            got = _kernels.min_mapped_matrix(cands, [_truth_table(targets, n)], table, n)
            assert np.array_equal(got[:, 0], _reference(cands, targets, table))
        assert calls == [path] * SEARCHED

    def test_empty_targets_rejected(self):
        with pytest.raises(UnsatisfiableFormulaError):
            _kernels.min_mapped_matrix(
                np.array([1], dtype=np.int64),
                [np.zeros(2, dtype=bool)],
                np.array([0, 1], dtype=np.int64),
                1,
            )

    def test_accepts_plain_lists_via_cast(self):
        got = _kernels.min_mapped_matrix(
            [0b11, 0b00], [[True, False, False, False]], [0, 1, 2], 2
        )
        assert got.tolist() == [[2], [0]]


def _instance_of(spec):
    """An Instance from a perfbench instance dict."""
    u = Universe(spec["variables"])
    return Instance(
        u, parse_formula(spec["constraints"], u), [parse_formula(t, u) for t in spec["profile"]]
    )


def _benchmark_instances(seed):
    """perfbench's kernel_wide, argmin_many and lp_front instances for a
    seed, each with its own distance kind (Hamming for lp_front)."""
    inputs = perfbench_inputs()
    specs = [inputs.kernel_instance(seed, s) for s in range(len(inputs.KERNEL_SLOTS))]
    specs += [inputs.argmin_instance(seed, s) for s in range(len(inputs.ARGMIN_SLOTS))]
    out = [(_instance_of(spec), parse_distance_spec(spec["distance"])) for spec in specs]
    for i in range(len(inputs.LP_SLOTS) * inputs.LP_COPIES):
        vectors, block = inputs.front_vectors(seed, i)
        out.append((realize(vectors, block), DH))
    return out


DH = DistanceKind.hamming()
DD = DistanceKind.drastic()
# non-monotone, and its window min(table[h .. h + n - r]) differs from it
NON_MONOTONE = DistanceKind.from_table([(0, 0), (1, 5), (2, 1), (3, 4)], default=2)
# counts past 1 read only the default, so a window from h = 1 on is all tail
TAIL = DistanceKind.from_table([(0, 0), (1, 4)], default=2)
# a plateau of 9 between 1s: windows up to 4 counts wide stay non-monotone
PEAKED = DistanceKind.from_table([(0, 0), (1, 1), (2, 9), (3, 9), (4, 9), (5, 9)], default=1)
KINDS = (DH, DD, NON_MONOTONE, TAIL, PEAKED)


def _against_full_cube(inst, kind, monkeypatch, forced):
    """inst's kernel matrix on its supports against the full-cube oracle;
    forced puts every column whose support is not all n on its cube."""
    n = inst.universe.n
    if forced:
        monkeypatch.setattr(_kernels, "_CUBE_OVERHEAD", -(1 << 40))
    got = distance_matrix(kind, inst.mu_bits, inst.profile_tables, n, inst.profile_supports)
    monkeypatch.undo()
    want = full_cube_matrix(inst.mu_bits, inst.profile_tables, kind.table_array(n), n)
    assert got.flags.f_contiguous and got.dtype == np.int64
    assert np.array_equal(got, want)
    return got


class TestSupportCubes:
    """Each column on the cube of the variables its formula mentions,
    against the whole-cube kernel."""

    @pytest.mark.parametrize("forced", [False, True])
    @pytest.mark.parametrize("block", range(6))
    def test_random_instances(self, block, forced, monkeypatch):
        """random_instance seeds 0-299 over n = 1-12 and m = 1-5."""
        for seed in range(50 * block, 50 * block + 50):
            inst = random_instance(1 + seed % 12, 1 + seed % 5, seed=seed)
            for kind in KINDS:
                got = _against_full_cube(inst, kind, monkeypatch, forced)
                if not forced:
                    assert np.array_equal(got, inst.distances(kind))

    @pytest.mark.parametrize("forced", [False, True])
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_benchmark_instances(self, seed, forced, monkeypatch):
        for inst, own in _benchmark_instances(seed):
            for kind in {own, DH, DD, NON_MONOTONE}:
                _against_full_cube(inst, kind, monkeypatch, forced)

    @pytest.mark.parametrize("kind", KINDS)
    def test_edge_supports(self, kind, monkeypatch):
        """A constant (empty support), a tautology that mentions x, a
        parity over all n, one variable, and a clause beside a cube."""
        u = Universe([f"v{j}" for j in range(1, 8)])
        texts = [
            "true",
            "v3 | !v3",
            "(v3 | !v3) & v6",
            "v1 <-> v2 <-> v3 <-> v4 <-> v5 <-> v6 <-> v7",
            "v7",
            "!v1 | v5",
            "v2 & !v4 & v7",
            "v1 <-> v2 <-> v3 <-> v4 <-> v5",
        ]
        inst = Instance(u, parse_formula("v1 | v2 | !v7", u), [parse_formula(t, u) for t in texts])
        assert [s.bit_count() for s in inst.profile_supports] == [0, 1, 2, 7, 1, 2, 3, 5]
        for forced in (False, True):
            got = _against_full_cube(inst, kind, monkeypatch, forced)
            for i, bits in enumerate(inst.mu_bits.tolist()):
                want = brute_vector(kind, Model(u, bits), inst.profile)
                assert tuple(got[i].tolist()) == want

    def test_window_reaches_past_the_last_key(self, monkeypatch):
        """Under 0:0, 1:4, *:2 a one-variable column at n = 5 is 0 on its
        models and min(4, 2) = 2 elsewhere: a target matching the
        candidate on v1 and differing off it by 2 to 4 counts."""
        u = Universe([f"v{j}" for j in range(1, 6)])
        inst = Instance(u, TRUE, [parse_formula("v1", u)])
        got = _against_full_cube(inst, TAIL, monkeypatch, forced=True)
        assert got[:, 0].tolist() == [2] * 16 + [0] * 16

    def test_gather_chunks(self, monkeypatch):
        """Candidates across several CELLS chunks read the same columns."""
        inst = _benchmark_instances(1)[0][0]
        whole = [_against_full_cube(inst, kind, monkeypatch, True) for kind in KINDS]
        monkeypatch.setattr(_kernels, "CELLS", 1000)
        for kind, want in zip(KINDS, whole):
            got = distance_matrix(
                kind, inst.mu_bits, inst.profile_tables, inst.universe.n, inst.profile_supports
            )
            assert np.array_equal(got, want)

    @staticmethod
    def _cube_calls(monkeypatch):
        """The column indices of each _on_cube call, in order."""
        calls = []
        on_cube = _kernels._on_cube

        def spy(cands, columns, *rest):
            calls.append([j for j, _, _ in columns])
            return on_cube(cands, columns, *rest)

        monkeypatch.setattr(_kernels, "_on_cube", spy)
        return calls

    def test_columns_on_one_cube_share_it(self, monkeypatch):
        u = Universe([f"v{j}" for j in range(1, 13)])
        texts = ["v1 & v2", "v2 | !v1", "v1 <-> v2", "v3 & v4"]
        inst = Instance(u, parse_formula("v5 | v6", u), [parse_formula(t, u) for t in texts])
        calls = self._cube_calls(monkeypatch)
        inst.distances(DH)
        assert sorted(calls) == [[0, 1, 2], [3]]

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_cost_model_keeps_only_wide_cubes_whole(self, seed, monkeypatch):
        """kernel_wide's columns (n = 12-13, 2048-6144 candidates) go to
        their supports; argmin_many's (n = 10-11, 768-1536 candidates),
        where the batched whole-cube sweep is cheaper, stay whole."""
        inputs = perfbench_inputs()
        calls = self._cube_calls(monkeypatch)
        for spec in [inputs.argmin_instance(seed, s) for s in range(len(inputs.ARGMIN_SLOTS))]:
            _instance_of(spec).distances(parse_distance_spec(spec["distance"]))
        assert calls == []
        for spec in [inputs.kernel_instance(seed, s) for s in range(len(inputs.KERNEL_SLOTS))]:
            inst = _instance_of(spec)
            inst.distances(parse_distance_spec(spec["distance"]))
            assert sorted(j for call in calls for j in call) == list(range(inst.m))
            del calls[:]


class TestRanks:
    @pytest.mark.parametrize("k", range(0, 9))
    def test_rank_of_every_world(self, k):
        """pext(x, mask) for every mask over k bits."""
        for mask in range(1 << k):
            bits = [b for b in range(k) if mask >> b & 1]
            want = [sum((x >> b & 1) << i for i, b in enumerate(bits)) for x in range(1 << k)]
            assert _kernels._ranks(mask, k).tolist() == want
