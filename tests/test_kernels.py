import numpy as np
import pytest

from beliefmerge import _kernels


def _random_case(seed, n_cands, n_targets, bits=24):
    rng = np.random.default_rng(seed)
    cands = rng.integers(0, 1 << bits, n_cands).astype(np.int64)
    targets = rng.integers(0, 1 << bits, n_targets).astype(np.int64)
    return cands, targets


def _tables(bits=24):
    identity = np.arange(bits + 1, dtype=np.int64)
    drastic = (identity > 0).astype(np.int64)
    bumpy = np.array([0] + [((h * 7) % 5) + 1 for h in range(1, bits + 1)], dtype=np.int64)
    return identity, drastic, bumpy


def _reference(cands, targets, table):
    return np.array(
        [min(table[int(c ^ t).bit_count()] for t in targets) for c in cands],
        dtype=np.int64,
    )


class TestNumpyKernel:
    @pytest.mark.parametrize("seed", range(3))
    def test_matches_bit_count_reference(self, seed):
        cands, targets = _random_case(seed, 100, 37)
        for table in _tables():
            got = _kernels._min_mapped_numpy(cands, targets, table)
            assert np.array_equal(got, _reference(cands, targets, table))

    def test_chunked_path(self):
        cands, targets = _random_case(7, _kernels._CHUNK * 2 + 5, 8)
        table = _tables()[0]
        got = _kernels._min_mapped_numpy(cands, targets, table)
        assert np.array_equal(got, _reference(cands, targets, table))


def _cube_case(seed, n, n_cands, n_targets):
    rng = np.random.default_rng(seed)
    cands = rng.integers(0, 1 << n, n_cands).astype(np.int64)
    targets = rng.choice(1 << n, n_targets, replace=False).astype(np.int64)
    return cands, targets


class TestSweepKernel:
    @pytest.mark.parametrize("n", [1, 3, 6, 10])
    @pytest.mark.parametrize("seed", range(2))
    def test_matches_bit_count_reference(self, seed, n):
        cands, targets = _cube_case(seed, n, min(3 << n, 500), max(1, (1 << n) // 3))
        for table in _tables(n):
            got = _kernels._min_mapped_sweep(cands, targets, table, n)
            assert np.array_equal(got, _reference(cands, targets, table))

    def test_single_target_full_cube_of_candidates(self):
        n = 8
        cands = np.arange(1 << n, dtype=np.int64)
        targets = np.array([0b10110001], dtype=np.int64)
        for table in _tables(n):
            got = _kernels._min_mapped_sweep(cands, targets, table, n)
            assert np.array_equal(got, _reference(cands, targets, table))

    def test_every_world_a_target(self):
        n = 7
        cands, targets = _cube_case(3, n, 50, 1 << n)
        for table in _tables(n):
            got = _kernels._min_mapped_sweep(cands, targets, table, n)
            assert np.array_equal(got, np.zeros(50, dtype=np.int64))


class TestDispatch:
    # the rule at n = 10: sweep from 10 * (2^10 + 2048) = 30720 pairs on
    @pytest.mark.parametrize(
        "n_cands, n_targets, path",
        [(30, 40, "_min_mapped_numpy"), (512, 512, "_min_mapped_sweep")],
    )
    def test_both_sides_of_size_rule(self, n_cands, n_targets, path, monkeypatch):
        n = 10
        cands, targets = _cube_case(11, n, n_cands, n_targets)
        calls = []

        def spy(name):
            fn = getattr(_kernels, name)

            def wrapped(*args):
                calls.append(name)
                return fn(*args)

            return wrapped

        for name in ("_min_mapped_sweep", "_min_mapped_numpy"):
            monkeypatch.setattr(_kernels, name, spy(name))
        for table in _tables(n):
            got = _kernels.min_mapped_distance(cands, targets, table, n)
            assert np.array_equal(got, _reference(cands, targets, table))
        assert calls == [path] * 3

    def test_empty_targets_rejected(self):
        with pytest.raises(ValueError):
            _kernels.min_mapped_distance(
                np.array([1], dtype=np.int64),
                np.array([], dtype=np.int64),
                np.array([0, 1], dtype=np.int64),
                1,
            )

    def test_accepts_plain_lists_via_cast(self):
        got = _kernels.min_mapped_distance(
            np.array([0b11, 0b00], dtype=np.int64),
            np.array([0b00], dtype=np.int64),
            np.arange(3, dtype=np.int64),
            2,
        )
        assert got.tolist() == [2, 0]
