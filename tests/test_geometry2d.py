import pytest

from beliefmerge import (
    AllPositiveWeights,
    DistanceKind,
    ExplicitWeights,
    merge_scheme,
    random_instance,
    realize,
    visible_hull,
)
from beliefmerge._rng import Xoshiro256StarStar
from beliefmerge.geometry2d import render_svg

from oracles import (
    _excludes,
    algorithm1,
    critical_weight_set,
    feasible,
    minimality_system,
    mu_models,
)

DH = DistanceKind.hamming()


class TestSeparation:
    """``_excludes(p, j, k)``: p strictly inside the band of the pair and
    strictly cut from the origin by the line through j and k."""

    def test_cut_off_point_is_separated(self):
        assert _excludes((2, 2), (3, 0), (0, 3))
        assert _excludes((2, 2), (0, 3), (3, 0))

    def test_inner_point_is_not_separated(self):
        assert not _excludes((1, 1), (3, 0), (0, 3))

    def test_origin_is_never_separated(self):
        assert not _excludes((0, 0), (3, 0), (0, 3))

    def test_point_on_the_line_is_not_separated(self):
        assert not _excludes((1, 2), (3, 0), (0, 3))
        assert not _excludes((2, 2), (1, 3), (3, 1))

    def test_line_through_origin_separates_nothing(self):
        # the line through (-1, 1) and (1, -1) passes the origin; (5, 1)
        # lies inside the band and off the line, yet nothing is cut
        assert not _excludes((5, 1), (-1, 1), (1, -1))


class TestVisibleHull:
    def test_cut_off_triangle(self):
        assert visible_hull({(3, 0), (2, 2), (0, 3)}) == {(3, 0), (0, 3)}

    def test_enlightened_triangle(self):
        assert visible_hull({(3, 0), (1, 1), (0, 3)}) == {(3, 0), (1, 1), (0, 3)}

    def test_single_point(self):
        assert visible_hull({(5, 7)}) == {(5, 7)}

    def test_collinear_tie_survives(self):
        assert visible_hull({(0, 2), (1, 1), (2, 0)}) == {(0, 2), (1, 1), (2, 0)}

    def test_dominated_points_drop(self):
        assert visible_hull({(1, 1), (2, 1), (1, 2), (4, 4)}) == {(1, 1)}

    def test_abscissas_are_unique(self):
        rng = Xoshiro256StarStar(5)
        for _ in range(30):
            pts = {
                (rng.below(7), rng.below(7))
                for _ in range(2 + rng.below(8))
            }
            hull = visible_hull(pts)
            xs = [p[0] for p in hull]
            assert len(xs) == len(set(xs))

    def test_matches_weight_feasibility_oracle(self):
        # the hull is exactly the set of points minimal for some positive
        # weights, decided independently by the LP route
        rng = Xoshiro256StarStar(99)
        for _ in range(60):
            pts = sorted(
                {(rng.below(9), rng.below(9)) for _ in range(1 + rng.below(9))}
            )
            hull = visible_hull(pts)
            for p in pts:
                others = [q for q in pts if q != p]
                selectable = feasible(minimality_system(list(p), others)) is not None
                assert (p in hull) == selectable, (p, pts)


class TestAlgorithm1:
    def test_cut_off_triangle_instance(self):
        inst = realize([[3, 0], [2, 2], [0, 3]])
        rows = inst.distances(DH)
        got = {tuple(rows[inst.model_index(m)].tolist()) for m in algorithm1(inst, DH)}
        assert got == {(3, 0), (0, 3)}

    def test_enlightened_triangle_instance(self):
        inst = realize([[3, 0], [1, 1], [0, 3]])
        assert algorithm1(inst, DH) == frozenset(mu_models(inst))

    def test_requires_two_formulae(self):
        inst = realize([[1, 1, 1]])
        with pytest.raises(ValueError):
            algorithm1(inst, DH)

    @pytest.mark.parametrize("seed", range(25))
    def test_agrees_with_lp_merge(self, seed):
        inst = random_instance(5, 2, seed=seed)
        assert algorithm1(inst, DH) == merge_scheme(inst, AllPositiveWeights(), DH).models


class TestCriticalWeightSet:
    def test_single_point_still_yields_vectors(self):
        ws = critical_weight_set({(4, 2)})
        assert ws and all(len(w) == 2 and min(w) >= 1 for w in ws)

    def test_two_extremes_select_both(self):
        ws = critical_weight_set({(3, 0), (0, 3)})
        assert (1, 1) in ws

    def test_three_point_normals(self):
        ws = critical_weight_set({(3, 0), (1, 1), (0, 3)})
        assert (1, 2) in ws and (2, 1) in ws

    @pytest.mark.parametrize("seed", range(25))
    def test_merge_over_set_equals_all_positive(self, seed):
        inst = random_instance(5, 2, seed=seed)
        points = set(map(tuple, inst.distances(DH).tolist()))
        scheme = ExplicitWeights(critical_weight_set(points))
        assert (
            merge_scheme(inst, scheme, DH).models
            == merge_scheme(inst, AllPositiveWeights(), DH).models
        )


class TestRenderSvg:
    POINTS = [(3, 0), (2, 2), (0, 3)]

    def test_counts_and_fills(self, tmp_path):
        out = tmp_path / "plot.svg"
        render_svg(self.POINTS, {(3, 0), (0, 3)}, str(out))
        text = out.read_text()
        assert text.count("<circle") == 3
        assert text.count('fill="black"') == 2
        assert text.count("<polyline") == 1

    def test_empty_selection(self, tmp_path):
        out = tmp_path / "plot.svg"
        render_svg(self.POINTS, set(), str(out))
        assert 'fill="black"' not in out.read_text()

    def test_pinned_bytes(self, tmp_path):
        out = tmp_path / "plot.svg"
        render_svg(self.POINTS, {(3, 0), (0, 3)}, str(out))
        assert out.read_text() == (
            '<svg xmlns="http://www.w3.org/2000/svg" viewBox="0 0 600 600">\n'
            '<line x1="40" y1="560" x2="560" y2="560" stroke="black"/>\n'
            '<line x1="40" y1="560" x2="40" y2="40" stroke="black"/>\n'
            '<polyline points="40,41 559,560" fill="none" stroke="gray"/>\n'
            '<circle cx="40" cy="41" r="8" fill="black" stroke="black"/>\n'
            '<circle cx="386" cy="214" r="8" fill="white" stroke="black"/>\n'
            '<circle cx="559" cy="560" r="8" fill="black" stroke="black"/>\n'
            "</svg>\n"
        )

    def test_byte_identical_across_runs(self, tmp_path):
        a, b = tmp_path / "a.svg", tmp_path / "b.svg"
        render_svg(self.POINTS, {(0, 3)}, str(a))
        render_svg(list(reversed(self.POINTS)), {(0, 3)}, str(b))
        assert a.read_bytes() == b.read_bytes()
