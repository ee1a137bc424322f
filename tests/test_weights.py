from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from beliefmerge import (
    AllPositiveWeights,
    DistanceKind,
    EqualWeights,
    ExpertWeights,
    ExplicitWeights,
    expand_scheme,
    merge_scheme,
    realize,
)
from beliefmerge.weights import (
    _weight,
    integer_witness,
    parse_scheme,
    scheme_to_text,
)

from oracles import brute_score, dominates, feasible, minimality_system, strictly_dominates

DH = DistanceKind.hamming()


def _default_expert(kind, n, m):
    """The weight of an expert scheme without A over m sources of one
    formula each, on n variables."""
    return expand_scheme(ExpertWeights(), kind.largest(n), m)[0][0]


class TestDominance:
    def test_componentwise(self):
        assert dominates([0, 1], [1, 1])

    def test_incomparable_pair(self):
        assert not dominates([3, 0], [2, 2])
        assert not dominates([2, 2], [3, 0])

    def test_reflexive(self):
        assert dominates([2, 2], [2, 2])

    def test_strict_examples(self):
        assert strictly_dominates([0, 1], [0, 2])
        assert not strictly_dominates([1, 1], [1, 1])
        assert not strictly_dominates([1, 0], [0, 1])

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            dominates([1], [1, 2])

    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_strict_dominance_forces_strictly_smaller_products(self, data):
        m = data.draw(st.integers(min_value=1, max_value=4))
        ints = st.lists(st.integers(min_value=0, max_value=9), min_size=m, max_size=m)
        d1 = data.draw(ints)
        d2 = data.draw(ints)
        w = data.draw(
            st.lists(
                st.fractions(min_value=Fraction(1, 20), max_value=20),
                min_size=m,
                max_size=m,
            )
        )
        if strictly_dominates(d1, d2):
            assert brute_score(w, d1) < brute_score(w, d2)

    def test_scaling_preserves_argmin(self):
        vectors = [(3, 0), (1, 1), (0, 3), (2, 2)]
        w = (2, 3)
        for c in (Fraction(1, 7), 2, Fraction(13, 5)):
            scaled = [wi * c for wi in w]
            before = min(range(4), key=lambda i: brute_score(w, vectors[i]))
            after = min(range(4), key=lambda i: brute_score(scaled, vectors[i]))
            assert before == after


class TestSchemes:
    def test_expert_three_for_two_sources(self):
        got = expand_scheme(ExpertWeights(3), 4, 2)
        assert got == [(3, 1), (1, 3)]

    def test_equal_is_all_ones(self):
        assert expand_scheme(EqualWeights(), 4, 4) == [(1, 1, 1, 1)]

    def test_explicit_passes_through(self):
        scheme = ExplicitWeights([[5, 2], [2, 5]])
        assert expand_scheme(scheme, 4, 2) == list(scheme.vectors)

    def test_explicit_expands_to_integer_vectors(self):
        scheme = ExplicitWeights([[Fraction(1, 2), Fraction(5, 3)], [4, 6]])
        got = expand_scheme(scheme, 4, 2)
        assert got == [(3, 10), (4, 6)]
        assert all(type(w) is int for v in got for w in v)

    def test_all_positive_is_symbolic(self):
        assert expand_scheme(AllPositiveWeights(), 4, 3) is None

    def test_expert_without_value_takes_the_default(self):
        for kind, a in ((DH, 4 * 2 + 1), (DistanceKind.drastic(), 2 + 1)):
            got = expand_scheme(ExpertWeights(), kind.largest(4), 2)
            assert got == [(a, 1), (1, a)]

    def test_expert_minimum(self):
        with pytest.raises(ValueError):
            ExpertWeights(1)

    @pytest.mark.parametrize("a", [2.5, Fraction(5, 2), 2.0])
    def test_expert_weight_must_be_an_integer(self, a):
        with pytest.raises(TypeError):
            ExpertWeights(a)

    def test_half_integer_expert_weights_are_an_exact_list(self):
        # (1, 1) is minimal under the truncated (1, 2), not under (1, 5/2),
        # which is why ExpertWeights(5/2) is refused rather than truncated
        inst = realize([(0, 2), (1, 1), (3, 0)], 3)
        selected = merge_scheme(inst, parse_scheme("list:5/2,1;1,5/2"), DH).bits
        rows = inst.distances(DH)[np.searchsorted(inst.mu_bits, selected)]
        assert {tuple(v) for v in rows.tolist()} == {(0, 2), (3, 0)}
        truncated = merge_scheme(inst, parse_scheme("list:2,1;1,2"), DH).bits
        assert len(truncated) > len(selected)

    def test_explicit_validation(self):
        with pytest.raises(ValueError):
            ExplicitWeights([])
        with pytest.raises(ValueError):
            ExplicitWeights([[1, 2], [1]])
        with pytest.raises(ValueError):
            ExplicitWeights([[1, 0]])

    def test_default_expert_weight(self):
        assert _default_expert(DistanceKind.drastic(), n=5, m=3) == 4
        assert _default_expert(DistanceKind.hamming(), n=5, m=3) == 16

    def test_default_expert_weight_for_table(self):
        ds = DistanceKind.from_table(
            [[0, 0], [1, 1], [2, 2], [3, 2], [4, 2], [5, 5]], default=5
        )
        assert _default_expert(ds, n=5, m=2) == 11

    @pytest.mark.parametrize(
        "kind",
        [
            DH,
            DistanceKind.drastic(),
            DistanceKind.from_table([(0, 0), (1, 5), (2, 1), (3, 4)], default=2),
        ],
        ids=str,
    )
    def test_default_expert_weight_reads_the_largest_distance(self, kind):
        # m times the largest distance over counts 0..n, plus one
        for n in range(1, 25):
            for m in range(1, 7):
                a = max(kind.mapped(h) for h in range(n + 1)) * m + 1
                want = [tuple(a if j == i else 1 for j in range(m)) for i in range(m)]
                assert expand_scheme(ExpertWeights(), kind.largest(n), m) == want


class TestSchemeSyntax:
    @pytest.mark.parametrize(
        "text,expected",
        [
            ("equal", EqualWeights()),
            ("all", AllPositiveWeights()),
            ("expert", ExpertWeights()),
            ("expert:4", ExpertWeights(4)),
            ("list:2,1;1,2", ExplicitWeights([[2, 1], [1, 2]])),
        ],
    )
    def test_parse(self, text, expected):
        assert parse_scheme(text) == expected

    def test_round_trip(self):
        for text in ("equal", "all", "expert", "expert:4", "list:2,1;1,2"):
            assert scheme_to_text(parse_scheme(text)) == text

    def test_rejects_garbage(self):
        with pytest.raises(ValueError):
            parse_scheme("fancy")

    @pytest.mark.parametrize("text", ["list:1,,2", "list:,1", "list:1,", "list:2,1;", "list:;1", "list:"])
    def test_empty_entry_is_an_error_naming_the_scheme(self, text):
        with pytest.raises(ValueError, match="empty entry in weight scheme") as info:
            parse_scheme(text)
        assert repr(text) in str(info.value)

    def test_integers_parse_as_int_and_rationals_as_fraction(self):
        (vector,) = parse_scheme("list:2, +3,1/2,4/2,1.5,1e1").vectors
        assert vector == (2, 3, Fraction(1, 2), 2, Fraction(3, 2), 10)
        assert [type(w) for w in vector] == [int, int, Fraction, int, Fraction, int]


class TestIntegerWitness:
    def test_clears_denominators(self):
        assert integer_witness([Fraction(1, 2), Fraction(3, 2)]) == (1, 3)

    def test_identity_on_integers(self):
        assert integer_witness([Fraction(2), Fraction(4)]) == (2, 4)

    def test_rejects_non_positive(self):
        # the scheme checks each sign once; its vectors reach integer_witness
        for bad in (0, -1):
            with pytest.raises(ValueError) as info:
                ExplicitWeights([[Fraction(1), Fraction(bad)]])
            assert str(info.value) == f"weights must be strictly positive, got {bad}"

    def test_integerized_witness_still_solves_homogeneous_system(self):
        system = minimality_system([1, 1], [(3, 0), (0, 3)])
        point = feasible(system)
        scaled = integer_witness(point)
        # scaling a solution keeps the homogeneous rows; the w >= 1 rows
        # survive because clearing denominators never shrinks entries
        assert all(
            c.holds_at([Fraction(x) for x in scaled]) for c in system.constraints
        )


# each malformed weight list with the exact error it raises
SCHEME_ERRORS = [
    ("empty_list", ExplicitWeights, ([],), "explicit scheme must list at least one vector"),
    ("empty_vector", ExplicitWeights, ([[]],), "weight vector must be non-empty"),
    ("mixed_lengths", ExplicitWeights, ([[1, 2], [1]],),
     "explicit scheme vectors must share one length"),
    ("sign_before_length", ExplicitWeights, ([[1, -1], [1]],),
     "weights must be strictly positive, got -1"),
    ("zero", ExplicitWeights, ([[1, 0]],), "weights must be strictly positive, got 0"),
    ("negative", ExplicitWeights, ([[-2, 1]],), "weights must be strictly positive, got -2"),
    ("negative_rational", ExplicitWeights, ([[Fraction(-1, 2)]],),
     "weights must be strictly positive, got -1/2"),
    ("list_zero", parse_scheme, ("list:0",), "weights must be strictly positive, got 0"),
    ("list_negative", parse_scheme, ("list:1,-1;1",), "weights must be strictly positive, got -1"),
    ("list_mixed_lengths", parse_scheme, ("list:1,2;3",),
     "explicit scheme vectors must share one length"),
    ("list_zero_denominator", parse_scheme, ("list:1/0",),
     "zero denominator in weight scheme 'list:1/0'"),
    ("list_not_a_number", parse_scheme, ("list:abc",), "Invalid literal for Fraction: 'abc'"),
    # every token is read before any sign is checked
    ("list_token_before_sign", parse_scheme, ("list:0;abc",),
     "Invalid literal for Fraction: 'abc'"),
    ("list_denominator_before_sign", parse_scheme, ("list:0;1/0",),
     "zero denominator in weight scheme 'list:0;1/0'"),
    ("length_not_m", expand_scheme, (ExplicitWeights([[1, 2]]), 4, 3),
     "scheme vector length 2 != profile length 3"),
    ("no_sources", expand_scheme, (ExplicitWeights([[1, 2]]), 4, 0),
     "profile length must be at least 1"),
]


@pytest.mark.parametrize(
    "call, args, message", [case[1:] for case in SCHEME_ERRORS],
    ids=[case[0] for case in SCHEME_ERRORS],
)
def test_scheme_error_messages(call, args, message):
    with pytest.raises(ValueError) as info:
        call(*args)
    assert str(info.value) == message


# tokens built from the pieces int and Fraction each accept or reject
TOKEN_PIECES = [
    "0", "1", "7", "12", "+", "-", "_", " ", "\t", "\x1c", "\u3000", ".", "e", "E",
    "/", "1/0", "0/5", "١", "x", "0x", "inf", "nan",
]


def _outcome(fn, token):
    try:
        return "ok", fn(token)
    except (ValueError, ZeroDivisionError) as exc:
        return type(exc), str(exc)


class TestWeightTokens:
    @settings(max_examples=400, deadline=None)
    @given(st.lists(st.sampled_from(TOKEN_PIECES), max_size=6).map("".join))
    def test_int_first_parser_matches_fraction(self, token):
        assert _outcome(_weight, token) == _outcome(Fraction, token)

    @pytest.mark.parametrize(
        "token", ["1_000", " -3 ", "+4", "2.50", "1e3", "3/4", "1/0", "1__0", "", "٣/٤"]
    )
    def test_chosen_tokens(self, token):
        assert _outcome(_weight, token) == _outcome(Fraction, token)


class TestExplicitWeightsValues:
    def test_integral_fraction_equals_int(self):
        a, b = ExplicitWeights([[Fraction(2), 1]]), ExplicitWeights([[2, 1]])
        assert a == b and hash(a) == hash(b)
        assert scheme_to_text(a) == scheme_to_text(b) == "list:2,1"
        assert [type(w) for w in a.vectors[0]] == [int, int]

    def test_true_rationals_stay_fractions(self):
        scheme = ExplicitWeights([[Fraction(1, 2), 3]])
        assert scheme.vectors == ((Fraction(1, 2), 3),)
        assert scheme_to_text(scheme) == "list:1/2,3"
        assert expand_scheme(scheme, 2, 2) == [(1, 6)]
