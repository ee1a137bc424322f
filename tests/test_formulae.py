import gc
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from beliefmerge import Model, Universe, formula_to_text, parse_formula
from beliefmerge.errors import (
    EnumerationLimitError,
    FormulaSyntaxError,
    UnknownVariableError,
)
from beliefmerge.formulae import (
    And,
    Const,
    MAX_VARS,
    Iff,
    Implies,
    Not,
    Or,
    Var,
    model_from_literals,
    table_and_support,
    truth_table,
)

from oracles import (
    evaluate,
    formula_from_models,
    models_of,
    recursive_formula_to_text,
    recursive_parse,
    recursive_truth_table,
)

XY = Universe(["x", "y"])


class TestUniverse:
    def test_order_and_index(self):
        u = Universe(["a", "b", "c"])
        assert u.n == 3
        assert u.index("b") == 1

    def test_unknown_variable(self):
        with pytest.raises(UnknownVariableError):
            XY.index("z")

    @pytest.mark.parametrize("bad", [[], ["x", "x"], ["1x"], ["true"], [""]])
    def test_rejects_bad_variable_lists(self, bad):
        with pytest.raises(ValueError):
            Universe(bad)


class TestModel:
    def test_literals_and_str(self):
        u = Universe(["a", "b", "c"])
        m = Model(u, 0b101)
        assert m.literals() == ("a", "!b", "c")
        assert str(m) == "{a, !b, c}"

    def test_from_literals_round_trip(self):
        u = Universe(["a", "b", "c"])
        for bits in range(8):
            m = Model(u, bits)
            assert model_from_literals(m.literals(), u) == m

    def test_from_literals_validation(self):
        with pytest.raises(ValueError):
            model_from_literals(["x"], XY)
        with pytest.raises(ValueError):
            model_from_literals(["x", "!x"], XY)


class TestParser:
    def test_conjunction_with_negation(self):
        assert parse_formula("x & !y", XY) == And(Var("x"), Not(Var("y")))

    def test_biconditional(self):
        assert parse_formula("x <-> y", XY) == Iff(Var("x"), Var("y"))

    def test_unknown_variable_is_closed_universe_error(self):
        with pytest.raises(UnknownVariableError) as err:
            parse_formula("x & z", XY)
        assert err.value.variable == "z"

    def test_implication_right_associative(self):
        f = parse_formula("x -> y -> x", XY)
        assert f == Implies(Var("x"), Implies(Var("y"), Var("x")))

    def test_precedence(self):
        f = parse_formula("x | y & !x", XY)
        assert f == Or(Var("x"), And(Var("y"), Not(Var("x"))))

    def test_constants(self):
        assert parse_formula("true | false", XY) == Or(Const(True), Const(False))

    @pytest.mark.parametrize("text", ["x &", "(x", "x y", "", "& x", "x <- y"])
    def test_syntax_errors_carry_position(self, text):
        with pytest.raises(FormulaSyntaxError) as err:
            parse_formula(text, XY)
        assert err.value.position >= 0


class TestEvaluate:
    def test_conjunction_true(self):
        f = parse_formula("x & y", XY)
        assert evaluate(f, Model(XY, 0b11)) is True

    def test_conjunction_false(self):
        f = parse_formula("x & y", XY)
        assert evaluate(f, Model(XY, 0b10)) is False

    def test_constant_true(self):
        for bits in range(4):
            assert evaluate(Const(True), Model(XY, bits)) is True


def _formulas(universe):
    names = st.sampled_from(universe.variables)
    return st.recursive(
        st.one_of(
            names.map(Var),
            st.booleans().map(Const),
        ),
        lambda children: st.one_of(
            children.map(Not),
            st.lists(children, min_size=2, max_size=4).map(lambda ops: And(*ops)),
            st.lists(children, min_size=2, max_size=4).map(lambda ops: Or(*ops)),
            st.tuples(children, children).map(lambda ab: Implies(*ab)),
            st.tuples(children, children).map(lambda ab: Iff(*ab)),
        ),
        max_leaves=12,
    )


class TestPrinterRoundTrip:
    @settings(max_examples=200, deadline=None)
    @given(_formulas(Universe(["x", "y", "z"])))
    def test_parse_of_print_is_identity(self, f):
        u = Universe(["x", "y", "z"])
        assert parse_formula(formula_to_text(f), u) == f

    @settings(max_examples=100, deadline=None)
    @given(_formulas(Universe(["x", "y", "z"])))
    def test_round_trip_preserves_semantics(self, f):
        u = Universe(["x", "y", "z"])
        g = parse_formula(formula_to_text(f), u)
        assert np.array_equal(truth_table(f, u), truth_table(g, u))


def _outcome(parse, text, universe):
    """The formula parse reads from text, or its error's type, message
    and position."""
    try:
        return parse(text, universe)
    except (FormulaSyntaxError, UnknownVariableError) as exc:
        return type(exc), str(exc), getattr(exc, "position", None)


# fragments of malformed input: stray operators, bad characters, an
# unknown name, unbalanced groups and a half arrow
_FRAGMENTS = ["x", "y", "z", "w", "true", "false", "!", "&", "|", "->", "<->",
              "<-", "-", ">", "(", ")", "!(", "#", "1", "é", " ", "\t", "x1"]


def _same_tree(f, g) -> bool:
    """f == g node by node, without recursing once per level."""
    todo = [(f, g)]
    while todo:
        a, b = todo.pop()
        if type(a) is not type(b):
            return False
        if isinstance(a, (Var, Const)):
            if a != b:
                return False
        elif isinstance(a, Not):
            todo.append((a.operand, b.operand))
        elif isinstance(a, (And, Or)):
            if len(a.operands) != len(b.operands):
                return False
            todo += zip(a.operands, b.operands)
        else:
            todo += [(a.left, b.left), (a.right, b.right)]
    return True


class TestAgainstRecursiveParser:
    U = Universe(["x", "y", "z"])

    @settings(max_examples=300, deadline=None)
    @given(_formulas(Universe(["x", "y", "z"])))
    def test_same_ast_and_text_on_printed_formulas(self, f):
        text = formula_to_text(f)
        assert text == recursive_formula_to_text(f)
        assert parse_formula(text, self.U) == recursive_parse(text, self.U) == f

    @settings(max_examples=500, deadline=None)
    @given(st.lists(st.sampled_from(_FRAGMENTS), max_size=12).map("".join))
    def test_same_result_or_error_on_any_input(self, text):
        want = _outcome(recursive_parse, text, self.U)
        assert _outcome(parse_formula, text, self.U) == want

    @pytest.mark.parametrize(
        "text",
        ["x <- y", "(x", "x )", "& x", "", "   ", "x # y", "#", "x & w", "!(",
         "!(x", "w & #", "(x y", "x & )", ")", "x -> ", "((x) | y", "true false"],
    )
    def test_malformed_inputs(self, text):
        want = _outcome(recursive_parse, text, self.U)
        assert isinstance(want, tuple)
        assert _outcome(parse_formula, text, self.U) == want

    def test_literals_are_shared_within_a_parse(self):
        f = parse_formula("x & y | x", self.U)
        assert f.operands[0].operands[0] is f.operands[1]
        g = parse_formula("!x & y | !x | !!x", self.U)
        term, negated, twice = g.operands
        assert term.operands[0] is negated is twice.operand

    @pytest.mark.parametrize(
        "text, want",
        [
            ("x & y & z", And(Var("x"), Var("y"), Var("z"))),
            ("x & (y & z)", And(Var("x"), And(Var("y"), Var("z")))),
            ("(x & y) & z", And(And(Var("x"), Var("y")), Var("z"))),
            ("x | y & z | !x", Or(Var("x"), And(Var("y"), Var("z")), Not(Var("x")))),
            ("x -> y & z & x", Implies(Var("x"), And(Var("y"), Var("z"), Var("x")))),
        ],
    )
    def test_one_node_per_chain_and_groups_stay_nodes(self, text, want):
        f = parse_formula(text, self.U)
        assert f == want == recursive_parse(text, self.U)
        assert formula_to_text(f) == text

    def test_chains_need_two_operands(self):
        for node in (And, Or):
            with pytest.raises(ValueError):
                node(Var("x"))
            assert not hasattr(node(Var("x"), Var("y")), "left")


class TestDeepFormulas:
    """Parser and printer hold explicit stacks: depth costs no recursion."""

    DEPTH = 5000

    def _deep(self):
        x, y = Var("x"), Var("y")
        negations, right_and, right_imp, left_iff = x, x, x, x
        for _ in range(self.DEPTH):
            negations = Not(negations)
            right_and = And(y, right_and)
            right_imp = Implies(y, right_imp)
            left_iff = Iff(left_iff, Not(y))
        return [negations, right_and, right_imp, left_iff]

    def test_parse_of_print_is_identity(self):
        for f in self._deep():
            assert _same_tree(parse_formula(formula_to_text(f), XY), f)

    def test_deep_groups_and_chains_parse(self):
        d = self.DEPTH
        assert parse_formula("(" * d + "x" + ")" * d, XY) == Var("x")
        chain = parse_formula("!" * d + "x", XY)
        assert formula_to_text(chain) == "!" * d + "x"
        assert np.array_equal(truth_table(chain, XY), truth_table(Var("x"), XY))


class TestModelsOf:
    def test_disjunction_has_three_models(self):
        assert len(models_of(parse_formula("x | y", XY), XY)) == 3

    def test_false_has_no_models(self):
        assert models_of(parse_formula("false", XY), XY) == ()

    def test_true_has_all_models(self):
        for n in range(1, 5):
            u = Universe([f"v{i}" for i in range(n)])
            assert len(models_of(Const(True), u)) == 2**n

    def test_lexicographic_enumeration(self):
        ms = models_of(Const(True), XY)
        assert [m.bits for m in ms] == [0, 1, 2, 3]
        assert ms[0].literals() == ("!x", "!y")

    def test_enumeration_guard(self):
        u = Universe([f"v{i}" for i in range(MAX_VARS + 1)])
        with pytest.raises(EnumerationLimitError):
            models_of(Const(True), u)

    @settings(max_examples=60, deadline=None)
    @given(
        _formulas(Universe(["a", "b", "c", "d"])),
        _formulas(Universe(["a", "b", "c", "d"])),
    )
    def test_set_algebra(self, f, g):
        u = Universe(["a", "b", "c", "d"])
        mf = set(models_of(f, u))
        mg = set(models_of(g, u))
        assert set(models_of(And(f, g), u)) == mf & mg
        assert set(models_of(Not(f), u)) == set(models_of(Const(True), u)) - mf

    @settings(max_examples=150, deadline=None)
    @given(_formulas(Universe(["a", "b", "c", "d"])))
    def test_table_matches_evaluate(self, f):
        u = Universe(["a", "b", "c", "d"])
        table = truth_table(f, u)
        for bits in range(1 << u.n):
            assert bool(table[bits]) == evaluate(f, Model(u, bits))

    def test_table_leaves_no_reference_cycle(self):
        # a cycle would keep the 2^n index array alive until the collector ran
        u = Universe(["a", "b", "c", "d"])
        f = parse_formula("(a -> b) & !(c <-> d) | a", u)
        gc.collect()
        gc.disable()
        try:
            truth_table(f, u)
            assert gc.collect() == 0
        finally:
            gc.enable()


def _random_formula(rng, names, depth):
    """Seeded formula over every connective, with constants at the leaves."""
    if depth == 0 or rng.random() < 0.2:
        leaf = rng.randrange(len(names) + 2)
        if leaf >= len(names):
            return Const(leaf == len(names))
        return Var(names[leaf])
    kind = rng.choice([Not, And, Or, Implies, Iff])
    if kind is Not:
        return Not(_random_formula(rng, names, depth - 1))
    arity = rng.randint(2, 5) if kind in (And, Or) else 2
    return kind(*(_random_formula(rng, names, depth - 1) for _ in range(arity)))


def _chains(universe):
    """Formulas rich in And and Or chains of 2-6 operands: literals
    (repeated, and beside their own negation), constants, and nested
    chains of either connective."""
    names = st.sampled_from(universe.variables)
    literal = st.one_of(names.map(Var), names.map(lambda v: Not(Var(v))))
    leaf = st.one_of(literal, literal, st.booleans().map(Const))

    def chains(children):
        operands = st.lists(st.one_of(leaf, children), min_size=2, max_size=6)
        contradiction = names.map(lambda v: [Var(v), Not(Var(v))])
        with_pair = st.tuples(operands, contradiction).map(lambda p: p[0] + p[1])
        return st.one_of(
            operands.map(lambda ops: And(*ops)),
            operands.map(lambda ops: Or(*ops)),
            with_pair.map(lambda ops: And(*ops)),
            with_pair.map(lambda ops: Or(*ops)),
            operands.map(lambda ops: And(*(ops + ops[:1]))),  # a repeated operand
            children.map(Not),
            st.tuples(children, children).map(lambda ab: Iff(*ab)),
        )

    return st.recursive(leaf, chains, max_leaves=16)


def _mentioned(f, universe):
    """The bitmask of the variables f's AST mentions, by recursion."""
    if isinstance(f, Var):
        return 1 << (universe.n - 1 - universe.index(f.name))
    if isinstance(f, Const):
        return 0
    children = (f.operand,) if isinstance(f, Not) else getattr(f, "operands", None)
    if children is None:
        children = (f.left, f.right)
    out = 0
    for g in children:
        out |= _mentioned(g, universe)
    return out


class TestSupport:
    """table_and_support's second value: the variables the AST mentions,
    off which the table does not change."""

    @settings(max_examples=40, deadline=None)
    @given(st.data())
    @pytest.mark.parametrize("n", [1, 3, 6, 9])
    def test_mentioned_variables(self, n, data):
        u = Universe([f"v{i}" for i in range(n)])
        f = data.draw(st.one_of(_chains(u), _formulas(u)))
        table, support = table_and_support(f, u)
        assert support == _mentioned(f, u), formula_to_text(f)
        assert np.array_equal(table, truth_table(f, u))
        worlds = np.arange(1 << n)
        for b in range(n):
            if not support >> b & 1:
                assert np.array_equal(table, table[worlds ^ (1 << b)])

    def test_constants_and_tautologies(self):
        u = Universe(["a", "b", "c"])
        for text, support in [("true", 0), ("false", 0), ("b | !b", 0b010),
                              ("!(a & c) -> true", 0b101), ("!!c", 0b001)]:
            assert table_and_support(parse_formula(text, u), u)[1] == support


class TestChainTables:
    """A chain's literals become one cube or clause column, and its other
    operands fold into it."""

    @settings(max_examples=25, deadline=None)
    @given(st.data())
    @pytest.mark.parametrize("n", range(1, 10))
    def test_matches_recursive_oracle(self, n, data):
        # n = 1 and 2 fill less than the one byte that to_bytes writes
        u = Universe([f"v{i}" for i in range(n)])
        f = data.draw(_chains(u))
        assert np.array_equal(truth_table(f, u), recursive_truth_table(f, u)), formula_to_text(f)

    @pytest.mark.parametrize("n", [16, 20, MAX_VARS])
    def test_full_term_has_one_model(self, n):
        u = Universe([f"v{i}" for i in range(n)])
        rng = random.Random(n)
        bits = rng.getrandbits(n)
        term = formula_from_models([Model(u, bits)], u)
        assert isinstance(term, And) and len(term.operands) == n
        assert np.flatnonzero(truth_table(term, u)).tolist() == [bits]
        clause = Or(*(Not(op) if isinstance(op, Var) else op.operand for op in term.operands))
        assert np.flatnonzero(~truth_table(clause, u)).tolist() == [bits]

    def test_contradictions_and_tautologies(self):
        u = Universe([f"v{i}" for i in range(9)])
        x, y = Var("v2"), Var("v8")
        assert not truth_table(And(x, y, Not(x)), u).any()
        assert truth_table(Or(Not(y), x, y), u).all()
        assert not truth_table(And(x, Const(False), y), u).any()
        assert truth_table(Or(x, Const(True), y), u).all()


class TestWideFormulas:
    """Chains are flat: their width costs no recursion anywhere."""

    WIDTH = 5000

    def test_wide_chain_parses_prints_compares_and_hashes(self):
        u = Universe([f"v{i}" for i in range(12)])
        text = " & ".join(f"!v{i % 12}" if i % 3 else f"v{i % 12}" for i in range(self.WIDTH))
        f = parse_formula(text, u)
        assert isinstance(f, And) and len(f.operands) == self.WIDTH
        assert formula_to_text(f) == text
        g = parse_formula(text, u)
        assert f == g and hash(f) == hash(g)
        assert np.array_equal(truth_table(f, u), recursive_truth_table(f, u))

    def test_formula_from_many_models(self):
        u = Universe([f"v{i}" for i in range(12)])
        chosen = [Model(u, b) for b in random.Random(3).sample(range(1 << 12), 3000)]
        f = formula_from_models(chosen, u)
        assert isinstance(f, Or) and len(f.operands) == 3000
        g = parse_formula(formula_to_text(f), u)
        assert f == g and hash(f) == hash(g)
        assert set(models_of(g, u)) == set(chosen)


def test_lp_front_mu_is_one_disjunction_of_full_terms():
    """perfbench's lp_front mu (seed 1) is 15-20 full terms: each parses
    to one Or of n-literal And nodes, so its table is one cube per term."""
    from beliefmerge import realize
    from beliefmerge.instancefile import instance_payload
    from oracles import perfbench_inputs

    inputs = perfbench_inputs()
    for slot in range(len(inputs.LP_SLOTS)):
        vectors, block = inputs.front_vectors(1, slot)
        payload = instance_payload(realize(vectors, block))
        u = Universe(payload["variables"])
        mu = parse_formula(payload["constraints"], u)
        assert isinstance(mu, Or) and len(mu.operands) == len(vectors)
        for term in mu.operands:
            assert isinstance(term, And) and len(term.operands) == u.n
            assert all(isinstance(op, (Var, Not)) for op in term.operands)


class TestPackedTables:
    """Bitset truth tables, one Python int per column, against the
    recursive per-node oracle."""

    @pytest.mark.parametrize("n", [*range(1, 10), 12, 16])
    def test_matches_recursive_oracle(self, n):
        # n = 1, 2 and 3 straddle the byte that to_bytes writes; 12 and 16
        # are the widths the benchmark's workloads use
        u = Universe([f"v{i}" for i in range(n)])
        rng = random.Random(n)
        for _ in range(60):
            f = _random_formula(rng, u.variables, depth=rng.randrange(1, 6))
            table = truth_table(f, u)
            assert table.dtype == bool and table.shape == (1 << n,)
            assert np.array_equal(table, recursive_truth_table(f, u)), formula_to_text(f)

    @pytest.mark.parametrize("connective", [And, Or, Implies, Iff])
    def test_every_connective_over_literals_and_constants(self, connective):
        u = Universe([f"v{i}" for i in range(7)])
        leaves = [Var("v0"), Not(Var("v0")), Var("v6"), Not(Var("v6")), Const(True), Const(False)]
        for a in leaves:
            for b in leaves:
                for f in (connective(a, b), Not(connective(a, b))):
                    assert np.array_equal(truth_table(f, u), recursive_truth_table(f, u))

    def test_single_variables_at_twenty(self):
        u = Universe([f"v{i}" for i in range(20)])
        for name in u.variables:
            assert np.array_equal(truth_table(Var(name), u), recursive_truth_table(Var(name), u))

    def test_tables_are_fresh_and_writable(self):
        # every call unpacks its own bytes, so no two tables share memory
        u = Universe([f"v{i}" for i in range(8)])
        f = Var("v7")
        first = truth_table(f, u)
        first[:] = True
        second = truth_table(f, u)
        assert second.flags.writeable
        assert np.array_equal(second, recursive_truth_table(f, u))
        g = Or(Not(Var("v1")), And(Not(Var("v1")), Var("v2")))
        assert np.array_equal(truth_table(g, u), recursive_truth_table(g, u))

    def test_rejects_a_non_formula_node(self):
        with pytest.raises(TypeError):
            truth_table(And(Var("x"), "y"), XY)

    def test_literals_at_the_widest_universe(self):
        # variable j is bit n - 1 - j of a world, so its column is (x >> b) & 1
        n = MAX_VARS
        u = Universe([f"v{i}" for i in range(n)])
        worlds = np.arange(1 << n, dtype=np.uint32)
        for b in (0, 5, 6, 23):
            column = ((worlds >> b) & 1).astype(bool)
            name = u.variables[n - 1 - b]
            assert np.array_equal(truth_table(Var(name), u), column)
            assert np.array_equal(truth_table(Not(Var(name)), u), ~column)


class TestFormulaFromModels:
    def test_exact_model_set(self):
        u = Universe(["a", "b", "c"])
        chosen = [Model(u, 1), Model(u, 6)]
        f = formula_from_models(chosen, u)
        assert set(models_of(f, u)) == set(chosen)

    def test_empty_set_is_false(self):
        assert models_of(formula_from_models([], XY), XY) == ()
