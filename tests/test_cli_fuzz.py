"""Fuzzing the command line: random, deeply nested and malformed instance
files through merge, maxcons, check and closest-pairs. Every run must end
in a documented exit code (0 success, 1 usage, 2 parse or validation,
3 resource guard) with no traceback."""

import io
import json
from contextlib import redirect_stderr, redirect_stdout

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from beliefmerge.cli import POSTULATES, main
from beliefmerge.formulae import MAX_VARS

NAMES = [f"v{i}" for i in range(MAX_VARS + 6)]


def fuzz(examples: int) -> settings:
    """A fixed example sequence, so tier-1 runs the same cases each time."""
    return settings(max_examples=examples, deadline=None, derandomize=True)


@pytest.fixture(scope="module")
def instance_path(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "instance.json"


def _run(path, command) -> tuple[int, str]:
    """main on the instance file, with stdout and stderr captured."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main([*command, "--instance", str(path)])
    return code, err.getvalue()


def _check(path, command, codes=(0, 1, 2, 3)) -> None:
    code, err = _run(path, command)
    assert code in codes, (command, err)
    assert "Traceback" not in err
    assert (code == 0) == (err == ""), err  # a failure says why; a success is silent


def formulas(names):
    leaves = st.sampled_from([*names, "true", "false"])
    return st.recursive(
        leaves,
        lambda inner: st.one_of(
            inner.map("!{}".format),
            st.builds(
                "({} {} {})".format, inner, st.sampled_from(["&", "|", "->", "<->"]), inner
            ),
        ),
        max_leaves=6,
    )


commands = st.one_of(
    st.tuples(
        st.just("merge"),
        st.sampled_from(["--json", "--scheme=all", "--scheme=equal", "--distance=drastic"]),
    ),
    st.just(("maxcons", "--disjunction")),
    st.tuples(st.just("check"), st.sampled_from([f"--postulate={p}" for p in POSTULATES]))
    .map(lambda c: (*c, "--split=1", "--mu-prime=true")),
    st.just(("closest-pairs", "--json")),
)
ONE_OF_EACH = [("merge",), ("maxcons",), ("check", "--postulate=ic0"), ("closest-pairs",)]
distances = st.sampled_from(
    ["hamming", "drastic", {"table": [[0, 0], [1, 2], [2, 1]], "default": 3}]
)
schemes = st.sampled_from(["equal", "expert", "expert:3", "all", "list:2,1;1,2"])


@st.composite
def instances(draw, names):
    """An instance of the file format's shape over the given variables:
    a profile or sources, with an optional distance and scheme."""
    formula = formulas(names)
    payload = {"variables": names, "constraints": draw(formula)}
    if draw(st.booleans()):
        size = draw(st.sampled_from([2, 1, 3]))  # two: closest-pairs and majority run
        payload["profile"] = draw(st.lists(formula, min_size=size, max_size=size))
    else:
        group = st.lists(formula, min_size=1, max_size=2)
        payload["sources"] = draw(st.lists(group, min_size=1, max_size=2))
    if draw(st.booleans()):
        payload["distance"] = draw(distances)
    if draw(st.booleans()):
        payload["scheme"] = draw(schemes)
    return payload


@fuzz(100)
@given(data=st.data(), command=commands)
def test_valid_shaped_instances(instance_path, data, command):
    n = data.draw(st.integers(1, 8))
    instance_path.write_text(json.dumps(data.draw(instances(NAMES[:n]))))
    _check(instance_path, command)


@pytest.mark.parametrize("command", ONE_OF_EACH)
@fuzz(4)
@given(data=st.data())
def test_universes_past_the_guard_exit_three(instance_path, command, data):
    """A profile of two formulas over a few of n > MAX_VARS variables:
    every command trips the enumeration guard."""
    names = NAMES[: data.draw(st.integers(MAX_VARS + 1, len(NAMES)))]
    profile = data.draw(st.lists(formulas(names[:3]), min_size=2, max_size=2))
    payload = {"variables": names, "constraints": "true", "profile": profile}
    instance_path.write_text(json.dumps(payload))
    _check(instance_path, command, codes=(3,))


json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=8,
)
formula_texts = st.text(alphabet="v01 !&|()-<>truefals", max_size=20)
malformed = st.one_of(
    json_values,
    st.fixed_dictionaries(
        {},
        optional={
            "variables": st.lists(st.sampled_from(NAMES[:8] + ["true", "", "1x"]), max_size=8)
            | json_values,
            "constraints": formula_texts | json_values,
            "profile": st.lists(formula_texts, max_size=3) | json_values,
            "sources": st.lists(st.lists(formula_texts, max_size=2), max_size=2) | json_values,
            "distance": distances | json_values,
            "scheme": schemes | formula_texts | json_values,
        },
    ),
)


@fuzz(80)
@given(payload=malformed, command=commands)
def test_malformed_instances(instance_path, payload, command):
    instance_path.write_text(json.dumps(payload))
    _check(instance_path, command)


@fuzz(40)
@given(raw=st.binary(max_size=40), command=commands)
def test_arbitrary_bytes(instance_path, raw, command):
    instance_path.write_bytes(raw)
    _check(instance_path, command)


@pytest.mark.parametrize("shape", ["parens", "negations", "json"])
@fuzz(8)
@given(depth=st.integers(1, 5000), command=commands)
def test_deep_nesting(instance_path, shape, depth, command):
    """Formulas nested thousands of levels deep in parentheses or
    negations, and instance files that are JSON arrays nested as deep."""
    if shape == "json":
        instance_path.write_text("[" * depth + "]" * depth)
    else:
        text = "(" * depth + "v0" + ")" * depth if shape == "parens" else "!" * depth + "v0"
        payload = {"variables": ["v0", "v1"], "constraints": text, "profile": [text, "v1"]}
        instance_path.write_text(json.dumps(payload))
    _check(instance_path, command)
