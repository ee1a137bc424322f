import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from beliefmerge import (
    AllPositiveWeights,
    DistanceKind,
    EqualWeights,
    ExpertWeights,
    ExplicitWeights,
    merge_scheme,
    random_instance,
    realize,
    replicated_blocks,
)
from beliefmerge import cli
from beliefmerge.cli import POSTULATES, _merge_json, main
from beliefmerge.formulae import Universe, model_from_literals, parse_formula
from beliefmerge.instancefile import save_instance_file

from oracles import merge_json, spread_lp_merge


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture()
def intro_file(tmp_path):
    path = tmp_path / "intro.json"
    code = main(["realize", "--vectors", "3,0;1,1;0,3", "--out", str(path)])
    assert code == 0
    return str(path)


@pytest.fixture()
def drastic_file(tmp_path):
    path = tmp_path / "inst.json"
    payload = {
        "variables": ["x", "y"],
        "constraints": "true",
        "profile": ["x & y", "!x", "y"],
        "distance": "drastic",
    }
    path.write_text(json.dumps(payload))
    return str(path)


GOLDEN = Path(__file__).parent / "golden"


def test_all_scheme_witnesses_past_two_to_the_63(capsys, tmp_path):
    """A table whose default is 2^63 - 1: merge --json selects every
    realized world, each with the oracle's witness, although the L1
    distances between the distance vectors pass 2^63."""
    vectors = "1,1,3;1,2,1;3,1,2;3,2,0;4,0,1"
    path, table = tmp_path / "inst.json", tmp_path / "table.json"
    assert main(["realize", "--vectors", vectors, "--block-size", "4", "--out", str(path)]) == 0
    pairs = [[0, 0], [1, 1], [2, 2], [3, 3]]
    table.write_text(json.dumps({"table": pairs, "default": 2**63 - 1}))
    code, out, _ = run(
        capsys, "merge", "--instance", str(path), "--scheme", "all", "--json",
        "--distance", f"table:{table}",
    )
    assert code == 0
    inst = realize([v.split(",") for v in vectors.split(";")], 4)
    kind = DistanceKind.from_table(pairs, default=2**63 - 1)
    rows, weights, witness_index = spread_lp_merge(inst.distances(kind))
    assert len(rows) == 5
    assert json.loads(out)["witnesses"] == [list(weights[j]) for j in witness_index.tolist()]


def test_json_golden(capsys, intro_file):
    """merge --json on the README's running example, pinned byte for byte
    (witnesses included) under each finite scheme and the all scheme."""
    for scheme in ("equal", "list:2,1", "expert", "all"):
        code, out, _ = run(
            capsys, "merge", "--instance", intro_file, "--scheme", scheme, "--json"
        )
        assert code == 0
        name = "intro-" + scheme.replace(":", "-").replace(",", "-") + ".json"
        assert out == (GOLDEN / name).read_text(encoding="utf-8"), scheme


@pytest.mark.parametrize("name", ["hamming13", "zigzag12"])
def test_wide_json_golden(capsys, name):
    """merge --json, witnesses included, on two kernel_wide-shaped
    instances: 2048-6144 mu models against 3 entries, so the matrix comes
    from the hypercube sweep (an odd and an even split of the bits) and
    the all scheme dedupes thousands of rows."""
    wide = GOLDEN.parent / "golden_wide"
    for scheme in ("all", "expert"):
        code, out, _ = run(
            capsys, "merge", "--instance", str(wide / f"{name}.instance.json"),
            "--scheme", scheme, "--json",
        )
        assert code == 0
        assert out == (wide / f"{name}-{scheme}.json").read_text(encoding="utf-8"), scheme


def test_sources_expert_json_golden(capsys, tmp_path):
    """merge --json --scheme expert on a sources file, pinned byte for
    byte: one source says a four times and the other says !a once. The
    per-source sums reach 4, so the default expert weight is 4 * 2 + 1
    and each world is selected when its own source is the expert."""
    path = tmp_path / "sources.json"
    path.write_text(json.dumps({
        "variables": ["a"],
        "constraints": "true",
        "sources": [["a", "a", "a", "a"], ["!a"]],
    }))
    code, out, _ = run(
        capsys, "merge", "--instance", str(path), "--scheme", "expert", "--json"
    )
    assert code == 0
    assert out == (GOLDEN / "sources-expert.json").read_text(encoding="utf-8")


def test_text_golden(capsys, intro_file):
    """Plain merge output on the README's running example, pinned byte
    for byte: witness lines under the all scheme, bare models otherwise."""
    for scheme in ("all", "equal"):
        code, out, _ = run(capsys, "merge", "--instance", intro_file, "--scheme", scheme)
        assert code == 0
        assert out == (GOLDEN / f"intro-{scheme}.txt").read_text(encoding="utf-8"), scheme


TEN_SOURCES = (  # realize --block-size 1 input: 8 mu models, 10 sources
    "0,1,1,0,0,1,1,1,0,0;1,1,0,0,1,0,1,0,1,1;1,1,1,1,0,1,1,0,1,0;"
    "1,1,0,0,0,0,0,1,1,0;1,1,1,1,0,1,0,0,1,0;0,0,1,1,0,0,0,1,1,0;"
    "0,0,1,0,0,1,1,1,1,0;1,0,0,0,1,1,1,0,0,0"
)


def test_maxcons_golden(capsys, tmp_path):
    """maxcons output pinned byte for byte on the six-literal family
    (8 maxcons) and a realized 0/1 instance with 10 sources."""
    six = tmp_path / "six.json"
    six.write_text(json.dumps({
        "variables": ["x", "y", "z"],
        "constraints": "true",
        "profile": ["x", "y", "z", "!x", "!y", "!z"],
    }))
    ten = tmp_path / "ten.json"
    assert main(["realize", "--vectors", TEN_SOURCES, "--block-size", "1",
                 "--out", str(ten)]) == 0
    for name, path in (("six", six), ("ten", ten)):
        for suffix, flags in (
            ("json", ["--json"]),
            ("disjunction.json", ["--disjunction", "--json"]),
            ("disjunction.txt", ["--disjunction"]),
        ):
            code, out, _ = run(capsys, "maxcons", "--instance", str(path), *flags)
            assert code == 0
            golden = GOLDEN.parent / "golden_maxcons" / f"maxcons-{name}.{suffix}"
            assert out == golden.read_text(encoding="utf-8"), golden.name


@pytest.mark.parametrize("seed", range(8))
def test_merge_json_matches_payload_dump(seed):
    """The array-based merge --json writer against json.dumps of the
    payload dict it replaced."""
    inst = random_instance(1 + seed % 5, 1 + seed % 3, seed)
    fractional = ExplicitWeights(
        [[1 + j % 2 for j in range(inst.m)], [f"1/{j + 2}" for j in range(inst.m)]]
    )
    schemes = [AllPositiveWeights(), EqualWeights(), ExpertWeights(), fractional]
    for kind in (DistanceKind.hamming(), DistanceKind.drastic()):
        for scheme in schemes:
            result = merge_scheme(inst, scheme, kind)
            assert _merge_json(result, kind, scheme) == merge_json(result, kind, scheme)


@pytest.mark.parametrize(
    "postulate,scheme,distance",
    [(p, "all", "hamming") for p in POSTULATES]
    + [(p, "expert", "drastic") for p in POSTULATES if p != "arbitration"],
)
def test_check_json_golden(capsys, postulate, scheme, distance):
    """check --suite --json pinned byte for byte: suite verdict counts and
    the first failure's witness, per postulate, under the all-weights
    scheme and under the expert scheme's default weight."""
    code, out, _ = run(
        capsys,
        "check", "--postulate", postulate, "--suite", "20", "--seed", "11",
        "--scheme", scheme, "--distance", distance, "--json",
    )
    assert code == 0
    name = f"check-{postulate}-{scheme}-{distance}.json"
    assert out == (GOLDEN / name).read_text(encoding="utf-8")


class TestMerge:
    def test_equal_scheme_prints_single_compromise_model(self, capsys, intro_file):
        code, out, _ = run(capsys, "merge", "--instance", intro_file, "--scheme", "equal")
        assert code == 0
        lines = out.strip().splitlines()
        assert len(lines) == 1
        # the compromise model falsifies the first variable of each block
        assert lines[0] == "{!x1_1, x2_1, x3_1, !x1_2, x2_2, x3_2}"

    def test_doubled_first_source_selects_two(self, capsys, intro_file):
        code, out, _ = run(capsys, "merge", "--instance", intro_file, "--scheme", "list:2,1")
        assert code == 0
        assert len(out.strip().splitlines()) == 2

    def test_all_scheme_reports_witnesses(self, capsys, intro_file):
        code, out, _ = run(capsys, "merge", "--instance", intro_file, "--scheme", "all")
        assert code == 0
        lines = out.strip().splitlines()
        assert len(lines) == 3
        assert all("witness=[" in line for line in lines)

    def test_json_round_trip(self, capsys, intro_file):
        code, out, _ = run(
            capsys, "merge", "--instance", intro_file, "--scheme", "all", "--json"
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["scheme"] == "all"
        universe = Universe(json.loads(Path(intro_file).read_text())["variables"])
        models = [model_from_literals(lits, universe) for lits in payload["models"]]
        assert len(models) == 3
        bits = [m.bits for m in models]
        assert bits == sorted(bits)
        assert all(w is not None for w in payload["witnesses"])

    def test_json_is_byte_stable(self, capsys, intro_file):
        _, out1, _ = run(capsys, "merge", "--instance", intro_file, "--json")
        _, out2, _ = run(capsys, "merge", "--instance", intro_file, "--json")
        assert out1 == out2

    def test_table_distance_from_instance_file(self, capsys, tmp_path):
        path = tmp_path / "rough.json"
        path.write_text(
            json.dumps(
                {
                    "variables": ["a", "b", "c"],
                    "constraints": "true",
                    "profile": ["a & b & c", "!a & !b & !c"],
                    "distance": {"table": [[0, 0], [1, 1], [2, 1]], "default": 2},
                }
            )
        )
        code, out, _ = run(capsys, "merge", "--instance", str(path), "--json")
        assert code == 0
        assert json.loads(out)["distance"] == "table[0:0,1:1,2:1,*:2]"

    def test_table_distance_flag_reads_file(self, capsys, intro_file, tmp_path):
        table = tmp_path / "table.json"
        table.write_text(json.dumps({"table": [[0, 0], [1, 1]], "default": 1}))
        code, out, _ = run(
            capsys,
            "merge", "--instance", intro_file,
            "--distance", f"table:{table}", "--scheme", "all",
        )
        assert code == 0
        # collapsing to a binary codomain makes [1,1] dominated by [3,0]
        assert len(out.strip().splitlines()) == 2

    def test_bad_table_file_is_two(self, capsys, intro_file, tmp_path):
        table = tmp_path / "table.json"
        table.write_text(json.dumps({"table": [[0, 5]]}))
        code, _, err = run(
            capsys,
            "merge", "--instance", intro_file, "--distance", f"table:{table}",
        )
        assert code == 2
        assert "table" in err

    def test_multi_source_file(self, capsys, tmp_path):
        path = tmp_path / "multi.json"
        path.write_text(
            json.dumps(
                {
                    "variables": ["x", "y"],
                    "constraints": "true",
                    "sources": [["x", "y"], ["!x", "!y"]],
                }
            )
        )
        code, out, _ = run(
            capsys, "merge", "--instance", str(path), "--scheme", "equal"
        )
        assert code == 0
        assert len(out.strip().splitlines()) == 4

    def test_all_scheme_screens_a_thousand_sources(self, capsys, tmp_path):
        """The select screen composes its vectors without recursion, so
        1200 sources stay far from the recursion limit."""
        path = tmp_path / "many.json"
        path.write_text(
            json.dumps({"variables": ["a"], "constraints": "a", "profile": ["a"] * 1200})
        )
        code, out, err = run(
            capsys, "merge", "--instance", str(path), "--scheme", "all", "--json"
        )
        assert (code, err) == (0, "")
        payload = json.loads(out)
        assert payload["models"] == [["a"]]
        assert payload["witnesses"] == [[1] * 1200]


class TestMaxconsCommand:
    def test_indices_are_one_based(self, capsys, tmp_path):
        path = tmp_path / "pair.json"
        path.write_text(
            json.dumps(
                {"variables": ["x"], "constraints": "true", "profile": ["x", "!x"]}
            )
        )
        code, out, _ = run(capsys, "maxcons", "--instance", str(path))
        assert code == 0
        assert out.strip().splitlines() == ["1", "2"]

    def test_drastic_merge_equals_maxcons_disjunction(self, capsys, drastic_file):
        code, merged, _ = run(
            capsys,
            "merge", "--instance", drastic_file,
            "--scheme", "all", "--distance", "drastic",
        )
        assert code == 0
        code, disj, _ = run(
            capsys, "maxcons", "--instance", drastic_file, "--disjunction"
        )
        assert code == 0
        merged_models = {l.split("  ")[0] for l in merged.strip().splitlines()}
        assert merged_models == set(disj.strip().splitlines())


class TestGenerators:
    def test_realize_emits_loadable_instance(self, capsys, tmp_path):
        out = tmp_path / "r.json"
        code, _, _ = run(capsys, "realize", "--vectors", "1,0;0,2", "--out", str(out))
        assert code == 0
        payload = json.loads(out.read_text())
        assert len(payload["profile"]) == 2
        code, _, _ = run(capsys, "merge", "--instance", str(out))
        assert code == 0

    def test_blocks_command(self, capsys, tmp_path):
        out = tmp_path / "b.json"
        code, _, _ = run(capsys, "blocks", "--k", "2", "--out", str(out))
        assert code == 0
        payload = json.loads(out.read_text())
        assert len(payload["variables"]) == 12
        assert len(payload["profile"]) == 4

    def test_realize_to_stdout(self, capsys):
        code, out, _ = run(capsys, "realize", "--vectors", "1,1")
        assert code == 0
        assert json.loads(out)["profile"]

    @pytest.mark.parametrize(
        "argv,inst",
        [
            (["realize", "--vectors", "3,0;1,1;0,3"],
             lambda: realize([[3, 0], [1, 1], [0, 3]])),
            (["blocks", "--k", "2"], lambda: replicated_blocks(2)),
        ],
        ids=["realize", "blocks"],
    )
    def test_out_file_holds_the_stdout_bytes(self, capsys, tmp_path, argv, inst):
        """--out writes what stdout shows, which is save_instance_file's file."""
        code, out, _ = run(capsys, *argv)
        assert code == 0
        path = tmp_path / "out.json"
        assert run(capsys, *argv, "--out", str(path))[:2] == (0, "")
        saved = tmp_path / "saved.json"
        save_instance_file(str(saved), inst())
        assert path.read_bytes() == saved.read_bytes() == out.encode("utf-8")


class TestCheckCommand:
    def test_suite_counts(self, capsys):
        code, out, _ = run(
            capsys, "check", "--postulate", "ic0", "--suite", "4", "--seed", "9"
        )
        assert code == 0
        assert "pass=4" in out and "fail=0" in out

    def test_single_instance_with_aux(self, capsys, intro_file):
        code, out, _ = run(
            capsys,
            "check", "--postulate", "ic7",
            "--instance", intro_file,
            "--mu-prime", "x1_1 | !x1_1",
        )
        assert code == 0
        assert "pass=1" in out

    def test_majority_fails_and_reports_witness(self, capsys, tmp_path):
        path = tmp_path / "maj.json"
        path.write_text(
            json.dumps(
                {"variables": ["a"], "constraints": "true", "profile": ["a", "!a"]}
            )
        )
        code, out, _ = run(
            capsys,
            "check", "--postulate", "majority",
            "--instance", str(path), "--reps", "3", "--json",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["fail"] == 1
        assert payload["first_failure"]["models"]

    def test_majority_needs_two_formulas(self, capsys, tmp_path):
        path = tmp_path / "three.json"
        path.write_text(
            json.dumps(
                {"variables": ["a"], "constraints": "true", "profile": ["a", "!a", "a"]}
            )
        )
        code, out, err = run(
            capsys, "check", "--postulate", "majority", "--instance", str(path)
        )
        assert (code, out) == (2, "")
        assert err == "beliefmerge: majority is stated for two-formula profiles\n"

    @pytest.mark.parametrize(
        "flags, distance, scheme",
        [([], "drastic", "equal"), (["--distance", "hamming", "--scheme", "all"], "hamming", "all")],
        ids=["from_file", "flags_override"],
    )
    def test_instance_file_configures_the_operator(
        self, capsys, tmp_path, flags, distance, scheme
    ):
        """The file's distance and scheme apply as merge applies them,
        and --distance and --scheme override them."""
        path = tmp_path / "configured.json"
        path.write_text(
            json.dumps(
                {
                    "variables": ["x", "y"],
                    "constraints": "true",
                    "profile": ["x & y", "!x"],
                    "distance": "drastic",
                    "scheme": "equal",
                }
            )
        )
        code, out, _ = run(
            capsys, "check", "--postulate", "ic2", "--instance", str(path), "--json", *flags
        )
        assert code == 0
        payload = json.loads(out)
        assert (payload["distance"], payload["scheme"]) == (distance, scheme)

    def test_needs_some_work(self, capsys):
        code, _, err = run(capsys, "check", "--postulate", "ic1")
        assert code == 2
        assert "suite" in err.lower() or "instance" in err.lower()

    def test_deterministic_for_seed(self, capsys):
        args = ["check", "--postulate", "ic2", "--suite", "6", "--seed", "3", "--json"]
        _, out1, _ = run(capsys, *args)
        _, out2, _ = run(capsys, *args)
        assert out1 == out2


class TestPlotAndClosestPairs:
    def test_plot_writes_stable_svg(self, capsys, intro_file, tmp_path):
        a, b = tmp_path / "a.svg", tmp_path / "b.svg"
        code, _, _ = run(capsys, "plot", "--instance", intro_file, "--out", str(a))
        assert code == 0
        run(capsys, "plot", "--instance", intro_file, "--out", str(b))
        assert a.read_bytes() == b.read_bytes()
        assert a.read_text().count("<circle") == 3

    def test_plot_fits_large_distances_on_the_canvas(self, capsys, tmp_path):
        # the largest distance, 1000, is past the 520-pixel span
        path = tmp_path / "wide.json"
        path.write_text(json.dumps({
            "variables": ["x", "y"],
            "constraints": "true",
            "profile": ["x & y", "!x & !y"],
            "distance": {"table": [[0, 0], [1, 700]], "default": 1000},
        }))
        out = tmp_path / "plot.svg"
        code, _, _ = run(capsys, "plot", "--instance", str(path), "--out", str(out))
        assert code == 0
        text = out.read_text()
        coords = [int(v) for v in re.findall(r'c[xy]="(-?\d+)"', text)]
        assert len(coords) == 2 * text.count("<circle") == 6
        assert all(40 <= v <= 560 for v in coords)

    def test_closest_pairs(self, capsys, tmp_path):
        path = tmp_path / "cp.json"
        path.write_text(
            json.dumps(
                {
                    "variables": ["x", "y"],
                    "constraints": "true",
                    "profile": ["x & y", "!x & !y"],
                }
            )
        )
        code, out, _ = run(capsys, "closest-pairs", "--instance", str(path))
        assert code == 0
        assert set(out.strip().splitlines()) == {"{x, y}", "{!x, !y}"}


class TestExitCodes:
    def test_usage_error_is_one(self, capsys):
        assert main(["merge"]) == 1  # missing --instance

    def test_unknown_subcommand_is_one(self, capsys):
        assert main(["frobnicate"]) == 1

    def test_missing_file_is_two(self, capsys):
        code, _, err = run(capsys, "merge", "--instance", "/nonexistent.json")
        assert code == 2
        assert "cannot read" in err

    @pytest.mark.parametrize(
        "payload",
        [
            "{not json",
            '{"variables": ["x"]}',
            '{"variables": ["x"], "constraints": "x &", "profile": ["x"]}',
            '{"variables": ["x"], "constraints": "x & z", "profile": ["x"]}',
            '{"variables": ["x"], "constraints": "x", "profile": []}',
            '{"variables": ["x"], "constraints": "x", "profile": ["x"], "sources": [["x"]]}',
            '{"variables": ["x"], "constraints": "x & !x", "profile": ["x"]}',
            '{"variables": ["x"], "constraints": "x", "profile": ["x"], "scheme": "warp"}',
            '{"variables":["a"],"constraints":"a","profile":["a"],"scheme":5}',
            '{"variables":["a"],"constraints":"a","profile":["a"],"scheme":"list:1/0"}',
            '{"variables":["a"],"constraints":"a","profile":["a","a"],"scheme":"list:1,,2"}',
            '{"variables":["a"],"constraints":"a","profile":["a"],'
            '"distance":{"table":[[0,0],[1,1]],"default":2.5}}',
            '{"variables":["a"],"constraints":"a","profile":["a"],'
            '"distance":{"table":[[0,0],[1,1.9]]}}',
            '{"variables":["a"],"constraints":"a","profile":["a"],'
            '"distance":{"table":[[0,0],[1,100000000000000000000]],"default":3}}',
        ],
    )
    def test_malformed_instances_are_two(self, capsys, tmp_path, payload):
        path = tmp_path / "bad.json"
        path.write_text(payload)
        code, _, err = run(capsys, "merge", "--instance", str(path))
        assert code == 2
        assert err.strip()
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "command",
        [
            ["merge", "--instance", "{deep}"],
            ["check", "--postulate", "ic0", "--instance", "{deep}"],
            ["maxcons", "--instance", "{deep}"],
            ["merge", "--instance", "{intro}", "--distance", "table:{deep}"],
        ],
    )
    def test_deeply_nested_json_is_blamed_on_the_file(
        self, capsys, tmp_path, intro_file, command
    ):
        """json.load overflows on arrays nested 1100 deep, in an instance
        file or a distance table file: the message names the file and
        does not blame a formula."""
        path = tmp_path / "deep.json"
        path.write_text("[" * 1100 + "]" * 1100)
        args = [a.format(deep=path, intro=intro_file) for a in command]
        code, out, err = run(capsys, *args)
        assert (code, out) == (2, "")
        assert err.startswith(f"beliefmerge: {path}")
        assert "formula" not in err.replace(str(path), "")

    @pytest.mark.parametrize("command", ["check", "maxcons", "plot"])
    def test_sources_file_is_read_only_by_merge(self, capsys, tmp_path, command):
        """check, maxcons and plot refuse a sources file rather than
        flatten its groups into one profile entry per formula."""
        path = tmp_path / "sources.json"
        path.write_text(
            '{"variables": ["a"], "constraints": "a", "sources": [["a"], ["!a"]]}'
        )
        extra = {"check": ["--postulate", "ic0"], "maxcons": [],
                 "plot": ["--out", str(tmp_path / "plot.svg")]}[command]
        code, out, err = run(capsys, command, *extra, "--instance", str(path))
        assert (code, out) == (2, "")
        assert "only merge reads sources" in err
        code, out, err = run(capsys, "merge", "--instance", str(path))
        assert (code, err) == (0, "")

    @pytest.mark.parametrize("command", ["merge", "realize", "plot", "maxcons"])
    def test_unwritable_out_is_two(self, capsys, intro_file, tmp_path, command):
        # maxcons writes onto a directory, the others into a missing one
        out = str(tmp_path) if command == "maxcons" else str(tmp_path / "missing" / "x")
        source = (
            ["--vectors", "3,0;1,1;0,3"] if command == "realize"
            else ["--instance", intro_file]
        )
        code, _, err = run(capsys, command, *source, "--out", out)
        assert code == 2
        assert err.startswith("beliefmerge: ")
        assert "Traceback" not in err

    def test_zero_denominator_scheme_flag_is_two(self, capsys, intro_file):
        code, _, err = run(
            capsys, "merge", "--instance", intro_file, "--scheme", "list:1/0"
        )
        assert code == 2
        assert err.startswith("beliefmerge: ")
        assert "Traceback" not in err

    @pytest.mark.parametrize("scheme", ["list:1,,2", "list:2,1;"])
    def test_empty_scheme_entry_flag_is_two(self, capsys, intro_file, scheme):
        code, _, err = run(capsys, "merge", "--instance", intro_file, "--scheme", scheme)
        assert code == 2
        assert err == f"beliefmerge: empty entry in weight scheme {scheme!r}\n"

    def test_enumeration_guard_is_three(self, capsys, tmp_path):
        path = tmp_path / "wide.json"
        names = [f"v{i}" for i in range(25)]
        path.write_text(
            json.dumps(
                {"variables": names, "constraints": "true", "profile": ["v0"]}
            )
        )
        code, _, err = run(capsys, "merge", "--instance", str(path))
        assert code == 3
        assert "resource" in err.lower() or "guard" in err.lower()

    def test_thousand_term_disjunction_merges(self, capsys, tmp_path):
        # truth tables are evaluated without recursion, so a flat
        # disjunction of 1000 full terms at n = 12 is an ordinary input
        path = tmp_path / "wide.json"
        names = [f"v{i}" for i in range(12)]
        terms = [
            "(" + " & ".join(v if (t >> i) & 1 else f"!{v}" for i, v in enumerate(names)) + ")"
            for t in range(1000)
        ]
        path.write_text(
            json.dumps(
                {"variables": names, "constraints": " | ".join(terms), "profile": ["v0"]}
            )
        )
        code, out, err = run(capsys, "merge", "--instance", str(path), "--json")
        assert code == 0, err
        # the profile v0 selects exactly the terms with v0 true: odd t
        selected = sorted(
            (sum(((t >> i) & 1) << (11 - i) for i in range(12)), t)
            for t in range(1, 1000, 2)
        )
        assert json.loads(out)["models"] == [
            [v if (t >> i) & 1 else f"!{v}" for i, v in enumerate(names)]
            for _, t in selected
        ]

    @pytest.mark.parametrize(
        "constraints",
        ["(" * 5000 + "v0" + ")" * 5000, "!" * 5000 + "v0"],
        ids=["parens", "negations"],
    )
    def test_deep_nesting_merges_as_its_shallow_equivalent(self, capsys, tmp_path, constraints):
        """The parser holds groups and negations on an explicit stack, so
        depth is no error: both inputs mean v0 (5000 negations are even)."""
        outputs = []
        for text in (constraints, "v0"):
            path = tmp_path / "deep.json"
            path.write_text(
                json.dumps({"variables": ["v0", "v1"], "constraints": text, "profile": ["v0"]})
            )
            code, out, err = run(capsys, "merge", "--instance", str(path), "--json")
            assert code == 0, err
            outputs.append(out)
        assert outputs[0] == outputs[1]

    def test_deep_ast_comparison_is_two_without_traceback(self, capsys, monkeypatch):
        """Dataclass ==, hash and repr of a formula AST still recurse once
        per level: a command that overflows there exits 2 with one line."""
        universe = Universe(["v0"])
        deep = "!" * 5000 + "v0"

        def load(path):
            return parse_formula(deep, universe) == parse_formula(deep, universe)

        monkeypatch.setattr(cli, "load_instance_file", load)
        code, out, err = run(capsys, "merge", "--instance", "unused.json")
        assert (code, out) == (2, "")
        assert err == "beliefmerge: formula nested too deeply to process\n"


def test_numpy_ma_is_never_imported(tmp_path):
    """merge on a sweep-sized instance, check --suite and maxcons, run in
    a fresh interpreter, leave numpy.ma unimported: numpy's set routines
    (np.unique and kin) import it on first use."""
    wide = tmp_path / "wide.json"
    wide.write_text(json.dumps({
        "variables": [f"v{i}" for i in range(10)],
        "constraints": "true",
        "profile": ["v0", "!v1 | v2", "v3 & v4"],
    }))
    out = str(tmp_path / "out")
    runs = [
        ["merge", "--instance", str(wide), "--out", out],
        ["check", "--postulate", "ic2", "--suite", "20", "--out", out],
        ["maxcons", "--instance", str(wide), "--disjunction", "--out", out],
    ]
    script = (
        "import sys\n"
        "from beliefmerge.cli import main\n"
        f"for argv in {runs!r}:\n"
        "    assert main(argv) == 0, argv\n"
        "print('numpy.ma' in sys.modules)\n"
    )
    src = str(Path(__file__).parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": src}
    done = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "False"
