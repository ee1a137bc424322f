"""Command-line interface.

Exit codes: 0 success, 1 usage, 2 parse/validation (an unwritable output
file included, and a formula AST too deep for a recursive ==, hash or
repr), 3 resource guard (out of memory included).
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

import numpy as np

from ._rng import Xoshiro256StarStar
from .distance import DistanceKind
from .errors import (
    BeliefMergeError,
    EnumerationLimitError,
    InstanceFormatError,
)
from .formulae import TRUE, Model, Not, Or, Universe, parse_formula
from .geometry2d import render_svg
from .instancefile import instance_payload, load_instance_file, parse_distance_spec, read_json
from .instancegen import random_instance, realize, replicated_blocks
from .maxcons import maxcons, maxcons_disjunction
from .merge import Instance, MergeResult, merge_scheme, multi_source_merge
from .postulates import OperatorConfig, Verdict, check_postulate, closest_pairs_merge
from .weights import AllPositiveWeights, parse_scheme, scheme_to_text

POSTULATES = [f"ic{i}" for i in range(9)] + ["majority", "arbitration", "disjunctive"]


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse default exits 2; usage errors are 1 here
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _parse_distance_flag(text: str) -> DistanceKind:
    if text.startswith("table:"):
        spec = read_json(text.split(":", 1)[1])
        if isinstance(spec, list):
            spec = {"table": spec}
        return parse_distance_spec(spec)
    return parse_distance_spec(text)


def _emit(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
        if not text.endswith("\n"):
            sys.stdout.write("\n")
    else:
        with open(out, "w", encoding="utf-8") as handle:
            handle.write(text)
            if not text.endswith("\n"):
                handle.write("\n")


def _json_dump(payload) -> str:
    return json.dumps(payload, indent=2, sort_keys=True)


def _sorted_models(models) -> list[Model]:
    return sorted(models, key=lambda m: m.bits)


def _literal_texts(universe: Universe, bits: list[int], quote, sep: str) -> list[str]:
    """Each bitmask's literals in universe order, each written by quote
    and joined by sep. Every text is one lookup in a table over the
    first half of the variables and one over the rest."""

    def table(names, glue):  # index: the names' bits, first name most significant
        texts = [""]
        for name in names:
            negative, positive = glue + quote("!" + name), glue + quote(name)
            texts = [t + lit for t in texts for lit in (negative, positive)]
            glue = sep
        return texts

    names = universe.variables
    split = len(names) // 2
    high = table(names[:split], "")
    low = table(names[split:], sep if split else "")
    shift = len(names) - split
    mask = (1 << shift) - 1
    return [high[b >> shift] + low[b & mask] for b in bits]


def _json_list(items, pad: str) -> str:
    """A list of rendered JSON values, laid out as json.dumps(indent=2)
    lays it out at indentation pad."""
    if not items:
        return "[]"
    inner = "\n" + pad + "  "
    return "[" + inner + ("," + inner).join(items) + "\n" + pad + "]"


def _merge_json(result: MergeResult, kind, scheme) -> str:
    """json.dumps(indent=2, sort_keys=True) of the payload {distance,
    models, scheme, witnesses}, written from the result's arrays."""
    bits = result.bits.tolist()
    inner = "\n" + " " * 6
    models = [
        "[" + inner + body + "\n    ]"
        for body in _literal_texts(result.universe, bits, json.dumps, "," + inner)
    ]
    weights = [_json_list(list(map(str, w)), "    ") for w in result.weights]
    witnesses = [weights[j] for j in result.witness_index.tolist()]
    return (
        "{\n"
        f'  "distance": {json.dumps(str(kind))},\n'
        f'  "models": {_json_list(models, "  ")},\n'
        f'  "scheme": {json.dumps(scheme_to_text(scheme))},\n'
        f'  "witnesses": {_json_list(witnesses, "  ")}\n'
        "}"
    )


def _merge_text(result: MergeResult, show_witness: bool) -> str:
    """One line per selected model, {literals}, in bit order; with
    show_witness, each followed by its witness vector."""
    lines = [
        "{" + body + "}"
        for body in _literal_texts(result.universe, result.bits.tolist(), str, ", ")
    ]
    if show_witness:
        weights = [f"  witness={list(w)}" for w in result.weights]
        lines = [
            line + weights[j] for line, j in zip(lines, result.witness_index.tolist())
        ]
    return "\n".join(lines)


def _resolve_config(args, file_distance, file_scheme):
    if args.distance is not None:
        kind = _parse_distance_flag(args.distance)
    elif file_distance is not None:
        kind = file_distance
    else:
        kind = DistanceKind.hamming()
    if args.scheme is not None:
        scheme = parse_scheme(args.scheme)
    elif file_scheme is not None:
        scheme = file_scheme
    else:
        scheme = AllPositiveWeights()
    return kind, scheme


def _cmd_merge(args) -> int:
    spec = load_instance_file(args.instance)
    kind, scheme = _resolve_config(args, spec.distance, spec.scheme)
    if spec.sources is not None:
        result = multi_source_merge(
            spec.universe, spec.constraints, spec.sources, scheme, kind
        )
    else:
        result = merge_scheme(spec.instance(), scheme, kind)
    if args.json:
        _emit(_merge_json(result, kind, scheme), args.out)
    else:
        _emit(_merge_text(result, isinstance(scheme, AllPositiveWeights)), args.out)
    return 0


def _cmd_maxcons(args) -> int:
    spec = load_instance_file(args.instance)
    inst = spec.instance()
    sets = maxcons(inst)
    shown = [sorted(i + 1 for i in s) for s in sets]  # 1-based for display
    payload = {"maxcons": shown}
    lines = [" ".join(str(i) for i in s) if s else "-" for s in shown]
    if args.disjunction:
        models = _sorted_models(maxcons_disjunction(inst))
        payload["models"] = [list(m.literals()) for m in models]
        lines = [str(m) for m in models]
    if args.json:
        _emit(_json_dump(payload), args.out)
    else:
        _emit("\n".join(lines), args.out)
    return 0


def _parse_vectors(text: str) -> list[list[int]]:
    vectors = []
    for part in text.split(";"):
        part = part.strip()
        if not part:
            continue
        vectors.append([int(x) for x in part.split(",")])
    if not vectors:
        raise ValueError("no vectors given")
    return vectors


def _cmd_realize(args) -> int:
    inst = realize(_parse_vectors(args.vectors), args.block_size)
    _emit(_json_dump(instance_payload(inst)), args.out)
    return 0


def _cmd_blocks(args) -> int:
    _emit(_json_dump(instance_payload(replicated_blocks(args.k))), args.out)
    return 0


def _cmd_plot(args) -> int:
    spec = load_instance_file(args.instance)
    inst = spec.instance()
    if inst.m != 2:
        raise InstanceFormatError("plot needs a two-formula profile")
    kind, scheme = _resolve_config(args, spec.distance, spec.scheme)
    vectors = [tuple(d) for d in inst.distances(kind).tolist()]
    result = merge_scheme(inst, scheme, kind)
    rows = np.searchsorted(inst.mu_bits, result.bits).tolist()
    render_svg(vectors, {vectors[r] for r in rows}, args.out)
    return 0


def _cmd_closest_pairs(args) -> int:
    spec = load_instance_file(args.instance)
    if spec.profile is None or len(spec.profile) != 2:
        raise InstanceFormatError("closest-pairs needs a profile of exactly two formulae")
    models = _sorted_models(
        closest_pairs_merge(Instance(spec.universe, TRUE, spec.profile))
    )
    if args.json:
        _emit(_json_dump({"models": [list(m.literals()) for m in models]}), args.out)
    else:
        _emit("\n".join(str(m) for m in models), args.out)
    return 0


def _witness_payload(witness) -> object:
    if witness is None:
        return None
    out = {}
    for key, value in witness.items():
        if isinstance(value, (list, tuple)) and value and isinstance(value[0], Model):
            out[key] = [list(m.literals()) for m in value]
        else:
            out[key] = value
    return out


def _suite_verdict(postulate: str, cfg: OperatorConfig, rng, reps: int) -> Verdict:
    n = 2 + rng.below(3)
    seed = rng.next64()
    if postulate == "ic4":
        base = random_instance(n, 2, seed)
        f1, f2 = base.profile
        inst = Instance(base.universe, Or(f1, f2), [f1, f2])
        return check_postulate(postulate, cfg, inst)
    if postulate in ("ic5", "ic6"):
        m = 2 + rng.below(2)
        inst = random_instance(n, m, seed)
        split = 1 + rng.below(m - 1)
        return check_postulate(postulate, cfg, inst, split=split)
    if postulate in ("ic7", "ic8"):
        inst = random_instance(n, 1 + rng.below(3), seed)
        aux = random_instance(n, 1, rng.next64())
        return check_postulate(postulate, cfg, inst, mu_prime=aux.constraints)
    if postulate == "majority":
        return check_postulate(postulate, cfg, random_instance(n, 2, seed), reps=reps)
    inst = random_instance(n, 1 + rng.below(3), seed)
    other = _doubled_negation(inst) if postulate == "ic3" else None
    return check_postulate(postulate, cfg, inst, other=other)


def _doubled_negation(inst: Instance) -> Instance:
    """Syntactic variant with the same models everywhere (for ic3)."""
    return Instance(
        inst.universe,
        Not(Not(inst.constraints)),
        [Not(Not(f)) for f in inst.profile],
    )


def _cmd_check(args) -> int:
    spec = load_instance_file(args.instance) if args.instance else None
    kind, scheme = _resolve_config(args, spec and spec.distance, spec and spec.scheme)
    cfg = OperatorConfig(kind, scheme)
    postulate = args.postulate.lower()

    verdicts: list[Verdict] = []
    if spec is not None:
        inst = spec.instance()
        mu_prime = (
            parse_formula(args.mu_prime, spec.universe) if args.mu_prime else None
        )
        verdicts.append(
            check_postulate(
                postulate,
                cfg,
                inst,
                other=_doubled_negation(inst) if postulate == "ic3" else None,
                mu_prime=mu_prime,
                split=args.split,
                reps=args.reps,
            )
        )
    if args.suite:
        rng = Xoshiro256StarStar(args.seed)
        for _ in range(args.suite):
            verdicts.append(_suite_verdict(postulate, cfg, rng, args.reps))

    if not verdicts:
        raise InstanceFormatError("check needs --instance and/or --suite N")

    passed = sum(1 for v in verdicts if v.passed and not v.vacuous)
    vacuous = sum(1 for v in verdicts if v.vacuous)
    failed = sum(1 for v in verdicts if not v.passed)
    first_failure = next((v for v in verdicts if not v.passed), None)
    payload = {
        "postulate": postulate,
        "distance": str(kind),
        "scheme": scheme_to_text(scheme),
        "pass": passed,
        "vacuous": vacuous,
        "fail": failed,
        "first_failure": _witness_payload(first_failure.witness) if first_failure else None,
    }
    if args.json:
        _emit(_json_dump(payload), args.out)
    else:
        lines = [f"{postulate}: pass={passed} fail={failed} vacuous={vacuous}"]
        if first_failure is not None:
            lines.append("first failure: " + json.dumps(payload["first_failure"], sort_keys=True))
        _emit("\n".join(lines), args.out)
    return 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process: parse_args
    returns a fresh Namespace on every call."""
    parser = _Parser(prog="beliefmerge", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p = sub.add_parser("merge", help="merge an instance under a weight scheme")
    p.add_argument("--instance", required=True, help="instance JSON file")
    p.add_argument("--scheme", help="equal | expert[:A] | all | list:2,1;1,2")
    p.add_argument("--distance", help="drastic | hamming | table:FILE")
    p.add_argument("--json", action="store_true", help="stable machine output")
    p.add_argument("--out", help="write output to a file instead of stdout")
    p.set_defaults(fn=_cmd_merge)

    p = sub.add_parser("maxcons", help="maximal profile subsets consistent with mu")
    p.add_argument("--instance", required=True)
    p.add_argument("--disjunction", action="store_true", help="print the disjunction's models")
    p.add_argument("--json", action="store_true")
    p.add_argument("--out")
    p.set_defaults(fn=_cmd_maxcons)

    p = sub.add_parser("realize", help="build an instance from distance vectors")
    p.add_argument("--vectors", required=True, help="semicolon-separated vectors, e.g. 3,0;1,1;0,3")
    p.add_argument("--block-size", type=int, default=None, help="variables per block (default: max entry)")
    p.add_argument("--out", help="instance file to write (default: stdout)")
    p.set_defaults(fn=_cmd_realize)

    p = sub.add_parser("blocks", help="replicated six-variable block construction")
    p.add_argument("--k", type=int, required=True, help="number of blocks (1..3)")
    p.add_argument("--out", help="instance file to write (default: stdout)")
    p.set_defaults(fn=_cmd_blocks)

    p = sub.add_parser("check", help="evaluate a merging postulate")
    p.add_argument("--postulate", required=True, choices=POSTULATES)
    p.add_argument("--instance", help="check this instance")
    p.add_argument("--suite", type=int, default=0, help="also run N seeded random instances")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--scheme")
    p.add_argument("--distance")
    p.add_argument("--mu-prime", dest="mu_prime", help="extra constraint for ic7/ic8")
    p.add_argument("--split", type=int, help="profile split point for ic5/ic6")
    p.add_argument("--reps", type=int, default=2, help="repetitions for majority")
    p.add_argument("--json", action="store_true")
    p.add_argument("--out")
    p.set_defaults(fn=_cmd_check)

    p = sub.add_parser("plot", help="SVG of the two-formula distance points")
    p.add_argument("--instance", required=True)
    p.add_argument("--scheme")
    p.add_argument("--distance")
    p.add_argument("--out", required=True, help="SVG file to write")
    p.set_defaults(fn=_cmd_plot)

    p = sub.add_parser("closest-pairs", help="arbitration by closest model pairs")
    p.add_argument("--instance", required=True)
    p.add_argument("--json", action="store_true")
    p.add_argument("--out")
    p.set_defaults(fn=_cmd_closest_pairs)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.fn(args)
    except EnumerationLimitError as exc:
        print(f"beliefmerge: resource guard: {exc}", file=sys.stderr)
        return 3
    except (BeliefMergeError, ValueError) as exc:
        print(f"beliefmerge: {exc}", file=sys.stderr)
        return 2
    except RecursionError:
        print("beliefmerge: formula nested too deeply to process", file=sys.stderr)
        return 2
    except OSError as exc:  # an --out path that cannot be written
        print(f"beliefmerge: {exc}", file=sys.stderr)
        return 2
    except MemoryError:
        print("beliefmerge: resource guard: out of memory", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
