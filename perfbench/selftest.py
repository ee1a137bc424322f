"""Show that each output check rejects a corrupted result.

    python3 perfbench/selftest.py [--seed N]

For every workload one clean result must pass its check, and each
corruption of it must be rejected:

* merge workloads: a selected model dropped, an excluded model added
  (with a plausible witness), one engine distance off by one;
* suite_small: a verdict flipped, a selected model dropped from a
  maxcons merge.

Prints one line per case and exits 1 if any check accepts a corruption
or rejects a clean result.
"""

import argparse
import copy
import json
import os
import random
import shutil
import sys

import run


def literals(x: int, names) -> list[str]:
    n = len(names)
    return [v if (x >> (n - 1 - j)) & 1 else "!" + v for j, v in enumerate(names)]


def merge_cases(workloads, oracle, workload, item: int):
    """(label, errors) for the clean result and each corruption."""
    spec = workload.instance_spec(item)
    ref = oracle.Reference(spec["variables"], spec["constraints"], spec["profile"], spec["distance"])
    payload = json.loads(workload.run_op(item))
    engine = workload.bm.instancefile.load_instance_file(workload.paths[item])
    vectors = list(engine.instance().vectors(engine.distance))
    sample = [int(x) for x in ref.mu_worlds[:8]]

    def errors(p, v):
        return workloads.check_merge_output(spec, ref, p) + workloads.check_vectors(ref, v, sample)

    yield "clean result", errors(payload, vectors)

    dropped = copy.deepcopy(payload)
    del dropped["models"][0], dropped["witnesses"][0]
    yield "selected model dropped", errors(dropped, vectors)

    chosen = {oracle.literals_to_bits(m, spec["variables"]) for m in payload["models"]}
    outside = next(int(x) for x in ref.mu_worlds if int(x) not in chosen)
    added = copy.deepcopy(payload)
    added["models"].append(literals(outside, spec["variables"]))
    added["witnesses"].append(list(payload["witnesses"][0]))
    yield "excluded model added", errors(added, vectors)

    k = len(vectors) // 2
    shifted = vectors[:k] + [tuple(vectors[k][:-1]) + (vectors[k][-1] + 1,)] + vectors[k + 1:]
    yield "one distance off by one", errors(payload, shifted)


def suite_cases(workload):
    picks = [("ic8", "hamming", "all"), ("ic0", "table", "list"), ("maxcons", "drastic", "all")]
    records = []
    for combo in picks * 3:
        records.append(workload.record(combo, workload.run_op(combo)))
    yield "clean result", workload.check(records)

    flipped = list(records)
    item, (combo, kept, passed, vacuous, sets) = flipped[0]
    flipped[0] = (item, (combo, kept, not passed, vacuous, sets))
    yield "ic8 verdict flipped", workload.check(flipped)

    dropped = list(records)
    at = next(k for k, (_, r) in enumerate(records) if r[0][0] == "maxcons" and r[4][0])
    item, (combo, kept, passed, vacuous, (merged, other)) = dropped[at]
    smaller = frozenset(sorted(merged, key=lambda m: m.bits)[1:])
    dropped[at] = (item, (combo, kept, passed, vacuous, (smaller, other)))
    yield "maxcons merge with a model dropped", workload.check(dropped)


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--seed", type=int, default=7)
    args = p.parse_args()
    bm = run.load_engine()
    import oracle
    import workloads

    ok = True
    base = os.path.join(run.HERE, ".work", f"selftest-{os.getpid()}")
    try:
        for name, cls in workloads.WORKLOADS.items():
            workdir = os.path.join(base, name)
            os.makedirs(workdir)
            workload = cls(bm, args.seed, workdir)
            workload.setup()
            if name == "suite_small":
                workload.rng = random.Random(f"selftest/{args.seed}")
                cases = suite_cases(workload)
            else:
                cases = merge_cases(workloads, oracle, workload, 0)
            for label, errors in cases:
                clean = label == "clean result"
                good = not errors if clean else bool(errors)
                ok &= good
                verdict = ("accepted" if not errors else "rejected") + ("" if good else "  <-- WRONG")
                detail = f": {errors[0]}" if errors else ""
                print(f"{name:12s} {label:36s} {verdict}{detail}")
    finally:
        shutil.rmtree(base, ignore_errors=True)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
