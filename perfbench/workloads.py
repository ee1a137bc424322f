"""The four workloads: set-up, one operation, and the output checks.

kernel_wide, argmin_many and lp_front run one in-process
``beliefmerge merge --instance FILE --json`` per operation; suite_small
runs one postulate or maxcons verdict on a random instance generated
inside the operation. Checks run after the timed loop and compare
against perfbench.oracle, never against the engine's own results.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
import statistics
import tracemalloc

import inputs
import oracle


def heap_peak_mb(inst, kind) -> float:
    """Peak traced allocation (MB) while inst computes its distance vectors."""
    tracemalloc.start()
    try:
        inst.vectors(kind)
        return tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


def median_low(values):
    return statistics.median_low(values) if values else 0


class Workload:
    name = ""
    root_span = ""  # span name of one whole operation in the traced run

    def __init__(self, bm, seed: int, workdir: str):
        self.bm = bm
        self.seed = seed
        self.workdir = workdir

    def setup(self) -> None:
        raise NotImplementedError

    def round(self) -> list:
        """The operations of one round, in order."""
        raise NotImplementedError

    def run_op(self, item):
        """One operation; returns what the checks need, raises on failure."""
        raise NotImplementedError

    def record(self, item, result):
        """What the loop keeps of one operation (called outside its timing)."""
        return item, result

    def check(self, records) -> list[str]:
        """Problems found in the outputs of the (item, result) records."""
        raise NotImplementedError

    def counters(self, records) -> dict:
        raise NotImplementedError


# --- the merge command -------------------------------------------------------


def expand_finite(scheme: str, dist: oracle.Dist, n: int, m: int) -> list[tuple[int, ...]]:
    """Integer weight vectors of a finite scheme written as in instance files.

    The default expert weight follows the documented rule: large enough to
    overrule all other sources combined (m+1 drastic, n*m+1 Hamming,
    largest table value * m + 1 otherwise).
    """
    if scheme == "equal":
        return [(1,) * m]
    if scheme.startswith("expert"):
        if ":" in scheme:
            a = int(scheme.split(":", 1)[1])
        elif dist.name == "drastic":
            a = m + 1
        elif dist.name == "hamming":
            a = n * m + 1
        else:
            a = max(dist.values) * m + 1
        return [tuple(a if j == i else 1 for j in range(m)) for i in range(m)]
    if scheme.startswith("list:"):
        return [
            tuple(int(x) for x in part.split(","))
            for part in scheme.split(":", 1)[1].split(";")
        ]
    raise ValueError(f"not a finite scheme: {scheme}")


def check_merge_output(spec: dict, ref: oracle.Reference, payload: dict) -> list[str]:
    """Check one merge --json payload against the reference vectors."""
    errors = []
    names = spec["variables"]
    try:
        chosen = [oracle.literals_to_bits(lits, names) for lits in payload["models"]]
    except (KeyError, ValueError) as exc:
        return [f"unreadable models: {exc}"]
    witnesses = payload.get("witnesses", [])
    if len(witnesses) != len(chosen) or len(set(chosen)) != len(chosen):
        return ["models and witnesses do not pair up"]
    vec = ref.vector_of
    stray = [x for x in chosen if x not in vec]
    if stray:
        return [f"{len(stray)} selected worlds violate the constraints"]
    distinct = sorted(set(ref.vectors))
    scheme = spec["scheme"]
    if scheme == "all":
        selected = set(chosen)
        for x, w in zip(chosen, witnesses):
            if w is None or not oracle.certifies_selection(tuple(w), vec[x], distinct):
                errors.append(f"world {x}: witness {w} does not certify {vec[x]}")
                break
        front = oracle.pareto_front(ref.vectors)
        certified: dict[tuple, bool] = {}
        for x, d in vec.items():
            if x in selected:
                continue
            if d not in certified:
                others = [e for e in front if e != d]
                lam = oracle.exclusion_certificate(d, others)
                certified[d] = lam is not None and oracle.certifies_exclusion(d, others, lam)
            if not certified[d]:
                errors.append(f"world {x} with vector {d} left out without an exclusion certificate")
                break
        return errors
    weights = expand_finite(scheme, ref.dist, ref.n, ref.m)
    worlds = [int(w) for w in ref.mu_worlds]
    argmins = [oracle.integer_argmin(worlds, ref.vectors, w) for w in weights]
    expected = set().union(*argmins)
    if set(chosen) != expected:
        errors.append(
            f"selection differs from the integer argmin: {len(set(chosen) - expected)} extra, "
            f"{len(expected - set(chosen))} missing"
        )
    for x, w in zip(chosen, witnesses):
        if w is None or tuple(w) not in weights or x not in argmins[weights.index(tuple(w))]:
            errors.append(f"world {x}: witness {w} is not a scheme vector selecting it")
            break
    return errors


def check_vectors(ref: oracle.Reference, engine_vectors, sample: list[int]) -> list[str]:
    """Engine distance vectors against the sweep, and a sample against brute force."""
    if list(engine_vectors) != ref.vectors:
        bad = sum(1 for a, b in zip(engine_vectors, ref.vectors) if tuple(a) != b)
        return [f"{bad} engine distance vectors differ from the reference"]
    brute = ref.sample_brute_force(sample)
    for x, want in brute.items():
        if ref.vector_of[x] != want:
            return [f"world {x}: sweep gives {ref.vector_of[x]}, brute force {want}"]
    return []


class MergeWorkload(Workload):
    """One ``merge --instance FILE --json`` call per operation."""

    root_span = "cli.output"  # its self time is the rest of the cli.main call
    sample_worlds = 16
    warm_up_item = 0  # a cheap instance; warming up loads every code path

    def specs(self) -> list[dict]:
        raise NotImplementedError

    def write_inputs(self) -> list[str]:
        paths = []
        for i, spec in enumerate(self.specs()):
            path = os.path.join(self.workdir, f"{self.name}-{i}.json")
            with open(path, "w", encoding="utf-8") as handle:
                json.dump(spec, handle, indent=2, sort_keys=True)
            paths.append(path)
        return paths

    def setup(self) -> None:
        self.paths = self.write_inputs()
        self.first_output: dict[int, str] = {}
        self.run_op(self.warm_up_item)

    def record(self, item, text):
        """The first output of each instance; later ones only as equal or not."""
        first = self.first_output.setdefault(item, text)
        return item, first is text or first == text

    def round(self) -> list:
        return list(range(len(self.paths)))

    def run_op(self, item):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = self.bm.cli.main(["merge", "--instance", self.paths[item], "--json"])
        if code != 0:
            raise RuntimeError(f"merge exited {code}")
        return out.getvalue()

    def instance_spec(self, item) -> dict:
        with open(self.paths[item], encoding="utf-8") as handle:
            return json.load(handle)

    def references(self, items):
        refs = {}
        for i in sorted(set(items)):
            spec = self.instance_spec(i)
            refs[i] = (spec, oracle.Reference(
                spec["variables"], spec["constraints"], spec["profile"], spec["distance"]
            ))
        return refs

    def check(self, records) -> list[str]:
        errors = [
            f"{self.name}-{item}: output changed between runs"
            for item, same in records if not same
        ]
        first = self.first_output
        for i, (spec, ref) in self.references(first).items():
            where = f"{self.name}-{i}"
            engine = self.bm.instancefile.load_instance_file(self.paths[i])
            vectors = engine.instance().vectors(engine.distance)
            rng = random.Random(f"sample/{self.seed}/{i}")
            worlds = [int(x) for x in ref.mu_worlds]
            sample = rng.sample(worlds, min(self.sample_worlds, len(worlds)))
            errors += [f"{where}: {e}" for e in check_vectors(ref, vectors, sample)]
            try:
                payload = json.loads(first[i])
            except json.JSONDecodeError as exc:
                errors.append(f"{where}: output is not JSON: {exc}")
                continue
            errors += [f"{where}: {e}" for e in check_merge_output(spec, ref, payload)]
        return errors

    def counters(self, records) -> dict:
        outputs = self.first_output
        rows = []
        for i, (spec, ref) in self.references(outputs).items():
            mu = len(ref.mu_worlds)
            nodes = ref.ast_nodes()
            row = {
                "formulae.ast_nodes": nodes,
                "formulae.table_cells": nodes << ref.n,
                "formulae.mu_models": mu,
                "formulae.profile_models": ref.profile_models(),
                "distance.pair_evals": mu * ref.profile_models(),
                "merge.selected": len(json.loads(outputs[i])["models"]),
                "cli.output_bytes": len(outputs[i].encode("utf-8")),
            }
            if spec["scheme"] == "all":
                distinct = set(ref.vectors)
                front = oracle.pareto_front(ref.vectors)
                excluded = sum(
                    1 for d in distinct
                    if oracle.exclusion_certificate(d, [e for e in front if e != d]) is not None
                )
                row.update({
                    "lp.questions": len(distinct),
                    "lp.front_size": len(front),
                    "lp.excluded": excluded,
                })
            else:
                w = len(expand_finite(spec["scheme"], ref.dist, ref.n, ref.m))
                row.update({"merge.weight_vectors": w, "merge.score_terms": w * mu * ref.m})
            rows.append(row)
        keys = sorted({k for row in rows for k in row})
        return {k: median_low([row[k] for row in rows if k in row]) for k in keys}

    def memory_probe(self, records) -> float:
        """Median peak heap growth (MB) of one distance-vector computation."""
        peaks = []
        for i in sorted(self.first_output):
            spec = self.bm.instancefile.load_instance_file(self.paths[i])
            peaks.append(heap_peak_mb(spec.instance(), spec.distance))
        return statistics.median(peaks)


class KernelWide(MergeWorkload):
    name = "kernel_wide"
    warm_up_item = 1

    def specs(self):
        return [inputs.kernel_instance(self.seed, s) for s in range(len(inputs.KERNEL_SLOTS))]


class ArgminMany(MergeWorkload):
    name = "argmin_many"

    def specs(self):
        return [inputs.argmin_instance(self.seed, s) for s in range(len(inputs.ARGMIN_SLOTS))]


class LpFront(MergeWorkload):
    name = "lp_front"
    warm_up_item = 1

    def write_inputs(self) -> list[str]:
        bm = self.bm
        paths = []
        for i in range(len(inputs.LP_SLOTS) * inputs.LP_COPIES):
            vectors, block = inputs.front_vectors(self.seed, i)
            inst = bm.realize(vectors, block)
            path = os.path.join(self.workdir, f"{self.name}-{i}.json")
            bm.instancefile.save_instance_file(
                path, inst, bm.DistanceKind.hamming(), bm.AllPositiveWeights()
            )
            paths.append(path)
        return paths


# --- the postulate suite ----------------------------------------------------


class SuiteSmall(Workload):
    """One postulate or maxcons verdict per operation on a fresh instance."""

    name = "suite_small"
    root_span = "suite.op"
    verify_ops = 300  # operations whose verdicts are recomputed independently

    def setup(self) -> None:
        bm = self.bm
        self.kinds = {
            k: bm.instancefile.parse_distance_spec(v)
            for k, v in inputs.SUITE_DISTANCES.items()
        }
        self.rotation = inputs.suite_rotation()
        self.rng = random.Random(f"suite_small/warm-up/{self.seed}")
        for combo in self.rotation[::7]:
            self.run_op(combo)
        self.rng = random.Random(f"suite_small/{self.seed}")
        self.kept = 0

    def round(self) -> list:
        return self.rotation

    def _scheme(self, scheme: str, m: int, symmetric: bool = False):
        bm = self.bm
        if scheme == "all":
            return bm.AllPositiveWeights()
        if scheme == "equal":
            return bm.EqualWeights()
        if scheme == "expert":
            return bm.ExpertWeights()
        if symmetric:
            a, b = self.rng.sample(range(1, 6), 2)
            return bm.ExplicitWeights([[a, b], [b, a]])
        return bm.ExplicitWeights(
            [[self.rng.randint(1, 4) for _ in range(m)] for _ in range(2)]
        )

    def run_op(self, combo):
        """Returns (combo, inputs, passed, vacuous, sets)."""
        bm = self.bm
        check, dist, scheme_name = combo
        rng = self.rng
        kind = self.kinds[dist]
        n = 2 + rng.randrange(3)
        seed = rng.getrandbits(64)
        extra = {}
        if check in ("maxcons", "undominated"):
            inst = bm.random_instance(n, 1 + rng.randrange(3), seed)
            merged = bm.merge_scheme(inst, bm.AllPositiveWeights(), kind).models
            other = (bm.maxcons_disjunction(inst) if check == "maxcons"
                     else bm.undominated(inst, kind))
            extra["scheme"] = bm.AllPositiveWeights()
            return combo, (inst, extra), merged == other, False, (merged, other)
        if check == "ic4":
            base = bm.random_instance(n, 2, seed)
            f1, f2 = base.profile
            inst = bm.Instance(base.universe, bm.formulae.Or(f1, f2), [f1, f2])
            cfg = bm.OperatorConfig(kind, self._scheme(scheme_name, 2, symmetric=True))
            verdict = bm.check_postulate("ic4", cfg, inst)
        elif check == "majority":
            base = bm.random_instance(n, 2, seed)
            cfg = bm.OperatorConfig(kind, self._scheme(scheme_name, 3))
            verdict = bm.check_majority(cfg, base.universe, base.profile[0], base.profile[1], 2)
            inst = base
        else:
            m = 2 + rng.randrange(2) if check in ("ic5", "ic6") else 1 + rng.randrange(3)
            inst = bm.random_instance(n, m, seed)
            cfg = bm.OperatorConfig(kind, self._scheme(scheme_name, m))
            if check in ("ic5", "ic6"):
                split = 1 + rng.randrange(m - 1)
                left = self._scheme(scheme_name, split)
                right = self._scheme(scheme_name, m - split)
                extra = {"split": split, "left": left, "right": right}
                verdict = bm.check_postulate(
                    check, cfg, inst, split=split, scheme_left=left, scheme_right=right
                )
            elif check in ("ic7", "ic8"):
                aux = bm.random_instance(n, 1, rng.getrandbits(64))
                extra = {"mu_prime": aux.constraints}
                verdict = bm.check_postulate(check, cfg, inst, mu_prime=aux.constraints)
            elif check == "ic3":
                not_ = bm.formulae.Not
                other = bm.Instance(
                    inst.universe, not_(not_(inst.constraints)),
                    [not_(not_(f)) for f in inst.profile],
                )
                verdict = bm.check_postulate("ic3", cfg, inst, other=other)
            elif check == "disjunctive":
                verdict = bm.check_disjunctive(cfg, inst)
            elif check == "arbitration":
                verdict = bm.check_arbitration_duplicate(cfg, inst)
            else:
                verdict = bm.check_postulate(check, cfg, inst)
        extra["scheme"] = cfg.scheme
        return combo, (inst, extra), verdict.passed, verdict.vacuous, None

    # independent recomputation --------------------------------------------

    def _reference(self, universe, mu, profile, dist):
        text = self.bm.formula_to_text
        return oracle.Reference(
            universe.variables, text(mu), [text(f) for f in profile],
            inputs.SUITE_DISTANCES[dist],
        )

    def _weights(self, scheme, dist: oracle.Dist, n: int, m: int):
        bm = self.bm
        if isinstance(scheme, bm.AllPositiveWeights):
            return None
        if isinstance(scheme, bm.ExplicitWeights):
            return [tuple(int(x) for x in v) for v in scheme.vectors]
        return expand_finite(bm.weights.scheme_to_text(scheme), dist, n, m)

    def _merge(self, ref: oracle.Reference, weights) -> set[int]:
        worlds = [int(x) for x in ref.mu_worlds]
        if weights is None:
            return oracle.all_weights_merge(worlds, ref.vectors)
        return set().union(*(oracle.integer_argmin(worlds, ref.vectors, w) for w in weights))

    def recompute(self, combo, inst, extra) -> tuple[bool, bool, set[int]]:
        """(passed, vacuous, merged worlds) of one verdict, from first principles."""
        check, dist, _ = combo
        bm = self.bm
        u, mu, profile = inst.universe, inst.constraints, list(inst.profile)
        ref = self._reference(u, mu, profile, dist)
        n, m = ref.n, ref.m
        if check == "majority":
            ref = self._reference(u, bm.formulae.TRUE, [profile[0]] + [profile[1]] * 2, dist)
            merged = self._merge(ref, self._weights(extra["scheme"], ref.dist, n, 3))
            f2 = ref.tables[1]
            return all(f2[x] for x in merged), False, merged
        if check in ("ic5", "ic6"):
            split = extra["split"]
            left = self._reference(u, mu, profile[:split], dist)
            right = self._reference(u, mu, profile[split:], dist)
            wl = self._weights(extra["left"], ref.dist, n, split)
            wr = self._weights(extra["right"], ref.dist, n, m - split)
            both = self._merge(left, wl) & self._merge(right, wr)
            product = None if wl is None else [a + b for a in wl for b in wr]
            combined = self._merge(ref, product)
            if check == "ic5":
                return both <= combined, False, combined
            if not both:
                return True, True, combined
            return combined <= both, False, combined
        weights = self._weights(extra["scheme"], ref.dist, n, m)
        merged = self._merge(ref, weights)
        if check in ("maxcons", "undominated"):
            if check == "maxcons":
                union = oracle.maxcons_disjunction(ref.mu_table, ref.tables)
                other = {int(x) for x in union.nonzero()[0]}
            else:
                front = set(oracle.pareto_front(ref.vectors))
                other = {x for x, d in ref.vector_of.items() if d in front}
            return merged == other, False, merged
        if check == "ic0":
            return all(ref.mu_table[x] for x in merged), False, merged
        if check == "ic1":
            return bool(merged), False, merged
        if check == "ic2":
            conj = ref.mu_table.copy()
            for t in ref.tables:
                conj &= t
            if not conj.any():
                return True, True, merged
            return merged == {int(x) for x in conj.nonzero()[0]}, False, merged
        if check == "ic3":
            return True, False, merged  # the variant has the same models everywhere
        if check == "ic4":
            f1, f2 = ref.tables
            return any(f1[x] for x in merged) == any(f2[x] for x in merged), False, merged
        if check in ("ic7", "ic8"):
            prime = oracle.truth_table(
                oracle.parse(bm.formula_to_text(extra["mu_prime"]), ref.variables), n
            )
            lhs = {x for x in merged if prime[x]}
            if not (ref.mu_table & prime).any():
                return not lhs, not lhs, merged
            if check == "ic8" and not lhs:
                return True, True, merged
            narrowed = self._reference(u, bm.formulae.And(mu, extra["mu_prime"]), profile, dist)
            rhs = self._merge(narrowed, weights)
            return (lhs <= rhs if check == "ic7" else rhs <= merged), False, merged
        if check == "disjunctive":
            if any(not (ref.mu_table & t).any() for t in ref.tables):
                return True, True, merged
            return all(any(t[x] for t in ref.tables) for x in merged), False, merged
        if check == "arbitration":
            doubled = self._reference(u, mu, profile + [profile[-1]], dist)
            return merged == self._merge(doubled, None), False, merged
        raise ValueError(f"unknown check {check}")

    def check(self, records) -> list[str]:
        errors = []
        for k, (_, (combo, kept, passed, vacuous, sets)) in enumerate(records):
            if inputs.must_pass(*combo) and not passed:
                errors.append(f"op {k} {combo}: verdict fails where the property must hold")
            if kept is None:
                continue
            inst, extra = kept
            want_pass, want_vacuous, merged = self.recompute(combo, inst, extra)
            if (passed, vacuous) != (want_pass, want_vacuous):
                errors.append(
                    f"op {k} {combo}: verdict {(passed, vacuous)}, recomputed {(want_pass, want_vacuous)}"
                )
            if sets is not None:
                got = [{m.bits for m in s} for s in sets]
                if got[0] != merged or got[1] != merged:
                    errors.append(f"op {k} {combo}: merged models differ from the reference")
        return errors

    def counters(self, records) -> dict:
        rows = []
        for _, (combo, (inst, extra), *_rest) in records[: self.verify_ops]:
            ref = self._reference(inst.universe, inst.constraints, list(inst.profile), combo[1])
            mu = len(ref.mu_worlds)
            nodes = ref.ast_nodes()
            row = {
                "formulae.ast_nodes": nodes,
                "formulae.table_cells": nodes << ref.n,
                "formulae.mu_models": mu,
                "formulae.profile_models": ref.profile_models(),
                "distance.pair_evals": mu * ref.profile_models(),
            }
            if combo[0] not in ("majority", "ic5", "ic6"):
                weights = self._weights(extra["scheme"], ref.dist, ref.n, ref.m)
                row["merge.selected"] = len(self._merge(ref, weights))
                if weights is None:
                    distinct = set(ref.vectors)
                    front = oracle.pareto_front(ref.vectors)
                    row["lp.questions"] = len(distinct)
                    row["lp.front_size"] = len(front)
                    kept = {ref.vector_of[x] for x in self._merge(ref, None)}
                    row["lp.excluded"] = len(distinct) - len(kept)
                else:
                    row["merge.weight_vectors"] = len(weights)
                    row["merge.score_terms"] = len(weights) * mu * ref.m
            rows.append(row)
        keys = sorted({k for row in rows for k in row})
        return {k: median_low([row[k] for row in rows if k in row]) for k in keys}

    def record(self, item, result):
        """Inputs are kept only for the operations that are recomputed."""
        self.kept += 1
        if self.kept > self.verify_ops:
            combo, _, passed, vacuous, _ = result
            return item, (combo, None, passed, vacuous, None)
        return item, result

    def memory_probe(self, records) -> float:
        peaks = []
        for _, (combo, (inst, _), *_rest) in records[:20]:
            fresh = self.bm.Instance(inst.universe, inst.constraints, inst.profile)
            peaks.append(heap_peak_mb(fresh, self.kinds[combo[1]]))
        return statistics.median(peaks)


WORKLOADS = {
    w.name: w for w in (KernelWide, ArgminMany, LpFront, SuiteSmall)
}
