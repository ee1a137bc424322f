"""Instance files: JSON with formulae as grammar strings.

Schema (profile and sources are mutually exclusive):

    {
      "variables": ["a", "b", "c"],
      "constraints": "a | b",
      "profile": ["a & !b", "c -> a"],
      "sources": [["a", "b"], ["!a"]],
      "distance": "hamming" | "drastic"
                  | {"table": [[0, 0], [1, 1], [2, 2]], "default": 5},
      "scheme": "equal" | "expert" | "expert:4" | "all" | "list:2,1;1,2"
    }

distance and scheme are optional defaults that the command line can
override.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from .distance import DistanceKind
from .errors import DistanceTableError, InstanceFormatError
from .formulae import Formula, Universe, formula_to_text, parse_formula
from .merge import Instance
from .weights import WeightScheme, parse_scheme, scheme_to_text


@dataclass
class InstanceFile:
    universe: Universe
    constraints: Formula
    profile: tuple[Formula, ...] | None
    sources: tuple[tuple[Formula, ...], ...] | None
    distance: DistanceKind | None
    scheme: WeightScheme | None

    def instance(self) -> Instance:
        """The file's instance; a sources file has none, since only merge
        reads sources (one summed coordinate per source)."""
        if self.profile is None:
            raise InstanceFormatError(
                "this instance file has sources, not a profile: only merge reads sources"
            )
        return Instance(self.universe, self.constraints, self.profile)


def parse_distance_spec(spec) -> DistanceKind:
    if spec == "hamming":
        return DistanceKind.hamming()
    if spec == "drastic":
        return DistanceKind.drastic()
    if isinstance(spec, dict) and "table" in spec:
        try:
            return DistanceKind.from_table(spec["table"], spec.get("default"))
        except (DistanceTableError, TypeError, ValueError) as exc:
            raise InstanceFormatError(f"bad distance table: {exc}") from exc
    raise InstanceFormatError(f"unrecognized distance spec {spec!r}")


def distance_spec(kind: DistanceKind):
    if kind.name != "table":
        return kind.name
    spec = {"table": [list(p) for p in kind.pairs]}
    if kind.default is not None:
        spec["default"] = kind.default
    return spec


def read_json(path: str):
    """The JSON value in the file at path; every failure to read it is an
    InstanceFormatError naming the file."""
    try:
        with open(path, encoding="utf-8") as handle:
            return json.load(handle)
    except OSError as exc:
        raise InstanceFormatError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise InstanceFormatError(f"{path} is not valid JSON: {exc}") from exc
    except RecursionError:
        raise InstanceFormatError(f"{path}: JSON nested too deeply to read") from None


def load_instance_file(path: str) -> InstanceFile:
    return _from_dict(read_json(path), path)


def _from_dict(raw, path: str) -> InstanceFile:
    if not isinstance(raw, dict):
        raise InstanceFormatError(f"{path}: top level must be an object")
    try:
        variables = raw["variables"]
        constraints_text = raw["constraints"]
    except KeyError as exc:
        raise InstanceFormatError(f"{path}: missing field {exc.args[0]!r}") from exc
    if not isinstance(variables, list) or not all(isinstance(v, str) for v in variables):
        raise InstanceFormatError(f"{path}: variables must be a list of names")
    try:
        universe = Universe(variables)
    except ValueError as exc:
        raise InstanceFormatError(f"{path}: {exc}") from exc

    def formula(text, where: str) -> Formula:
        if not isinstance(text, str):
            raise InstanceFormatError(f"{path}: {where} must be a formula string")
        return parse_formula(text, universe)

    mu = formula(constraints_text, "constraints")

    profile_raw = raw.get("profile")
    sources_raw = raw.get("sources")
    if (profile_raw is None) == (sources_raw is None):
        raise InstanceFormatError(f"{path}: exactly one of profile/sources is required")

    profile = sources = None
    if profile_raw is not None:
        if not isinstance(profile_raw, list) or not profile_raw:
            raise InstanceFormatError(f"{path}: profile must be a non-empty list")
        profile = tuple(
            formula(t, f"profile[{i}]") for i, t in enumerate(profile_raw)
        )
    else:
        if not isinstance(sources_raw, list) or not sources_raw:
            raise InstanceFormatError(f"{path}: sources must be a non-empty list")
        sources = []
        for i, group in enumerate(sources_raw):
            if not isinstance(group, list) or not group:
                raise InstanceFormatError(f"{path}: sources[{i}] must be a non-empty list")
            sources.append(
                tuple(formula(t, f"sources[{i}][{j}]") for j, t in enumerate(group))
            )
        sources = tuple(sources)

    distance = None
    if "distance" in raw:
        distance = parse_distance_spec(raw["distance"])
    scheme = None
    if "scheme" in raw:
        if not isinstance(raw["scheme"], str):
            raise InstanceFormatError(f"{path}: scheme must be a string")
        try:
            scheme = parse_scheme(raw["scheme"])
        except (ValueError, TypeError) as exc:
            raise InstanceFormatError(f"{path}: bad scheme: {exc}") from exc

    return InstanceFile(universe, mu, profile, sources, distance, scheme)


def save_instance_file(
    path: str,
    inst: Instance,
    distance: DistanceKind | None = None,
    scheme: WeightScheme | None = None,
) -> None:
    payload = instance_payload(inst, distance, scheme)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")


def instance_payload(
    inst: Instance,
    distance: DistanceKind | None = None,
    scheme: WeightScheme | None = None,
) -> dict:
    payload = {
        "variables": list(inst.universe.variables),
        "constraints": formula_to_text(inst.constraints),
        "profile": [formula_to_text(f) for f in inst.profile],
    }
    if distance is not None:
        payload["distance"] = distance_spec(distance)
    if scheme is not None:
        payload["scheme"] = scheme_to_text(scheme)
    return payload
