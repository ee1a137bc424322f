"""Exact merging of propositional belief bases under unknown source reliability."""

from .distance import DistanceKind
from .formulae import (
    Formula,
    Model,
    Universe,
    formula_to_text,
    parse_formula,
)
from .geometry2d import visible_hull
from .instancegen import random_instance, realize, replicated_blocks
from .maxcons import maxcons, maxcons_disjunction
from .merge import (
    Instance,
    MergeResult,
    excluding_subset,
    merge_scheme,
    multi_source_merge,
    undominated,
)
from .postulates import (
    OperatorConfig,
    Verdict,
    check_arbitration_duplicate,
    check_disjunctive,
    check_majority,
    check_postulate,
    closest_pairs_merge,
)
from .weights import (
    AllPositiveWeights,
    EqualWeights,
    ExpertWeights,
    ExplicitWeights,
    expand_scheme,
)

__version__ = "0.1.0"

__all__ = [
    "AllPositiveWeights",
    "DistanceKind",
    "EqualWeights",
    "ExpertWeights",
    "ExplicitWeights",
    "Formula",
    "Instance",
    "MergeResult",
    "Model",
    "OperatorConfig",
    "Universe",
    "Verdict",
    "check_arbitration_duplicate",
    "check_disjunctive",
    "check_majority",
    "check_postulate",
    "closest_pairs_merge",
    "excluding_subset",
    "expand_scheme",
    "formula_to_text",
    "maxcons",
    "maxcons_disjunction",
    "merge_scheme",
    "multi_source_merge",
    "parse_formula",
    "random_instance",
    "realize",
    "replicated_blocks",
    "undominated",
    "visible_hull",
]
