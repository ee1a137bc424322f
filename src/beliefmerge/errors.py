"""Exception hierarchy shared across the package."""


class BeliefMergeError(Exception):
    """Base class for all domain errors."""


class FormulaSyntaxError(BeliefMergeError):
    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class UnknownVariableError(BeliefMergeError):
    def __init__(self, variable: str):
        super().__init__(f"unknown variable {variable!r}: the universe is closed")
        self.variable = variable


class UniverseMismatchError(BeliefMergeError):
    """Two values built over different universes were combined."""


class EnumerationLimitError(BeliefMergeError):
    """Universe too large for exhaustive model enumeration."""


class UnsatisfiableFormulaError(BeliefMergeError):
    """Distance to an unsatisfiable formula is undefined (infinite)."""


class DistanceTableError(BeliefMergeError):
    """Remap table is not total on the required range or breaks d(I,I)=0."""


class InconsistentConstraintsError(BeliefMergeError):
    """The integrity constraints admit no model."""


class InconsistentProfileError(BeliefMergeError):
    def __init__(self, index: int):
        super().__init__(f"profile entry {index + 1} is unsatisfiable")
        self.index = index


class GenerationError(BeliefMergeError):
    """Instance generation failed (retry exhaustion or self-check mismatch)."""


class InstanceFormatError(BeliefMergeError):
    """An instance file does not conform to the documented schema."""
