"""Exception types shared across the package."""


class SpikeflowError(Exception):
    """Base class for all package-specific errors."""


class ParseError(SpikeflowError):
    """Malformed input file (netlist, DIMACS, TNFR). Carries a line number."""

    def __init__(self, message: str, line_no: int | None = None):
        self.line_no = line_no
        if line_no is not None:
            message = f"line {line_no}: {message}"
        super().__init__(message)


class UnknownNeuronError(SpikeflowError):
    """An operation referenced a neuron id that does not exist."""


class UndecidedError(SpikeflowError):
    """A decider consultation hit its time limit with neither accept nor reject."""


class WorkingMemoryExceeded(SpikeflowError):
    """The controller wrote a working-memory word outside its fixed frame."""


class GuardExceeded(SpikeflowError):
    """An instance is too large for an intentionally desk-scale construction."""


class SearchBudgetExceeded(SpikeflowError):
    """The exact feasibility search ran out of its node-expansion budget."""


class ConstructionBugError(SpikeflowError):
    """An internal consistency assertion about an oracle construction failed."""
