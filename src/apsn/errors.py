"""Error hierarchy shared across the package.

Every domain error carries a short machine-readable ``code`` so the CLI can
emit structured JSON errors with distinct code strings.
"""
from __future__ import annotations


class ApsnError(Exception):
    """Base class for all domain errors."""

    code = "error"

    def payload(self) -> dict:
        return {"error": self.code, "message": str(self)}


class SizeGuardError(ApsnError):
    """A computation was requested above its documented size cap."""

    code = "size_guard"


class ParameterError(ApsnError):
    """A measure or game parameter is outside its valid range."""

    code = "parameter"


class ConvergenceError(ApsnError):
    """An iterative numeric method failed to converge within its cap."""

    code = "convergence"


class SpecValidationError(ApsnError):
    """A game specification is internally inconsistent."""

    code = "spec_validation"


class ContractError(ApsnError):
    """An operation was called outside its documented contract."""

    code = "contract"


class SingularMatrixError(ApsnError):
    """Exact linear solve hit a singular system."""

    code = "singular_matrix"


class GraphFormatError(ApsnError):
    """Base class for graph parsing errors."""

    code = "parse"


class MalformedLineError(GraphFormatError):
    code = "parse_malformed_line"


class VertexRangeError(GraphFormatError):
    code = "parse_vertex_range"


class DuplicateEdgeError(GraphFormatError):
    code = "parse_duplicate_edge"


class SelfLoopError(GraphFormatError):
    code = "parse_self_loop"


class ProfileError(ApsnError):
    """An agent profile file is malformed."""

    code = "profile"


class MeasureGrammarError(ApsnError):
    """A measure specification string does not parse."""

    code = "measure_grammar"
