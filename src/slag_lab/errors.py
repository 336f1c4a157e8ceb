"""Exception types shared across the package."""


class SlagLabError(Exception):
    """Base class for all package errors."""


class GridError(SlagLabError, ValueError):
    """Invalid grid geometry or a domain too small for the requested stencil."""


class FieldError(SlagLabError, ValueError):
    """Invalid field data (non-finite masked values, disconnected mask, ...)."""

    def __init__(self, message, node=None):
        super().__init__(message if node is None else f"{message} at node {node}")
        self.node = node


class ConvexityError(SlagLabError, ValueError):
    """A convexity precondition failed; carries the worst offending node."""

    def __init__(self, message, node=None, modulus=None):
        detail = message
        if node is not None:
            detail += f" (worst node {node})"
        if modulus is not None:
            detail += f" (measured modulus {modulus:.6g})"
        super().__init__(detail)
        self.node = node
        self.modulus = modulus


class SlopeGridError(SlagLabError, ValueError):
    """Degenerate or unusable slope-grid sizing."""


class RotationError(SlagLabError, ValueError):
    """Rotation precondition failure (semiconvexity margin, tangent pole, ...)."""

    def __init__(self, message, modulus=None):
        if modulus is not None:
            message += f" (measured modulus {modulus:.6g})"
        super().__init__(message)
        self.modulus = modulus


class PhaseError(SlagLabError, ValueError):
    """Phase outside the feasible range |theta| < dim * pi / 2."""


class FileFormatError(SlagLabError, ValueError):
    """Malformed PF1 or CSV input; carries the byte offset when known."""

    def __init__(self, message, offset=None):
        if offset is not None:
            message += f" (byte offset {offset})"
        super().__init__(message)
        self.offset = offset


class LinearSolveError(SlagLabError, ArithmeticError):
    """A sparse linear system of the Dirichlet solver has no computed solution."""
