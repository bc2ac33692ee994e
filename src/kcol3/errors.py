"""Exception types shared across the package."""

__all__ = ["ParseError", "ConstructionError", "ExtensionError", "InvariantViolation"]


class ParseError(ValueError):
    """Malformed DIMACS input. Carries the 1-based line number."""

    def __init__(self, message: str, line: int):
        super().__init__(f"line {line}: {message}")
        self.line = line


class ConstructionError(ValueError):
    """Invalid gadget attachment (repeated boundary vertices, bad arity)."""


class ExtensionError(RuntimeError):
    """A gadget boundary coloring admits no proper internal extension.

    Raised by extend_coloring; callers treat this as a bug, not user error.
    """


class InvariantViolation(RuntimeError):
    """An internal consistency check failed; signals a construction bug."""

