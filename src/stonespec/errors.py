"""Shared exception types."""


class LatticeError(ValueError):
    """Order or lattice structure is broken: cycle, non-unique bound, missing
    meet/join, or inconsistent orthocomplement data."""


class SchemaError(ValueError):
    """An input file does not match its JSON schema."""


class NotObservableError(LatticeError):
    """A table fails the observable-function axioms; carries a witness."""

    def __init__(self, message: str, witness=None):
        super().__init__(message)
        self.witness = witness
