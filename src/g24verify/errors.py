"""Exception types shared across the verification pipeline."""


class VerificationError(Exception):
    """A checked claim failed; carries the offending witness when known."""

    def __init__(self, message: str, witness=None):
        super().__init__(message)
        self.witness = witness


class ConstructionError(VerificationError):
    """An object could not be built from its inputs (bad shape, bad census)."""
