"""The exception type shared across the verification pipeline."""


class VerificationError(Exception):
    """A checked claim failed, or an object could not be built from its
    inputs; carries the offending witness when known."""

    def __init__(self, message: str, witness=None):
        super().__init__(message)
        self.witness = witness
