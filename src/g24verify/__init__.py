"""Certified verifier for the G2(4) two-distance configuration.

Builds the 416-vertex G2(4) graph from the Hermitian unital in PG(2,16),
verifies its strongly-regular structure, and certifies that 352 of the 416
Euclidean representation points form a 64-dimensional two-distance set
needing at least 71 parts of smaller diameter, settling Borsuk's question
negatively in dimension 64.  Every check is exact integer arithmetic.

The package defines the exception type shared across the verification
pipeline; the submodules import it from here.
"""

__version__ = "0.1.0"


class VerificationError(Exception):
    """A checked claim failed, or an object could not be built from its
    inputs; carries the offending witness when known."""

    def __init__(self, message: str, witness=None):
        super().__init__(message)
        self.witness = witness


__all__ = [
    "__version__",
    "VerificationError",
]
