"""Exception types shared across the package.

Two families matter to callers (and to the CLI's exit codes): `InputError`
for malformed files/arguments, and `CertificationError` for numerical
verdicts that came out wrong (a system that should be solvable is singular,
a predicted matrix class is contradicted by the spectrum, a singularity
certificate misses its tolerance).
"""


class InputError(ValueError):
    """Malformed input file or argument (CLI exit code 2)."""


class CertificationError(RuntimeError):
    """A numerical certification failed (CLI exit code 3)."""

    def __init__(self, message, record=None):
        super().__init__(message)
        self.record = record


class NotAndError(CertificationError):
    """Matrix required to be almost negative definite is not."""


class EmbeddingError(CertificationError):
    """Schoenberg embedding residual exceeded its tolerance."""


class SingularSystemError(CertificationError):
    """Interpolation system is singular or too ill-conditioned to solve.

    Carries the AndReport of the offending matrix in `record`.
    """


class VerdictMismatchError(CertificationError):
    """Observed matrix class contradicts the class the theory guarantees."""
