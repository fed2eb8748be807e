"""Exception types shared across the package.

Two families matter to callers (and to the CLI's exit codes): `InputError`
for malformed files/arguments, and `CertificationError` for numerical
verdicts that came out wrong (a system that should be solvable is singular,
a predicted matrix class is contradicted by the spectrum, a singularity
certificate misses its tolerance).

`quote` is the one way an error text shows a value that the user gave.
"""


def quote(value) -> str:
    """`repr(value)` for an error text; a value over 40 characters shows as its
    first 20 and its length. A string is measured and cut before its repr is
    taken, any other value (a parsed JSON object) as its repr."""
    text, show = (value, repr) if isinstance(value, str) else (repr(value), str)
    if len(text) <= 40:
        return show(text)
    return f"{show(text[:20] + '…')} ({len(text)} characters)"


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
