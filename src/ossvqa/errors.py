"""Error taxonomy shared across the package.

The CLI maps these onto exit codes: DomainError -> 2 (validation),
VerificationError -> 3 (a checked structural claim failed),
CapabilityError -> 4 (input exceeds a hard resource guard).
"""


class DomainError(ValueError):
    """Invalid input: out-of-bounds coordinate, shape mismatch, infeasible state."""


class VerificationError(RuntimeError):
    """A cross-checked structural property did not hold."""


class CapabilityError(RuntimeError):
    """Request exceeds a deliberate size guard (factorial scans, state sizes)."""
