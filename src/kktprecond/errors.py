"""Exception types raised across the package."""


class KktPrecondError(Exception):
    """Base class for all package errors."""


class DimensionMismatch(KktPrecondError):
    """Operand shapes or block layouts are incompatible."""


class SingularBlock(KktPrecondError):
    """A dense diagonal block is singular to working precision."""


class SingularSystem(KktPrecondError):
    """The assembled KKT matrix is singular, so it has no reference solution."""


class SingularPivotBlock(KktPrecondError):
    """A diagonal pivot block became singular during block elimination."""


class ZeroPivot(KktPrecondError):
    """A scalar pivot vanished during point incomplete factorization."""


class SingularSchurComplement(KktPrecondError):
    """The dense Schur complement in the generic constrained inverse is singular."""


class SingularCoarseMatrix(KktPrecondError):
    """The Galerkin coarse operator is singular."""


class SizeCapExceeded(KktPrecondError):
    """A dense materialization would exceed the configured size cap."""


class PatternViolation(KktPrecondError):
    """Block indices or CSR structure are malformed."""


class IndexOutOfRange(KktPrecondError):
    """A row or column index is outside the matrix dimensions."""


class NonFinite(KktPrecondError):
    """A computed vector contains NaN or Inf."""


class InvertedElement(KktPrecondError):
    """A mesh configuration has a nonpositive mapping Jacobian."""


class LineSearchFailure(KktPrecondError):
    """The merit line search reached the minimum step length without descent."""


class ZeroReference(KktPrecondError):
    """A convergence criterion has a zero reference norm."""


class UnknownPreconditioner(KktPrecondError):
    """A preconditioner name is not in the catalog."""


class ManifestError(KktPrecondError):
    """A system manifest is missing files or has inconsistent dimensions."""
