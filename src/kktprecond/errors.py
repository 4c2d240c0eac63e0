"""Exception types raised across the package, and shown, the bounded form in
which their messages repeat a value."""

# Characters of a value's repr that a message shows before an ellipsis.
_SHOWN = 20


def shown(value) -> str:
    """repr(value), cut after _SHOWN characters with an ellipsis, so a message
    about a 400-digit number stays one short line."""
    text = repr(value)
    return text if len(text) <= _SHOWN else text[:_SHOWN] + "..."


class KktPrecondError(Exception):
    """Base class for all package errors."""


class DimensionMismatch(KktPrecondError):
    """Operand shapes or block layouts are incompatible. One about a named
    field of a record (of_field) carries the field and the detail that
    follows its name in the message, so a reader of the record can name the
    field's source instead."""

    field: str | None = None
    detail: str | None = None

    @classmethod
    def of_field(cls, field: str, detail: str) -> "DimensionMismatch":
        """The error "{field} {detail}" about the named field."""
        exc = cls(f"{field} {detail}")
        exc.field, exc.detail = field, detail
        return exc


class SingularBlock(KktPrecondError):
    """A dense diagonal block is singular to working precision."""


class SingularSystem(KktPrecondError):
    """The assembled KKT matrix is singular, so it has no reference solution."""


class SingularPivotBlock(KktPrecondError):
    """A diagonal pivot block became singular during block elimination."""


class ZeroPivot(KktPrecondError):
    """A scalar pivot vanished during point incomplete factorization."""


class SingularCoarseMatrix(KktPrecondError):
    """The Galerkin coarse operator is singular."""


class SizeCapExceeded(KktPrecondError):
    """A problem or matrix dimension exceeds a configured size cap."""


class PatternViolation(KktPrecondError):
    """Block indices or CSR structure are malformed."""


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
