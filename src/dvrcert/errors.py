"""Exception types shared across the toolkit."""


class DvrcertError(Exception):
    """Base class for all toolkit errors."""


class NotInRingError(DvrcertError, ValueError):
    """A scalar (or matrix entry) lies in the fraction field but not in the DVR."""


class ValuationUndefinedError(DvrcertError, ValueError):
    """Valuation requested for the zero element."""


class HypothesisViolationError(DvrcertError):
    """The group order is divisible by the residue characteristic.

    Averaging over the group is impossible in this case, and every
    downstream certificate that relies on it is unavailable.
    """


class NotInvertibleError(DvrcertError, ValueError):
    """Matrix is singular, or invertible over the fraction field but not over the DVR."""


class ClosureCapExceededError(DvrcertError):
    """Group closure exceeded the element cap; the group may be infinite."""


class InternalCheckError(DvrcertError):
    """A condition that the preconditions guarantee failed to hold.

    Raised with diagnostics instead of silently proceeding; seeing this
    means either the preconditions were bypassed or there is a bug.
    """


class DegreeBoundExhaustedError(DvrcertError):
    """Fundamental-invariant search ran out of degrees; raise the degree bound."""


class CertificateConditionError(DvrcertError):
    """A numeric certificate condition failed; the message details the mismatch."""


class JobSpecError(DvrcertError, ValueError):
    """Malformed job document; the message carries the offending field."""
