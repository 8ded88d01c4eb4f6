"""Exact scalars for the three rings in play.

Two concrete discrete valuation rings are supported:

* ``int-localized``: integers localized at a prime p, sitting inside Q.
  The uniformizer is p itself and the residue field is F_p.
* ``ratfunc-localized``: F_p[t] localized at (t), sitting inside F_p(t).
  The uniformizer is t and the residue field is again F_p.

``FractionScalar`` is an element of the fraction field K; ``DvrScalar`` is
the subclass whose construction additionally checks membership in the ring
(denominator of valuation zero).  Arithmetic auto-downcasts: any operation
whose exact result lies in the ring hands back a ``DvrScalar``.  All values
are immutable, canonical, and compared by representation.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import (
    HypothesisViolationError,
    NotInRingError,
    ValuationUndefinedError,
)
from .ratfunc import RatFunc, parse_ratfunc

KIND_INT = "int-localized"
KIND_RATFUNC = "ratfunc-localized"
VALID_KINDS = (KIND_INT, KIND_RATFUNC)


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n % 2 == 0:
        return n == 2
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


@dataclass(frozen=True)
class DvrDescriptor:
    """Which DVR we are working in: the kind plus the residue characteristic p."""

    kind: str
    p: int

    def __post_init__(self):
        if self.kind not in VALID_KINDS:
            raise ValueError(f"unknown DVR kind {self.kind!r}; expected one of {VALID_KINDS}")
        if not isinstance(self.p, int) or not _is_prime(self.p):
            raise ValueError(f"p must be prime, got {self.p!r}")

    def zero(self) -> DvrScalar:
        return self.from_int(0)

    def one(self) -> DvrScalar:
        return self.from_int(1)

    def from_int(self, a: int) -> DvrScalar:
        if self.kind == KIND_INT:
            return DvrScalar(self, Fraction(a))
        return DvrScalar(self, RatFunc.from_int(self.p, a))

    def uniformizer(self) -> DvrScalar:
        if self.kind == KIND_INT:
            return DvrScalar(self, Fraction(self.p))
        return DvrScalar(self, RatFunc.t(self.p))

    def residue(self, a: int) -> ResidueScalar:
        return ResidueScalar(self, a % self.p)


def _int_valuation(n: int, p: int) -> int:
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


class FractionScalar:
    """Element of the fraction field K of the DVR."""

    __slots__ = ("descriptor", "value")

    def __init__(self, descriptor: DvrDescriptor, value):
        expected = Fraction if descriptor.kind == KIND_INT else RatFunc
        if not isinstance(value, expected):
            raise TypeError(
                f"{descriptor.kind} scalar expects a {expected.__name__} value, "
                f"got {type(value).__name__}"
            )
        object.__setattr__(self, "descriptor", descriptor)
        object.__setattr__(self, "value", value)

    def __setattr__(self, name, value):
        raise AttributeError("scalars are immutable")

    @staticmethod
    def wrap(descriptor: DvrDescriptor, value) -> FractionScalar:
        """Build the most specific scalar: a DvrScalar whenever the value is integral."""
        s = FractionScalar(descriptor, value)
        if s.is_integral():
            return DvrScalar(descriptor, value)
        return s

    # -- coercion -----------------------------------------------------------

    def _coerce(self, other) -> FractionScalar | None:
        if isinstance(other, FractionScalar):
            if other.descriptor != self.descriptor:
                raise ValueError("scalars from different DVRs cannot be combined")
            return other
        if isinstance(other, int):
            return self.descriptor.from_int(other)
        return None

    # -- predicates ---------------------------------------------------------

    def is_zero(self) -> bool:
        if self.descriptor.kind == KIND_INT:
            return self.value == 0
        return self.value.is_zero()

    def is_one(self) -> bool:
        return self == self.descriptor.one()

    def __bool__(self) -> bool:
        return not self.is_zero()

    def valuation(self) -> int:
        """The uniformizer-adic valuation; undefined (raises) on zero."""
        if self.is_zero():
            raise ValuationUndefinedError("valuation of zero is undefined")
        if self.descriptor.kind == KIND_INT:
            p = self.descriptor.p
            return _int_valuation(self.value.numerator, p) - _int_valuation(
                self.value.denominator, p
            )
        return self.value.t_valuation()

    def is_integral(self) -> bool:
        """True when the element lies in the DVR, not merely in K."""
        if self.descriptor.kind == KIND_INT:
            return self.value.denominator % self.descriptor.p != 0
        return self.value.is_integral()

    def is_unit(self) -> bool:
        return not self.is_zero() and self.valuation() == 0

    def reduce(self) -> ResidueScalar:
        """Reduction modulo the maximal ideal; requires membership in the DVR."""
        if not self.is_integral():
            raise NotInRingError(f"{self} is not in the DVR; cannot reduce")
        p = self.descriptor.p
        if self.descriptor.kind == KIND_INT:
            num = self.value.numerator % p
            den_inv = pow(self.value.denominator % p, -1, p)
            return ResidueScalar(self.descriptor, (num * den_inv) % p)
        return ResidueScalar(self.descriptor, self.value.residue_at_zero())

    # -- arithmetic ---------------------------------------------------------

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return FractionScalar.wrap(self.descriptor, self.value + o.value)

    __radd__ = __add__

    def __neg__(self):
        return FractionScalar.wrap(self.descriptor, -self.value)

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return FractionScalar.wrap(self.descriptor, self.value - o.value)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return FractionScalar.wrap(self.descriptor, o.value - self.value)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return FractionScalar.wrap(self.descriptor, self.value * o.value)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if o.is_zero():
            raise ZeroDivisionError("scalar division by zero")
        return FractionScalar.wrap(self.descriptor, self.value / o.value)

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o / self

    def __pow__(self, k: int):
        if k < 0:
            return self.descriptor.one() / self ** (-k)
        out = self.descriptor.one()
        base: FractionScalar = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    # -- identity -----------------------------------------------------------

    def __eq__(self, other) -> bool:
        if isinstance(other, int):
            other = self.descriptor.from_int(other)
        if not isinstance(other, FractionScalar):
            return NotImplemented
        return self.descriptor == other.descriptor and self.value == other.value

    def __hash__(self) -> int:
        return hash((self.descriptor, self.value))

    def __str__(self) -> str:
        return str(self.value)

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.descriptor.kind}, p={self.descriptor.p}, {self})"


class DvrScalar(FractionScalar):
    """Element of the DVR itself; construction rejects denominators of positive valuation."""

    __slots__ = ()

    def __init__(self, descriptor: DvrDescriptor, value):
        super().__init__(descriptor, value)
        if not self.is_integral():
            raise NotInRingError(
                f"{self} has a denominator of positive valuation; not in the DVR"
            )


class ResidueScalar:
    """Element of the residue field F_p of the DVR."""

    __slots__ = ("descriptor", "value")

    def __init__(self, descriptor: DvrDescriptor, value: int):
        object.__setattr__(self, "descriptor", descriptor)
        object.__setattr__(self, "value", value % descriptor.p)

    def __setattr__(self, name, value):
        raise AttributeError("scalars are immutable")

    def _coerce(self, other) -> ResidueScalar | None:
        if isinstance(other, ResidueScalar):
            if other.descriptor != self.descriptor:
                raise ValueError("residue scalars from different DVRs cannot be combined")
            return other
        if isinstance(other, int):
            return ResidueScalar(self.descriptor, other)
        return None

    def is_zero(self) -> bool:
        return self.value == 0

    def is_one(self) -> bool:
        return self.value == 1

    def __bool__(self) -> bool:
        return self.value != 0

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return ResidueScalar(self.descriptor, self.value + o.value)

    __radd__ = __add__

    def __neg__(self):
        return ResidueScalar(self.descriptor, -self.value)

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return ResidueScalar(self.descriptor, self.value - o.value)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o - self

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return ResidueScalar(self.descriptor, self.value * o.value)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if o.value == 0:
            raise ZeroDivisionError("residue-field division by zero")
        return ResidueScalar(self.descriptor, self.value * pow(o.value, -1, self.descriptor.p))

    def __pow__(self, k: int):
        if k < 0:
            base = pow(self.value, -1, self.descriptor.p)
            return ResidueScalar(self.descriptor, pow(base, -k, self.descriptor.p))
        return ResidueScalar(self.descriptor, pow(self.value, k, self.descriptor.p))

    def __eq__(self, other) -> bool:
        if isinstance(other, int):
            return self.value == other % self.descriptor.p
        if not isinstance(other, ResidueScalar):
            return NotImplemented
        return self.descriptor == other.descriptor and self.value == other.value

    def __hash__(self) -> int:
        return hash((self.descriptor, "residue", self.value))

    def __str__(self) -> str:
        return str(self.value)

    def __repr__(self) -> str:
        return f"ResidueScalar(p={self.descriptor.p}, {self.value})"


def invert_mod_group_order(r: int, descriptor: DvrDescriptor) -> DvrScalar:
    """Return 1/r as a ring element; the gate for all averaging.

    Fails when the residue characteristic divides r, in which case no
    downstream averaging construction is available.
    """
    if r < 1:
        raise ValueError(f"group order must be positive, got {r}")
    if r % descriptor.p == 0:
        raise HypothesisViolationError(
            f"group order {r} is divisible by p = {descriptor.p}; "
            "it is not invertible in the ring, so averaging over the group is impossible"
        )
    if descriptor.kind == KIND_INT:
        return DvrScalar(descriptor, Fraction(1, r))
    inv = pow(r % descriptor.p, -1, descriptor.p)
    return DvrScalar(descriptor, RatFunc.from_int(descriptor.p, inv))


# -- serialization ------------------------------------------------------------

_MINUS_VARIANTS = str.maketrans({"−": "-", "–": "-"})


def parse_scalar(descriptor: DvrDescriptor, text: str, *, integral: bool = True) -> FractionScalar:
    """Parse a scalar string; with integral=True, reject elements outside the DVR."""
    s = str(text).translate(_MINUS_VARIANTS).strip()
    if not s:
        raise ValueError("empty scalar string")
    try:
        if descriptor.kind == KIND_INT:
            value = Fraction(s)
        else:
            value = parse_ratfunc(descriptor.p, s)
    except ZeroDivisionError:
        raise ValueError(f"scalar {text!r} has zero denominator") from None
    except ValueError as exc:
        raise ValueError(f"malformed scalar {text!r}: {exc}") from None
    if integral:
        scalar = FractionScalar.wrap(descriptor, value)
        if not isinstance(scalar, DvrScalar):
            raise NotInRingError(f"entry {text!r} is not in the DVR (valuation is negative)")
        return scalar
    return FractionScalar.wrap(descriptor, value)
