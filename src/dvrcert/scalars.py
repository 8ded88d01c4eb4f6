"""Exact scalars for the three rings in play.

Two concrete discrete valuation rings are supported:

* ``int-localized``: integers localized at a prime p, sitting inside Q.
  The uniformizer is p itself and the residue field is F_p.
* ``ratfunc-localized``: F_p[t] localized at (t), sitting inside F_p(t).
  The uniformizer is t and the residue field is again F_p.

An element of the fraction field K is a plain value: a ``fractions.Fraction``
for the int kind, a ``RatFunc`` for the ratfunc kind.  An element of the
residue field k = F_p is an int in [0, p).  No value records which DVR it
belongs to: the matrix or polynomial holding it does, and p is read off
its ``DvrDescriptor``, whose methods answer the questions that depend on
the DVR (valuation, membership in O, reduction to k).  Whether a
K-element lies in O is a property of its value, not of its type: it is
checked where values enter (the jobspec parser, the public O-tagged
constructors, reduction to k).  All values are immutable, canonical, and
compared by representation.

This module alone branches on the kind; a report only prints it.  The
stages ask the descriptor one question about the DVR,
`DvrDescriptor.equal_characteristic`: does O contain its residue field?
F_p[t]_(t) does, and char K = p; Z_(p) does not, and K = Q has
characteristic 0.  What follows from that one fact:

* In equal characteristic each element g has a constant twin, its
  residue rows read in GL_n(F_p) inside GL_n(O), so the side over K is
  read off the side over k: the invariants over K are those over k
  carried by a checked conjugator, and the Molien series is computed
  from the residue rows, mod p.
* In characteristic 0 the Molien series is exact, so it gives the
  dimensions over K; H^1 over K is read as 0, since |G| is invertible on
  every K-module; and an element is read as its integer form A / D over
  Q, in ints.

1/|G| is likewise K's own arithmetic, `one() / from_int(|G|)`, for every
kind.
"""
from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

from .errors import (
    HypothesisViolationError,
    NotInRingError,
    ValuationUndefinedError,
)
from .ratfunc import RatFunc, parse_ratfunc

KIND_INT = "int-localized"
KIND_RATFUNC = "ratfunc-localized"
VALID_KINDS = (KIND_INT, KIND_RATFUNC)

_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def _is_prime(n: int) -> bool:
    """Miller-Rabin with the primes up to 37 as witnesses: exact for n < 2^64."""
    if n < 2:
        return False
    for q in _WITNESSES:
        if n % q == 0:
            return n == q
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in _WITNESSES:
        x = pow(a, d, n)
        if x == 1:
            continue
        for _ in range(s):
            if x == n - 1:
                break
            x = x * x % n
        else:
            return False
    return True


@dataclass(frozen=True)
class DvrDescriptor:
    """Which DVR we are working in: the kind plus the residue characteristic p.

    It also answers the questions about a value of K that depend on the DVR:
    its valuation, whether it lies in O or is a unit there, and its
    reduction to k.
    """

    kind: str
    p: int

    def __post_init__(self):
        if self.kind not in VALID_KINDS:
            raise ValueError(f"unknown DVR kind {self.kind!r}; expected one of {VALID_KINDS}")
        if isinstance(self.p, int) and self.p >= 2 ** 64:
            raise ValueError(f"p must be a prime below 2^64, got {self.p}")
        if not isinstance(self.p, int) or not _is_prime(self.p):
            raise ValueError(f"p must be prime, got {self.p!r}")

    def zero(self):
        return self.from_int(0)

    def one(self):
        return self.from_int(1)

    def from_int(self, a: int):
        if self.kind == KIND_INT:
            return Fraction(a)
        return RatFunc.from_int(self.p, a)

    def uniformizer(self):
        if self.kind == KIND_INT:
            return Fraction(self.p)
        return RatFunc.t(self.p)

    def valuation(self, x) -> int:
        """The uniformizer-adic valuation; undefined (raises) on zero."""
        if not x:
            raise ValuationUndefinedError("valuation of zero is undefined")
        if self.kind == KIND_INT:
            return _int_valuation(x.numerator, self.p) - _int_valuation(x.denominator, self.p)
        return x.t_valuation()

    def is_integral(self, x) -> bool:
        """True when the element lies in the DVR, not merely in K."""
        if self.kind == KIND_INT:
            return x.denominator % self.p != 0
        return x.is_integral()

    def is_unit(self, x) -> bool:
        return bool(x) and self.valuation(x) == 0

    @cached_property
    def equal_characteristic(self) -> bool:
        """True when O contains its residue field, that is when char K = p;
        read off K's own arithmetic, where p is zero or not, once per DVR."""
        return not self.from_int(self.p)

    def reduce(self, x) -> int:
        """Reduction modulo the maximal ideal, as an int in [0, p); requires
        membership in the DVR."""
        if not self.is_integral(x):
            raise NotInRingError(f"{x} is not in the DVR; cannot reduce")
        if self.kind == KIND_INT:
            return x.numerator * pow(x.denominator, -1, self.p) % self.p
        return x.residue_at_zero()


def _int_valuation(n: int, p: int) -> int:
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


def invert_mod_group_order(r: int, descriptor: DvrDescriptor):
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
    return descriptor.one() / descriptor.from_int(r)


# -- serialization ------------------------------------------------------------

_MINUS_VARIANTS = str.maketrans({"−": "-", "–": "-"})
_INT_SCALAR = re.compile(r"[+-]?[0-9]+(?:/[0-9]+)?")


def parse_scalar(descriptor: DvrDescriptor, text: str, *, integral: bool = True):
    """Parse a scalar string; with integral=True, reject elements outside the DVR.

    An int-kind scalar is an integer or a fraction of integers, in ASCII
    digits: no exponent, decimal point, underscore or inner space.
    """
    s = str(text).translate(_MINUS_VARIANTS).strip()
    if not s:
        raise ValueError("empty scalar string")
    try:
        if descriptor.kind == KIND_RATFUNC:
            value = parse_ratfunc(descriptor.p, s)
        elif _INT_SCALAR.fullmatch(s):
            num, _, den = s.partition("/")
            value = Fraction(int(num), int(den or 1))
        else:
            raise ValueError("expected an integer or a fraction of integers")
    except ZeroDivisionError:
        raise ValueError(f"scalar {text!r} has zero denominator") from None
    except ValueError as exc:
        raise ValueError(f"malformed scalar {text!r}: {exc}") from None
    if integral and not descriptor.is_integral(value):
        raise NotInRingError(f"entry {text!r} is not in the DVR (valuation is negative)")
    return value
