"""Univariate rational functions over a prime field F_p.

These are the scalars backing the F_p[t]-localized-at-(t) ring: fractions
num/den of polynomials in t with den(0) != 0 for ring elements, arbitrary
nonzero den for fraction-field elements.  Everything is kept in a canonical
form (gcd-reduced, monic denominator) so equality is representation equality.

The arithmetic keeps that form by two rules:

* both denominators 1: the sum, difference or product of the numerators
  over 1 is canonical, and no gcd runs;
* otherwise the sum (n1*d2 + n2*d1)/(d1*d2) and the product
  (n1*n2)/(d1*d2) go through ``RatFunc.make``, the one normaliser, which
  divides out one gcd, unless it is 1, and makes the denominator monic.
  It also reads every value the parser takes in.

``/`` multiplies by the inverse, and the inverse of a reduced n/d is d/n
made monic, which needs no gcd.

``FpPoly`` arithmetic reduces mod p and trims trailing zeros once per
operation.  Over the field F_p a product of nonzero polynomials has a
nonzero leading coefficient, so only sums and remainders need trimming.
"""
from __future__ import annotations

import re
from dataclasses import dataclass

# The largest exponent of t the parser accepts.  A dense coefficient list
# is as long as the degree, so "t^999999999" would otherwise allocate 10^9
# slots from an 11-byte string.
MAX_T_DEGREE = 4096


def _normalize_coeffs(p: int, coeffs) -> tuple[int, ...]:
    return _trimmed([c % p for c in coeffs])


def _trimmed(out: list) -> tuple[int, ...]:
    """The coefficients of `out`, already reduced mod p, without trailing zeros."""
    while out and not out[-1]:
        out.pop()
    return tuple(out)


@dataclass(frozen=True)
class FpPoly:
    """Dense polynomial over F_p; coeffs run from the constant term upward."""

    p: int
    coeffs: tuple[int, ...]

    @staticmethod
    def make(p: int, coeffs) -> FpPoly:
        return FpPoly(p, _normalize_coeffs(p, coeffs))

    @staticmethod
    def zero(p: int) -> FpPoly:
        return FpPoly(p, ())

    @staticmethod
    def one(p: int) -> FpPoly:
        return FpPoly(p, (1,))

    @staticmethod
    def constant(p: int, c: int) -> FpPoly:
        return FpPoly.make(p, (c,))

    @staticmethod
    def t(p: int) -> FpPoly:
        return FpPoly(p, (0, 1))

    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def degree(self) -> int:
        # degree of the zero polynomial is -1 by convention
        return len(self.coeffs) - 1

    def leading(self) -> int:
        if self.is_zero():
            raise ValueError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def constant_term(self) -> int:
        return self.coeffs[0] if self.coeffs else 0

    def t_order(self) -> int:
        """Index of the first nonzero coefficient (t-adic valuation)."""
        for i, c in enumerate(self.coeffs):
            if c:
                return i
        raise ValueError("t_order of zero polynomial is undefined")

    def __add__(self, other: FpPoly) -> FpPoly:
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        p = self.p
        low = [(x + y) % p for x, y in zip(a, b)]
        if len(a) > len(b):
            return FpPoly(p, tuple(low) + a[len(b):])
        return FpPoly(p, _trimmed(low))

    def __neg__(self) -> FpPoly:
        return FpPoly(self.p, tuple((-c) % self.p for c in self.coeffs))

    def __sub__(self, other: FpPoly) -> FpPoly:
        return self + (-other)

    def __mul__(self, other: FpPoly) -> FpPoly:
        a, b = self.coeffs, other.coeffs
        if len(a) == 1:
            return other.scale(a[0])
        if len(b) == 1:
            return self.scale(b[0])
        if not a or not b:
            return FpPoly(self.p, ())
        out = [0] * (len(a) + len(b) - 1)
        for i, x in enumerate(a):
            if x:
                for j, y in enumerate(b):
                    out[i + j] += x * y
        p = self.p
        # the leading coefficient is a product of two units of F_p
        return FpPoly(p, tuple(c % p for c in out))

    def scale(self, c: int) -> FpPoly:
        p = self.p
        c %= p
        if c == 1:
            return self
        if not c:
            return FpPoly(p, ())
        return FpPoly(p, tuple(c * a % p for a in self.coeffs))

    def __floordiv__(self, other: FpPoly) -> FpPoly:
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        return FpPoly(self.p, _long_division(self.coeffs, other.coeffs, self.p)[0])

    def monic(self) -> FpPoly:
        if self.is_zero():
            return self
        return self.scale(pow(self.leading(), -1, self.p))

    def __str__(self) -> str:
        return format_fp_poly(self)


def _long_division(a: tuple, b: tuple, p: int) -> tuple[tuple, tuple]:
    """Quotient and remainder of the coefficient tuples a by b != 0 over F_p."""
    d = len(b) - 1
    if len(a) <= d:
        return (), a
    inv_lead = pow(b[-1], -1, p)
    rem = list(a)
    quo = [0] * (len(a) - d)
    # entries of rem are reduced mod p only where they are read
    for shift in range(len(quo) - 1, -1, -1):
        factor = rem[shift + d] * inv_lead % p
        if factor:
            quo[shift] = factor
            for i in range(d):  # term d cancels by the choice of factor
                rem[shift + i] -= factor * b[i]
    # quo's top entry is lead(a)/lead(b), a unit
    return tuple(quo), _normalize_coeffs(p, rem[:d])


def fp_gcd(a: FpPoly, b: FpPoly) -> FpPoly:
    """Monic gcd via the Euclidean algorithm."""
    p = a.p
    x, y = a.coeffs, b.coeffs
    while y:
        x, y = y, _long_division(x, y, p)[1]
    return FpPoly(p, x).monic()


def format_fp_poly(poly: FpPoly) -> str:
    if poly.is_zero():
        return "0"
    parts = []
    for k, c in enumerate(poly.coeffs):
        if not c:
            continue
        parts.append(str(c) if k == 0 else f"{c}*t^{k}")
    return "+".join(parts)


_TERM_RE = re.compile(
    r"^(?:(?P<coeff>-?[0-9]+)(?:\*(?P<var1>t)(?:\^(?P<exp1>[0-9]+))?)?"
    r"|(?P<sign>-?)(?P<var2>t)(?:\^(?P<exp2>[0-9]+))?)$"
)


def _exponent(digits: str | None, term: str) -> int:
    k = int(digits) if digits else 1
    if k > MAX_T_DEGREE:
        raise ValueError(f"exponent of t above {MAX_T_DEGREE} in term {term!r}")
    return k


def parse_fp_poly(p: int, text: str) -> FpPoly:
    s = text.replace(" ", "")
    if not s:
        raise ValueError("empty polynomial string")
    # rewrite infix minus as plus-negative so we can split on '+'
    s = s.replace("-", "+-").lstrip("+")
    if s.startswith("-+"):  # came from a leading '-' alone
        raise ValueError(f"malformed polynomial {text!r}")
    coeffs: dict[int, int] = {}
    for term in s.split("+"):
        if not term:
            raise ValueError(f"malformed polynomial {text!r}")
        m = _TERM_RE.match(term)
        if m is None:
            raise ValueError(f"malformed polynomial term {term!r} in {text!r}")
        if m.group("coeff") is not None:
            c = int(m.group("coeff"))
            k = _exponent(m.group("exp1"), term) if m.group("var1") else 0
        else:
            c = -1 if m.group("sign") == "-" else 1
            k = _exponent(m.group("exp2"), term)
        coeffs[k] = coeffs.get(k, 0) + c
    size = max(coeffs) + 1
    out = [0] * size
    for k, c in coeffs.items():
        out[k] = c
    return FpPoly.make(p, out)


@dataclass(frozen=True)
class RatFunc:
    """Canonical fraction of FpPoly: gcd-reduced with monic denominator."""

    num: FpPoly
    den: FpPoly

    @property
    def p(self) -> int:
        return self.num.p

    @staticmethod
    def make(num: FpPoly, den: FpPoly) -> RatFunc:
        """The canonical form of num/den, for any num and nonzero den."""
        if den.is_zero():
            raise ZeroDivisionError("rational function with zero denominator")
        if num.is_zero():
            return RatFunc(FpPoly.zero(num.p), FpPoly.one(num.p))
        g = fp_gcd(num, den)
        if g.degree:  # a gcd of 1 divides nothing
            num, den = num // g, den // g
        inv_lead = pow(den.leading(), -1, den.p)
        return RatFunc(num.scale(inv_lead), den.scale(inv_lead))

    @staticmethod
    def from_int(p: int, a: int) -> RatFunc:
        return RatFunc(FpPoly.constant(p, a), FpPoly.one(p))

    @staticmethod
    def zero(p: int) -> RatFunc:
        return RatFunc(FpPoly.zero(p), FpPoly.one(p))

    @staticmethod
    def one(p: int) -> RatFunc:
        return RatFunc(FpPoly.one(p), FpPoly.one(p))

    @staticmethod
    def t(p: int) -> RatFunc:
        return RatFunc(FpPoly.t(p), FpPoly.one(p))

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def __bool__(self) -> bool:
        return not self.num.is_zero()

    def __add__(self, other: RatFunc) -> RatFunc:
        n1, d1, n2, d2 = self.num, self.den, other.num, other.den
        if len(d1.coeffs) == 1 and len(d2.coeffs) == 1:  # monic: both are 1
            return RatFunc(n1 + n2, d1)
        return RatFunc.make(n1 * d2 + n2 * d1, d1 * d2)

    def __neg__(self) -> RatFunc:
        return RatFunc(-self.num, self.den)

    def __sub__(self, other: RatFunc) -> RatFunc:
        return self + (-other)

    def __mul__(self, other: RatFunc) -> RatFunc:
        n1, d1, n2, d2 = self.num, self.den, other.num, other.den
        if len(d1.coeffs) == 1 and len(d2.coeffs) == 1:
            return RatFunc(n1 * n2, d1)
        return RatFunc.make(n1 * n2, d1 * d2)

    def inverse(self) -> RatFunc:
        """den/num made monic: already reduced, so no gcd runs."""
        num, den = self.num, self.den
        if not num.coeffs:
            raise ZeroDivisionError("division by zero rational function")
        inv_lead = pow(num.coeffs[-1], -1, num.p)
        return RatFunc(den.scale(inv_lead), num.scale(inv_lead))

    def __truediv__(self, other: RatFunc) -> RatFunc:
        return self * other.inverse()

    def __pow__(self, k: int) -> RatFunc:
        if k < 0:
            return self.inverse() ** (-k)
        out = RatFunc.one(self.p)
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    def t_valuation(self) -> int:
        if self.is_zero():
            raise ValueError("t-valuation of zero is undefined")
        den_order = 0 if self.den.constant_term() else self.den.t_order()
        return self.num.t_order() - den_order

    def is_integral(self) -> bool:
        """True when the element lies in F_p[t] localized at (t), i.e. den(0) != 0."""
        return self.den.constant_term() != 0

    def residue_at_zero(self) -> int:
        if not self.is_integral():
            raise ValueError("element has a pole at t=0")
        return (self.num.constant_term() * pow(self.den.constant_term(), -1, self.p)) % self.p

    def __str__(self) -> str:
        if len(self.den.coeffs) == 1:
            return format_fp_poly(self.num)
        return f"({format_fp_poly(self.num)})/({format_fp_poly(self.den)})"


def parse_ratfunc(p: int, text: str) -> RatFunc:
    s = text.replace(" ", "")
    m = re.match(r"^\((?P<num>[^()]*)\)/\((?P<den>[^()]*)\)$", s)
    if m:
        return RatFunc.make(parse_fp_poly(p, m.group("num")), parse_fp_poly(p, m.group("den")))
    if s.startswith("(") and s.endswith(")") and "/" not in s:
        s = s[1:-1]
    if "/" in s:
        num_s, _, den_s = s.partition("/")
        if "/" in den_s or "+" in num_s or "+" in den_s:
            raise ValueError(
                f"ambiguous rational-function string {text!r}; "
                "use the parenthesized form (num)/(den)"
            )
        return RatFunc.make(parse_fp_poly(p, num_s), parse_fp_poly(p, den_s))
    return RatFunc.make(parse_fp_poly(p, s), FpPoly.one(p))
