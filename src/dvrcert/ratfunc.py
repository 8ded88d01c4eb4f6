"""Univariate rational functions over a prime field F_p.

These are the scalars backing the F_p[t]-localized-at-(t) ring: fractions
num/den of polynomials in t with den(0) != 0 for ring elements, arbitrary
nonzero den for fraction-field elements.  Everything is kept in a canonical
form (gcd-reduced, monic denominator) so equality is representation equality.
"""
from __future__ import annotations

import re
from dataclasses import dataclass


def _normalize_coeffs(p: int, coeffs) -> tuple[int, ...]:
    out = [c % p for c in coeffs]
    while out and out[-1] == 0:
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
        out = list(a)
        for i, c in enumerate(b):
            out[i] = (out[i] + c) % self.p
        return FpPoly.make(self.p, out)

    def __neg__(self) -> FpPoly:
        return FpPoly(self.p, tuple((-c) % self.p for c in self.coeffs))

    def __sub__(self, other: FpPoly) -> FpPoly:
        return self + (-other)

    def __mul__(self, other: FpPoly) -> FpPoly:
        if self.is_zero() or other.is_zero():
            return FpPoly.zero(self.p)
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if not a:
                continue
            for j, b in enumerate(other.coeffs):
                out[i + j] = (out[i + j] + a * b) % self.p
        return FpPoly.make(self.p, out)

    def scale(self, c: int) -> FpPoly:
        return FpPoly(self.p, _normalize_coeffs(self.p, (c * a for a in self.coeffs)))

    def shift(self, k: int) -> FpPoly:
        """Multiply by t^k."""
        if self.is_zero():
            return self
        return FpPoly(self.p, (0,) * k + self.coeffs)

    def __divmod__(self, other: FpPoly) -> tuple[FpPoly, FpPoly]:
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        p = self.p
        inv_lead = pow(other.leading(), -1, p)
        rem = list(self.coeffs)
        quo = [0] * max(len(rem) - len(other.coeffs) + 1, 0)
        d = other.degree
        while len(rem) - 1 >= d and any(rem):
            while rem and rem[-1] == 0:
                rem.pop()
            if len(rem) - 1 < d:
                break
            shift = len(rem) - 1 - d
            factor = (rem[-1] * inv_lead) % p
            quo[shift] = factor
            for i, c in enumerate(other.coeffs):
                rem[shift + i] = (rem[shift + i] - factor * c) % p
        return FpPoly.make(p, quo), FpPoly.make(p, rem)

    def __mod__(self, other: FpPoly) -> FpPoly:
        return divmod(self, other)[1]

    def __floordiv__(self, other: FpPoly) -> FpPoly:
        return divmod(self, other)[0]

    def monic(self) -> FpPoly:
        if self.is_zero():
            return self
        return self.scale(pow(self.leading(), -1, self.p))

    def __str__(self) -> str:
        return format_fp_poly(self)


def fp_gcd(a: FpPoly, b: FpPoly) -> FpPoly:
    """Monic gcd via the Euclidean algorithm."""
    while not b.is_zero():
        a, b = b, a % b
    return a.monic() if not a.is_zero() else a


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
    r"^(?:(?P<coeff>-?\d+)(?:\*(?P<var1>t)(?:\^(?P<exp1>\d+))?)?"
    r"|(?P<sign>-?)(?P<var2>t)(?:\^(?P<exp2>\d+))?)$"
)


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
            k = 0
            if m.group("var1"):
                k = int(m.group("exp1")) if m.group("exp1") else 1
        else:
            c = -1 if m.group("sign") == "-" else 1
            k = int(m.group("exp2")) if m.group("exp2") else 1
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
        if den.is_zero():
            raise ZeroDivisionError("rational function with zero denominator")
        if num.is_zero():
            return RatFunc(FpPoly.zero(num.p), FpPoly.one(num.p))
        g = fp_gcd(num, den)
        num, den = num // g, den // g
        inv_lead = pow(den.leading(), -1, den.p)
        return RatFunc(num.scale(inv_lead), den.scale(inv_lead))

    @staticmethod
    def from_int(p: int, a: int) -> RatFunc:
        return RatFunc.make(FpPoly.constant(p, a), FpPoly.one(p))

    @staticmethod
    def zero(p: int) -> RatFunc:
        return RatFunc.from_int(p, 0)

    @staticmethod
    def one(p: int) -> RatFunc:
        return RatFunc.from_int(p, 1)

    @staticmethod
    def t(p: int) -> RatFunc:
        return RatFunc(FpPoly.t(p), FpPoly.one(p))

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def __bool__(self) -> bool:
        return not self.num.is_zero()

    def __add__(self, other: RatFunc) -> RatFunc:
        return RatFunc.make(self.num * other.den + other.num * self.den, self.den * other.den)

    def __neg__(self) -> RatFunc:
        return RatFunc(-self.num, self.den)

    def __sub__(self, other: RatFunc) -> RatFunc:
        return self + (-other)

    def __mul__(self, other: RatFunc) -> RatFunc:
        return RatFunc.make(self.num * other.num, self.den * other.den)

    def __truediv__(self, other: RatFunc) -> RatFunc:
        if other.is_zero():
            raise ZeroDivisionError("division by zero rational function")
        return RatFunc.make(self.num * other.den, self.den * other.num)

    def __pow__(self, k: int) -> RatFunc:
        if k < 0:
            return RatFunc.one(self.p) / self ** (-k)
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
        if self.den == FpPoly.one(self.p):
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
