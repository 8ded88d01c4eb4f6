import operator
import random
from fractions import Fraction
from math import isqrt

import pytest

from dvrcert.errors import (
    HypothesisViolationError,
    NotInRingError,
    ValuationUndefinedError,
)
from dvrcert.linalg import RING_K, RING_O, RING_RESIDUE, ExactMatrix
from dvrcert.polys import act
from dvrcert import ratfunc
from dvrcert.ratfunc import MAX_T_DEGREE, FpPoly, RatFunc, parse_fp_poly
from dvrcert.scalars import (
    DvrDescriptor,
    _is_prime,
    invert_mod_group_order,
    parse_scalar,
)

from oracles import coeff_gcd, coeff_mul, poly_variable, ratfunc_op_bruteforce


def test_descriptor_rejects_composite_p():
    with pytest.raises(ValueError, match="prime"):
        DvrDescriptor("int-localized", 4)
    with pytest.raises(ValueError, match="prime"):
        DvrDescriptor("ratfunc-localized", 1)
    with pytest.raises(ValueError, match="kind"):
        DvrDescriptor("power-series", 3)
    # strong pseudoprimes to the bases 2, 3, 5, 7 and to every prime base up to 23
    for n in (151 * 751 * 28351, 149491 * 747451 * 34233211):
        with pytest.raises(ValueError, match="prime"):
            DvrDescriptor("int-localized", n)
    assert DvrDescriptor("int-localized", 2**61 - 1).p == 2**61 - 1
    with pytest.raises(ValueError, match=r"below 2\^64"):
        DvrDescriptor("ratfunc-localized", 2**89 - 1)
    trial = [n for n in range(2, 10**4) if all(n % d for d in range(2, isqrt(n) + 1))]
    assert [n for n in range(10**4) if _is_prime(n)] == trial


def test_valuation_examples(z3, f5t):
    assert z3.valuation(Fraction(6, 5)) == 1
    assert z3.valuation(z3.one()) == 0
    t2_over_t_plus_1 = parse_scalar(f5t, "(1*t^2)/(1+1*t^1)")
    assert f5t.valuation(t2_over_t_plus_1) == 2


def test_valuation_of_zero_raises(z3):
    with pytest.raises(ValuationUndefinedError):
        z3.valuation(z3.zero())


def test_reduce_examples(z3, f5t):
    # 2^{-1} = 2 mod 3, so 7/2 reduces to 7*2 = 14 = 2
    assert z3.reduce(Fraction(7, 2)) == 2
    assert z3.reduce(z3.from_int(3)) == 0
    assert z3.reduce(Fraction(-1)) == 2  # an int in [0, p), not -1
    assert f5t.reduce(parse_scalar(f5t, "2+1*t^1")) == 2
    assert f5t.reduce(parse_scalar(f5t, "-1+1*t^1")) == 4


def test_reduce_rejects_non_integral(z3):
    with pytest.raises(NotInRingError):
        z3.reduce(Fraction(1, 3))


def test_is_unit_examples(z3, f5t):
    assert z3.is_unit(z3.from_int(-2))
    assert not z3.is_unit(z3.from_int(6))
    assert not f5t.is_unit(f5t.uniformizer())
    assert not z3.is_unit(z3.zero())


def test_invert_mod_group_order(z3, z5):
    assert invert_mod_group_order(2, z3) == Fraction(1, 2)
    assert invert_mod_group_order(6, z5) == Fraction(1, 6)
    d2 = DvrDescriptor("int-localized", 2)
    with pytest.raises(HypothesisViolationError):
        invert_mod_group_order(2, d2)


def test_invert_mod_group_order_ratfunc(f5t):
    inv = invert_mod_group_order(4, f5t)
    assert inv * f5t.from_int(4) == f5t.one()
    with pytest.raises(HypothesisViolationError):
        invert_mod_group_order(10, f5t)


def _random_fraction_scalar(descriptor, rng):
    if descriptor.kind == "int-localized":
        num = rng.randint(-30, 30)
        den = rng.randint(1, 30)
        return Fraction(num, den)
    num = FpPoly.make(descriptor.p, [rng.randrange(descriptor.p) for _ in range(3)])
    den = FpPoly.make(descriptor.p, [rng.randrange(descriptor.p) for _ in range(3)])
    if den.is_zero():
        den = FpPoly.one(descriptor.p)
    return RatFunc.make(num, den)


@pytest.mark.parametrize("kind,p", [("int-localized", 3), ("ratfunc-localized", 5)])
def test_field_axioms_random(kind, p):
    descriptor = DvrDescriptor(kind, p)
    rng = random.Random(20240800 + p)
    for _ in range(120):
        a = _random_fraction_scalar(descriptor, rng)
        b = _random_fraction_scalar(descriptor, rng)
        c = _random_fraction_scalar(descriptor, rng)
        assert (a + b) + c == a + (b + c)
        assert a * (b + c) == a * b + a * c
        assert (a * b) * c == a * (b * c)
        assert a + (-a) == descriptor.zero()
        if b:
            assert (a / b) * b == a
            assert b * (descriptor.one() / b) == descriptor.one()


@pytest.mark.parametrize("kind,p", [("int-localized", 3), ("ratfunc-localized", 5)])
def test_valuation_is_multiplicative_and_ultrametric(kind, p):
    descriptor = DvrDescriptor(kind, p)
    rng = random.Random(7 * p)
    for _ in range(150):
        x = _random_fraction_scalar(descriptor, rng)
        y = _random_fraction_scalar(descriptor, rng)
        if not (x and y):
            continue
        v = descriptor.valuation
        assert v(x * y) == v(x) + v(y)
        s = x + y
        if s:
            assert v(s) >= min(v(x), v(y))


@pytest.mark.parametrize("kind,p", [("int-localized", 3), ("ratfunc-localized", 5)])
def test_reduction_is_ring_homomorphism(kind, p):
    descriptor = DvrDescriptor(kind, p)
    rng = random.Random(99 + p)
    for _ in range(150):
        x = _random_fraction_scalar(descriptor, rng)
        y = _random_fraction_scalar(descriptor, rng)
        if not (descriptor.is_integral(x) and descriptor.is_integral(y)):
            continue
        reduce = descriptor.reduce
        assert 0 <= reduce(x) < p
        assert reduce(x + y) == (reduce(x) + reduce(y)) % p
        assert reduce(x * y) == reduce(x) * reduce(y) % p
        # kernel of reduction is exactly the maximal ideal
        assert (not reduce(x)) == (not x or descriptor.valuation(x) >= 1)


def test_arithmetic_autodowncasts_to_ring_elements(z3):
    a = Fraction(1, 3)
    b = Fraction(2, 3)
    total = a + b
    assert z3.is_integral(total)
    assert total == z3.one()


def test_scalar_string_round_trip(z3, f5t):
    for text in ["-7/2", "0", "4", "6/5"]:
        x = parse_scalar(z3, text, integral=True)
        assert parse_scalar(z3, str(x)) == x
    for text in ["2", "(2+1*t^1)/(1+4*t^2)", "1*t^3", "t", "0"]:
        x = parse_scalar(f5t, text, integral=True)
        assert parse_scalar(f5t, str(x)) == x
    # unicode minus from documentation prose is tolerated
    assert parse_scalar(z3, "−7/2") == parse_scalar(z3, "-7/2")


def test_parser_rejects_denominators_of_positive_valuation(z3, f5t):
    with pytest.raises(NotInRingError):
        parse_scalar(z3, "1/3", integral=True)
    with pytest.raises(NotInRingError):
        parse_scalar(f5t, "(1)/(1*t^1)", integral=True)
    # but they are fine as fraction-field elements
    assert z3.valuation(parse_scalar(z3, "1/3", integral=False)) == -1


def test_parser_rejects_garbage(z3, f5t):
    # an int-kind scalar is an integer or a fraction of integers, no more
    for bad in ["", "1/0", "x+1", "1//2", "1e3", "1.5", "1_0", "1e999999999", "1/ 2"]:
        with pytest.raises(ValueError):
            parse_scalar(z3, bad)
    # exponents are ASCII digits up to MAX_T_DEGREE, rejected before allocating
    for bad in ["", "t^", "(1+t", "1/t/t", "t^999999999", "\u0663", "t^\u0662",
                f"1+t^{MAX_T_DEGREE + 1}"]:
        with pytest.raises(ValueError):
            parse_scalar(f5t, bad)
    assert parse_fp_poly(5, f"t^{MAX_T_DEGREE}").degree == MAX_T_DEGREE


def test_fp_poly_parse_accepts_sparse_forms():
    p = parse_fp_poly(5, "1+2*t^3")
    assert p.coeffs == (1, 0, 0, 2)
    assert parse_fp_poly(5, "-1") == FpPoly.make(5, [4])
    assert parse_fp_poly(5, "t^2") == FpPoly.make(5, [0, 0, 1])


_RATFUNC_OPS = {"+": operator.add, "-": operator.sub, "*": operator.mul, "/": operator.truediv}


def _random_poly(p, rng, max_degree, monic=False):
    top = 1 if monic else rng.randrange(1, p)
    return FpPoly.make(p, [rng.randrange(p) for _ in range(rng.randint(0, max_degree))] + [top])


@pytest.mark.parametrize("p", [2, 5, 7])
def test_ratfunc_arithmetic_matches_the_textbook_oracle(p):
    """Each of + - * / agrees with the oracle in value and is canonical.

    The operands are drawn from classes that reach both paths of the
    arithmetic.  A sum, difference or product of two operands with
    denominator 1 (zero, constants, polynomials) stays on the denominator-1
    path, with no gcd; any other goes through `RatFunc.make`, and a quotient
    is the product with the divisor's inverse.  The other classes are
    fractions over powers of t and over powers of t + 1 (coprime
    denominators), fractions whose numerator or denominator holds
    f = t^2 + t + 1 (shared factors, also across numerator and denominator),
    pairs a, a (whose difference is 0 over a shared denominator) and pairs
    a, s - a whose sum cancels the factor the two denominators share.
    """
    rng = random.Random(20261018 + p)
    t, t1 = FpPoly.t(p), FpPoly.make(p, [1, 1])
    f = FpPoly.make(p, [1, 1, 1])

    def power(base, k):
        out = FpPoly.one(p)
        for _ in range(k):
            out = out * base
        return out

    classes = {
        "zero": lambda: RatFunc.zero(p),
        "constant": lambda: RatFunc.from_int(p, rng.randrange(1, p)),
        "polynomial": lambda: RatFunc.make(_random_poly(p, rng, 3), FpPoly.one(p)),
        "over_t": lambda: RatFunc.make(_random_poly(p, rng, 2), power(t, rng.randint(1, 2))),
        "over_t_plus_1": lambda: RatFunc.make(_random_poly(p, rng, 2), power(t1, rng.randint(1, 2))),
        "shares_f": lambda: RatFunc.make(
            _random_poly(p, rng, 1) * power(f, rng.randint(0, 1)),
            f * _random_poly(p, rng, 1, monic=True),
        ) if rng.randrange(2) else RatFunc.make(
            f * _random_poly(p, rng, 1), _random_poly(p, rng, 2, monic=True)
        ),
    }

    def check(op, a, b):
        result = _RATFUNC_OPS[op](a, b)
        num, den = ratfunc_op_bruteforce(op, a, b)
        assert coeff_mul(p, result.num.coeffs, den) == coeff_mul(p, num, result.den.coeffs)
        assert result.den.coeffs[-1] == 1
        assert coeff_gcd(p, result.num.coeffs, result.den.coeffs) == [1]
        for poly in (result.num, result.den):
            assert poly == FpPoly.make(p, poly.coeffs)

    pairs = [
        (make_a(), make_b())
        for make_a in classes.values()
        for make_b in classes.values()
        for _ in range(4)
    ]
    pairs += [(a, a) for a in (make() for make in classes.values() for _ in range(2))]
    for _ in range(12):
        a = classes["shares_f"]()
        s = classes["polynomial" if rng.randrange(2) else "over_t"]()
        pairs.append((a, RatFunc.make(*(FpPoly(p, c) for c in ratfunc_op_bruteforce("-", s, a)))))
    for a, b in pairs:
        for op in "+-*":
            check(op, a, b)
        if b:
            check("/", a, b)
        else:
            with pytest.raises(ZeroDivisionError):
                a / b


def test_make_divides_only_by_a_gcd_other_than_1(monkeypatch):
    # the gcd of 1 + t and 2 + t over F_5 is 1: the pair is already reduced
    # and `make` runs no division by it; t + t^2 over t is divided by t
    divisors = []
    division = ratfunc._long_division
    monkeypatch.setattr(ratfunc, "_long_division",
                        lambda a, b, p: divisors.append(b) or division(a, b, p))
    coprime = RatFunc.make(FpPoly.make(5, [1, 1]), FpPoly.make(5, [2, 1]))
    assert (coprime.num.coeffs, coprime.den.coeffs) == ((1, 1), (2, 1))
    assert (1,) not in divisors
    shared = RatFunc.make(FpPoly.make(5, [0, 1, 1]), FpPoly.t(5))
    assert (shared.num.coeffs, shared.den.coeffs) == ((1, 1), (1,))


def test_scalars_from_different_dvrs_do_not_mix(z3, z5):
    # a value records no DVR, not even a value of k, a plain int: its
    # container does, and refuses to combine with one of another prime,
    # naming both DVRs, kind and p
    both = r"int-localized.*p=3.*int-localized.*p=5"
    for ring in (RING_O, RING_K, RING_RESIDUE):
        for op in (operator.add, operator.sub, operator.mul):
            with pytest.raises(ValueError, match=both):
                op(ExactMatrix.identity(ring, z3, 2), ExactMatrix.identity(ring, z5, 2))
            with pytest.raises(ValueError, match=both):
                op(poly_variable(ring, z3, 2, 0), poly_variable(ring, z5, 2, 0))
        with pytest.raises(ValueError, match=both):
            act(ExactMatrix.identity(ring, z3, 2), poly_variable(ring, z5, 2, 0))
    # the same ints over k of Z_(3) and of Z_(5) are different matrices
    assert ExactMatrix(RING_RESIDUE, z3, [[4]]) == ExactMatrix(RING_RESIDUE, z3, [[1]])
    assert ExactMatrix(RING_RESIDUE, z3, [[1]]) != ExactMatrix(RING_RESIDUE, z5, [[1]])
