import random
from fractions import Fraction

import pytest

from dvrcert.errors import (
    HypothesisViolationError,
    NotInRingError,
    ValuationUndefinedError,
)
from dvrcert.ratfunc import FpPoly, RatFunc, parse_fp_poly
from dvrcert.scalars import (
    DvrDescriptor,
    FractionScalar,
    ResidueScalar,
    invert_mod_group_order,
    parse_scalar,
)


def test_descriptor_rejects_composite_p():
    with pytest.raises(ValueError, match="prime"):
        DvrDescriptor("int-localized", 4)
    with pytest.raises(ValueError, match="prime"):
        DvrDescriptor("ratfunc-localized", 1)
    with pytest.raises(ValueError, match="kind"):
        DvrDescriptor("power-series", 3)


def test_valuation_examples(z3, f5t):
    assert FractionScalar(z3, Fraction(6, 5)).valuation() == 1
    assert z3.one().valuation() == 0
    t2_over_t_plus_1 = parse_scalar(f5t, "(1*t^2)/(1+1*t^1)")
    assert t2_over_t_plus_1.valuation() == 2


def test_valuation_of_zero_raises(z3):
    with pytest.raises(ValuationUndefinedError):
        z3.zero().valuation()


def test_reduce_examples(z3, f5t):
    # 2^{-1} = 2 mod 3, so 7/2 reduces to 7*2 = 14 = 2
    assert FractionScalar(z3, Fraction(7, 2)).reduce() == ResidueScalar(z3, 2)
    assert z3.from_int(3).reduce() == ResidueScalar(z3, 0)
    assert parse_scalar(f5t, "2+1*t^1").reduce() == ResidueScalar(f5t, 2)


def test_reduce_rejects_non_integral(z3):
    x = FractionScalar(z3, Fraction(1, 3))
    with pytest.raises(NotInRingError):
        x.reduce()


def test_is_unit_examples(z3, f5t):
    assert z3.from_int(-2).is_unit()
    assert not z3.from_int(6).is_unit()
    assert not f5t.uniformizer().is_unit()
    assert not z3.zero().is_unit()


def test_invert_mod_group_order(z3, z5):
    assert invert_mod_group_order(2, z3) == FractionScalar(z3, Fraction(1, 2))
    assert invert_mod_group_order(6, z5).value == Fraction(1, 6)
    d2 = DvrDescriptor("int-localized", 2)
    with pytest.raises(HypothesisViolationError):
        invert_mod_group_order(2, d2)


def test_invert_mod_group_order_ratfunc(f5t):
    inv = invert_mod_group_order(4, f5t)
    assert inv * 4 == f5t.one()
    with pytest.raises(HypothesisViolationError):
        invert_mod_group_order(10, f5t)


def _random_fraction_scalar(descriptor, rng):
    if descriptor.kind == "int-localized":
        num = rng.randint(-30, 30)
        den = rng.randint(1, 30)
        return FractionScalar(descriptor, Fraction(num, den))
    num = FpPoly.make(descriptor.p, [rng.randrange(descriptor.p) for _ in range(3)])
    den = FpPoly.make(descriptor.p, [rng.randrange(descriptor.p) for _ in range(3)])
    if den.is_zero():
        den = FpPoly.one(descriptor.p)
    return FractionScalar(descriptor, RatFunc.make(num, den))


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
        if not b.is_zero():
            assert (a / b) * b == a
            assert b * (descriptor.one() / b) == descriptor.one()


@pytest.mark.parametrize("kind,p", [("int-localized", 3), ("ratfunc-localized", 5)])
def test_valuation_is_multiplicative_and_ultrametric(kind, p):
    descriptor = DvrDescriptor(kind, p)
    rng = random.Random(7 * p)
    for _ in range(150):
        x = _random_fraction_scalar(descriptor, rng)
        y = _random_fraction_scalar(descriptor, rng)
        if x.is_zero() or y.is_zero():
            continue
        assert (x * y).valuation() == x.valuation() + y.valuation()
        s = x + y
        if not s.is_zero():
            assert s.valuation() >= min(x.valuation(), y.valuation())


@pytest.mark.parametrize("kind,p", [("int-localized", 3), ("ratfunc-localized", 5)])
def test_reduction_is_ring_homomorphism(kind, p):
    descriptor = DvrDescriptor(kind, p)
    rng = random.Random(99 + p)
    for _ in range(150):
        x = _random_fraction_scalar(descriptor, rng)
        y = _random_fraction_scalar(descriptor, rng)
        if not (x.is_integral() and y.is_integral()):
            continue
        assert (x + y).reduce() == x.reduce() + y.reduce()
        assert (x * y).reduce() == x.reduce() * y.reduce()
        # kernel of reduction is exactly the maximal ideal
        assert (x.reduce().is_zero()) == (x.is_zero() or x.valuation() >= 1)


def test_arithmetic_autodowncasts_to_ring_elements(z3):
    a = FractionScalar(z3, Fraction(1, 3))
    b = FractionScalar(z3, Fraction(2, 3))
    total = a + b
    assert total.is_integral()
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
    assert parse_scalar(z3, "1/3", integral=False).valuation() == -1


def test_parser_rejects_garbage(z3, f5t):
    for bad in ["", "1/0", "x+1", "1//2"]:
        with pytest.raises(ValueError):
            parse_scalar(z3, bad)
    for bad in ["", "t^", "(1+t", "1/t/t"]:
        with pytest.raises(ValueError):
            parse_scalar(f5t, bad)


def test_fp_poly_parse_accepts_sparse_forms():
    p = parse_fp_poly(5, "1+2*t^3")
    assert p.coeffs == (1, 0, 0, 2)
    assert parse_fp_poly(5, "-1") == FpPoly.make(5, [4])
    assert parse_fp_poly(5, "t^2") == FpPoly.make(5, [0, 0, 1])


def test_scalars_from_different_dvrs_do_not_mix(z3, z5):
    with pytest.raises(ValueError):
        z3.one() + z5.one()
