import pytest
from hypothesis import given, settings, strategies as st

from xcartier.ring import (
    LaurentPoly,
    NilpotencyError,
    NotAUnitError,
    NotDivisibleError,
    ParseError,
    PolyMatrix,
    PrimeContext,
    RingError,
    VarSpec,
    divide_by_p,
    invert_unit,
    monomials_in_box,
    trunc_exp,
)

T = VarSpec.make(["t"])
T_INV = VarSpec.make(["t"], ["t"])
W_INV = VarSpec.make(["w"], ["w"])


def poly(text, vars=T, modulus=3):
    return LaurentPoly.parse(text, vars, modulus)


# ---------------------------------------------------------------- contexts


def test_prime_context_tables():
    ctx = PrimeContext(5)
    assert ctx.wilson == 4  # (p-1)! = -1
    assert ctx.inv_factorials == (1, 1, 3, 1, 4)  # inverses of 1,1,2,6,24 mod 5


@pytest.mark.parametrize("bad", [2, 4, 9, 1, -3])
def test_prime_context_rejects_non_odd_primes(bad):
    with pytest.raises(RingError):
        PrimeContext(bad)


# ---------------------------------------------------------------- arithmetic


def test_derivative_of_tcubed_vanishes_mod_3():
    assert poly("t^3").deriv("t").is_zero()


def test_triple_derivative_of_inverse_t_vanishes_mod_3():
    # oracle: iterated falling factors (-1)(-2)(-3) = -6 = 0 mod 3
    assert (-1) * (-2) * (-3) % 3 == 0
    f = poly("t^-1", T_INV)
    for _ in range(3):
        f = f.deriv("t")
    assert f.is_zero()


def test_frobenius_freshman_dream():
    assert poly("t + 1").frobenius() == poly("t^3 + 1")


def test_negative_exponent_rejected_on_plain_variable():
    with pytest.raises(RingError):
        LaurentPoly(T, 3, {(-1,): 1})
    with pytest.raises(ParseError):
        poly("t^-1")


def test_parse_emit_canonical():
    s_vars = VarSpec.make(["s"])
    f = LaurentPoly.parse("s^2 + 2*s^4", s_vars, 5)
    assert str(f) == "2*s^4 + s^2"
    assert LaurentPoly.parse(str(f), s_vars, 5) == f


def test_parse_names_bad_token():
    with pytest.raises(ParseError, match="u"):
        poly("t + u")


def test_parse_multivariate():
    vars = VarSpec.make(["t1", "t2"], ["t2"])
    f = LaurentPoly.parse("2*t1^2*t2^-1 + t1 - 1", vars, 5)
    assert f.terms == {(2, -1): 2, (1, 0): 1, (0, 0): 4}
    assert LaurentPoly.parse(str(f), vars, 5) == f


@pytest.mark.parametrize("bad", ["", "t^", "2*", "*t", "2^3", "t+", "t^x"])
def test_parse_rejects_malformed(bad):
    with pytest.raises(ParseError):
        poly(bad)


def test_parse_negative_literal_as_separator():
    assert poly("t^2 -2*t") == poly("t^2 + t")  # -2 = 1 mod 3


@st.composite
def laurent_polys(draw, vars=T_INV, modulus=3, max_terms=4, max_exp=4):
    n = vars.arity
    exps = st.tuples(*[
        st.integers(-max_exp if vars.allows_negative(name) else 0, max_exp)
        for name in vars.names
    ])
    terms = draw(st.dictionaries(exps, st.integers(0, modulus - 1), max_size=max_terms))
    return LaurentPoly(vars, modulus, terms)


@given(laurent_polys())
def test_text_round_trip(f):
    assert LaurentPoly.parse(str(f), f.vars, f.modulus) == f


@given(laurent_polys(), laurent_polys())
def test_frobenius_is_a_ring_map(a, b):
    assert (a * b).frobenius() == a.frobenius() * b.frobenius()
    assert (a + b).frobenius() == a.frobenius() + b.frobenius()


@given(laurent_polys())
def test_p_fold_derivative_annihilates(f):
    for _ in range(3):
        f = f.deriv("t")
    assert f.is_zero()


@given(laurent_polys(), laurent_polys(), laurent_polys())
def test_ring_laws(a, b, c):
    assert a * b == b * a
    assert (a + b) * c == a * c + b * c


# ---------------------------------------------------------------- divide_by_p


def test_divide_by_p_examples():
    assert divide_by_p(poly("3*t^2 + 3", T, 9)) == poly("t^2 + 1")
    assert divide_by_p(LaurentPoly.zero(T, 9)).is_zero()
    assert divide_by_p(poly("6*t^5", T, 9)) == poly("2*t^5")


def test_divide_by_p_names_offending_term():
    with pytest.raises(NotDivisibleError, match="t\\^2"):
        divide_by_p(poly("3*t + 2*t^2", T, 9))


@given(laurent_polys())
def test_divide_by_p_inverts_multiplication(f):
    lifted = LaurentPoly(f.vars, 9, f.terms) * 3
    assert divide_by_p(lifted) == f


# ---------------------------------------------------------------- invert_unit


def test_invert_unit_monomial():
    assert invert_unit(poly("w^3", W_INV, 9)) == poly("w^-3", W_INV, 9)


def test_invert_unit_with_correction():
    u = poly("w^3 + 3*w", W_INV, 9)
    inv = invert_unit(u)
    assert inv == poly("w^-3 + 6*w^-5", W_INV, 9)  # -3 = 6 mod 9
    assert (u * inv).is_one()


def test_invert_unit_geometric_truncation():
    u = poly("1 + 3*t", T, 9)
    assert invert_unit(u) == poly("1 + 6*t", T, 9)


def test_invert_unit_rejects_non_units():
    with pytest.raises(NotAUnitError):
        invert_unit(poly("t + 1", T, 9))
    with pytest.raises(NotAUnitError):
        invert_unit(poly("t", T, 9))  # t not inverted


# ---------------------------------------------------------------- trunc_exp


def n_block(size, vars, modulus):
    return PolyMatrix.from_int_rows(
        [[1 if j == i + 1 else 0 for j in range(size)] for i in range(size)], vars, modulus
    )


def test_trunc_exp_of_zero_is_identity():
    ctx = PrimeContext(3)
    z = PolyMatrix.zero(2, 2, T, 3)
    assert trunc_exp(z, ctx).is_identity()


def test_trunc_exp_truncates_on_square_zero():
    ctx = PrimeContext(3)
    s_vars = VarSpec.make(["s"])
    m = n_block(2, s_vars, 3).scale(LaurentPoly.parse("s^5", s_vars, 3))
    expected = PolyMatrix.identity(2, s_vars, 3) + m
    assert trunc_exp(m, ctx) == expected


def test_trunc_exp_jordan_block_mod_5():
    ctx = PrimeContext(5)
    z_vars = VarSpec.make(["z"])
    n3 = n_block(3, z_vars, 5)
    z = LaurentPoly.parse("z", z_vars, 5)
    m = n3.scale(z)
    # I + z N + z^2/2 N^2 with 1/2 = 3 mod 5
    expected = (
        PolyMatrix.identity(3, z_vars, 5)
        + n3.scale(z)
        + (n3 @ n3).scale(z * z * 3)
    )
    assert trunc_exp(m, ctx) == expected


def test_trunc_exp_rejects_non_nilpotent_with_witness():
    ctx = PrimeContext(3)
    m = PolyMatrix.from_int_rows([[1, 0], [0, 1]], T, 3)
    with pytest.raises(NilpotencyError, match="entry"):
        trunc_exp(m, ctx)


@given(st.integers(0, 2), st.integers(0, 2), st.integers(0, 2), st.integers(0, 2))
def test_trunc_exp_inverse_law(a, b, c, d):
    ctx = PrimeContext(3)
    n = n_block(2, T, 3)
    m = n.scale(LaurentPoly(T, 3, {(0,): a, (1,): b, (2,): c, (3,): d}))
    prod = trunc_exp(m, ctx) @ trunc_exp(-m, ctx)
    assert prod.is_identity()


@given(st.integers(0, 4), st.integers(0, 4), st.integers(1, 4), st.integers(0, 4))
@settings(max_examples=40)
def test_trunc_exp_additive_on_commuting(a, b, c, e):
    ctx = PrimeContext(5)
    n = n_block(4, T, 5)
    q1 = n.scale(LaurentPoly(T, 5, {(0,): a, (1,): b}))
    q2 = (n @ n).scale(LaurentPoly(T, 5, {(0,): c, (2,): e}))
    assert q1.commutator(q2).is_zero()
    lhs = trunc_exp(q1 + q2, ctx)
    rhs = trunc_exp(q1, ctx) @ trunc_exp(q2, ctx)
    assert lhs == rhs


# ---------------------------------------------------------------- matrices


def test_matrix_inverse_unit_det():
    s_vars = VarSpec.make(["s"], ["s"])
    s = LaurentPoly.parse("s", s_vars, 3)
    m = PolyMatrix([
        [s ** 3, LaurentPoly.zero(s_vars, 3)],
        [s ** 2, s ** -3],
    ])
    inv = m.inverse_unit_det()
    assert (m @ inv).is_identity()
    assert (inv @ m).is_identity()


def test_monomial_box_respects_inversion():
    box = monomials_in_box(T, 2)
    assert box == [(0,), (1,), (2,)]
    box_inv = monomials_in_box(T_INV, 1)
    assert box_inv == [(0,), (-1,), (1,)]
