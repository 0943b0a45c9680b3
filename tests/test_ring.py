import random

import pytest
from hypothesis import given, settings, strategies as st

from xcartier.gallery import gallery
from xcartier.ring import (
    LaurentPoly,
    NilpotencyError,
    NotAUnitError,
    NotDivisibleError,
    ParseError,
    PolyMatrix,
    PrimeContext,
    RingError,
    SubstitutionError,
    VarSpec,
    _product_terms,
    divide_by_p,
    invert_poly,
    invert_unit,
    monomials_in_box,
    trunc_exp,
)
from xcartier.transforms import inverse_cartier

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
    assert poly("t^3 + 1").frobenius_root() == poly("t + 1")
    with pytest.raises(NotDivisibleError, match="'t\\^4 \\+ 1' has an exponent not divisible by 3"):
        poly("t^4 + 1").frobenius_root()


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


@pytest.mark.parametrize("bad", ["", "t^", "2*", "*t", "2^3", "t+", "t^x",
                                 "t^--3", "3t", "t^2^3", "t*-t"])
def test_parse_rejects_malformed(bad):
    with pytest.raises(ParseError):
        poly(bad)


def test_parse_negative_literal_as_separator():
    assert poly("t^2 -2*t") == poly("t^2 + t")  # -2 = 1 mod 3


SPACES = st.sampled_from(["", " ", "  ", "\t"])


@st.composite
def written_terms(draw, vars, first):
    """(text, coefficient, exponents) of one term, written in a random style."""
    sp = lambda: draw(SPACES)  # noqa: E731
    coeff = draw(st.integers(-12, 12))
    exps = tuple(
        draw(st.integers(-3 if vars.allows_negative(name) else 0, 3)) for name in vars.names
    )
    factors = []
    for name, e in zip(vars.names, exps):
        if e == 1 and draw(st.booleans()):
            factors.append(name)
        elif e or draw(st.booleans()):
            minus = f"-{sp()}" if e < 0 else ""
            factors.append(f"{name}{sp()}^{sp()}{minus}{abs(e)}")
    factors = draw(st.permutations(factors))
    # how the sign is written: '+ c', '- (-c)', a leading negative literal, or none at all
    styles = ["plus", "minus"] + ["literal"] * (coeff < 0) + ["none"] * first
    style = draw(st.sampled_from(styles))
    literal = -coeff if style == "minus" else coeff
    if style in ("literal", "none") and not (literal == 1 and factors and draw(st.booleans())):
        factors = [str(literal)] + factors
    elif literal != 1 or not factors:
        factors.insert(draw(st.integers(0, len(factors))), str(literal))
    body = f"{sp()}*{sp()}".join(factors)
    sign = {"plus": "+", "minus": "-"}.get(style)
    return (f"{sign}{sp()}{body}" if sign else body), coeff, exps


@st.composite
def poly_texts(draw):
    """(text, vars, modulus, polynomial) for a random sum of written terms."""
    vars = draw(st.sampled_from([T, T_INV, VarSpec.make(["t", "u"], ["u"]),
                                 VarSpec.make(["x", "y1", "z_"], ["x", "z_"])]))
    modulus = draw(st.sampled_from([3, 5, 9, 25]))
    text, terms = "", {}
    for k in range(draw(st.integers(1, 5))):
        term, coeff, exps = draw(written_terms(vars, first=k == 0))
        text += draw(SPACES) + term
        terms[exps] = terms.get(exps, 0) + coeff
    return text + draw(SPACES), vars, modulus, LaurentPoly(vars, modulus, terms)


@given(poly_texts())
@settings(max_examples=300)
def test_parse_reads_every_written_form(case):
    text, vars, modulus, want = case
    assert LaurentPoly.parse(text, vars, modulus) == want


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
    assert a.frobenius().frobenius_root() == a


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


# ------------------------------------------------- ring changes by _make


def test_extend_vars_onto_fewer_inversions_still_validates():
    f = poly("t^-1 + 1", T_INV)
    assert f.extend_vars(T_INV) == f
    with pytest.raises(RingError, match="negative exponent"):
        f.extend_vars(T)
    assert poly("t + 1", T_INV).extend_vars(T) == poly("t + 1")
    with pytest.raises(RingError, match="identical variable names"):
        f.extend_vars(W_INV)


def test_reduce_mod_by_a_non_divisor_still_raises():
    f = poly("4*t + 1", T, 9)
    assert f.reduce_mod(3) == poly("t + 1")
    for m in (2, 5, 27):
        with pytest.raises(RingError, match=f"cannot reduce modulo {m} from 9"):
            f.reduce_mod(m)
    for m in (1, 0, -3):
        with pytest.raises(RingError, match="bad modulus"):
            f.reduce_mod(m)


@given(st.data())
@settings(max_examples=60)
def test_trusted_ring_changes_equal_the_validated_construction(data):
    vars, m = data.draw(rings())
    p = 3 if m in (3, 9) else 5 if m in (5, 25) else 7
    f = data.draw(laurent_polys(vars, m))
    assert f.reduce_mod(p) == LaurentPoly(vars, p, f.terms)
    wider = vars.with_inverted(data.draw(st.sets(st.sampled_from(vars.names))))
    assert f.extend_vars(wider) == LaurentPoly(wider, m, f.terms)
    lifted = LaurentPoly(vars, p * p, f.reduce_mod(p).terms) * p
    assert divide_by_p(lifted) == LaurentPoly(vars, p, f.reduce_mod(p).terms)
    for r in (f.reduce_mod(p), f.extend_vars(wider), divide_by_p(lifted)):
        assert_canonical(r)


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


def invert_unit_by_products(u):
    """The Newton step m^-1 (2 - m^-1 u) with every product a polynomial product."""
    p = round(u.modulus ** 0.5)
    (e0, c0), = [(e, c) for e, c in u.terms.items() if c % p]
    m_inv = LaurentPoly.monomial(u.vars, u.modulus, pow(c0, -1, u.modulus), [-e for e in e0])
    return m_inv * (LaurentPoly.const(u.vars, u.modulus, 2) - m_inv * u)


@pytest.mark.parametrize("seed", range(60))
def test_invert_unit_matches_the_newton_step_by_products(seed):
    rng = random.Random(seed)
    names = ["t", "u", "v"][:rng.randint(1, 3)]
    vars = VarSpec.make(names, [n for n in names if rng.random() < 0.7])
    p = rng.choice([3, 5, 7])
    lead = tuple(rng.randint(-3, 3) if n in vars.inverted else 0 for n in names)
    terms = {lead: rng.randrange(1, p * p)}
    terms[lead] += terms[lead] % p == 0  # the leading coefficient is a unit
    for _ in range(rng.randint(0, 5)):
        exps = tuple(rng.randint(-3 if n in vars.inverted else 0, 3) for n in names)
        if exps != lead:
            terms[exps] = p * rng.randrange(p)
    u = LaurentPoly(vars, p * p, terms)
    inv = invert_unit(u)
    assert inv == invert_unit_by_products(u) and (u * inv).is_one()


# ------------------------------------------------- single-term powers and inverses


def general_power(u, n):
    """u^n by repeated multiplication."""
    out = LaurentPoly.one(u.vars, u.modulus)
    for _ in range(n):
        out = out * u
    return out


@pytest.mark.parametrize("seed", range(80))
def test_single_term_power_and_inverse_match_the_general_paths(seed):
    rng = random.Random(seed)
    names = ["t", "u", "v"][:rng.randint(1, 3)]
    vars = VarSpec.make(names, [n for n in names if rng.random() < 0.5])
    p = rng.choice([3, 5, 7])
    m = p ** (1 + seed % 2)
    exps = tuple(rng.randint(-3 if name in vars.inverted else 0, 3) for name in names)
    c = rng.randrange(1, m)  # p-divisible for some seeds mod p**2
    u = LaurentPoly.monomial(vars, m, c, exps)
    for n in range(5):
        assert u ** n == general_power(u, n)
    if not u.is_unit():
        with pytest.raises(NotAUnitError):
            invert_poly(u)
        with pytest.raises(NotAUnitError):
            u ** -1
        return
    inv = invert_poly(u)
    assert (u * inv).is_one()
    if m == p:  # the mod-p formula c^(p-2) t^-e
        assert inv == LaurentPoly.monomial(vars, m, pow(c, p - 2, p), tuple(-e for e in exps))
    else:  # the m*(1 + p*x) Newton step
        assert inv == invert_unit(u)
    for n in range(1, 4):
        assert u ** -n == general_power(inv, n)


@pytest.mark.parametrize("m", [3, 9])
def test_single_term_non_units_raise_as_before(m):
    one = LaurentPoly.one(T, m)
    t = poly("t", T, m)  # t not inverted
    assert t ** 0 == one and t ** 3 == poly("t^3", T, m)
    for call in (lambda: invert_poly(t), lambda: t ** -2):
        with pytest.raises(NotAUnitError):
            call()
    w = poly("w^-2", W_INV, m)
    assert w ** 0 == LaurentPoly.one(W_INV, m) and invert_poly(w) == poly("w^2", W_INV, m)
    if m == 9:
        divisible = poly("3*w^2", W_INV, 9)
        assert divisible ** 2 == LaurentPoly.zero(W_INV, 9) == general_power(divisible, 2)
        for call in (lambda: invert_poly(divisible), lambda: divisible ** -1,
                     lambda: invert_unit(divisible)):
            with pytest.raises(NotAUnitError):
                call()
    s = VarSpec.make(["s"], ["s"])
    with pytest.raises(SubstitutionError):  # 1/t with t not inverted in the target
        poly("s^-1", s, m).subst({"s": t}, T)


@pytest.mark.parametrize("seed", range(40))
def test_commutes_with_decides_as_the_two_products(seed):
    rng = random.Random(seed)
    n, p = rng.randint(1, 4), rng.choice([3, 5])

    def entry():
        return LaurentPoly(T, p, {(e,): rng.randrange(p) for e in range(rng.randint(0, 2))})

    a = PolyMatrix([[entry() for _ in range(n)] for _ in range(n)])
    b = a @ a + a.scale(rng.randrange(p)) if rng.random() < 0.5 else PolyMatrix(
        [[entry() for _ in range(n)] for _ in range(n)])  # commutes with a, or need not
    assert a.commutes_with(b) == (a @ b == b @ a) == b.commutes_with(a)


def test_commutes_with_checks_shape_and_ring():
    a = PolyMatrix.from_int_rows([[1, 2, 0], [0, 1, 1]], T, 3)
    with pytest.raises(RingError, match="shape mismatch 2x3 @ 2x3"):
        a.commutes_with(a)
    square = PolyMatrix.identity(2, T, 3)
    with pytest.raises(RingError, match="different rings"):
        square.commutes_with(PolyMatrix.identity(2, T_INV, 3))


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


def test_trunc_exp_stops_at_the_first_zero_power(monkeypatch):
    ctx = PrimeContext(7)
    n = n_block(3, T, 7).scale(LaurentPoly.parse("t + 2", T, 7))
    m = n @ n  # m^2 = 0
    products = []
    matmul = PolyMatrix.__matmul__

    def counting_matmul(self, other):
        products.append(other)
        return matmul(self, other)

    monkeypatch.setattr(PolyMatrix, "__matmul__", counting_matmul)
    assert trunc_exp(m, ctx) == PolyMatrix.identity(3, T, 7) + m
    assert len(products) == 1
    products.clear()
    assert trunc_exp(n, ctx) == PolyMatrix.identity(3, T, 7) + n + m.scale(4)  # 1/2 = 4 mod 7
    assert len(products) == 2


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


@pytest.mark.parametrize("rank", range(1, 7))
@pytest.mark.parametrize("modulus", [5, 25])
@pytest.mark.parametrize("vars", [VarSpec.make(["t", "u"]), VarSpec.make(["t", "u"], ["u"])],
                         ids=["plain", "inverted"])
def test_the_identity_is_its_own_inverse_as_the_adjugate_formula_gives(rank, modulus, vars):
    eye = PolyMatrix.identity(rank, vars, modulus)
    assert eye.inverse_unit_det() is eye
    assert eye == eye.adjugate().scale(invert_poly(eye.det()))


def test_monomial_box_respects_inversion():
    assert [monomials_in_box(T, bound) for bound in range(3)] == [
        [(0,)], [(0,), (1,)], [(0,), (1,), (2,)],
    ]
    assert [monomials_in_box(T_INV, bound) for bound in range(3)] == [
        [(0,)], [(0,), (-1,), (1,)], [(0,), (-1,), (1,), (-2,), (2,)],
    ]
    plane = VarSpec.make(["t", "u"], ["u"])
    assert [monomials_in_box(plane, bound) for bound in range(3)] == [
        [(0, 0)],
        [(0, 0), (0, -1), (0, 1), (1, 0), (1, -1), (1, 1)],
        [(0, 0), (0, -1), (0, 1), (1, 0), (0, -2), (0, 2), (1, -1), (1, 1), (2, 0),
         (1, -2), (1, 2), (2, -1), (2, 1), (2, -2), (2, 2)],
    ]


# ------------------------------------------- trusted same-ring arithmetic


def assert_canonical(r):
    """r is what the validating constructor makes of its own terms."""
    assert all(0 < c < r.modulus for c in r.terms.values())
    assert r == LaurentPoly(r.vars, r.modulus, r.terms)


@st.composite
def rings(draw, max_arity=3):
    names = ["t", "u", "v"][:draw(st.integers(1, max_arity))]
    inverted = draw(st.sets(st.sampled_from(names)))
    p = draw(st.sampled_from([3, 5, 7]))
    return VarSpec.make(names, inverted), p ** draw(st.integers(1, 2))


@st.composite
def matrices(draw, vars, modulus, rank, cols=None):
    return PolyMatrix([
        [draw(laurent_polys(vars, modulus, max_terms=3, max_exp=3)) for _ in range(cols or rank)]
        for _ in range(rank)
    ])


@given(st.data())
@settings(max_examples=60)
def test_same_ring_polynomial_ops_are_canonical(data):
    vars, m = data.draw(rings())
    a, b = (data.draw(laurent_polys(vars, m)) for _ in range(2))
    k = data.draw(st.integers(-2 * m, 2 * m))
    results = [a + b, a - b, a * b, -a, a * k, k * a]
    results += [a.deriv(name) for name in vars.names]
    if m in (3, 5, 7):
        results += [a.frobenius(), a.frobenius().frobenius_root()]
        assert results[-1] == a
    for r in results:
        assert r.vars is vars and r.modulus == m
        assert_canonical(r)


@given(st.data())
@settings(max_examples=40)
def test_same_ring_matrix_ops_are_canonical(data):
    vars, m = data.draw(rings())
    rank = data.draw(st.integers(1, 3))
    A, B = (data.draw(matrices(vars, m, rank)) for _ in range(2))
    f = data.draw(laurent_polys(vars, m))
    product = A @ B
    for i in range(rank):  # the fused kernel against entry-wise sums of products
        for j in range(rank):
            naive = LaurentPoly.zero(vars, m)
            for k in range(rank):
                naive = naive + A.entries[i][k] * B.entries[k][j]
            assert product.entries[i][j] == naive
    results = [product, A + B, A - B, -A, A.scale(f), A.scale(m + 2), A.deriv(vars.names[0])]
    if m in (3, 5, 7):
        results += [A.frobenius(), A.frobenius().frobenius_root()]
        assert results[-1] == A
    for R in results:
        assert R == PolyMatrix(R.entries)
        for row in R.entries:
            for x in row:
                assert x.vars is vars and x.modulus == m
                assert_canonical(x)


@given(st.data())
@settings(max_examples=60)
def test_nabla_is_the_derivative_plus_the_product(data):
    vars, m = data.draw(rings(max_arity=2))
    rank, cols = data.draw(st.integers(1, 3)), data.draw(st.integers(1, 3))
    A, S = data.draw(matrices(vars, m, rank)), data.draw(matrices(vars, m, rank, cols))
    for name in vars.names:
        R = S.nabla(A, name)
        assert R == S.deriv(name) + A @ S
        for row in R.entries:
            for x in row:
                assert x.vars is vars and x.modulus == m
                assert_canonical(x)


# ------------------------------------------------- zero-aware kernels


def ref_poly(vars, m, terms):
    """The validating constructor on plain dict arithmetic: no kernel involved."""
    out = {}
    for e, c in terms:
        out[e] = out.get(e, 0) + c
    return LaurentPoly(vars, m, out)


def ref_sum(a, b, sign=1):
    return ref_poly(a.vars, a.modulus, [*a.terms.items(), *((e, sign * c) for e, c in b.terms.items())])


def ref_product(a, b):
    return ref_poly(a.vars, a.modulus, [
        (tuple(x + y for x, y in zip(ea, eb)), ca * cb)
        for ea, ca in a.terms.items() for eb, cb in b.terms.items()
    ])


def ref_deriv(a, name):
    i = a.vars.index(name)
    return ref_poly(a.vars, a.modulus, [
        (e[:i] + (e[i] - 1,) + e[i + 1:], c * e[i]) for e, c in a.terms.items()
    ])


def random_sparse_poly(rng, vars, m, density):
    if rng.random() > density:
        return LaurentPoly.zero(vars, m)
    return LaurentPoly(vars, m, {
        tuple(rng.randint(-2 if name in vars.inverted else 0, 3) for name in vars.names):
            rng.randrange(m)
        for _ in range(rng.randint(1, 3))
    })


def random_sparse_matrix(rng, vars, m, rows, cols):
    """Entries nonzero with a random density; some rows and columns all zero."""
    density = rng.choice([0.0, 0.3, 0.6, 1.0])
    zero_rows = {i for i in range(rows) if rng.random() < 0.25}
    zero_cols = {j for j in range(cols) if rng.random() < 0.25}
    return PolyMatrix([
        [LaurentPoly.zero(vars, m) if i in zero_rows or j in zero_cols
         else random_sparse_poly(rng, vars, m, density) for j in range(cols)]
        for i in range(rows)
    ])


def random_vars(rng, wide):
    """One to three variables, some inverted; wide: three or four, one inverted at least."""
    if not wide:
        names = ["t", "u", "v"][:rng.randint(1, 3)]
        return VarSpec.make(names, [n for n in names if rng.random() < 0.5])
    names = ["t", "u", "v", "w"][:rng.randint(3, 4)]
    return VarSpec.make(names, [n for n in names if rng.random() < 0.5] or names[-1:])


def snapshot(*operands):
    return [(x, dict(x.terms)) for M in operands for row in M.entries for x in row]


@pytest.mark.parametrize("seed", range(80))
def test_zero_aware_kernels_match_the_entrywise_reference(seed):
    rng = random.Random(seed)
    vars = random_vars(rng, wide=seed >= 60)
    names = vars.names
    p = rng.choice([3, 5, 7])
    m = p ** rng.randint(1, 2)
    r, k, c = (rng.randint(1, 4) for _ in range(3))
    A, B = random_sparse_matrix(rng, vars, m, r, k), random_sparse_matrix(rng, vars, m, r, k)
    S = random_sparse_matrix(rng, vars, m, k, c)
    conn = random_sparse_matrix(rng, vars, m, k, k)
    f = random_sparse_poly(rng, vars, m, 0.5)
    n = rng.randrange(-m, 2 * m)
    before = snapshot(A, B, S, conn) + [(f, dict(f.terms))]

    def check(R, want):
        assert (R.rows, R.cols) == (len(want), len(want[0]))
        for row, want_row in zip(R.entries, want):
            for x, w in zip(row, want_row):
                assert x == w
                assert x.vars == vars and x.modulus == m
                assert_canonical(x)

    zero = LaurentPoly.zero(vars, m)
    product = [[zero] * c for _ in range(r)]
    for i in range(r):
        for j in range(c):
            for q in range(k):
                product[i][j] = ref_sum(product[i][j], ref_product(A.entries[i][q], S.entries[q][j]))
    check(A @ S, product)
    for name in names:
        want = [[zero] * c for _ in range(k)]
        for i in range(k):
            for j in range(c):
                want[i][j] = ref_deriv(S.entries[i][j], name)
                for q in range(k):
                    want[i][j] = ref_sum(want[i][j], ref_product(conn.entries[i][q], S.entries[q][j]))
        check(S.nabla(conn, name), want)
        check(A.deriv(name), [[ref_deriv(x, name) for x in row] for row in A.entries])
    pairs = list(zip(A.entries, B.entries))
    check(A + B, [[ref_sum(a, b) for a, b in zip(ra, rb)] for ra, rb in pairs])
    check(A - B, [[ref_sum(a, b, -1) for a, b in zip(ra, rb)] for ra, rb in pairs])
    check(-A, [[ref_sum(zero, a, -1) for a in row] for row in A.entries])
    const = LaurentPoly.const(vars, m, n)
    check(A.scale(n), [[ref_product(a, const) for a in row] for row in A.entries])
    check(A.scale(f), [[ref_product(a, f) for a in row] for row in A.entries])
    for a, b in zip(sum(A.entries, ()), sum(B.entries, ())):  # the scalar fast paths too
        assert a + b == ref_sum(a, b) and a - b == ref_sum(a, b, -1)
        assert a * b == ref_product(a, b) and -a == ref_sum(zero, a, -1)
    if m == p:
        check(A.frobenius(), [[ref_poly(vars, m, [(tuple(p * x for x in e), c)
                                                  for e, c in a.terms.items()])
                               for a in row] for row in A.entries])
    assert [(x, dict(x.terms)) for x, _ in before] == before


def test_zero_entries_still_get_the_ring_checks():
    Z = PolyMatrix.zero(2, 2, T, 9)
    with pytest.raises(RingError, match="only defined on mod-p"):
        Z.frobenius()
    with pytest.raises(RingError, match="only defined on mod-p"):
        Z.frobenius_root()
    with pytest.raises(RingError, match="unknown variable"):
        Z.deriv("u")
    with pytest.raises(RingError, match="different rings"):
        Z + PolyMatrix.zero(2, 2, T, 3)
    with pytest.raises(RingError, match="different rings"):
        Z @ PolyMatrix.zero(2, 2, T_INV, 9)
    with pytest.raises(RingError, match="unknown variable"):
        Z.nabla(Z, "u")
    with pytest.raises(RingError, match="different rings"):
        LaurentPoly.zero(T, 9) * LaurentPoly.zero(T, 3)


def test_zero_times_anything_builds_one_shared_zero(monkeypatch):
    vars = VarSpec.make(["t", "u"], ["u"])
    rng = random.Random(5)
    X = random_sparse_matrix(rng, vars, 25, 4, 3)
    Z = PolyMatrix.zero(4, 4, vars, 25)
    made = []
    make = LaurentPoly._make

    def counting_make(*args):
        made.append(args)
        return make(*args)

    monkeypatch.setattr(LaurentPoly, "_make", staticmethod(counting_make))
    R = Z @ X
    assert len(made) <= 1
    assert R.is_zero() and len({id(x) for row in R.entries for x in row}) == 1
    Z = PolyMatrix.zero(4, 3, vars, 25)
    made.clear()
    for R in (X + Z, Z + X):
        assert R == X
        assert all(x is y for rx, ry in zip(R.entries, X.entries) for x, y in zip(rx, ry) if y.terms)
    assert made == []


def leibniz_det(M):
    """The determinant as a signed sum over permutations: no cofactors."""
    from itertools import permutations

    n, acc = M.rows, LaurentPoly.zero(M.vars, M.modulus)
    for perm in permutations(range(n)):
        inversions = sum(perm[a] > perm[b] for a in range(n) for b in range(a + 1, n))
        term = LaurentPoly.const(M.vars, M.modulus, (-1) ** inversions)
        for i, j in enumerate(perm):
            term = term * M.entries[i][j]
        acc = acc + term
    return acc


@pytest.mark.parametrize("seed", range(30))
def test_det_starts_from_its_first_nonzero_cofactor_term(monkeypatch, seed):
    rng = random.Random(seed)
    vars = VarSpec.make(["t", "u"][:rng.randint(1, 2)], ["t"] if rng.random() < 0.5 else [])
    m = rng.choice([3, 5, 7]) ** rng.randint(1, 2)
    M = random_sparse_matrix(rng, vars, m, *[rng.randint(1, 4)] * 2)
    want = leibniz_det(M)
    zeros = []
    zero = LaurentPoly.zero.__func__
    monkeypatch.setattr(LaurentPoly, "zero", classmethod(lambda *a: zeros.append(a) or zero(*a)))
    assert M.det() == want
    if not any(x.terms for row in M.entries for x in row):
        assert len(zeros) <= 1
    elif all(x.terms for row in M.entries for x in row):
        assert zeros == []  # no cofactor sum starts from a built zero


def test_constants_build_one_zero_directly():
    with pytest.raises(RingError, match="bad modulus"):
        LaurentPoly.zero(T, 1)
    with pytest.raises(RingError, match="at least one entry"):
        PolyMatrix.identity(0, T, 3)
    for M in (PolyMatrix.identity(4, T_INV, 9), PolyMatrix.zero(3, 2, T_INV, 9)):
        off = {id(x) for i, row in enumerate(M.entries) for j, x in enumerate(row) if i != j}
        assert len(off) == 1 and all(not x.terms for i, row in enumerate(M.entries)
                                     for j, x in enumerate(row) if i != j)
    assert PolyMatrix.identity(4, T_INV, 9).is_identity()
    assert PolyMatrix([[poly("0"), poly("t")], [poly("1"), poly("2")]]).det() == poly("-t")


# ------------------------------------------------- connection chains


@pytest.mark.parametrize("seed", range(60))
def test_nabla_power_matches_repeated_deriv_plus_product(seed):
    rng = random.Random(seed)
    vars = random_vars(rng, wide=seed >= 40)
    names = vars.names
    p = rng.choice([3, 5] if seed >= 40 else [3, 5, 7])  # in four variables a p = 7 chain takes minutes
    m = p ** rng.randint(1, 2)
    k, c = rng.randint(1, 4), rng.randint(1, 3)
    A = random_sparse_matrix(rng, vars, m, k, k)
    starts = [
        PolyMatrix.zero(k, c, vars, m),
        PolyMatrix.identity(k, vars, m),
        random_sparse_matrix(rng, vars, m, k, c),
        A,
    ]
    before = snapshot(A, *starts)
    for S in starts:
        for name in names:
            want, steps = S, 0
            for n in (0, 1, 2, p - 1, p):
                while steps < n:  # the reference uses only deriv, @ and +
                    want, steps = want.deriv(name) + A @ want, steps + 1
                R = S.nabla_power(A, name, n)
                assert R == want
                for row in R.entries:
                    for x in row:
                        assert x.vars is vars and x.modulus == m
                        assert_canonical(x)
                zeros = {id(x) for row in R.entries for x in row if not x.terms}
                assert n == 0 or len(zeros) <= 1
            assert S.nabla_power(A, name, 1) == S.nabla(A, name)
    assert [(x, dict(x.terms)) for x, _ in before] == before


def test_nabla_power_checks_shape_ring_and_steps_once():
    S = PolyMatrix.identity(2, T, 9)
    with pytest.raises(RingError, match=r"shape mismatch: 3x3 connection on 2 rows"):
        S.nabla(PolyMatrix.identity(3, T, 9), "t")
    with pytest.raises(RingError, match=r"shape mismatch 2x3 @ 2x2"):
        S.nabla_power(PolyMatrix.zero(2, 3, T, 9), "t", 2)
    for n in (0, 3):
        with pytest.raises(RingError, match="different rings"):
            S.nabla_power(PolyMatrix.identity(2, T, 3), "t", n)
        with pytest.raises(RingError, match="unknown variable"):
            S.nabla_power(S, "u", n)
    with pytest.raises(RingError, match="negative number"):
        S.nabla_power(S, "t", -1)
    assert S.nabla_power(S, "t", 0) is S


def test_p_curvature_checks_shape_ring_and_name():
    with pytest.raises(RingError, match="non-square 2x3"):
        PolyMatrix.zero(2, 3, T, 3).p_curvature("t")
    with pytest.raises(RingError, match="only defined on mod-p"):
        PolyMatrix.identity(2, T, 9).p_curvature("t")
    with pytest.raises(RingError, match="unknown variable"):
        PolyMatrix.identity(2, T, 3).p_curvature("u")
    assert PolyMatrix.zero(2, 2, T, 3).p_curvature("t").is_zero()
    # rank one, p = 3: a^3 = 8*t^6 + t^15 and d^2 a = 4 + 20*t^3 = 1 - t^3
    a = PolyMatrix([[poly("2*t^2 + t^5")]])
    assert a.p_curvature("t") == PolyMatrix([[poly("2*t^6 + t^15 - t^3 + 1")]])


def generic_product_terms(out, a, b):
    for ea, ca in a.items():
        for eb, cb in b.items():
            e = tuple(x + y for x, y in zip(ea, eb))
            out[e] = out.get(e, 0) + ca * cb
    return out


@pytest.mark.parametrize("seed", range(20))
def test_unpacked_product_terms_match_the_generic_path(seed):
    rng = random.Random(seed)
    for arity in range(5):
        def terms():
            return {
                tuple(rng.randint(-3, 3) for _ in range(arity)): rng.randint(-50, 50)
                for _ in range(rng.randint(0, 6))
            }

        a, b, start = terms(), terms(), terms()
        frozen = [dict(a), dict(b)]
        got = _product_terms(dict(start), a, b)
        want = generic_product_terms(dict(start), a, b)
        assert list(got.items()) == list(want.items())  # same terms, same order
        assert [a, b] == frozen


# ---------------------------------------------------------------- boundary


TU = VarSpec.make(["t", "u"])


@pytest.mark.parametrize("other", [
    LaurentPoly.var(TU, 3, "t"),       # other variables
    LaurentPoly.var(T_INV, 3, "t"),    # same names, other inversions
    LaurentPoly.var(T, 9, "t"),        # other modulus
])
def test_mixed_ring_arithmetic_raises(other):
    a = poly("t + 1")
    for op in (lambda x, y: x + y, lambda x, y: x - y, lambda x, y: x * y):
        with pytest.raises(RingError, match="different rings"):
            op(a, other)
    A = PolyMatrix.from_int_rows([[1, 0], [0, 0]], T, 3)
    B = PolyMatrix([[other, other], [other, other]])
    for op in (lambda x, y: x + y, lambda x, y: x - y, lambda x, y: x @ y):
        with pytest.raises(RingError, match="different rings"):
            op(A, B)
    with pytest.raises(RingError, match="different rings"):
        A.scale(other)
    for S, conn in ((A, B), (B, A)):
        with pytest.raises(RingError, match="different rings"):
            S.nabla(conn, "t")


def test_validating_constructors_still_reject():
    with pytest.raises(RingError, match="wrong length"):
        LaurentPoly(T, 3, {(1, 0): 1})
    with pytest.raises(RingError, match="bad modulus"):
        LaurentPoly(T, 1, {})
    with pytest.raises(RingError, match="different rings"):
        PolyMatrix([[poly("t"), LaurentPoly.var(T, 9, "t")]])
    with pytest.raises(RingError, match="ragged"):
        PolyMatrix([[poly("t"), poly("1")], [poly("t")]])


def test_varspec_make_interns():
    assert VarSpec.make(["t"]) is VarSpec.make(("t",)) is T
    assert VarSpec.make(["t", "u"], ["u"]) is VarSpec.make(("t", "u"), {"u"})
    assert T.with_inverted(["t"]) is T_INV
    assert VarSpec.make(["t"], ["t"]) is not T


def test_directly_built_varspec_combines_with_interned_operands():
    direct = VarSpec(("t",))
    assert direct is not T and direct == T
    f = LaurentPoly(direct, 3, {(2,): 1})
    assert f + poly("t") == poly("t^2 + t")
    assert poly("t") * f == poly("t^3")
    M = PolyMatrix([[f]])
    assert (M @ PolyMatrix([[poly("t")]])).entries[0][0] == poly("t^3")
    assert (PolyMatrix([[poly("1")]]) - M).entries[0][0] == poly("1 + 2*t^2")


def test_same_ring_matrix_ops_skip_the_validating_constructor(monkeypatch):
    H = inverse_cartier(gallery("g6_a2_rank3", 5).sheaf)
    A, B = next(iter(H.conn.values()))
    assert not A.is_zero() and not B.is_zero()
    calls = []
    init = LaurentPoly.__init__

    def counting_init(self, *args):
        calls.append(args)
        init(self, *args)

    monkeypatch.setattr(LaurentPoly, "__init__", counting_init)
    results = [A @ B, A + B, A.deriv(A.vars.names[0])]
    assert calls == []
    for R in results:
        for row in R.entries:
            for x in row:
                assert_canonical(x)
    assert len(calls) == 3 * 9  # assert_canonical itself validates


def test_ring_constants_skip_the_validating_constructor(monkeypatch):
    E = gallery("g6_a2_rank3", 5).sheaf
    theta = next(m for mats in E.fields.values() for m in mats if not m.is_zero())
    A, B = next(iter(inverse_cartier(E).conn.values()))
    calls = []
    init = LaurentPoly.__init__

    def counting_init(self, *args):
        calls.append(args)
        init(self, *args)

    monkeypatch.setattr(LaurentPoly, "__init__", counting_init)
    exp = trunc_exp(theta, E.atlas.ctx)
    dets = [exp.det(), A.det(), B.det()]
    assert calls == []
    assert dets[0].is_one()  # exp of a nilpotent matrix is unipotent
    assert exp != PolyMatrix.identity(3, theta.vars, 5)


def test_ring_constants_keep_their_checks():
    assert LaurentPoly.const(T, 3, 4) == poly("1")
    assert LaurentPoly.const(T, 3, 3).is_zero()
    for make in (LaurentPoly.zero, LaurentPoly.one):
        with pytest.raises(RingError, match="bad modulus"):
            make(T, 1)
    for shape in ((0, 2), (2, 0)):
        with pytest.raises(RingError, match="at least one entry"):
            PolyMatrix.zero(*shape, T, 3)
    with pytest.raises(RingError, match="at least one entry"):
        PolyMatrix.identity(0, T, 3)
    assert PolyMatrix.identity(2, T, 3) == PolyMatrix.from_int_rows([[1, 0], [0, 1]], T, 3)


# ---------------------------------------------------------------- parse limits


@pytest.mark.parametrize("text, vars", [
    ("9" * 5000, T),
    ("2*t + " + "9" * 5000, T),
    ("-" + "9" * 5000 + "*t", T),
    ("t^" + "9" * 5000, T),
    ("t^-" + "9" * 5000, T_INV),
], ids=["literal", "second-literal", "negative-literal", "exponent", "negative-exponent"])
def test_overlong_literals_are_parse_errors(text, vars):
    with pytest.raises(ParseError, match="integer of 5000 digits is too long"):
        LaurentPoly.parse(text, vars, 3)
    assert LaurentPoly.parse("9" * 4000, T, 3).is_zero()  # under Python's limit


# ---------------------------------------------------------------- combine


@st.composite
def scalars(draw, vars, modulus):
    return draw(st.one_of(st.integers(-2 * modulus, 2 * modulus),
                          laurent_polys(vars, modulus, max_terms=3, max_exp=3)))


@given(st.data())
@settings(max_examples=80)
def test_combine_is_the_fold_of_scale_and_add(data):
    vars, m = data.draw(rings())
    rows, cols = data.draw(st.integers(1, 3)), data.draw(st.integers(1, 3))
    zero = PolyMatrix.zero(rows, cols, vars, m)
    mats = st.one_of(matrices(vars, m, rows, cols), st.just(zero))
    pairs = data.draw(st.lists(st.tuples(scalars(vars, m), mats), min_size=1, max_size=4))
    want = zero
    for s, M in pairs:
        want = want + M.scale(s)
    got = PolyMatrix.combine(pairs)
    assert got == want and (got.rows, got.cols) == (rows, cols)
    for row in got.entries:
        for x in row:
            assert x.vars is vars and x.modulus == m
            assert_canonical(x)


def test_combine_scales_by_ints_without_a_product_and_keeps_lone_entries(monkeypatch):
    import xcartier.ring as ring

    A = PolyMatrix([[poly("t + 1"), poly("0")], [poly("2*t^2"), poly("t")]])
    B = PolyMatrix([[poly("0"), poly("t^2")], [poly("t"), poly("0")]])
    products = []
    product_terms = ring._product_terms
    monkeypatch.setattr(ring, "_product_terms", lambda *a: products.append(a) or product_terms(*a))
    Z = PolyMatrix.zero(2, 2, T, 3)
    got = PolyMatrix.combine([(1, A), (1, Z), (2, B), (3, B)])
    assert products == []
    assert got == A + B.scale(2)
    assert got.entries[0][0] is A.entries[0][0]  # a + 0 is a
    assert got.entries[0][1] == B.entries[0][1] * 2
    lone = PolyMatrix.combine([(1, Z), (1, A)])
    assert all(x is y for rx, ry in zip(lone.entries, A.entries) for x, y in zip(rx, ry)
               if y.terms)
    empty = PolyMatrix.combine([(0, A), (poly("0"), B)])
    assert empty.is_zero() and empty.entries[0][0] is empty.entries[1][1]  # one shared zero
    PolyMatrix.combine([(poly("t"), A)])
    assert len(products) == 3  # one product per nonzero entry of A


@pytest.mark.parametrize("other", [
    PolyMatrix.from_int_rows([[1, 0], [0, 1]], VarSpec.make(["t", "u"]), 3),
    PolyMatrix.from_int_rows([[1, 0], [0, 1]], T_INV, 3),
    PolyMatrix.from_int_rows([[1, 0], [0, 1]], T, 9),
])
def test_combine_of_mixed_rings_raises(other):
    A = PolyMatrix.from_int_rows([[1, 2], [0, 1]], T, 3)
    for pairs in ([(1, A), (1, other)], [(1, other), (2, A)]):
        with pytest.raises(RingError, match="different rings"):
            PolyMatrix.combine(pairs)
    scalar = other.entries[0][0]
    with pytest.raises(RingError, match="different rings"):
        PolyMatrix.combine([(scalar, A)])
    with pytest.raises(RingError, match="shape mismatch"):
        PolyMatrix.combine([(1, A), (1, PolyMatrix.from_int_rows([[1]], T, 3))])
    with pytest.raises(RingError, match="at least one matrix"):
        PolyMatrix.combine([])


def test_from_int_rows_shares_one_zero_and_validates_nothing(monkeypatch):
    calls = []
    init = LaurentPoly.__init__
    monkeypatch.setattr(LaurentPoly, "__init__",
                        lambda self, *args: calls.append(args) or init(self, *args))
    M = PolyMatrix.from_int_rows([[0, 1, 3], [4, 0, -2]], T, 3)
    assert calls == []
    zeros = [x for row in M.entries for x in row if x.is_zero()]
    assert len(zeros) == 3 and all(z is zeros[0] for z in zeros)
    monkeypatch.undo()
    assert M == PolyMatrix([[LaurentPoly.const(T, 3, c) for c in row]
                            for row in ([0, 1, 3], [4, 0, -2])])
    with pytest.raises(RingError, match="at least one entry"):
        PolyMatrix.from_int_rows([], T, 3)
    with pytest.raises(RingError, match="ragged"):
        PolyMatrix.from_int_rows([[1, 0], [1]], T, 3)
    with pytest.raises(RingError, match="bad modulus"):
        PolyMatrix.from_int_rows([[1]], T, 1)


# ---------------------------------------------------------------- subst


def subst_reference(f, images, target):
    """Term by term: each term a constant times its image powers, added one at a time."""
    out = LaurentPoly.zero(target, f.modulus)
    for exps, c in f.terms.items():
        term = LaurentPoly.const(target, f.modulus, c)
        for name, e in zip(f.vars.names, exps):
            if not e:
                continue
            if name in images:
                img = images[name]
                if img.vars != target or img.modulus != f.modulus:
                    raise SubstitutionError(
                        f"image of {name!r} lives in the wrong ring for this substitution")
            elif name in target.names:
                img = LaurentPoly.var(target, f.modulus, name)
            else:
                raise SubstitutionError(f"no image for variable {name!r}")
            try:
                term = term * img ** e
            except RingError as exc:
                raise SubstitutionError(f"substituting {name!r}^{e}: {exc}") from exc
        out = out + term
    return out


def outcome(call):
    try:
        return call()
    except SubstitutionError as exc:
        return f"SubstitutionError: {exc}"


@pytest.mark.parametrize("seed", range(80))
def test_subst_matches_the_term_by_term_reference(seed):
    rng = random.Random(seed)
    p = rng.choice([3, 5, 7])
    m = p ** rng.randint(1, 2)
    names = ["s", "w"][:rng.randint(1, 2)]
    source = VarSpec.make(names, [n for n in names if rng.random() < 0.7])
    target_names = ["x", "y"][:rng.randint(1, 2)] + (["w"] if rng.random() < 0.3 else [])
    target = VarSpec.make(target_names, [n for n in target_names if rng.random() < 0.6])
    f = random_sparse_poly(rng, source, m, 0.9)
    images = {}
    for name in names:
        if name == "w" and "w" in target.names and rng.random() < 0.5:
            continue  # identity substitution
        kind = rng.choice(["unit", "unit", "poly", "non-unit"])
        x = rng.choice(target.names)
        if kind == "unit":  # a single term c t^e: inverted negative powers have an inverse
            e = rng.randint(-2, 3) if x in target.inverted else rng.randint(0, 3)
            exps = tuple(e if n == x else 0 for n in target.names)
            images[name] = LaurentPoly.monomial(target, m, rng.randrange(1, p), exps)
        elif kind == "poly":
            images[name] = random_sparse_poly(rng, target, m, 0.8)
        else:  # inverting a variable the target does not invert, or a sum
            images[name] = LaurentPoly.var(target, m, x) + LaurentPoly.one(target, m)
    got = outcome(lambda: f.subst(images, target))
    want = outcome(lambda: subst_reference(f, images, target))
    assert got == want
    if isinstance(got, LaurentPoly):
        assert got.vars is target and got.modulus == m
        assert_canonical(got)


@pytest.mark.parametrize("m", [3, 9])
def test_subst_keeps_its_error_messages(m):
    s = VarSpec.make(["s"], ["s"])
    f = poly("s^-1 + 1", s, m)
    cases = [
        ({"s": poly("t + 1", T, m)}, T),                 # a non-unit image, inverted
        ({"s": poly("t", T, m)}, T),                     # t is not inverted in the target
        ({"s": poly("t", T_INV, m)}, T),                 # an image in another ring
        ({}, T),                                         # no image at all
    ]
    messages = []
    for images, target in cases:
        with pytest.raises(SubstitutionError) as info:
            f.subst(images, target)
        assert outcome(lambda: subst_reference(f, images, target)) == (
            f"SubstitutionError: {info.value}")
        messages.append(str(info.value))
    assert messages[2] == "image of 's' lives in the wrong ring for this substitution"
    assert messages[3] == "no image for variable 's'"
    assert poly("s^-2", s, m).subst({"s": poly("2*t^-1", T_INV, m)}, T_INV) == poly(
        f"{pow(4, -1, m)}*t^2", T_INV, m)
