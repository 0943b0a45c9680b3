"""The two exponential-twisting functors, Cartier descent and gauge search.

Both directions are one twist by a matrix-valued form Phi on the Frobenius
pullback (`_twist`): per chart, add zeta(Phi) = pull_back(Phi, Z) to the
connection, with Z[j][i] = d_i F(t_j)/p; per overlap, follow the transition
by the truncated exponential of h(Phi) = pull_back(Phi, h)[0], with h the
column of the lifting homotopy's values h_ab(dt_j).

The forward direction twists the canonical connection of a nilpotent Higgs
sheaf (E, theta) by Phi = F*theta.  The converse twists a connection with
nilpotent p-curvature psi by Phi = psi, which kills the p-curvature, takes a
flat frame of the result from Katz's projector, expresses psi in that frame
(entries land in p-th-power exponents), and divides exponents by p to descend.

Each converse-path invariant is checked once: the input in `untwist`, the
untwisted connection by its flat frames (`flat_sections`), and psi and the
gluing by `descend`, which inverts each frame once and checks the result.

The sign of the p-curvature of the forward output relative to the
Frobenius-pulled-back Higgs field is convention-dependent; it is measured
by `p_curvature_sign`, not hard-coded.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .atlas import h_pair, lift_on_overlap, pull_beta_function, zeta_form
from .linalg import nullspace_mod_p
from .report import Report
from .ring import (
    LaurentPoly,
    PolyMatrix,
    VarSpec,
    monomial_sort_key,
    monomials_in_box,
    trunc_exp,
)
from .sheaves import (
    FlatSheaf,
    HiggsSheaf,
    PCurvature,
    check_flat,
    check_higgs,
    intertwining_residuals,
    nilpotency_exponent,
    p_curvature,
    pull_back,
)


class TransformError(ValueError):
    pass


# ---------- helpers ----------


def relabel_poly(f: LaurentPoly, p: int) -> LaurentPoly:
    """Divide every exponent by p; the input must have p-divisible exponents."""
    out = {}
    for exps, c in f.terms.items():
        if any(e % p != 0 for e in exps):
            raise TransformError(
                f"descended entry '{f}' has an exponent not divisible by {p}"
            )
        out[tuple(e // p for e in exps)] = c
    return LaurentPoly(f.vars, f.modulus, out)


def relabel_matrix(m: PolyMatrix, p: int) -> PolyMatrix:
    return m.map_entries(lambda f: relabel_poly(f, p))


# ---------- the forward functor ----------


def canonical_connection(E: HiggsSheaf) -> FlatSheaf:
    """The flat sheaf on the Frobenius pullback of a zero-Higgs sheaf."""
    if not E.is_zero_field():
        raise TransformError("canonical connection requires a zero Higgs field")
    conn = {chart: list(mats) for chart, mats in E.fields.items()}  # all zero
    transitions = {pair: t.frobenius() for pair, t in E.transitions.items()}
    return FlatSheaf(E.atlas, E.rank, conn, transitions)


def _twist(
    H0: FlatSheaf, phi: dict[str, list[PolyMatrix]], lift_choice: dict[str, int] | None
) -> FlatSheaf:
    """Add zeta(phi) to the connection of H0 and twist its gluing by trunc_exp(h(phi)).

    phi holds one matrix per pulled-back basis element F*dt_j on every chart:
    F*theta in the forward direction, the p-curvature psi in the converse.
    """
    atlas = H0.atlas
    ctx = atlas.ctx
    conn: dict[str, list[PolyMatrix]] = {}
    for chart_name, chart in atlas.charts.items():
        zeta = zeta_form(chart.vars, atlas.lift_for(chart_name, lift_choice).images)
        twist = pull_back(phi[chart_name], zeta)
        conn[chart_name] = [a + b for a, b in zip(H0.conn[chart_name], twist)]
    transitions: dict[tuple[str, str], PolyMatrix] = {}
    for pair, ov in atlas.overlaps.items():
        img_a = lift_on_overlap(atlas, ov, atlas.lift_for(ov.alpha, lift_choice))
        img_b = lift_on_overlap(atlas, ov, atlas.lift_for(ov.beta, lift_choice))
        transitions[pair] = H0.transitions[pair] @ _homotopy_exp(
            ov.alpha_vars, img_a, img_b, phi[ov.alpha], ctx
        )
    return FlatSheaf(atlas, H0.rank, conn, transitions)


def _homotopy_exp(vars: VarSpec, images_a, images_b, phi: list[PolyMatrix], ctx) -> PolyMatrix:
    """trunc_exp(sum_j h_ab(dt_j) * phi_j) on the coordinates vars, h_ab = (F_a - F_b)/p."""
    h = PolyMatrix([[h_pair(vars, images_a, images_b, u)] for u in vars.names])
    return trunc_exp(pull_back([m.extend_vars(vars) for m in phi], h)[0], ctx)


def inverse_cartier(E: HiggsSheaf, lift_choice: dict[str, int] | None = None) -> FlatSheaf:
    """Twist the canonical connection by the Frobenius pullback of the field."""
    rep = check_higgs(E)  # includes the nilpotency bound p-1
    if not rep.ok():
        raise TransformError(
            "input is not a valid nilpotent Higgs sheaf: "
            + "; ".join(e.check for e in rep.failures())
        )
    zero = {
        chart: [PolyMatrix.zero(E.rank, E.rank, m.vars, m.modulus) for m in mats]
        for chart, mats in E.fields.items()
    }
    H0 = canonical_connection(HiggsSheaf(E.atlas, E.rank, zero, E.transitions))
    phi = {chart: [m.frobenius() for m in mats] for chart, mats in E.fields.items()}
    return _twist(H0, phi, lift_choice)


def lift_change_gauge(
    E: HiggsSheaf, choice_a: dict[str, int], choice_b: dict[str, int]
) -> dict[str, PolyMatrix]:
    """Per chart, trunc_exp(sum_j h_ab(dt_j) * F*theta_j) for the chosen liftings a and b.

    This is the Deligne-Illusie gauge from inverse_cartier(E, choice_a) to
    inverse_cartier(E, choice_b), in the sense of `verify_gauge_witness(...,
    flat=True)`.
    """
    atlas = E.atlas
    return {
        chart: _homotopy_exp(
            atlas.chart_vars(chart),
            atlas.lift_for(chart, choice_a).images,
            atlas.lift_for(chart, choice_b).images,
            [m.frobenius() for m in mats],
            atlas.ctx,
        )
        for chart, mats in E.fields.items()
    }


def p_curvature_sign(E: HiggsSheaf, psi: PCurvature) -> int | None:
    """Measure the global sign in psi = sign * (Frobenius pullback of theta).

    Returns None when every component is zero (no sign information), raises
    when any chart disagrees with a single global sign.
    """
    sign: int | None = None
    for chart, mats in E.fields.items():
        for i, theta in enumerate(mats):
            expected = theta.frobenius()
            got = psi.comps[chart][i]
            if expected.is_zero() and got.is_zero():
                continue
            if got == expected:
                s = 1
            elif got == -expected:
                s = -1
            else:
                raise TransformError(
                    f"p-curvature on {chart!r} coordinate {i} is neither "
                    f"+/- the pulled-back field: got {got}, field {expected}"
                )
            if sign is None:
                sign = s
            elif sign != s:
                raise TransformError("p-curvature sign is not globally consistent")
    return sign


# ---------- Cartier descent ----------


@dataclass
class DescentResult:
    frames: dict[str, PolyMatrix]                       # columns are flat sections


def _shift_scale(poly: LaurentPoly, shift: tuple[int, ...], scale: int) -> LaurentPoly:
    return LaurentPoly(
        poly.vars,
        poly.modulus,
        {tuple(e - s for e, s in zip(exps, shift)): c * scale for exps, c in poly.terms.items()},
    )


def _normalize_column(col: list[LaurentPoly], p: int) -> list[LaurentPoly]:
    """Scale by a unit so the simplest term has coefficient 1 and exponents in [0, p)."""
    terms = [
        (monomial_sort_key(e), k, e, c)
        for k, poly in enumerate(col)
        for e, c in poly.terms.items()
    ]
    if not terms:
        return col
    _, _, e_star, c_star = min(terms)
    vars = col[0].vars
    shift = []
    for i, name in enumerate(vars.names):
        s = p * (e_star[i] // p)
        if not vars.allows_negative(name):
            min_e = min(t[2][i] for t in terms)
            s = min(s, p * (min_e // p))
        shift.append(s)
    scale = pow(c_star, p - 2, p)
    return [_shift_scale(x, tuple(shift), scale) for x in col]


def _coordinate(x: LaurentPoly, j: tuple[int, ...], p: int) -> dict[tuple[int, ...], int]:
    """Terms of x with exponents congruent to j mod p: one coordinate over the p-th powers."""
    return {e: c for e, c in x.terms.items() if tuple(a % p for a in e) == j}


def _euclid(b: list[LaurentPoly], v: list[LaurentPoly], l: int, j: tuple[int, ...], p: int):
    """Unimodular column operations over the p-th powers until coordinate (l, j) of v is 0.

    Euclid by leading terms (graded lex on the exponents divided by p), after a
    unit shift of the inverted variables to least exponent 0.  In one variable
    one leading term always divides the other, so b ends with the gcd; in
    several, None is returned when neither divides the other.
    """
    vars = b[0].vars

    def shifted_lead(col):
        terms = {tuple(a // p for a in e): c for e, c in _coordinate(col[l], j, p).items()}
        shift = [
            min(k[i] for k in terms) if vars.allows_negative(name) else 0
            for i, name in enumerate(vars.names)
        ]
        k, c = max(terms.items(), key=lambda kc: (sum(kc[0]), kc[0]))
        col = [_shift_scale(x, tuple(p * s for s in shift), 1) for x in col]
        return col, [a - s for a, s in zip(k, shift)], c

    while _coordinate(v[l], j, p):
        (b, kb, cb), (v, kv, cv) = shifted_lead(b), shifted_lead(v)
        if all(x >= y for x, y in zip(kv, kb)):
            exps = [p * (x - y) for x, y in zip(kv, kb)]
            q = LaurentPoly.monomial(vars, p, cv * pow(cb, p - 2, p), exps)
            v = [x - q * y for x, y in zip(v, b)]
        elif all(x <= y for x, y in zip(kv, kb)):
            b, v = v, b
        else:
            return None
    return b, v


def _echelon_insert(echelon: dict, col: list[LaurentPoly], p: int) -> dict | None:
    """Add col to a column echelon form over the p-th powers, keyed by lead coordinate.

    The lead of a column is its first nonzero coordinate (row, exponent residue
    mod p).  Returns None when a reduction needs a non-Euclidean step.
    """
    echelon = dict(echelon)
    while any(not x.is_zero() for x in col):
        l = next(l for l, x in enumerate(col) if not x.is_zero())
        lead = (l, min(tuple(a % p for a in e) for e in col[l].terms))
        if lead not in echelon:
            echelon[lead] = col
            break
        step = _euclid(echelon[lead], col, *lead, p)
        if step is None:
            return None
        echelon[lead], col = step
    return echelon


def _solve_flat_frame(H: FlatSheaf, chart: str) -> PolyMatrix:
    """A unit-determinant set of flat sections from Katz's projector, normalized.

    With zero p-curvature, P_i = sum_{k<p} (-t_i)^k / k! * nabla_i^k maps every
    section to a nabla_i-horizontal one and the P_i commute, so their product
    projects onto the flat sections (Katz 1970, section 5).  Its images of the
    generators t^j e_k over the p-th powers (j in [0, p)^n in lex order, then k)
    span the flat sections over the p-th powers.  The first r nonzero images
    are the frame when their determinant is a unit.  Otherwise the images are
    brought one by one into column echelon form over the p-th powers until
    its r columns have a unit determinant, which always happens in one
    variable; in several, an image whose reduction needs a non-Euclidean step
    is skipped.
    """
    p = H.atlas.ctx.p
    vars = H.atlas.chart_vars(chart)
    r = H.rank
    inv_fact = H.atlas.ctx.inv_factorials

    def projected(S: PolyMatrix, i: int):
        """P_i ... P_n (t_i^j_i ... t_n^j_n S) for the j in lex order.

        P_i commutes with t_l for l != i, and by Leibniz
        P_i(t_i^a s) = sum_m c_am / m! * t_i^(a+m) * nabla_i^m s, where c_0m = (-1)^m
        and c_am = binomial(a-1, p-1-m) for a > 0.
        """
        if i == vars.arity:
            yield S
            return
        powers = [S]  # nabla_i^m S, until it vanishes
        while len(powers) < p:
            nxt = powers[-1].nabla(H.conn[chart][i], vars.names[i])
            if nxt.is_zero():
                break
            powers.append(nxt)
        for a in range(p):
            acc = PolyMatrix.zero(r, r, vars, p)
            for m, power in enumerate(powers):
                c = (-1) ** m if a == 0 else math.comb(a - 1, p - 1 - m)
                if c % p:
                    exps = tuple(a + m if v == i else 0 for v in range(vars.arity))
                    acc = acc + power.scale(LaurentPoly.monomial(vars, p, c * inv_fact[m], exps))
            yield from projected(acc, i + 1)

    def frame(cols):
        if len(cols) == r and PolyMatrix([list(row) for row in zip(*cols)]).det().is_unit():
            return PolyMatrix([list(row) for row in zip(*(_normalize_column(c, p) for c in cols))])
        return None

    first: list[list[LaurentPoly]] = []
    echelon: dict[tuple, list[LaurentPoly]] = {}
    for block in projected(PolyMatrix.identity(r, vars, p), 0):
        for k in range(r):  # column k of block is the image of t^j e_k
            col = [block.entries[l][k] for l in range(r)]
            if len(first) < r and any(not x.is_zero() for x in col):
                first.append(col)
                if found := frame(first):
                    return found
            echelon = _echelon_insert(echelon, col, p) or echelon
            if found := frame([echelon[c] for c in sorted(echelon)]):
                return found
    raise TransformError(
        f"no unimodular flat frame on chart {chart!r}: the column echelon form of the "
        f"projected generators has no {r} columns with a unit determinant"
    )


def flat_sections(H: FlatSheaf) -> DescentResult:
    """A unimodular flat frame on every chart.

    A unit-determinant frame S with R_1(S; 0, A) = 0 proves the connection
    flat with zero p-curvature: A = -dS S^-1 is a pure gauge, and the O-linear
    psi_i = nabla_i^p kills the frame.  The p-curvature is computed only when
    no such frame is found, to name the fault.  Nothing is inverted here;
    `descend` inverts each frame once.
    """
    atlas = H.atlas
    p = atlas.ctx.p
    frames: dict[str, PolyMatrix] = {}
    try:
        for chart in atlas.charts:
            frame = _solve_flat_frame(H, chart)
            vars = atlas.chart_vars(chart)
            zero = [PolyMatrix.zero(H.rank, H.rank, vars, p)] * vars.arity
            for res in intertwining_residuals(frame, zero, H.conn[chart], vars, flat=True):
                if not res.is_zero():  # res = -(dS + A S)
                    raise TransformError(f"frame on {chart!r} is not flat: {-res}")
            frames[chart] = frame
    except TransformError as exc:
        if not p_curvature(H).is_zero():
            raise TransformError("flat-section descent requires zero p-curvature") from exc
        raise
    return DescentResult(frames)


# ---------- the converse functor ----------


def untwist(
    H: FlatSheaf, lift_choice: dict[str, int] | None = None
) -> tuple[FlatSheaf, PCurvature]:
    """The p-curvature-killing connection and gluing, before descent."""
    rep = check_flat(H)
    if not rep.ok():
        raise TransformError(
            "input is not a valid flat sheaf: " + "; ".join(e.check for e in rep.failures())
        )
    psi = p_curvature(H)
    p = H.atlas.ctx.p
    if any(nilpotency_exponent(mats, p - 1) is None for mats in psi.comps.values()):
        raise TransformError(f"p-curvature is not nilpotent of exponent <= {p - 1}")
    return _twist(H, psi.comps, lift_choice), psi


def cartier(H: FlatSheaf, lift_choice: dict[str, int] | None = None) -> HiggsSheaf:
    """Untwist a nilpotent flat sheaf and descend along its flat sections."""
    return descend(*untwist(H, lift_choice))


def descend(untwisted: FlatSheaf, psi: PCurvature) -> HiggsSheaf:
    """The Higgs sheaf of psi in the flat frames of `untwist`'s output.

    Each frame S is inverted once; psi_i and the transitions T are written in
    the frames by one conjugate-and-relabel step, which accepts S^-1 M S' only
    when d kills it: for T that is the untwisted gluing, for psi_i its
    horizontality (psi commutes with zeta(psi)).  Relabelling is a ring
    isomorphism, so one `check_higgs` proves psi commutative and checks the
    cocycle and the gluing of psi.
    """
    atlas, p = untwisted.atlas, untwisted.atlas.ctx.p
    frames = flat_sections(untwisted).frames
    inverses = {chart: s.inverse_unit_det() for chart, s in frames.items()}

    def in_frames(s_inv: PolyMatrix, m: PolyMatrix, s: PolyMatrix) -> PolyMatrix:
        return relabel_matrix(s_inv @ m @ s, p)

    transitions = {  # on an overlap, the beta-side inverse is the pulled-back chart inverse
        pair: in_frames(inverses[ov.beta].map_entries(lambda f: pull_beta_function(ov, f)),
                        untwisted.transitions[pair], frames[ov.alpha].extend_vars(ov.alpha_vars))
        for pair, ov in atlas.overlaps.items()
    }
    fields = {chart: [in_frames(inverses[chart], m, s) for m in psi.comps[chart]]
              for chart, s in frames.items()}
    out = HiggsSheaf(atlas, untwisted.rank, fields, transitions)
    out_rep = check_higgs(out)
    if not out_rep.ok():
        raise TransformError(
            "descended Higgs sheaf fails its checks: "
            + "; ".join(e.check for e in out_rep.failures())
        )
    return out


# ---------- gauge comparison ----------


@dataclass
class GaugeWitness:
    gauges: dict[str, PolyMatrix]


def _matrices(sheaf1, sheaf2, flat: bool) -> tuple[dict, dict]:
    """The connections of two flat sheaves (flat) or the fields of two Higgs sheaves."""
    kind, attr = (FlatSheaf, "conn") if flat else (HiggsSheaf, "fields")
    for sheaf in (sheaf1, sheaf2):
        if not isinstance(sheaf, kind):
            raise TransformError(f"flat={flat} needs two {kind.__name__}s, got a "
                                 f"{type(sheaf).__name__}")
    return getattr(sheaf1, attr), getattr(sheaf2, attr)


def verify_gauge_witness(sheaf1, sheaf2, gauges: dict[str, PolyMatrix], flat: bool) -> bool:
    """Unit-determinant g with R_lambda(g; A_1, A_2) = 0 on every chart and g_b T_1 = T_2 g_a."""
    atlas = sheaf1.atlas
    mats1, mats2 = _matrices(sheaf1, sheaf2, flat)
    for chart in atlas.charts:
        g = gauges[chart]
        if not g.det().is_unit():
            return False
        vars = atlas.chart_vars(chart)
        residuals = intertwining_residuals(g, mats1[chart], mats2[chart], vars, flat)
        if not all(res.is_zero() for res in residuals):
            return False
    for pair, ov in atlas.overlaps.items():
        g_a = gauges[ov.alpha].extend_vars(ov.alpha_vars)
        g_b = gauges[ov.beta].map_entries(lambda f: pull_beta_function(ov, f))
        if g_b @ sheaf1.transitions[pair] != sheaf2.transitions[pair] @ g_a:
            return False
    return True


def _gauge_solution_space(sheaf1, sheaf2, bound: int, flat: bool):
    """The unknowns (chart, exponent, i, j) and the nullspace of the intertwining constraints."""
    atlas = sheaf1.atlas
    p = atlas.ctx.p
    r = sheaf1.rank
    mats1, mats2 = _matrices(sheaf1, sheaf2, flat)

    unknowns = [
        (chart, m, i, j)
        for chart in sorted(atlas.charts)
        for m in monomials_in_box(atlas.chart_vars(chart), bound)
        for i in range(r)
        for j in range(r)
    ]
    rows: dict[tuple, dict[int, int]] = {}  # one row per (block, entry, exponent)

    def add_matrix_terms(key_prefix, mat: PolyMatrix, col):
        for a in range(mat.rows):
            for b in range(mat.cols):
                for exps, c in mat.entries[a][b].terms.items():
                    row = rows.setdefault(key_prefix + (a, b, exps), {})
                    row[col] = (row.get(col, 0) + c) % p

    for col, (chart, m, i, j) in enumerate(unknowns):
        vars = atlas.chart_vars(chart)
        mono, zero = LaurentPoly.monomial(vars, p, 1, m), LaurentPoly.zero(vars, p)
        basis = PolyMatrix([[mono if (a, b) == (i, j) else zero for b in range(r)] for a in range(r)])
        residuals = intertwining_residuals(basis, mats1[chart], mats2[chart], vars, flat)
        for k, res in enumerate(residuals):
            add_matrix_terms(("chart", chart, k), res, col)
        for pair, ov in atlas.overlaps.items():
            if chart == ov.alpha:
                g_a = basis.extend_vars(ov.alpha_vars)
                add_matrix_terms(("overlap", pair), -(sheaf2.transitions[pair] @ g_a), col)
            if chart == ov.beta:
                g_b = basis.map_entries(lambda f: pull_beta_function(ov, f))
                add_matrix_terms(("overlap", pair), g_b @ sheaf1.transitions[pair], col)

    return unknowns, nullspace_mod_p(list(rows.values()), len(unknowns), p)


def _combine(basis, coeffs, unknowns, atlas, r) -> dict[str, PolyMatrix]:
    """The per-chart gauge matrices of sum_k coeffs[k] * basis[k]."""
    cells = {c: [[{} for _ in range(r)] for _ in range(r)] for c in sorted(atlas.charts)}
    for c, vec in zip(coeffs, basis):
        if c:
            for idx, v in vec.items():
                chart, m, i, j = unknowns[idx]
                cell = cells[chart][i][j]
                cell[m] = cell.get(m, 0) + c * v
    return {
        chart: PolyMatrix([
            [LaurentPoly(atlas.chart_vars(chart), atlas.ctx.p, cell) for cell in row]
            for row in rows
        ])
        for chart, rows in cells.items()
    }


def gauge_compare(sheaf1, sheaf2, flat: bool = False) -> GaugeWitness | None:
    """Search for a unit-determinant intertwiner, graded by degree.

    After the identity, the intertwining constraints are solved for entries
    of degree at most 0, 1, 2, 4, ... up to p * rank plus the largest input
    degree, and every nonempty solution space is enumerated, one combination
    per scalar class.  None means that no witness was found below the
    enumeration cap: the search stops at the first solution space with more
    than 200 000 combinations.
    """
    atlas = sheaf1.atlas
    p = atlas.ctx.p
    mats1, mats2 = _matrices(sheaf1, sheaf2, flat)
    if sheaf1.rank != sheaf2.rank:
        return None
    r = sheaf1.rank
    identity = {c: PolyMatrix.identity(r, atlas.chart_vars(c), p) for c in atlas.charts}
    if verify_gauge_witness(sheaf1, sheaf2, identity, flat):
        return GaugeWitness(identity)
    inputs = [*mats1.values(), *mats2.values(), sheaf1.transitions.values(),
              sheaf2.transitions.values()]
    top = max((m.max_abs_degree() for group in inputs for m in group), default=0) + p * r
    bound = 0
    while True:
        unknowns, basis = _gauge_solution_space(sheaf1, sheaf2, bound, flat)
        total = p ** len(basis)
        if total > 200_000:
            return None
        for n in range(1, total):
            coeffs = []
            x = n
            for _ in basis:
                coeffs.append(x % p)
                x //= p
            if next(c for c in coeffs if c) != 1:  # one representative per scalar class
                continue
            gauges = _combine(basis, coeffs, unknowns, atlas, r)
            if verify_gauge_witness(sheaf1, sheaf2, gauges, flat):  # checks unit determinants first
                return GaugeWitness(gauges)
        if bound >= top:
            return None
        bound = min(2 * bound or 1, top)


# ---------- round trip ----------


def roundtrip_check(
    E: HiggsSheaf, lift_choice: dict[str, int] | None = None
) -> tuple[Report, HiggsSheaf]:
    """Compose the two functors and compare exactly against the sign-flipped input."""
    report = Report()
    E_rt = cartier(inverse_cartier(E, lift_choice), lift_choice)
    report.add("round trip equals sign-flipped input exactly", E_rt == E.negated())
    return report, E_rt
