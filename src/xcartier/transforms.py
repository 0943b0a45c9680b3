"""The two exponential-twisting functors, Cartier descent and gauge search.

Both directions are one twist by a matrix-valued form Phi on the Frobenius
pullback (`_twist`): per chart, add zeta(Phi) = pull_back(Phi, Z) to the
connection, with Z[j][i] = d_i F(t_j)/p; per overlap, follow the transition
by the truncated exponential of h(Phi) = pull_back(Phi, h)[0], with h the
column of the lifting homotopy's values h_ab(dt_j).

The forward direction twists the zero connection on the Frobenius pullback
of a nilpotent Higgs sheaf (E, theta) by Phi = F*theta: the connection is
zeta(F*theta) and the transitions F*T trunc_exp(h(F*theta)).  The converse
twists a connection with nilpotent p-curvature psi by Phi = psi, which kills
the p-curvature, takes a flat frame of the result from Katz's projector,
expresses psi in that frame (entries land in p-th-power exponents), and
divides exponents by p to descend.

Each converse-path invariant is checked once: the input and psi's exponent
in `untwist`, the untwisted connection by its flat frames (`flat_sections`),
and psi and the gluing by `descend`, which inverts each frame once and
checks the result.

The sign of the p-curvature of the forward output relative to the
Frobenius-pulled-back Higgs field is convention-dependent; it is measured
by `p_curvature_sign`, not hard-coded.

`gauge_compare` solves the intertwining constraints for an unknown gauge
sum c t^m E_ij over a box of exponents m.  The constraints are linear, and
R_lambda(t^m g) = t^m R_lambda(g) - lambda d(t^m) g for a constant g, so the
residual E_ij A - B E_ij of each matrix unit and its overlap products
T_2 E_ij and E_ij T_1 are written down once per search, in closed form and
as polynomials: E_ij A is row j of A placed in row i, and B E_ij is column i
of B placed in column j.  Every degree bound reads its rows off the terms of
their entries times t^m, built in the entry's ring or, on the beta side of
an overlap, as pull_beta_function(t^m), and off the derivative term.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

from .atlas import Atlas, h_pair, pull_beta_function
from .linalg import nullspace_mod_p
from .report import Report
from .ring import (
    LaurentPoly,
    NotDivisibleError,
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
    _higgs_report,
    check_flat,
    check_higgs,
    intertwining_residuals,
    nilpotent_within,
    p_curvature,
    pull_back,
)


class TransformError(ValueError):
    pass


# ---------- helpers ----------


def relabel_matrix(m: PolyMatrix) -> PolyMatrix:
    """Divide every exponent by p (`frobenius_root`); p must divide them all."""
    try:
        return m.frobenius_root()
    except NotDivisibleError as exc:
        raise TransformError(f"descended entry {exc}") from None


# ---------- the forward functor ----------


def _forward(E: HiggsSheaf, lift_choice: dict[str, int] | None) -> FlatSheaf:
    """The zero connection on the Frobenius pullback of E's bundle, twisted by F*theta."""
    phi = {chart: [m.frobenius() for m in mats] for chart, mats in E.fields.items()}
    transitions = {pair: t.frobenius() for pair, t in E.transitions.items()}
    return _twist(E.atlas, E.rank, None, transitions, phi, lift_choice)


def _twist(atlas: Atlas, rank: int, conn: dict | None, transitions: dict,
           phi: dict[str, list[PolyMatrix]], lift_choice: dict[str, int] | None) -> FlatSheaf:
    """Add zeta(phi) to the connection conn and follow each transition by trunc_exp(h(phi)).

    phi holds one matrix per pulled-back basis element F*dt_j on every chart:
    F*theta in the forward direction, from the zero connection (conn None),
    the p-curvature psi in the converse.  Z and the transported liftings come
    from the atlas's memo.
    """
    ctx = atlas.ctx
    twisted: dict[str, list[PolyMatrix]] = {}
    for chart in atlas.charts:
        twist = pull_back(phi[chart], atlas.zeta(chart, lift_choice))
        twisted[chart] = twist if conn is None else [a + b for a, b in zip(conn[chart], twist)]
    glued: dict[tuple[str, str], PolyMatrix] = {}
    for pair, ov in atlas.overlaps.items():
        img_a = atlas.transported_lift(pair, ov.alpha, lift_choice)
        img_b = atlas.transported_lift(pair, ov.beta, lift_choice)
        glued[pair] = transitions[pair] @ _homotopy_exp(
            ov.alpha_vars, img_a, img_b, phi[ov.alpha], ctx
        )
    return FlatSheaf(atlas, rank, twisted, glued)


def _homotopy_exp(vars: VarSpec, images_a, images_b, phi: list[PolyMatrix], ctx) -> PolyMatrix:
    """trunc_exp(sum_j h_ab(dt_j) * phi_j) on the coordinates vars, h_ab = (F_a - F_b)/p."""
    h = PolyMatrix([[h_pair(vars, images_a, images_b, u)] for u in vars.names])
    return trunc_exp(pull_back([m.extend_vars(vars) for m in phi], h)[0], ctx)


def inverse_cartier(E: HiggsSheaf, lift_choice: dict[str, int] | None = None) -> FlatSheaf:
    """Twist the zero connection on the Frobenius pullback of E by F*theta."""
    rep = check_higgs(E)  # includes the nilpotency bound p-1
    if not rep.ok():
        raise TransformError(
            "input is not a valid nilpotent Higgs sheaf: "
            + "; ".join(e.check for e in rep.failures())
        )
    return _forward(E, lift_choice)


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


def _normalize_column(col: list[LaurentPoly], p: int) -> list[LaurentPoly]:
    """Multiply a column of a unit-determinant frame by a unit monomial of the
    p-th powers: its simplest term gets coefficient 1 and exponents in [0, p)
    on the inverted variables.  The others need no shift, since a column
    divisible by t^p would make the determinant divisible by t^p."""
    _, _, e_star, c_star = min(
        (monomial_sort_key(e), k, e, c)
        for k, poly in enumerate(col)
        for e, c in poly.coefficients.items()
    )
    vars = col[0].vars
    shift = [-p * (e // p) if vars.allows_negative(name) else 0
             for e, name in zip(e_star, vars.names)]
    unit = LaurentPoly.monomial(vars, p, pow(c_star, p - 2, p), shift)
    return [unit * x for x in col]


def _coordinate(x: LaurentPoly, j: tuple[int, ...], p: int) -> dict[tuple[int, ...], int]:
    """Terms of x with exponents congruent to j mod p: one coordinate over the p-th powers."""
    return {e: c for e, c in x.coefficients.items() if tuple(a % p for a in e) == j}


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
        unit = LaurentPoly.monomial(vars, p, 1, [-p * s for s in shift])
        col = [unit * x for x in col]
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
        lead = (l, min(tuple(a % p for a in e) for e in col[l].coefficients))
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
            pairs = [
                (LaurentPoly.monomial(vars, p, c * inv_fact[m],
                                      [a + m if v == i else 0 for v in range(vars.arity)]), power)
                for m, power in enumerate(powers)
                if (c := (-1) ** m if a == 0 else math.comb(a - 1, p - 1 - m)) % p
            ]
            yield from projected(
                PolyMatrix.combine(pairs) if pairs else PolyMatrix.zero(r, r, vars, p), i + 1)

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
    # psi of a flat connection commutes (Katz 1970, §5): the nabla_i commute
    if not all(nilpotent_within(mats, p - 1) for mats in psi.comps.values()):
        raise TransformError(f"p-curvature is not nilpotent of exponent <= {p - 1}")
    return _twist(H.atlas, H.rank, H.conn, H.transitions, psi.comps, lift_choice), psi


def cartier(H: FlatSheaf, lift_choice: dict[str, int] | None = None) -> HiggsSheaf:
    """Untwist a nilpotent flat sheaf and descend along its flat sections."""
    # relabelling keeps psi's exponent, which untwist has proven
    return _descend(*untwist(H, lift_choice), exponent=False)


def descend(untwisted: FlatSheaf, psi: PCurvature) -> HiggsSheaf:
    """The Higgs sheaf of psi in the flat frames of `untwist`'s output.

    Each frame S is inverted once, and an identity frame is its own inverse
    (`inverse_unit_det`): every forward image descended under its own lifting
    has one on every chart, so only a gauged input pays for a cofactor
    adjugate.  psi_i and the transitions T are written in the frames by one
    conjugate-and-relabel step, which accepts S^-1 M S' only when d kills it:
    for T that is the untwisted gluing, for psi_i its horizontality (psi
    commutes with zeta(psi)).  Relabelling is a ring isomorphism, so one
    `check_higgs` proves psi commutative and nilpotent and checks the cocycle
    and the gluing of psi.
    """
    return _descend(untwisted, psi, exponent=True)


def _descend(untwisted: FlatSheaf, psi: PCurvature, exponent: bool) -> HiggsSheaf:
    """`descend`, proving psi's exponent on the result only if `exponent`.

    The frames' inverses are taken once per chart; an identity frame costs no
    determinant (`inverse_unit_det`).
    """
    atlas = untwisted.atlas
    frames = flat_sections(untwisted).frames
    inverses = {chart: s.inverse_unit_det() for chart, s in frames.items()}

    def in_frames(s_inv: PolyMatrix, m: PolyMatrix, s: PolyMatrix) -> PolyMatrix:
        return relabel_matrix(s_inv @ m @ s)

    transitions = {  # on an overlap, the beta-side inverse is the pulled-back chart inverse
        pair: in_frames(inverses[ov.beta].map_entries(lambda f: pull_beta_function(ov, f)),
                        untwisted.transitions[pair], frames[ov.alpha].extend_vars(ov.alpha_vars))
        for pair, ov in atlas.overlaps.items()
    }
    fields = {chart: [in_frames(inverses[chart], m, s) for m in psi.comps[chart]]
              for chart, s in frames.items()}
    out = HiggsSheaf(atlas, untwisted.rank, fields, transitions)
    out_rep = _higgs_report(out, exponent)
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


def _gauge_solution_spaces(sheaf1, sheaf2, flat: bool):
    """solution_space(bound): the unknowns (chart, exponent, i, j) up to the
    degree bound and the nullspace of the intertwining constraints on them.

    The residuals and overlap products of the matrix units E_ij are read off
    the matrices here (`_unit_residual`, rows and columns placed), once for
    every bound; each bound multiplies their entries by t^m (module
    docstring).
    """
    atlas = sheaf1.atlas
    p = atlas.ctx.p
    r = sheaf1.rank
    mats1, mats2 = _matrices(sheaf1, sheaf2, flat)
    charts = sorted(atlas.charts)

    # (chart, i, j) -> [(row key prefix, nonzero entries, overlap on whose beta side or None)]
    blocks: dict[tuple, list] = {}
    for chart in charts:
        for i, j in itertools.product(range(r), repeat=2):
            out = [(("chart", chart, k), _unit_residual(a, b, i, j), None)
                   for k, (a, b) in enumerate(zip(mats1[chart], mats2[chart]))]
            for pair, ov in atlas.overlaps.items():
                if chart == ov.alpha:  # -T_2 E_ij: column i of -T_2 in column j
                    t2 = sheaf2.transitions[pair].entries
                    out.append((("overlap", pair),
                                [(a, j, -t2[a][i]) for a in range(r) if not t2[a][i].is_zero()],
                                None))
                if chart == ov.beta:  # E_ij T_1: row j of T_1 in row i
                    t1 = sheaf1.transitions[pair].entries
                    out.append((("overlap", pair),
                                [(i, b, x) for b, x in enumerate(t1[j]) if not x.is_zero()], ov))
            blocks[chart, i, j] = out
    shifts: dict[tuple, LaurentPoly] = {}  # (ring or overlap pair, m) -> t^m there

    def multiplier(m: tuple[int, ...], x: LaurentPoly, ov) -> LaurentPoly:
        """t^m in the ring of the entry x, or pulled back from the beta chart of ov."""
        key = (x.vars if ov is None else ov.pair, m)
        if key not in shifts:
            if ov is None:
                shifts[key] = LaurentPoly.monomial(x.vars, p, 1, m)
            else:
                mono = LaurentPoly.monomial(atlas.chart_vars(ov.beta), p, 1, m)
                shifts[key] = pull_beta_function(ov, mono)
        return shifts[key]

    def solution_space(bound: int):
        unknowns = [
            (chart, m, i, j)
            for chart in charts
            for m in monomials_in_box(atlas.chart_vars(chart), bound)
            for i in range(r)
            for j in range(r)
        ]
        rows: dict[tuple, dict[int, int]] = {}  # one row per (block, entry, exponent)

        def add(key, col, c):
            row = rows.setdefault(key, {})
            row[col] = (row.get(col, 0) + c) % p

        for col, (chart, m, i, j) in enumerate(unknowns):
            for prefix, entries, ov in blocks[chart, i, j]:
                for a, b, x in entries:
                    for e, c in (x * multiplier(m, x, ov)).coefficients.items():
                        add(prefix + (a, b, e), col, c)
            if flat:  # -lambda d(t^m) E_ij = -sum_k m_k t^(m - e_k) E_ij dt_k
                for k, mk in enumerate(m):
                    if mk:
                        add(("chart", chart, k, i, j, m[:k] + (mk - 1,) + m[k + 1:]), col, -mk)
        return unknowns, nullspace_mod_p(list(rows.values()), len(unknowns), p)

    return solution_space


def _unit_residual(A: PolyMatrix, B: PolyMatrix, i: int, j: int) -> list:
    """The nonzero entries (row, column, polynomial) of E_ij A - B E_ij, in row order.

    E_ij A is row j of A placed in row i, and B E_ij is column i of B placed
    in column j.
    """
    a, b = A.entries, B.entries
    out = []
    for row in range(len(a)):
        for col in range(len(a)):
            if row == i:
                x = a[j][col] - b[row][i] if col == j else a[j][col]
            elif col == j:
                x = -b[row][i]
            else:
                continue
            if not x.is_zero():
                out.append((row, col, x))
    return out


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
        chart: PolyMatrix([[LaurentPoly(atlas.chart_vars(chart), atlas.ctx.p, cell) for cell in row]
                           for row in rows])
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
    solution_space = _gauge_solution_spaces(sheaf1, sheaf2, flat)
    bound = 0
    while True:
        unknowns, basis = solution_space(bound)
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
