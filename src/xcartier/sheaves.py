"""Higgs sheaves and flat sheaves as chart-local free modules with transitions.

Both are lambda-connections (Ogus-Vologodsky): one matrix A_i per coordinate
dt_i.  A Higgs field is a 0-connection, a connection d + A a 1-connection,
and the p-curvature psi (one matrix per pulled-back basis element F*dt_i,
the p-fold application of d/dt_i + A_i to the identity frame: one
`PolyMatrix.nabla_power` chain of p-1 steps from A_i) a 0-connection on the
Frobenius pullback.  `flat` is lambda throughout.
`p_curvature` proves no invariant of psi; they are proven where psi is used
(`transforms.descend`, `verify_p_curvature_invariants`).

Integrability, flatness and the commutativity of psi are the vanishing of
the curvature  lambda (d_i A_j - d_j A_i) + [A_i, A_j]  (`curvature`).
Everything else is the vanishing of the intertwining residual

    R_lambda(g; A, B)_i = g A_i - B_i g - lambda d_i g    (`intertwining_residuals`),

which for unit-determinant g means  g A g^-1 - lambda (dg) g^-1 = B:

  * gluing: sections are column vectors with  x_beta = T x_alpha  for the
    stored transition T (unit determinant, entries in alpha-side overlap
    coordinates), and R(T; A_alpha, pull_back(A_beta, J)) = 0 with J the
    Jacobian of the coordinate change (its Frobenius pullback for psi) and
    pull_back(A, J)_i = sum_j J[j][i] A_j;
  * gauge: R(g; A, B) = 0 on every chart;
  * flat frame: R_1(S; 0, A) = 0;  horizontality of psi: R_1(psi_i; A, A) = 0.

Nilpotency of exponent <= p-1 is `nilpotent_within`: for a commuting family
of rank r <= p-1 it squares each matrix ceil(log2 r) times (commuting
nilpotent matrices over a domain are simultaneously strictly upper
triangular, so r of them multiply to zero); any other family is scanned
monomial by monomial (`nilpotency_exponent`).  `check_higgs` passes its
integrability verdict; `untwist` passes True for psi, which commutes
because the connection is flat (Katz 1970, section 5).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

from .atlas import Atlas, jacobian_beta_in_alpha, pull_beta_function
from .report import Report
from .ring import NotAUnitError, PolyMatrix, VarSpec, is_prime


class SheafError(ValueError):
    pass


def _check_chart_matrices(atlas: Atlas, rank: int, per_chart: dict[str, list[PolyMatrix]]):
    for chart, mats in per_chart.items():
        if chart not in atlas.charts:
            raise SheafError(f"matrices given for unknown chart {chart!r}")
        vars = atlas.chart_vars(chart)
        if len(mats) != vars.arity:
            raise SheafError(f"chart {chart!r}: need one matrix per coordinate {vars.names}")
        for m in mats:
            if (m.rows, m.cols) != (rank, rank):
                raise SheafError(f"chart {chart!r}: matrix is not {rank}x{rank}")
            if m.vars != vars or m.modulus != atlas.ctx.p:
                raise SheafError(f"chart {chart!r}: matrix entries in the wrong ring")
    missing = set(atlas.charts) - set(per_chart)
    if missing:
        raise SheafError(f"missing matrices for charts {sorted(missing)}")


def _check_transitions(atlas: Atlas, rank: int, transitions: dict[tuple[str, str], PolyMatrix]):
    for pair, t in transitions.items():
        if pair not in atlas.overlaps:
            raise SheafError(f"transition for unknown overlap {pair}")
        ov = atlas.overlaps[pair]
        if (t.rows, t.cols) != (rank, rank):
            raise SheafError(f"transition {pair} is not {rank}x{rank}")
        if t.vars != ov.alpha_vars or t.modulus != atlas.ctx.p:
            raise SheafError(f"transition {pair}: entries must live on alpha-side overlap coords")
    missing = set(atlas.overlaps) - set(transitions)
    if missing:
        raise SheafError(f"missing transitions for overlaps {sorted(missing)}")


@dataclass
class HiggsSheaf:
    atlas: Atlas
    rank: int
    fields: dict[str, list[PolyMatrix]]          # chart -> [Theta_i per dt_i]
    transitions: dict[tuple[str, str], PolyMatrix] = field(default_factory=dict)

    def __post_init__(self):
        _check_chart_matrices(self.atlas, self.rank, self.fields)
        _check_transitions(self.atlas, self.rank, self.transitions)

    def negated(self) -> "HiggsSheaf":
        return HiggsSheaf(
            self.atlas,
            self.rank,
            {c: [-m for m in mats] for c, mats in self.fields.items()},
            dict(self.transitions),
        )

    def is_zero_field(self) -> bool:
        return all(m.is_zero() for mats in self.fields.values() for m in mats)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, HiggsSheaf)
            and self.rank == other.rank
            and self.fields == other.fields
            and self.transitions == other.transitions
        )


@dataclass
class FlatSheaf:
    atlas: Atlas
    rank: int
    conn: dict[str, list[PolyMatrix]]            # chart -> [A_i per dt_i]
    transitions: dict[tuple[str, str], PolyMatrix] = field(default_factory=dict)

    def __post_init__(self):
        _check_chart_matrices(self.atlas, self.rank, self.conn)
        _check_transitions(self.atlas, self.rank, self.transitions)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, FlatSheaf)
            and self.rank == other.rank
            and self.conn == other.conn
            and self.transitions == other.transitions
        )


@dataclass
class PCurvature:
    rank: int
    comps: dict[str, list[PolyMatrix]]           # chart -> [Psi_i per F*dt_i]

    def is_zero(self) -> bool:
        return all(m.is_zero() for mats in self.comps.values() for m in mats)


# ---------- lambda-connections ----------


def curvature(
    mats: list[PolyMatrix], vars: VarSpec, flat: bool
) -> tuple[int, int, PolyMatrix] | None:
    """The first nonzero lambda (d_i A_j - d_j A_i) + [A_i, A_j], i < j, as (i, j, value)."""
    for i, j in itertools.combinations(range(len(mats)), 2):
        curv = mats[i].commutator(mats[j])
        if flat:
            curv = curv + mats[j].deriv(vars.names[i]) - mats[i].deriv(vars.names[j])
        if not curv.is_zero():
            return i, j, curv
    return None


def intertwining_residuals(
    g: PolyMatrix, A: list[PolyMatrix], B: list[PolyMatrix], vars: VarSpec, flat: bool
) -> list[PolyMatrix]:
    """g A_i - B_i g - lambda d_i g for each coordinate t_i.

    For unit-determinant g they all vanish exactly when g A g^-1 - lambda (dg) g^-1 = B.
    """
    out = []
    for name, a, b in zip(vars.names, A, B):
        res = g @ a - b @ g
        out.append(res - g.deriv(name) if flat else res)
    return out


def pull_back(mats: list[PolyMatrix], J: PolyMatrix) -> list[PolyMatrix]:
    """[sum_j J[j][i] * A_j]_i: the form sum_j A_j dw_j written on the dt_i.

    Here dw_j = sum_i J[j][i] dt_i, and the A_j live in the ring of J.  The
    twist's zeta(Phi), the gluing transport and the homotopy exponent h(Phi)
    (J a single column) are all this contraction.
    """
    out = []
    for i in range(J.cols):
        acc = None
        for j, m in enumerate(mats):
            if not J.entries[j][i].is_zero():
                term = m.scale(J.entries[j][i])
                acc = term if acc is None else acc + term
        if acc is None:
            acc = PolyMatrix.zero(mats[0].rows, mats[0].cols, J.vars, J.modulus)
        out.append(acc)
    return out


# ---------- nilpotency ----------


def nilpotency_exponent(mats: list[PolyMatrix], max_n: int) -> int | None:
    """Smallest n <= max_n with all degree-n monomials in mats zero, else None.

    Integrability lets monomials stand in for arbitrary products.  Level n
    extends each nonzero monomial of level n-1 (indices nondecreasing) by one
    right factor; a zero monomial has only zero extensions.
    """
    level = [(k, m) for k, m in enumerate(mats) if not m.is_zero()]
    for n in range(1, max_n + 1):
        if not level:
            return n
        if n < max_n:
            level = [
                (k, prod)
                for j, mono in level
                for k in range(j, len(mats))
                if not (prod := mono @ mats[k]).is_zero()
            ]
    return None


def nilpotent_within(mats: list[PolyMatrix], bound: int, commuting: bool) -> bool:
    """Whether every product of `bound` matrices of the family is zero.

    Commuting nilpotent r x r matrices over a domain are simultaneously
    strictly upper triangular over the closure of its fraction field, so
    every product of r of them is zero; and one A is nilpotent exactly when
    A^r = 0 (Cayley-Hamilton).  Chart rings F_p[t, some 1/t] are domains, so
    for a commuting mod-p family of rank r <= bound the answer is whether
    every A^(2^k) vanishes, 2^k the least power of two >= r: k squarings per
    matrix.  A family that does not commute, is not mod p or has rank above
    `bound` is scanned by `nilpotency_exponent`; `commuting` is the caller's
    verdict on the family (its integrability check, or a theorem).
    """
    if not (mats and commuting and mats[0].rows <= bound and is_prime(mats[0].modulus)):
        return nilpotency_exponent(mats, bound) is not None
    squarings = (mats[0].rows - 1).bit_length()
    for a in mats:
        for _ in range(squarings):
            if a.is_zero():
                break
            a = a @ a
        if not a.is_zero():
            return False
    return True


# ---------- definitional checks ----------


def check_higgs(E: HiggsSheaf) -> Report:
    report = Report()
    p = E.atlas.ctx.p
    for chart, mats in E.fields.items():
        curv = curvature(mats, E.atlas.chart_vars(chart), flat=False)
        witness = () if curv is None else (f"[Theta_{curv[0]}, Theta_{curv[1]}] = {curv[2]}",)
        report.add(f"integrability[{chart}]", curv is None, witness)
        nilpotent = nilpotent_within(mats, p - 1, commuting=curv is None)
        report.add(
            f"nilpotency[{chart}] exponent <= {p - 1}",
            nilpotent,
            () if nilpotent else (f"no vanishing up to degree {p - 1}",),
        )
    _check_transition_cocycle(E.atlas, E.transitions, report)
    jacobians = {pair: jacobian_beta_in_alpha(ov) for pair, ov in E.atlas.overlaps.items()}
    report.extend(check_field_gluing(E.atlas, E.fields, E.transitions, jacobians, flat=False))
    return report


def check_flat(H: FlatSheaf) -> Report:
    report = Report()
    for chart, mats in H.conn.items():
        curv = curvature(mats, H.atlas.chart_vars(chart), flat=True)
        witness = () if curv is None else (f"curvature dt_{curv[0]}^dt_{curv[1]} = {curv[2]}",)
        report.add(f"zero curvature[{chart}]", curv is None, witness)
    _check_transition_cocycle(H.atlas, H.transitions, report)
    jacobians = {pair: jacobian_beta_in_alpha(ov) for pair, ov in H.atlas.overlaps.items()}
    report.extend(check_field_gluing(H.atlas, H.conn, H.transitions, jacobians, flat=True))
    return report


def _check_transition_cocycle(atlas: Atlas, transitions, report: Report) -> None:
    """T_bc T_ab = T_ac, or T_ca T_bc T_ab = I for a cycle, in a-side coordinates.

    Each triple overlap is compared on the a-side coordinates with the
    inversions of both of its overlaps through a.  A cycle (a,b), (b,c), (c,a)
    is checked once, with a the smallest chart.
    """
    pairs = sorted(transitions)
    checks = []  # (a, b, c, cycle)
    for (a, b), (b2, c) in itertools.product(pairs, pairs):
        if b2 == b and len({a, b, c}) == 3:
            if (a, c) in transitions:
                checks.append((a, b, c, False))
            if (c, a) in transitions and a < min(b, c):
                checks.append((a, b, c, True))
    if not checks:
        report.skip("transition cocycle", "no composable chart triples in atlas")
        return
    for a, b, c, cycle in checks:
        ab = atlas.overlaps[(a, b)]
        third = atlas.overlaps[(c, a)].beta_vars if cycle else atlas.overlaps[(a, c)].alpha_vars
        vars = ab.alpha_vars.with_inverted(third.inverted)
        b_in_a = {w: sp.poly.extend_vars(vars) for w, sp in ab.beta_in_alpha.items()}
        lhs = transitions[(b, c)].subst(b_in_a, vars) @ transitions[(a, b)].extend_vars(vars)
        if cycle:
            ca = atlas.overlaps[(c, a)]
            c_in_a = {u: sp.poly.extend_vars(vars) for u, sp in ca.alpha_in_beta.items()}
            ok = (transitions[(c, a)].subst(c_in_a, vars) @ lhs).is_identity()
        else:
            ok = lhs == transitions[(a, c)].extend_vars(vars)
        report.add(f"transition cocycle[{a},{b},{c}]", ok)


def check_field_gluing(
    atlas: Atlas,
    comps: dict[str, list[PolyMatrix]],
    transitions: dict[tuple[str, str], PolyMatrix],
    jacobians: dict[tuple[str, str], PolyMatrix],
    flat: bool,
) -> Report:
    """R_lambda(T; comps_alpha, pull_back(comps_beta, J)) = 0 on every overlap.

    The beta-side matrices are written in alpha-side coordinates and
    transported by `pull_back` along `jacobians[pair]`: J[j][i] = d(w_j)/d(u_i)
    for a Higgs field or a connection, and its Frobenius pullback for a
    p-curvature, whose components sit on the basis F*dt_i.  Raises
    NotAUnitError when a transition's determinant is not a unit.
    """
    report = Report()
    label = "connection gluing" if flat else "field gluing"
    for pair, ov in atlas.overlaps.items():
        t_mat = transitions[pair]
        det = t_mat.det()
        if not det.is_unit():
            raise NotAUnitError(f"matrix determinant '{det}' is not a unit")
        beta_mats = [m.map_entries(lambda f: pull_beta_function(ov, f)) for m in comps[ov.beta]]
        transported = pull_back(beta_mats, jacobians[pair])
        alpha_mats = [m.extend_vars(ov.alpha_vars) for m in comps[ov.alpha]]
        residuals = intertwining_residuals(t_mat, alpha_mats, transported, ov.alpha_vars, flat)
        bad = [(u, res) for u, res in zip(ov.alpha_vars.names, residuals) if not res.is_zero()]
        witness = (f"coordinate {bad[0][0]}: residual {bad[0][1]}",) if bad else ()
        report.add(f"{label}[{pair[0]}|{pair[1]}]", not witness, witness)
    return report


# ---------- p-curvature ----------


def p_curvature(H: FlatSheaf) -> PCurvature:
    """Psi_i = (d/dt_i + A_i)^p applied to the identity frame, per chart.

    The first step takes the identity frame to A_i; the other p-1 are one
    chain `A_i.nabla_power(A_i, t_i, p - 1)` of steps b -> d_i b + A_i b.
    H must be flat: `check_flat` (in `untwist`) and `parse_scene` check it.
    """
    p = H.atlas.ctx.p
    comps = {
        chart: [a.nabla_power(a, t, p - 1) for a, t in zip(mats, H.atlas.chart_vars(chart).names)]
        for chart, mats in H.conn.items()
    }
    return PCurvature(H.rank, comps)


def verify_p_curvature_invariants(H: FlatSheaf, psi: PCurvature) -> Report:
    """psi is a 0-connection (its components commute) and is horizontal for d + A."""
    report = Report()
    for chart, psis in psi.comps.items():
        vars = H.atlas.chart_vars(chart)
        mats = H.conn[chart]
        report.add(f"psi commutativity[{chart}]", curvature(psis, vars, flat=False) is None)
        horizontal = all(
            res.is_zero()
            for psi_i in psis
            for res in intertwining_residuals(psi_i, mats, mats, vars, flat=True)
        )
        report.add(f"psi horizontality[{chart}]", horizontal)
    return report
