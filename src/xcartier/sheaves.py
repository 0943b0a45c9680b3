"""Higgs sheaves and flat sheaves as chart-local free modules with transitions.

Conventions (these fix every sign below):

  * sections are column vectors; across an overlap (alpha, beta) the
    components transform by  x_beta = T @ x_alpha  with T the stored
    transition matrix (unit determinant, entries in alpha-side overlap
    coordinates);
  * a connection is  d + A  with one matrix A_i per coordinate dt_i; the
    gauge rule across an overlap is  A_beta = T A_alpha T^-1 - (dT) T^-1;
  * a Higgs field has one matrix Theta_i per dt_i and transforms by plain
    conjugation together with the Jacobian of the coordinate change;
  * the p-curvature of d + A has one matrix Psi_i per pulled-back basis
    element F*dt_i, computed by p-fold application of d/dt_i + A_i to the
    identity frame; it transforms by conjugation with the Frobenius power
    of the Jacobian on the form index.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

from .atlas import Atlas, Overlap, jacobian_beta_in_alpha, pull_beta_function
from .report import Report, timed
from .ring import PolyMatrix


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


# ---------- nilpotency ----------


def nilpotency_exponent(mats: list[PolyMatrix], max_n: int) -> int | None:
    """Smallest n <= max_n with all degree-n monomials in mats zero, else None.

    Integrability lets monomials stand in for arbitrary products.
    """
    for n in range(1, max_n + 1):
        all_zero = True
        for combo in itertools.combinations_with_replacement(range(len(mats)), n):
            prod = mats[combo[0]]
            for k in combo[1:]:
                prod = prod @ mats[k]
                if prod.is_zero():
                    break
            if not prod.is_zero():
                all_zero = False
                break
        if all_zero:
            return n
    return None


# ---------- definitional checks ----------


def check_higgs(E: HiggsSheaf) -> Report:
    report = Report()
    p = E.atlas.ctx.p
    for chart, mats in E.fields.items():
        with timed() as t:
            ok = True
            witness: tuple[str, ...] = ()
            for i in range(len(mats)):
                for j in range(i + 1, len(mats)):
                    comm = mats[i].commutator(mats[j])
                    if not comm.is_zero():
                        ok = False
                        witness = (f"[Theta_{i}, Theta_{j}] = {comm}",)
                        break
                if not ok:
                    break
        report.add(f"integrability[{chart}]", ok, witness, t.elapsed)
        with timed() as t:
            exp = nilpotency_exponent(mats, p - 1)
        report.add(
            f"nilpotency[{chart}] exponent <= {p - 1}",
            exp is not None,
            () if exp is not None else (f"no vanishing up to degree {p - 1}",),
            t.elapsed,
        )
        if exp is not None:
            report.skip(f"nilpotency[{chart}] exponent", f"exponent = {exp}")
    _check_transition_cocycle(E.atlas, E.transitions, report)
    jacobians = {pair: jacobian_beta_in_alpha(ov) for pair, ov in E.atlas.overlaps.items()}
    report.extend(check_field_gluing(E.atlas, E.fields, E.transitions, jacobians))
    return report


def higgs_exponent(E: HiggsSheaf) -> int:
    p = E.atlas.ctx.p
    exps = [nilpotency_exponent(mats, p - 1) for mats in E.fields.values()]
    if any(e is None for e in exps):
        raise SheafError(f"Higgs field is not nilpotent of exponent <= {p - 1}")
    return max(exps)


def _check_transition_cocycle(atlas, transitions, report: Report) -> None:
    # composable chart triples only appear with three pairwise overlaps
    pairs = set(transitions)
    triples = []
    for (a, b) in pairs:
        for (b2, c) in pairs:
            if b2 == b and (a, c) in pairs and len({a, b, c}) == 3:
                triples.append((a, b, c))
    if not triples:
        report.skip("transition cocycle", "no composable chart triples in atlas")
        return
    for (a, b, c) in triples:
        lhs = transitions[(b, c)] @ transitions[(a, b)]
        rhs = transitions[(a, c)]
        report.add(f"transition cocycle[{a},{b},{c}]", lhs == rhs)


def check_field_gluing(
    atlas: Atlas,
    comps: dict[str, list[PolyMatrix]],
    transitions: dict[tuple[str, str], PolyMatrix],
    jacobians: dict[tuple[str, str], PolyMatrix],
) -> Report:
    """comps_alpha_i == sum_j J[j][i] * T^-1 comps_beta_j T on every overlap.

    `jacobians[pair]` is J[j][i] = d(w_j)/d(u_i) on alpha-side coordinates for
    a Higgs field, and its Frobenius pullback for a p-curvature, whose
    components sit on the basis F*dt_i.
    """
    report = Report()
    for pair, ov in atlas.overlaps.items():
        with timed() as t:
            t_mat = transitions[pair]
            t_inv = t_mat.inverse_unit_det()
            jac = jacobians[pair]
            beta_mats = [
                comps[ov.beta][j].map_entries(lambda f: pull_beta_function(ov, f))
                for j in range(ov.beta_vars.arity)
            ]
            witness: tuple[str, ...] = ()
            for i, u in enumerate(ov.alpha_vars.names):
                lhs = comps[ov.alpha][i].extend_vars(ov.alpha_vars)
                rhs = PolyMatrix.zero(t_mat.rows, t_mat.rows, ov.alpha_vars, atlas.ctx.p)
                for j in range(ov.beta_vars.arity):
                    if not jac.entries[j][i].is_zero():
                        rhs = rhs + (t_inv @ beta_mats[j] @ t_mat).scale(jac.entries[j][i])
                if lhs != rhs:
                    witness = (f"coordinate {u}: alpha side {lhs}", f"transported beta side {rhs}")
                    break
        report.add(f"field gluing[{pair[0]}|{pair[1]}]", not witness, witness, t.elapsed)
    return report


def check_flat(H: FlatSheaf) -> Report:
    report = Report()
    for chart, mats in H.conn.items():
        vars = H.atlas.chart_vars(chart)
        with timed() as t:
            ok = True
            witness: tuple[str, ...] = ()
            for i in range(len(mats)):
                for j in range(i + 1, len(mats)):
                    curv = (
                        mats[j].deriv(vars.names[i])
                        - mats[i].deriv(vars.names[j])
                        + mats[i].commutator(mats[j])
                    )
                    if not curv.is_zero():
                        ok = False
                        witness = (f"curvature dt_{i}^dt_{j} = {curv}",)
                        break
                if not ok:
                    break
        report.add(f"zero curvature[{chart}]", ok, witness, t.elapsed)
    _check_transition_cocycle(H.atlas, H.transitions, report)
    for pair, ov in H.atlas.overlaps.items():
        t_mat = H.transitions[pair]
        with timed() as t:
            ok, witness = _flat_gluing_ok(H, ov, t_mat)
        report.add(f"connection gluing[{pair[0]}|{pair[1]}]", ok, witness, t.elapsed)
    return report


def _flat_gluing_ok(H: FlatSheaf, ov: Overlap, t_mat: PolyMatrix):
    """A_beta = T A_alpha T^-1 - (dT) T^-1, both sides in alpha-side coords."""
    t_inv = t_mat.inverse_unit_det()
    jac = jacobian_beta_in_alpha(ov)
    beta_mats = [
        H.conn[ov.beta][j].map_entries(lambda f: pull_beta_function(ov, f))
        for j in range(ov.beta_vars.arity)
    ]
    for i, u in enumerate(ov.alpha_vars.names):
        lhs = PolyMatrix.zero(H.rank, H.rank, ov.alpha_vars, H.atlas.ctx.p)
        for j in range(ov.beta_vars.arity):
            lhs = lhs + beta_mats[j].scale(jac.entries[j][i])
        a_alpha = H.conn[ov.alpha][i].extend_vars(ov.alpha_vars)
        rhs = t_mat @ a_alpha @ t_inv - t_mat.deriv(u) @ t_inv
        if lhs != rhs:
            return False, (f"coordinate {u}: beta side {lhs}", f"gauge rule {rhs}")
    return True, ()


# ---------- p-curvature ----------


def p_curvature(H: FlatSheaf) -> PCurvature:
    """Psi_i = (d/dt_i + A_i)^p applied to the identity frame, per chart."""
    p = H.atlas.ctx.p
    comps: dict[str, list[PolyMatrix]] = {}
    for chart, mats in H.conn.items():
        vars = H.atlas.chart_vars(chart)
        psis = []
        for i, name in enumerate(vars.names):
            b = PolyMatrix.identity(H.rank, vars, p)
            for _ in range(p):
                b = b.deriv(name) + mats[i] @ b
            psis.append(b)
        comps[chart] = psis
    psi = PCurvature(H.rank, comps)
    rep = verify_p_curvature_invariants(H, psi)
    if not rep.ok():
        raise SheafError(
            "computed p-curvature violates its invariants: "
            + "; ".join(e.check for e in rep.failures())
        )
    return psi


def verify_p_curvature_invariants(H: FlatSheaf, psi: PCurvature) -> Report:
    report = Report()
    for chart, psis in psi.comps.items():
        vars = H.atlas.chart_vars(chart)
        mats = H.conn[chart]
        ok = True
        for i in range(len(psis)):
            for j in range(i + 1, len(psis)):
                if not psis[i].commutator(psis[j]).is_zero():
                    ok = False
        report.add(f"psi commutativity[{chart}]", ok)
        ok = True
        for i, psi_i in enumerate(psis):
            for j, name in enumerate(vars.names):
                horiz = psi_i.deriv(name) + mats[j].commutator(psi_i)
                if not horiz.is_zero():
                    ok = False
        report.add(f"psi horizontality[{chart}]", ok)
    return report
