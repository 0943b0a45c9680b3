"""Charts, overlaps, Frobenius liftings and their divided-Frobenius data.

An overlap stores its localized coordinate systems on both sides plus the
coordinate change in both directions, once, as mod-p**2 polynomials: the
coordinate change of the W_2-lifting of X, whose reduction mod p is that
of X.

    alpha_vars  -- the alpha chart's names with extra inversions (the
                   canonical coordinates of the overlap ring)
    beta_vars   -- likewise for the beta side
    beta_in_alpha[w] -- the beta coordinate w as a function of alpha_vars
    alpha_in_beta[u] -- the alpha coordinate u as a function of beta_vars

The mod-p maps, which move functions and Jacobians between the charts of X,
are their reductions (`beta_in_alpha_mod_p`, `alpha_in_beta_mod_p`), built
once per overlap.  `_validate_overlap` checks the round trips mod p**2 only:
reduction mod p is a ring homomorphism that commutes with substitution, so
the mod-p round trips are their images.

A Frobenius lifting assigns to each chart coordinate a mod-p**2 image
congruent to its p-th power.  `lift_on_overlap` transports a lifting from
either chart to the overlap ring, which is where the homotopy h between two
liftings and its two defining identities are checked.  Differentials are
Jacobian matrices, row j for the coordinate t_j: the divided Frobenius is
Z[j][i] = d_i F(t_j)/p (`zeta_form`), the homotopy is the vector
h_ab[j] = (F_a(t_j) - F_b(t_j))/p, and

    jacobian(h_ab) = Z_a - Z_b         (coboundary identity)
    h_ab + h_bc = h_ac                 (cocycle identity)

`verify_deligne_illusie` checks both, and h_ba = -h_ab, on every ordered
pair and triple of liftings of a chart or overlap.  It takes Z and h from
`zeta_form` and `h_pair`, the functions the twist uses, and compares
polynomials entry by entry (d(h_ab) + Z_b with Z_a); the Jacobian and
difference matrices and the vectors' text are built only for the witness of
a failed entry.  `validate_lifts` and the check of a transported lifting
compare each image mod p with t^p.  All of it runs on the public operations
of `ring`.

None of this depends on a sheaf, so an `Atlas` keeps it in one private memo,
filled on first use: `zeta_form` per (chart, lifting index), the
`lift_on_overlap` images per (overlap, chart, lifting index), whose
corruption check therefore runs once, and `jacobian_beta_in_alpha` per
overlap, which the gluing checks of every sheaf on the atlas read.
`validate` fills none of it, and `parse_scene` only the Jacobians of its
sheaf check.  `add_chart`, `add_overlap` and `add_lift` clear it; an atlas
is not to be changed any other way.

`validate` checks the liftings (`validate_lifts`) and then every overlap
(`_validate_overlap`).  An atlas that reuses another's validated Overlap
objects and replaces only its liftings, as `acceptance.perturbed_atlas`
does, needs only `validate_lifts`.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from functools import cached_property
from math import isqrt

from .report import Report
from .ring import (
    LaurentPoly,
    PolyMatrix,
    PrimeContext,
    SubstitutionError,
    VarSpec,
    divide_by_p,
    jacobian,
)


class AtlasError(ValueError):
    pass


@dataclass(frozen=True)
class Chart:
    name: str
    vars: VarSpec


@dataclass(frozen=True)
class Overlap:
    alpha: str
    beta: str
    alpha_vars: VarSpec
    beta_vars: VarSpec
    beta_in_alpha: dict[str, LaurentPoly]  # mod p**2, on alpha_vars
    alpha_in_beta: dict[str, LaurentPoly]  # mod p**2, on beta_vars

    @property
    def pair(self) -> tuple[str, str]:
        return (self.alpha, self.beta)

    @cached_property
    def beta_in_alpha_mod_p(self) -> dict[str, LaurentPoly]:
        return {w: f.reduce_mod(isqrt(f.modulus)) for w, f in self.beta_in_alpha.items()}

    @cached_property
    def alpha_in_beta_mod_p(self) -> dict[str, LaurentPoly]:
        return {u: f.reduce_mod(isqrt(f.modulus)) for u, f in self.alpha_in_beta.items()}


@dataclass(frozen=True)
class FrobLift:
    """Images F(t_i) mod p**2 of one chart's coordinates, F(t_i) = t_i^p mod p."""

    chart: str
    images: dict[str, LaurentPoly]


@dataclass
class Atlas:
    ctx: PrimeContext
    charts: dict[str, Chart] = field(default_factory=dict)
    overlaps: dict[tuple[str, str], Overlap] = field(default_factory=dict)
    lifts: dict[str, list[FrobLift]] = field(default_factory=dict)
    # data that depends only on the atlas, built on first use; the add_* methods clear it
    _memo: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def add_chart(self, name: str, vars: VarSpec) -> Chart:
        if name in self.charts:
            raise AtlasError(f"duplicate chart name {name!r}")
        if "," in name or "|" in name:
            raise AtlasError(f"chart name {name!r} may not contain ',' or '|'")
        chart = Chart(name, vars)
        self.charts[name] = chart
        self.lifts.setdefault(name, [])
        self._memo.clear()
        return chart

    def add_overlap(self, overlap: Overlap) -> None:
        for c in (overlap.alpha, overlap.beta):
            if c not in self.charts:
                raise AtlasError(f"overlap references unknown chart {c!r}")
        self.overlaps[overlap.pair] = overlap
        self._memo.clear()

    def add_lift(self, lift: FrobLift) -> None:
        if lift.chart not in self.charts:
            raise AtlasError(f"lift references unknown chart {lift.chart!r}")
        self.lifts[lift.chart].append(lift)
        self._memo.clear()

    def chart_vars(self, name: str) -> VarSpec:
        return self.charts[name].vars

    def lift_index(self, chart: str, choice: dict[str, int] | None = None) -> int:
        """The index of the lifting that choice picks on chart (default 0)."""
        if choice and not choice.keys() <= self.charts.keys():
            unknown = sorted(choice.keys() - self.charts.keys())
            raise AtlasError(f"lifting choice names no chart: {unknown}")
        idx = choice.get(chart, 0) if choice else 0
        if not 0 <= idx < len(self.lifts.get(chart, [])):
            raise AtlasError(f"chart {chart!r} has no Frobenius lifting #{idx}")
        return idx

    def lift_for(self, chart: str, choice: dict[str, int] | None = None) -> FrobLift:
        return self.lifts[chart][self.lift_index(chart, choice)]

    def _cached(self, key: tuple, build):
        try:
            return self._memo[key]
        except KeyError:
            value = self._memo[key] = build()
            return value

    def zeta(self, chart: str, choice: dict[str, int] | None = None) -> PolyMatrix:
        """`zeta_form` of the chosen lifting on chart, built once per lifting."""
        idx = self.lift_index(chart, choice)
        return self._cached(("zeta", chart, idx), lambda: zeta_form(
            self.chart_vars(chart), self.lifts[chart][idx].images))

    def jacobian(self, pair: tuple[str, str]) -> PolyMatrix:
        """`jacobian_beta_in_alpha` of the overlap pair, built once per overlap."""
        return self._cached(("jacobian", pair), lambda: jacobian_beta_in_alpha(self.overlaps[pair]))

    def transported_lift(
        self, pair: tuple[str, str], chart: str, choice: dict[str, int] | None = None
    ) -> dict[str, LaurentPoly]:
        """`lift_on_overlap` of the chosen lifting on chart, built once per lifting."""
        idx = self.lift_index(chart, choice)
        return self._cached(("lift", pair, chart, idx), lambda: lift_on_overlap(
            self, self.overlaps[pair], self.lifts[chart][idx]))

    def validate(self) -> None:
        """The lifting part (`validate_lifts`), then every overlap."""
        self.validate_lifts()
        for ov in self.overlaps.values():
            self._validate_overlap(ov)

    def validate_lifts(self) -> None:
        """Every chart has a lifting, and each image is congruent to t^p mod p."""
        p, p2 = self.ctx.p, self.ctx.p2
        for name, lifts in self.lifts.items():
            if not lifts:
                raise AtlasError(f"chart {name!r} has no Frobenius lifting")
            vars = self.charts[name].vars
            for lift in lifts:
                if set(lift.images) != set(vars.names):
                    raise AtlasError(f"lift on {name!r} must cover coordinates {vars.names}")
                for coord, img in lift.images.items():
                    if img.modulus != p2 or img.vars != vars:
                        raise AtlasError(f"lift image of {coord!r} on {name!r}: wrong ring")
                    if img.reduce_mod(p) != LaurentPoly.var(vars, p, coord, p):
                        raise AtlasError(
                            f"lift image of {coord!r} on {name!r} is '{img}', "
                            f"not congruent to {coord}^{p} mod {p}"
                        )

    def _validate_overlap(self, ov: Overlap) -> None:
        """The overlap joins two distinct charts and its reverse is not stored
        (no cocycle check compares the two transitions), each image is a
        mod-p**2 polynomial on its side, and the maps round-trip.

        That makes the Jacobian J_b = `jacobian_beta_in_alpha(ov)` a unit,
        with no check: reduced mod p the round trips make b = beta_in_alpha
        and a = alpha_in_beta inverse ring isomorphisms, and the chain rule
        on a(b(u)) = u and b(a(w)) = w gives (J_a o b) J_b = I and
        (J_b o a) J_a = I.  So both charts have one dimension, and
        det(J_a o b) det J_b = 1.
        """
        if ov.alpha == ov.beta or (ov.beta, ov.alpha) in self.overlaps:
            raise AtlasError(
                f"overlap {ov.pair}: needs two distinct charts and no reverse overlap")
        a_chart, b_chart = self.charts[ov.alpha], self.charts[ov.beta]
        if ov.alpha_vars.names != a_chart.vars.names:
            raise AtlasError(f"overlap {ov.pair}: alpha-side names must match chart {ov.alpha!r}")
        if ov.beta_vars.names != b_chart.vars.names:
            raise AtlasError(f"overlap {ov.pair}: beta-side names must match chart {ov.beta!r}")
        if set(ov.beta_in_alpha) != set(b_chart.vars.names):
            raise AtlasError(f"overlap {ov.pair}: beta_in_alpha must cover {b_chart.vars.names}")
        if set(ov.alpha_in_beta) != set(a_chart.vars.names):
            raise AtlasError(f"overlap {ov.pair}: alpha_in_beta must cover {a_chart.vars.names}")
        p2 = self.ctx.p2
        for images, vars, side in ((ov.beta_in_alpha, ov.alpha_vars, "alpha"),
                                   (ov.alpha_in_beta, ov.beta_vars, "beta")):
            for coord, img in images.items():
                if not isinstance(img, LaurentPoly) or img.modulus != p2 or img.vars != vars:
                    raise AtlasError(f"overlap {ov.pair}: image of {coord!r} is not a polynomial "
                                     f"mod {p2} in the {side}-side overlap coordinates")
        for images, back_maps, vars in ((ov.alpha_in_beta, ov.beta_in_alpha, ov.alpha_vars),
                                        (ov.beta_in_alpha, ov.alpha_in_beta, ov.beta_vars)):
            for coord in vars.names:
                try:  # a negative power of a non-unit image
                    back = images[coord].subst(back_maps, vars)
                except SubstitutionError as exc:
                    raise AtlasError(f"overlap {ov.pair}: {exc}") from exc
                if back != LaurentPoly.var(vars, p2, coord):
                    raise AtlasError(
                        f"overlap {ov.pair}: coordinate {coord!r} does not round-trip "
                        f"(got '{back}' mod {p2})"
                    )


# ---------- coordinate changes ----------


def jacobian_beta_in_alpha(ov: Overlap) -> PolyMatrix:
    """J[j][i] = d(w_j)/d(u_i) on alpha-side coordinates."""
    return jacobian([ov.beta_in_alpha_mod_p[w] for w in ov.beta_vars.names])


def pull_beta_function(ov: Overlap, f: LaurentPoly) -> LaurentPoly:
    """Express a function on the beta chart in alpha-side overlap coordinates."""
    return f.subst(ov.beta_in_alpha_mod_p, ov.alpha_vars)


# ---------- divided Frobenius and homotopies ----------


def zeta_form(vars: VarSpec, images: dict[str, LaurentPoly]) -> PolyMatrix:
    """Z[j][i] = d_i F(t_j)/p: row j is zeta(1 (x) dt_j) as a mod-p 1-form."""
    return PolyMatrix([[divide_by_p(images[coord].deriv(name)) for name in vars.names]
                       for coord in vars.names])


def h_pair(
    vars: VarSpec,
    images_a: dict[str, LaurentPoly],
    images_b: dict[str, LaurentPoly],
    coord: str,
) -> LaurentPoly:
    """h_ab(1 (x) dt_coord) = (F_a(t) - F_b(t))/p as a mod-p function."""
    return divide_by_p(images_a[coord] - images_b[coord])


def lift_on_overlap(atlas: Atlas, ov: Overlap, lift: FrobLift) -> dict[str, LaurentPoly]:
    """Transport a chart lifting to the overlap: images of alpha-side coords.

    For a lifting on the alpha chart this is just localization.  For one on
    the beta chart, each alpha coordinate u is written in beta coordinates
    mod p**2, pushed through the lifted Frobenius there, and pulled back:
    two substitutions, whose unit inversions are `invert_unit`'s monomial
    shifts.  Each image must reduce to u^p mod p.
    """
    p, p2 = atlas.ctx.p, atlas.ctx.p2
    if lift.chart == ov.alpha:
        out = {u: img.extend_vars(ov.alpha_vars) for u, img in lift.images.items()}
    elif lift.chart == ov.beta:
        frob_images = {w: img.extend_vars(ov.beta_vars) for w, img in lift.images.items()}
        out = {}
        for u in ov.alpha_vars.names:
            pushed = ov.alpha_in_beta[u].subst(frob_images, ov.beta_vars)
            out[u] = pushed.subst(ov.beta_in_alpha, ov.alpha_vars)
    else:
        raise AtlasError(f"lifting on {lift.chart!r} does not live on overlap {ov.pair}")
    for u, img in out.items():
        if img.reduce_mod(p) != LaurentPoly.var(ov.alpha_vars, p, u, p):
            raise AtlasError(
                f"transported lifting is corrupt: image of {u!r} is '{img}' mod {p2}"
            )
    return out


def _domains_with_lifts(atlas: Atlas):
    """Yield (label, vars, [(tag, images)]) for charts and overlaps with two or more lifts."""
    for name, chart in atlas.charts.items():
        lifts = atlas.lifts.get(name, [])
        if len(lifts) >= 2:
            yield (
                f"chart:{name}",
                chart.vars,
                [(f"{name}#{i}", lift.images) for i, lift in enumerate(lifts)],
            )
    for ov in atlas.overlaps.values():
        collected = []
        for side in (ov.alpha, ov.beta):
            for i in range(len(atlas.lifts.get(side, []))):
                collected.append((f"{side}#{i}", atlas.transported_lift(ov.pair, side, {side: i})))
        if len(collected) >= 2:
            yield (f"overlap:{ov.alpha}|{ov.beta}", ov.alpha_vars, collected)


def verify_deligne_illusie(atlas: Atlas) -> Report:
    """Check both homotopy identities for all ordered lift pairs and triples.

    d(h_ab) + zeta_b = zeta_a, h_ab + h_ba = 0 and h_ab + h_bc = h_ac are
    compared entry by entry.  The sums check their operands' ring, and a
    failed entry builds its witness matrices, which check theirs, so values
    from two rings raise before any entry is recorded.  The matrices and
    vectors of a witness are built only for a failed entry.
    """
    report = Report()
    found_any = False
    for label, vars, lifted in _domains_with_lifts(atlas):
        found_any = True
        zetas = {tag: zeta_form(vars, images) for tag, images in lifted}
        h = {  # h[a, b][j] = h_ab(dt_j), once per ordered pair
            (a, b): [h_pair(vars, img_a, img_b, c) for c in vars.names]
            for (a, img_a), (b, img_b) in itertools.permutations(lifted, 2)
        }
        for a, b in itertools.permutations(zetas, 2):
            hab, za, zb = h[a, b], zetas[a].entries, zetas[b].entries
            witness = ()
            if any(x.deriv(name) + zb[j][i] != za[j][i]  # d h_ab + zeta_b = zeta_a
                   for j, x in enumerate(hab) for i, name in enumerate(vars.names)):
                dh, diff = jacobian(hab), zetas[a] - zetas[b]
                witness = (f"d h = {dh}", f"zeta_a - zeta_b = {diff}")
            elif not all((x + y).is_zero() for x, y in zip(hab, h[b, a])):  # h_ba = -h_ab
                witness = (f"h_ab = {_vector(hab)}", f"h_ba = {_vector(h[b, a])}")
            report.add(f"{label}: d(h) = zeta difference [{a},{b}]", not witness, witness)
        for a, b, c in itertools.permutations(zetas, 3):
            ok = all(x + y == z for x, y, z in zip(h[a, b], h[b, c], h[a, c]))
            witness = () if ok else (
                f"h_ab = {_vector(h[a, b])}, h_bc = {_vector(h[b, c])}",
                f"h_ac = {_vector(h[a, c])}",
            )
            report.add(f"{label}: cocycle [{a},{b},{c}]", ok, witness)
    if not found_any:
        report.skip("no lift pairs available", "atlas has a single lifting per domain")
    return report


def _vector(fs: list[LaurentPoly]) -> str:
    return "(" + ", ".join(map(str, fs)) + ")"
