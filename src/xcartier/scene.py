"""JSON scene format: prime, atlas, optional sheaf, metadata.

Scenes are the only wire format.  Polynomials are strings: a sum of signed
terms, each a `*`-product of integer literals and `name` or `name^int`
factors, with whitespace allowed between any two tokens (`ring` module
docstring).  Matrices are row-major string arrays, transitions are keyed by
the ordered chart pair "alpha,beta".  An overlap gives each coordinate's
image as one mod-p**2 polynomial string (`atlas` module docstring); the
mod-p coordinate change is its reduction.  Parsing validates every
structural invariant (odd prime, lifting reductions, one overlap per pair
of distinct charts, overlap round trips mod p**2, sheaf
integrability/nilpotency/gluing) and rejects bad scenes
with a SceneError "<field path>: <message>"; `_at` gives that form to a
package error raised while a field is read.  Emission is canonical, so
emit(parse(emit(x))) == emit(x).
"""

from __future__ import annotations

import json
from contextlib import contextmanager
from dataclasses import dataclass, field

from .atlas import Atlas, FrobLift, Overlap
from .ring import LaurentPoly, PolyMatrix, PrimeContext, VarSpec
from .sheaves import FlatSheaf, HiggsSheaf, check_flat, check_higgs


class SceneError(ValueError):
    pass


@dataclass
class Scene:
    ctx: PrimeContext
    atlas: Atlas
    sheaf: HiggsSheaf | FlatSheaf | None = None
    metadata: dict = field(default_factory=dict)

    @property
    def p(self) -> int:
        return self.ctx.p


@contextmanager
def _at(where: str):
    """Re-raise a package error from the block as a SceneError at field path `where`."""
    try:
        yield
    except SceneError:  # a nested field's error keeps its own path
        raise
    except (KeyError, TypeError, ValueError) as exc:
        raise SceneError(f"{where}: {exc}") from exc


def _poly(text, vars: VarSpec, modulus: int, where: str) -> LaurentPoly:
    if not isinstance(text, str):
        raise SceneError(f"{where}: expected a polynomial string, got {text!r}")
    with _at(where):
        return LaurentPoly.parse(text, vars, modulus)


def _matrix(strings, rank: int, vars: VarSpec, modulus: int, where: str) -> PolyMatrix:
    if not isinstance(strings, list) or len(strings) != rank * rank:
        raise SceneError(f"{where}: expected {rank * rank} row-major polynomial strings")
    entries = [
        [_poly(strings[i * rank + j], vars, modulus, f"{where}[{i},{j}]") for j in range(rank)]
        for i in range(rank)
    ]
    return PolyMatrix(entries)


_JSON_KINDS = {dict: "object", list: "array", int: "integer"}


def _expect(value, kind: type, where: str):
    """value, if it is a JSON value of the given kind (a boolean is never an integer)."""
    if not isinstance(value, kind) or isinstance(value, bool):
        raise SceneError(f"{where}: expected a JSON {_JSON_KINDS[kind]}, got {value!r}")
    return value


def _names(value, where: str) -> list[str]:
    if not isinstance(value, list) or not all(isinstance(x, str) for x in value):
        raise SceneError(f"{where}: expected a list of strings, got {value!r}")
    return value


def parse_scene(text: str) -> Scene:
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SceneError(f"not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise SceneError("top level must be a JSON object")
    p = _expect(data.get("p"), int, "p")
    with _at("p"):
        ctx = PrimeContext(p)
    p, p2 = ctx.p, ctx.p2

    atlas_data = data.get("atlas")
    if not isinstance(atlas_data, dict):
        raise SceneError("atlas: missing or not an object")
    atlas = Atlas(ctx)
    for idx, chart in enumerate(_expect(atlas_data.get("charts", []), list, "atlas.charts")):
        where = f"atlas.charts[{idx}]"
        _expect(chart, dict, where)
        with _at(where):
            vars = VarSpec.make(
                _names(chart["coords"], f"{where}.coords"),
                _names(chart.get("inverted", []), f"{where}.inverted"),
            )
            atlas.add_chart(chart["name"], vars)
    for idx, ov in enumerate(_expect(atlas_data.get("overlaps", []), list, "atlas.overlaps")):
        where = f"atlas.overlaps[{idx}]"
        _expect(ov, dict, where)
        with _at(where):
            alpha, beta = ov["alpha"], ov["beta"]
            # add_overlap replaces an entry, so a pair listed again would be dropped unchecked
            if alpha == beta:
                raise SceneError(f"{where}: overlap {(alpha, beta)} joins a chart to itself")
            for pair in ((alpha, beta), (beta, alpha)):
                if pair in atlas.overlaps:
                    raise SceneError(f"{where}: overlap {(alpha, beta)} repeats overlap {pair}")
            a_chart, b_chart = atlas.charts[alpha], atlas.charts[beta]
            a_vars = a_chart.vars.with_inverted(
                _names(ov.get("alpha_inverted", []), f"{where}.alpha_inverted"))
            b_vars = b_chart.vars.with_inverted(
                _names(ov.get("beta_inverted", []), f"{where}.beta_inverted"))
            beta_in_alpha = {
                w: _poly(e, a_vars, p2, f"{where}.beta_in_alpha[{w}]")
                for w, e in _expect(ov["beta_in_alpha"], dict, f"{where}.beta_in_alpha").items()
            }
            alpha_in_beta = {
                u: _poly(e, b_vars, p2, f"{where}.alpha_in_beta[{u}]")
                for u, e in _expect(ov["alpha_in_beta"], dict, f"{where}.alpha_in_beta").items()
            }
            atlas.add_overlap(
                Overlap(alpha, beta, a_vars, b_vars, beta_in_alpha, alpha_in_beta)
            )
    for idx, lift in enumerate(_expect(atlas_data.get("lifts", []), list, "atlas.lifts")):
        where = f"atlas.lifts[{idx}]"
        _expect(lift, dict, where)
        with _at(where):
            chart = atlas.charts[lift["chart"]]
            images = {
                coord: _poly(img, chart.vars, p2, f"{where}.images[{coord}]")
                for coord, img in _expect(lift["images"], dict, f"{where}.images").items()
            }
            atlas.add_lift(FrobLift(lift["chart"], images))
    with _at("atlas"):
        atlas.validate()

    sheaf = None
    sheaf_data = data.get("sheaf")
    if sheaf_data is not None:
        if not isinstance(sheaf_data, dict):
            raise SceneError("sheaf: not an object")
        kind = sheaf_data.get("kind")
        if kind not in ("higgs", "flat"):
            raise SceneError(f"sheaf.kind: expected 'higgs' or 'flat', got {kind!r}")
        rank = _expect(sheaf_data.get("rank"), int, "sheaf.rank")
        if rank < 1:
            raise SceneError(f"sheaf.rank: expected a positive integer, got {rank}")
        matrices = {}
        for chart_name, per_coord in _expect(
            sheaf_data.get("matrices", {}), dict, "sheaf.matrices"
        ).items():
            if chart_name not in atlas.charts:
                raise SceneError(f"sheaf.matrices: unknown chart {chart_name!r}")
            _expect(per_coord, dict, f"sheaf.matrices[{chart_name}]")
            vars = atlas.chart_vars(chart_name)
            mats = []
            for coord in vars.names:
                if coord not in per_coord:
                    raise SceneError(
                        f"sheaf.matrices[{chart_name}]: missing coordinate {coord!r}"
                    )
                mats.append(
                    _matrix(per_coord[coord], rank, vars, p,
                            f"sheaf.matrices[{chart_name}][{coord}]")
                )
            matrices[chart_name] = mats
        transitions = {}
        for key, strings in _expect(
            sheaf_data.get("transitions", {}), dict, "sheaf.transitions"
        ).items():
            names = key.split(",")
            if len(names) != 2 or tuple(names) not in atlas.overlaps:
                raise SceneError(f"sheaf.transitions: unknown overlap key {key!r}")
            ov = atlas.overlaps[tuple(names)]
            transitions[tuple(names)] = _matrix(
                strings, rank, ov.alpha_vars, p, f"sheaf.transitions[{key}]"
            )
        with _at("sheaf"):
            if kind == "higgs":
                sheaf = HiggsSheaf(atlas, rank, matrices, transitions)
                rep = check_higgs(sheaf)
            else:
                sheaf = FlatSheaf(atlas, rank, matrices, transitions)
                rep = check_flat(sheaf)
        if not rep.ok():
            raise SceneError(
                "sheaf: invariants fail: "
                + "; ".join(e.check + (f" ({'; '.join(e.witness)})" if e.witness else "")
                            for e in rep.failures())
            )

    metadata = data.get("metadata", {})
    if not isinstance(metadata, dict):
        raise SceneError("metadata: not an object")
    return Scene(ctx, atlas, sheaf, metadata)


def scene_to_dict(scene: Scene) -> dict:
    atlas = scene.atlas
    charts = [
        {
            "name": chart.name,
            "coords": list(chart.vars.names),
            "inverted": sorted(chart.vars.inverted),
        }
        for chart in atlas.charts.values()
    ]
    overlaps = []
    for ov in atlas.overlaps.values():
        a_chart = atlas.charts[ov.alpha]
        b_chart = atlas.charts[ov.beta]
        overlaps.append(
            {
                "alpha": ov.alpha,
                "beta": ov.beta,
                "alpha_inverted": sorted(ov.alpha_vars.inverted - a_chart.vars.inverted),
                "beta_inverted": sorted(ov.beta_vars.inverted - b_chart.vars.inverted),
                "beta_in_alpha": {w: str(f) for w, f in ov.beta_in_alpha.items()},
                "alpha_in_beta": {u: str(f) for u, f in ov.alpha_in_beta.items()},
            }
        )
    lifts = [
        {"chart": chart, "images": {c: str(img) for c, img in lift.images.items()}}
        for chart, chart_lifts in atlas.lifts.items()
        for lift in chart_lifts
    ]
    out: dict = {"p": scene.p}
    if scene.metadata:
        out["metadata"] = scene.metadata
    out["atlas"] = {"charts": charts, "overlaps": overlaps, "lifts": lifts}
    if scene.sheaf is not None:
        sheaf = scene.sheaf
        kind = "higgs" if isinstance(sheaf, HiggsSheaf) else "flat"
        per_chart = sheaf.fields if kind == "higgs" else sheaf.conn
        matrices = {
            chart: {
                coord: [str(m.entries[i][j]) for i in range(sheaf.rank) for j in range(sheaf.rank)]
                for coord, m in zip(atlas.chart_vars(chart).names, mats)
            }
            for chart, mats in per_chart.items()
        }
        transitions = {
            f"{a},{b}": [str(t.entries[i][j]) for i in range(sheaf.rank) for j in range(sheaf.rank)]
            for (a, b), t in sheaf.transitions.items()
        }
        out["sheaf"] = {
            "kind": kind,
            "rank": sheaf.rank,
            "matrices": matrices,
            "transitions": transitions,
        }
    return out


def emit_scene(scene: Scene) -> str:
    return json.dumps(scene_to_dict(scene), indent=2) + "\n"
