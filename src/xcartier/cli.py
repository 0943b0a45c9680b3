"""Command-line driver.

Exit codes: 0 all checks passed, 1 some check failed, 2 usage/parse/runtime
error.  Reports and scenes go to stdout (or --out); diagnostics to stderr.
The commands that print a report take --json; icartier, cartier and gallery
print a scene, which is JSON already.  Reports hold no wall times, so they are
byte-identical from run to run; `perfbench/run.py` measures time.
"""

from __future__ import annotations

import argparse
import sys

from . import acceptance
from .atlas import verify_deligne_illusie
from .gallery import GALLERY_NAMES, gallery
from .identities import (
    commuting_nilpotent_family,
    taylor_cocycle_identity,
    verify_symmetrized_vanishing,
    wilson_unit_check,
)
from .report import Report
from .ring import PrimeContext, RingError
from .scene import Scene, SceneError, emit_scene, parse_scene
from .sheaves import FlatSheaf, HiggsSheaf, p_curvature, verify_p_curvature_invariants
from .transforms import TransformError, cartier, inverse_cartier, roundtrip_check

USAGE_ERROR = 2


def _read_scene(path: str) -> Scene:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_scene(fh.read())


# the sheaf each scene command needs, and its name in the usage message
_SHEAF_KINDS = {
    "pcurv": (FlatSheaf, "flat"),
    "icartier": (HiggsSheaf, "Higgs"),
    "cartier": (FlatSheaf, "flat"),
    "roundtrip": (HiggsSheaf, "Higgs"),
}


def _write_output(text: str, out: str | None) -> None:
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _emit_report(report: Report, args, extra_text: str = "") -> int:
    if args.json:
        text = report.to_json() + "\n"
    else:
        text = "\n".join(report.lines()) + "\n"
    if extra_text:
        text += extra_text
    _write_output(text, args.out)
    return 0 if report.ok() else 1


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="xcartier",
        description="Exact Cartier / inverse Cartier transforms and identity checks",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(cmd, scene=False, report=True):
        cmd.add_argument("--out", help="write output to this file instead of stdout")
        if report:
            cmd.add_argument("--json", action="store_true", help="emit the report as JSON")
        if scene:
            cmd.add_argument("--scene", required=True, help="input scene JSON file")
        return cmd

    c = common(sub.add_parser("lemma", help="verify the lifting-homotopy identities"), scene=True)
    c.add_argument("--trials", type=int, default=0,
                   help="also check this many seeded lifting perturbations")
    c.add_argument("--seed", type=int, default=0)
    common(sub.add_parser("pcurv", help="p-curvature of a flat scene"), scene=True)
    common(sub.add_parser("icartier", help="inverse transform of a Higgs scene"),
           scene=True, report=False)
    common(sub.add_parser("cartier", help="transform of a flat scene"), scene=True, report=False)
    common(sub.add_parser("roundtrip", help="compose both transforms and compare"), scene=True)
    c = common(sub.add_parser("fk", help="symmetrized tuple-sum vanishing"))
    c.add_argument("--p", type=int, required=True)
    c.add_argument("--k", type=int, default=None, help="restrict to one k")
    c = common(sub.add_parser("taylor", help="truncated-exponential Taylor identity"))
    c.add_argument("--p", type=int, required=True)
    c.add_argument("--seed", type=int, default=0)
    c.add_argument("--trials", type=int, default=20)
    c = common(sub.add_parser("wilson", help="derivative/model unit checks"))
    c.add_argument("--p", type=int, default=None, help="default: all odd primes <= 13")
    c = common(sub.add_parser("gallery", help="emit a built-in scene"), report=False)
    c.add_argument("name", choices=GALLERY_NAMES)
    c.add_argument("--p", type=int, default=3)
    common(sub.add_parser("verify-all", help="run the full acceptance suite"))
    return parser


def run_cli(argv: list[str]) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return USAGE_ERROR if exc.code not in (0, None) else 0
    try:
        if args.command == "lemma":
            if args.trials < 0:
                raise ValueError(f"--trials must be at least 0, got {args.trials}")
            scene = _read_scene(args.scene)
            report = verify_deligne_illusie(scene.atlas)
            for k in range(args.trials):
                perturbed = acceptance.perturbed_atlas(scene.atlas, args.seed + k)
                report.extend(verify_deligne_illusie(perturbed), prefix=f"perturbed[{args.seed + k}] ")
            return _emit_report(report, args)
        if args.command in _SHEAF_KINDS:
            scene = _read_scene(args.scene)
            kind, name = _SHEAF_KINDS[args.command]
            if not isinstance(scene.sheaf, kind):
                print(f"{args.command} needs a scene with a {name} sheaf", file=sys.stderr)
                return USAGE_ERROR
        if args.command == "pcurv":
            psi = p_curvature(scene.sheaf)
            report = Report()
            for chart, mats in sorted(psi.comps.items()):
                for i, m in enumerate(mats):
                    report.skip(f"psi[{chart}][{i}]", str(m))
            ok = verify_p_curvature_invariants(scene.sheaf, psi).ok()
            report.add("p-curvature computed and invariants verified", ok)
            return _emit_report(report, args)
        if args.command == "icartier":
            flat = inverse_cartier(scene.sheaf)
            out_scene = Scene(scene.ctx, scene.atlas, flat,
                              {**scene.metadata, "derived": "inverse-cartier"})
            _write_output(emit_scene(out_scene), args.out)
            return 0
        if args.command == "cartier":
            higgs = cartier(scene.sheaf)
            out_scene = Scene(scene.ctx, scene.atlas, higgs,
                              {**scene.metadata, "derived": "cartier"})
            _write_output(emit_scene(out_scene), args.out)
            return 0
        if args.command == "roundtrip":
            report, result = roundtrip_check(scene.sheaf)
            out_scene = Scene(scene.ctx, scene.atlas, result,
                              {**scene.metadata, "derived": "roundtrip"})
            return _emit_report(report, args, extra_text=emit_scene(out_scene))
        if args.command == "fk":
            if args.k is not None and not 1 <= args.k < args.p:
                raise ValueError(f"--k must lie in 1..p-1, got {args.k} with p={args.p}")
            return _emit_report(verify_symmetrized_vanishing([args.p], args.k), args)
        if args.command == "taylor":
            if args.trials < 1:
                raise ValueError(f"--trials must be at least 1, got {args.trials}")
            ctx = PrimeContext(args.p)
            report = Report()
            for i in range(args.trials):
                mats, funcs = commuting_nilpotent_family(ctx, seed=args.seed + i)
                report.add(f"taylor identity (seed {args.seed + i})",
                           taylor_cocycle_identity(ctx, mats, funcs))
            return _emit_report(report, args)
        if args.command == "wilson":
            primes = [args.p] if args.p is not None else [3, 5, 7, 11, 13]
            report = Report()
            for p in primes:
                report.extend(wilson_unit_check(p))
            return _emit_report(report, args)
        if args.command == "gallery":
            _write_output(emit_scene(gallery(args.name, args.p)), args.out)
            return 0
        if args.command == "verify-all":
            return _emit_report(acceptance.verify_all(), args)
        return USAGE_ERROR
    except (SceneError, RingError, TransformError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR


def main() -> None:
    sys.exit(run_cli(sys.argv[1:]))


if __name__ == "__main__":
    main()
