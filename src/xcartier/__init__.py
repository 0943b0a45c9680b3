"""Exact exponential-twisting Cartier transforms for nilpotent sheaves mod p."""

from .ring import (
    LaurentPoly,
    NilpotencyError,
    NotAUnitError,
    NotDivisibleError,
    OneForm,
    ParseError,
    PolyMatrix,
    PrimeContext,
    RingError,
    SubstitutionError,
    VarSpec,
    d,
    divide_by_p,
    invert_poly,
    invert_unit,
    trunc_exp,
)
from .atlas import (
    Atlas,
    AtlasError,
    Chart,
    FrobLift,
    Overlap,
    SubstPair,
    h_pair,
    lift_on_overlap,
    verify_deligne_illusie,
    zeta_form,
)
from .sheaves import (
    FlatSheaf,
    HiggsSheaf,
    PCurvature,
    SheafError,
    check_flat,
    check_higgs,
    nilpotency_exponent,
    p_curvature,
)
from .transforms import (
    DescentResult,
    GaugeWitness,
    TransformError,
    canonical_connection,
    cartier,
    flat_sections,
    gauge_compare,
    inverse_cartier,
    p_curvature_sign,
    roundtrip_check,
    untwist,
)
from .identities import (
    f_poly,
    symmetrized_f,
    taylor_cocycle_identity,
    verify_symmetrized_vanishing,
    wilson_unit_check,
)
from .report import Report, ReportEntry
from .scene import Scene, SceneError, emit_scene, parse_scene
from .gallery import GALLERY_NAMES, gallery

__version__ = "0.1.0"
