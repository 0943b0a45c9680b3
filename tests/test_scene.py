import hashlib
import json

import pytest

from xcartier.cli import run_cli
from xcartier.gallery import GALLERY_NAMES, gallery
from xcartier.scene import SceneError, emit_scene, parse_scene
from xcartier.sheaves import FlatSheaf, HiggsSheaf


@pytest.mark.parametrize("name", GALLERY_NAMES)
def test_emit_parse_round_trip_is_stable(name):
    text = emit_scene(gallery(name, 3))
    again = emit_scene(parse_scene(text))
    assert text == again


@pytest.mark.parametrize("p", [3, 5, 7])
def test_gallery_builds_at_several_primes(p):
    for name in GALLERY_NAMES:
        scene = gallery(name, p)
        assert scene.p == p


def test_gallery_unknown_name():
    with pytest.raises(ValueError, match="unknown gallery scene"):
        gallery("g8_nope")


def test_gallery_g6_exponent3_gated():
    with pytest.raises(ValueError, match="p >= 5"):
        gallery("g6_a2_rank3", 3, exponent3=True)
    scene = gallery("g6_a2_rank3", 5, exponent3=True)
    assert isinstance(scene.sheaf, HiggsSheaf)


def test_parse_rejects_even_characteristic():
    data = json.loads(emit_scene(gallery("g1_trivial", 3)))
    data["p"] = 2
    with pytest.raises(SceneError, match="odd prime"):
        parse_scene(json.dumps(data))


def test_parse_rejects_malformed_polynomial():
    data = json.loads(emit_scene(gallery("g2_a1_rank2", 3)))
    data["sheaf"]["matrices"]["A1"]["t"][1] = "2**t"
    with pytest.raises(SceneError, match="sheaf.matrices"):
        parse_scene(json.dumps(data))


def test_parse_rejects_non_nilpotent_sheaf():
    data = json.loads(emit_scene(gallery("g2_a1_rank2", 3)))
    data["sheaf"]["matrices"]["A1"]["t"] = ["1", "0", "0", "1"]
    with pytest.raises(SceneError, match="nilpotency"):
        parse_scene(json.dumps(data))


def test_parse_rejects_unknown_chart_in_sheaf():
    data = json.loads(emit_scene(gallery("g2_a1_rank2", 3)))
    data["sheaf"]["matrices"]["Nowhere"] = data["sheaf"]["matrices"]["A1"]
    with pytest.raises(SceneError, match="Nowhere"):
        parse_scene(json.dumps(data))


def test_parse_flat_scene():
    text = emit_scene(gallery("g7_gm_rank1", 3, c=2))
    scene = parse_scene(text)
    assert isinstance(scene.sheaf, FlatSheaf)
    assert scene.sheaf.rank == 1


def test_atlas_only_scene_allowed():
    data = json.loads(emit_scene(gallery("g4_p1_lemma", 3)))
    del data["sheaf"]
    scene = parse_scene(json.dumps(data))
    assert scene.sheaf is None


# ---------------------------------------------------------------- CLI


def write_scene(tmp_path, name, p=3, **kw):
    path = tmp_path / f"{name}.json"
    path.write_text(emit_scene(gallery(name, p, **kw)))
    return str(path)


def test_cli_lemma(tmp_path, capsys):
    code = run_cli(["lemma", "--scene", write_scene(tmp_path, "g4_p1_lemma")])
    out = capsys.readouterr().out
    assert code == 0
    assert "overall: pass" in out


def test_cli_icartier_then_cartier(tmp_path, capsys):
    g2 = write_scene(tmp_path, "g2_a1_rank2")
    flat_path = str(tmp_path / "flat.json")
    assert run_cli(["icartier", "--scene", g2, "--out", flat_path]) == 0
    capsys.readouterr()
    assert run_cli(["cartier", "--scene", flat_path]) == 0
    out = capsys.readouterr().out
    data = json.loads(out)
    assert data["sheaf"]["kind"] == "higgs"
    assert data["sheaf"]["matrices"]["A1"]["t"] == ["0", "2", "0", "0"]


def test_cli_roundtrip_emits_negated_scene(tmp_path, capsys):
    g2 = write_scene(tmp_path, "g2_a1_rank2")
    assert run_cli(["roundtrip", "--scene", g2]) == 0
    out = capsys.readouterr().out
    assert "[PASS] round trip equals sign-flipped input exactly" in out


def test_cli_has_no_degree_bound(tmp_path, capsys):
    g2 = write_scene(tmp_path, "g2_a1_rank2")
    flat_path = str(tmp_path / "flat.json")
    assert run_cli(["icartier", "--scene", g2, "--out", flat_path]) == 0
    assert run_cli(["cartier", "--scene", flat_path, "--degree-bound", "3"]) == 2
    assert "--degree-bound" in capsys.readouterr().err
    assert run_cli(["roundtrip", "--scene", g2, "--degree-bound", "3"]) == 2
    assert "--degree-bound" in capsys.readouterr().err
    assert run_cli(["roundtrip", "--scene", g2, "--seed", "1"]) == 2
    assert "--seed" in capsys.readouterr().err


COMMANDS = ("lemma", "pcurv", "icartier", "cartier", "roundtrip",
            "fk", "taylor", "wilson", "gallery", "verify-all")


def valid_argv(tmp_path, command):
    """An argument list that `command` accepts as it stands."""
    if command in ("lemma", "icartier", "roundtrip"):
        return [command, "--scene", write_scene(tmp_path, "g2_a1_rank2")]
    if command in ("pcurv", "cartier"):
        return [command, "--scene", write_scene(tmp_path, "g7_gm_rank1", c=1)]
    return {
        "fk": ["fk", "--p", "3"],
        "taylor": ["taylor", "--p", "3", "--trials", "1"],
        "wilson": ["wilson", "--p", "3"],
        "gallery": ["gallery", "g1_trivial"],
        "verify-all": ["verify-all"],
    }[command]


@pytest.mark.parametrize("command", COMMANDS)
def test_cli_has_no_timings_option(tmp_path, capsys, command):
    assert run_cli(valid_argv(tmp_path, command) + ["--timings"]) == 2
    assert "unrecognized arguments: --timings" in capsys.readouterr().err


@pytest.mark.parametrize("command", ("icartier", "cartier", "gallery"))
def test_cli_scene_commands_have_no_json_option(tmp_path, capsys, command):
    assert run_cli(valid_argv(tmp_path, command) + ["--json"]) == 2
    assert "unrecognized arguments: --json" in capsys.readouterr().err


@pytest.mark.parametrize("argv,message", [
    (["wilson", "--p", "0"], "odd prime"),
    (["fk", "--p", "5", "--k", "9"], "--k must lie in 1..p-1"),
    (["fk", "--p", "5", "--k", "0"], "--k must lie in 1..p-1"),
    (["taylor", "--p", "3", "--trials", "0"], "--trials must be at least 1"),
    (["lemma", "--scene", "unread.json", "--trials", "-2"], "--trials must be at least 0"),
], ids=["wilson p=0", "fk k=p+4", "fk k=0", "taylor trials=0", "lemma trials=-2"])
def test_cli_rejects_out_of_range_numbers(capsys, argv, message):
    assert run_cli(argv) == 2
    captured = capsys.readouterr()
    assert message in captured.err and captured.out == ""


def test_cli_pcurv(tmp_path, capsys):
    g7 = write_scene(tmp_path, "g7_gm_rank1", c=1)
    assert run_cli(["pcurv", "--scene", g7]) == 0


def test_cli_lemma_with_perturbation_trials(tmp_path, capsys):
    g4 = write_scene(tmp_path, "g4_p1_lemma")
    assert run_cli(["lemma", "--scene", g4, "--trials", "2", "--seed", "5"]) == 0
    out = capsys.readouterr().out
    assert "perturbed[5]" in out and "perturbed[6]" in out
    assert "overall: pass" in out


def test_cli_rejects_bad_scene_with_exit_2(tmp_path, capsys):
    data = json.loads(emit_scene(gallery("g2_a1_rank2", 3)))
    data["sheaf"]["matrices"]["A1"]["t"] = ["1", "0", "0", "1"]
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(data))
    code = run_cli(["icartier", "--scene", str(path)])
    err = capsys.readouterr().err
    assert code == 2
    assert "nilpotency" in err


@pytest.mark.parametrize("command, name, kind", [
    pytest.param("pcurv", "g2_a1_rank2", "flat", id="pcurv"),
    pytest.param("icartier", "g7_gm_rank1", "Higgs", id="icartier"),
    pytest.param("cartier", "g2_a1_rank2", "flat", id="cartier"),
    pytest.param("roundtrip", "g7_gm_rank1", "Higgs", id="roundtrip"),
])
def test_cli_wrong_sheaf_kind(tmp_path, capsys, command, name, kind):
    assert run_cli([command, "--scene", write_scene(tmp_path, name)]) == 2
    assert capsys.readouterr() == ("", f"{command} needs a scene with a {kind} sheaf\n")


def test_polynomial_entries_may_end_in_whitespace(tmp_path, capsys):
    data = json.loads(emit_scene(gallery("g2_a1_rank2", 3)))
    data["sheaf"]["matrices"]["A1"]["t"][1] = "1 "
    path = tmp_path / "spaced.json"
    path.write_text(json.dumps(data))
    assert emit_scene(parse_scene(path.read_text())) == emit_scene(gallery("g2_a1_rank2", 3))
    assert run_cli(["icartier", "--scene", str(path)]) == 0
    spaced = capsys.readouterr()
    assert run_cli(["icartier", "--scene", write_scene(tmp_path, "g2_a1_rank2")]) == 0
    assert spaced == capsys.readouterr() and spaced.err == ""


def test_cli_fk(capsys):
    assert run_cli(["fk", "--p", "5"]) == 0
    out = capsys.readouterr().out
    assert "F_2 = 0 mod 5" in out and "F_4 = 0 mod 5" in out


def test_cli_fk_computes_only_the_requested_k(capsys, monkeypatch):
    import xcartier.identities

    computed = []
    symmetrized_f = xcartier.identities.symmetrized_f
    monkeypatch.setattr(xcartier.identities, "symmetrized_f",
                        lambda p, k: computed.append((p, k)) or symmetrized_f(p, k))
    assert run_cli(["fk", "--p", "11", "--k", "2"]) == 0
    assert capsys.readouterr().out == "[PASS] F_2 = 0 mod 11\noverall: pass\n"
    assert computed == [(11, 2)]
    # each k's report is the k's lines of the full report
    for p in (3, 5, 7):
        assert run_cli(["fk", "--p", str(p)]) == 0
        full = capsys.readouterr().out.splitlines()
        for k in range(1, p):
            assert run_cli(["fk", "--p", str(p), "--k", str(k)]) == 0
            want = [line for line in full[:-1] if f"F_{k} " in line] + full[-1:]
            assert capsys.readouterr().out.splitlines() == want


# md5 of the --json reports; the lemma reports name no prime, so one digest per scene
FK_JSON_MD5 = {
    3: "0fc40cd68cc809fa717a3bcc75eaf772",
    5: "d708f6490e3224aacf6c56e5fa9d78c7",
    7: "87fda57602171be85355462f0b2402c6",
}
LEMMA_JSON_MD5 = {
    "g3_a1_three_lifts": "01f0aba95fb4ec19859a9be82d4b0f66",
    "g4_p1_lemma": "4ca370beaf549adc0ea51e39a29a7ece",
    "g5_p1_uniformizing": "4ca370beaf549adc0ea51e39a29a7ece",
}


@pytest.mark.parametrize("p", [3, 5, 7])
def test_cli_fk_and_lemma_json_reports_are_pinned(tmp_path, capsys, p):
    assert run_cli(["fk", "--p", str(p), "--json"]) == 0
    assert hashlib.md5(capsys.readouterr().out.encode()).hexdigest() == FK_JSON_MD5[p]
    for name, digest in LEMMA_JSON_MD5.items():
        scene = write_scene(tmp_path, name, p)
        assert run_cli(["lemma", "--scene", scene, "--trials", "20", "--seed", "0", "--json"]) == 0
        assert hashlib.md5(capsys.readouterr().out.encode()).hexdigest() == digest


def test_cli_taylor_and_wilson(capsys):
    assert run_cli(["taylor", "--p", "3", "--seed", "7", "--trials", "5"]) == 0
    assert run_cli(["wilson", "--p", "5"]) == 0


def test_cli_gallery_json_deterministic(tmp_path, capsys):
    assert run_cli(["gallery", "g5_p1_uniformizing", "--p", "5"]) == 0
    first = capsys.readouterr().out
    assert run_cli(["gallery", "g5_p1_uniformizing", "--p", "5"]) == 0
    second = capsys.readouterr().out
    assert first == second
    json.loads(first)


def test_cli_unknown_gallery_name_is_usage_error(capsys):
    assert run_cli(["gallery", "not_a_scene"]) == 2


def test_cli_json_reports_byte_identical(capsys):
    assert run_cli(["fk", "--p", "5", "--json"]) == 0
    first = capsys.readouterr().out
    assert run_cli(["fk", "--p", "5", "--json"]) == 0
    second = capsys.readouterr().out
    assert first == second


@pytest.mark.parametrize("kind", ["higgs", "flat"])
def test_non_unit_transition_rejected(tmp_path, capsys, kind):
    # rank 1 on P1 with transition 1 + s, which is not a unit of F_p[s, 1/s]
    data = json.loads(emit_scene(gallery("g4_p1_lemma", 3)))
    data["sheaf"]["kind"] = kind
    data["sheaf"]["transitions"]["U0,U1"] = ["1 + s"]
    text = json.dumps(data)
    with pytest.raises(SceneError, match="determinant 's \\+ 1' is not a unit"):
        parse_scene(text)
    path = tmp_path / "bad.json"
    path.write_text(text)
    command = "icartier" if kind == "higgs" else "cartier"
    assert run_cli([command, "--scene", str(path)]) == 2
    assert "is not a unit" in capsys.readouterr().err


@pytest.mark.parametrize("path, value, where", [
    pytest.param(["sheaf", "transitions"], [], "sheaf.transitions: expected a JSON object",
                 id="transitions-list"),
    pytest.param(["sheaf", "matrices"], [], "sheaf.matrices: expected a JSON object",
                 id="matrices-list"),
    pytest.param(["sheaf", "matrices", "U0"], ["0"] * 4,
                 r"sheaf.matrices\[U0\]: expected a JSON object", id="chart-matrices-list"),
    pytest.param(["atlas", "lifts", 0, "images"], ["s^3"],
                 r"atlas.lifts\[0\].images: expected a JSON object", id="images-list"),
    pytest.param(["atlas", "overlaps", 0, "beta_in_alpha"], [],
                 r"atlas.overlaps\[0\].beta_in_alpha: expected a JSON object",
                 id="beta_in_alpha-list"),
    pytest.param(["p"], 3.7, "p: expected a JSON integer, got 3.7", id="p-float"),
    pytest.param(["p"], "3", "p: expected a JSON integer, got '3'", id="p-string"),
    pytest.param(["p"], True, "p: expected a JSON integer, got True", id="p-bool"),
    pytest.param(["sheaf", "rank"], 2.9, "sheaf.rank: expected a JSON integer, got 2.9",
                 id="rank-float"),
    pytest.param(["sheaf", "rank"], "2", "sheaf.rank: expected a JSON integer, got '2'",
                 id="rank-string"),
    pytest.param(["sheaf", "rank"], 0, "sheaf.rank: expected a positive integer", id="rank-0"),
    pytest.param(["atlas", "charts", 0, "coords"], "tu",
                 r"atlas.charts\[0\].coords: expected a list of strings, got 'tu'",
                 id="coords-string"),
    pytest.param(["atlas", "charts", 0, "inverted"], "s",
                 r"atlas.charts\[0\].inverted: expected a list of strings",
                 id="inverted-string"),
    pytest.param(["atlas", "charts"], {"U0": {}}, "atlas.charts: expected a JSON array",
                 id="charts-object"),
])
def test_malformed_scene_fields_are_parse_errors(tmp_path, capsys, path, value, where):
    data = json.loads(emit_scene(gallery("g5_p1_uniformizing", 3)))
    parent = data
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = value
    text = json.dumps(data)
    with pytest.raises(SceneError, match=where):
        parse_scene(text)
    scene_path = tmp_path / "bad.json"
    scene_path.write_text(text)
    assert run_cli(["icartier", "--scene", str(scene_path)]) == 2
    assert "error: " in capsys.readouterr().err


@pytest.mark.parametrize("value", [["name", "U0"], "U0"], ids=["list", "string"])
@pytest.mark.parametrize("field", ["charts", "overlaps", "lifts"])
def test_atlas_entries_that_are_not_objects_are_parse_errors(field, value):
    data = json.loads(emit_scene(gallery("g5_p1_uniformizing", 3)))
    data["atlas"][field][0] = value
    with pytest.raises(SceneError) as info:
        parse_scene(json.dumps(data))
    assert str(info.value) == f"atlas.{field}[0]: expected a JSON object, got {value!r}"


# chart A in u and chart B in w1, w2 at p = 5, with w1 -> u, w2 -> 0 and u -> w1:
# u round-trips, w2 does not
BETA_ROUND_TRIP_SCENE = json.dumps({"p": 5, "atlas": {
    "charts": [{"name": "A", "coords": ["u"], "inverted": []},
               {"name": "B", "coords": ["w1", "w2"], "inverted": []}],
    "overlaps": [{"alpha": "A", "beta": "B", "alpha_inverted": [], "beta_inverted": [],
                  "beta_in_alpha": {"w1": "u", "w2": "0"},
                  "alpha_in_beta": {"u": "w1"}}],
    "lifts": [{"chart": "A", "images": {"u": "u^5"}},
              {"chart": "B", "images": {"w1": "w1^5", "w2": "w2^5"}}],
}, "sheaf": {"kind": "higgs", "rank": 1,
             "matrices": {"A": {"u": ["0"]}, "B": {"w1": ["0"], "w2": ["0"]}},
             "transitions": {"A,B": ["1"]}}})


# each error a scene file can raise: the g5 scene at p = 3 after one edit (raw
# text where the edit breaks the JSON or no edit of g5 reaches the check), and
# the start of its message
SCENE_FILE_ERRORS = [
    pytest.param("{", "not valid JSON: ", id="not-json"),
    pytest.param("[]", "top level must be a JSON object", id="top-level-array"),
    pytest.param(lambda d: d.pop("atlas"), "atlas: missing or not an object", id="no-atlas"),
    pytest.param(lambda d: d.update(sheaf=[]), "sheaf: not an object", id="sheaf-array"),
    pytest.param(lambda d: d["sheaf"].update(kind="smooth"),
                 "sheaf.kind: expected 'higgs' or 'flat', got 'smooth'", id="sheaf-kind"),
    pytest.param(lambda d: d["sheaf"]["matrices"]["U0"].pop("s"),
                 "sheaf.matrices[U0]: missing coordinate 's'", id="missing-coordinate"),
    pytest.param(lambda d: d["sheaf"]["transitions"].update({"U1,U0": ["1", "0", "0", "1"]}),
                 "sheaf.transitions: unknown overlap key 'U1,U0'", id="transition-key"),
    pytest.param(lambda d: d.update(metadata=[]), "metadata: not an object", id="metadata-array"),
    pytest.param(lambda d: d["sheaf"]["matrices"]["U0"]["s"].__setitem__(0, 0),
                 "sheaf.matrices[U0][s][0,0]: expected a polynomial string, got 0",
                 id="entry-not-a-string"),
    pytest.param(lambda d: d["sheaf"]["matrices"]["U0"]["s"].pop(),
                 "sheaf.matrices[U0][s]: expected 4 row-major polynomial strings",
                 id="matrix-length"),
    pytest.param(lambda d: d["sheaf"]["matrices"].pop("U1"),
                 "sheaf: missing matrices for charts ['U1']", id="missing-chart-matrices"),
    pytest.param(lambda d: d["sheaf"]["transitions"].clear(),
                 "sheaf: missing transitions for overlaps [('U0', 'U1')]",
                 id="missing-transitions"),
    pytest.param(lambda d: d["atlas"]["charts"].append(d["atlas"]["charts"][0]),
                 "atlas.charts[2]: duplicate chart name 'U0'", id="duplicate-chart"),
    pytest.param(lambda d: d["atlas"]["charts"][0].update(name="U,0"),
                 "atlas.charts[0]: chart name 'U,0' may not contain ',' or '|'",
                 id="comma-in-chart-name"),
    pytest.param(lambda d: d["atlas"]["lifts"][1]["images"].clear(),
                 "atlas: lift on 'U1' must cover coordinates ('w',)", id="lift-coverage"),
    pytest.param(lambda d: d["atlas"]["overlaps"][0]["beta_in_alpha"].update(w="2*s^-1"),
                 "atlas: overlap ('U0', 'U1'): coordinate 's' does not round-trip",
                 id="overlap-round-trip"),
    pytest.param(lambda d: d["atlas"]["overlaps"][0]["beta_in_alpha"].update(w="s^-1 + 1"),
                 "atlas: overlap ('U0', 'U1'): substituting 'w'^-1: '1 + s^-1' is not of unit "
                 "shape m*(1 + p*x)", id="overlap-round-trip-non-unit"),
    pytest.param(BETA_ROUND_TRIP_SCENE,
                 "atlas: overlap ('A', 'B'): coordinate 'w2' does not round-trip (got '0' mod 25)",
                 id="overlap-beta-round-trip"),
    pytest.param(lambda d: d["atlas"]["overlaps"][0]["beta_in_alpha"].update(
                     w={"poly": "s^-1", "lift": "s^-1"}),
                 "atlas.overlaps[0].beta_in_alpha[w]: expected a polynomial string, "
                 "got {'poly': 's^-1', 'lift': 's^-1'}",
                 id="overlap-old-form"),
    pytest.param(lambda d: d["atlas"]["overlaps"][0]["alpha_in_beta"].update(
                     s={"poly": "w^-1", "lift": "w^-1"}),
                 "atlas.overlaps[0].alpha_in_beta[s]: expected a polynomial string",
                 id="overlap-old-form-alpha_in_beta"),
    pytest.param(lambda d: d["atlas"]["overlaps"][0].update(alpha_in_beta={}),
                 "atlas: overlap ('U0', 'U1'): alpha_in_beta must cover ('s',)",
                 id="overlap-coverage"),
    # each of the next three made `roundtrip` exit 0: no check compared the two
    # transitions of a pair stored both ways, or saw the entry a repeated pair replaced
    pytest.param(lambda d: (zero_fields(d), d["atlas"]["overlaps"].append(
                     {"alpha": "U1", "beta": "U0", "alpha_inverted": ["w"], "beta_inverted": ["s"],
                      "beta_in_alpha": {"s": "w^-1"}, "alpha_in_beta": {"w": "s^-1"}}),
                               d["sheaf"]["transitions"].update({"U1,U0": ["1", "0", "0", "1"]})),
                 "atlas.overlaps[1]: overlap ('U1', 'U0') repeats overlap ('U0', 'U1')",
                 id="overlap-reversed"),
    pytest.param(lambda d: (zero_fields(d), d["atlas"]["overlaps"].append(
                     {"alpha": "U0", "beta": "U0", "alpha_inverted": [], "beta_inverted": [],
                      "beta_in_alpha": {"s": "s"}, "alpha_in_beta": {"s": "s"}}),
                               d["sheaf"]["transitions"].update({"U0,U0": ["2", "0", "0", "1"]})),
                 "atlas.overlaps[1]: overlap ('U0', 'U0') joins a chart to itself",
                 id="overlap-of-a-chart-with-itself"),
    pytest.param(lambda d: d["atlas"]["overlaps"].insert(0, {
                     **d["atlas"]["overlaps"][0], "beta_in_alpha": {"w": "s^-1 + 3*s^-2"}}),
                 "atlas.overlaps[1]: overlap ('U0', 'U1') repeats overlap ('U0', 'U1')",
                 id="overlap-listed-twice"),
]


def zero_fields(d):
    d["sheaf"]["matrices"] = {"U0": {"s": ["0"] * 4}, "U1": {"w": ["0"] * 4}}


@pytest.mark.parametrize("edit, where", SCENE_FILE_ERRORS)
def test_scene_file_errors_exit_2_naming_the_field(tmp_path, capsys, edit, where):
    if isinstance(edit, str):
        text = edit
    else:
        data = json.loads(emit_scene(gallery("g5_p1_uniformizing", 3)))
        edit(data)
        text = json.dumps(data)
    path = tmp_path / "bad.json"
    path.write_text(text)
    assert run_cli(["icartier", "--scene", str(path)]) == 2
    assert capsys.readouterr().err.startswith(f"error: {where}")
