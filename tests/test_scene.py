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


def test_cli_wrong_sheaf_kind(tmp_path, capsys):
    g7 = write_scene(tmp_path, "g7_gm_rank1")
    assert run_cli(["icartier", "--scene", g7]) == 2


def test_cli_fk(capsys):
    assert run_cli(["fk", "--p", "5"]) == 0
    out = capsys.readouterr().out
    assert "F_2 = 0 mod 5" in out and "F_4 = 0 mod 5" in out


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
