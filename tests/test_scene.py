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


def test_cli_degree_bound_only_on_roundtrip(tmp_path, capsys):
    g2 = write_scene(tmp_path, "g2_a1_rank2")
    flat_path = str(tmp_path / "flat.json")
    assert run_cli(["icartier", "--scene", g2, "--out", flat_path]) == 0
    assert run_cli(["cartier", "--scene", flat_path, "--degree-bound", "3"]) == 2
    assert "--degree-bound" in capsys.readouterr().err
    assert run_cli(["roundtrip", "--scene", g2, "--degree-bound", "3"]) == 0


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
