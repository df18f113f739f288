import json

import numpy as np
import pytest

import gapstab.stability as stability
from gapstab.abelian import cyclic, regular_rep
from gapstab.algebra import AlmostHom
from gapstab.cli import (
    ExperimentManifest,
    dispatch,
    main,
    read_almost_hom,
    write_almost_hom,
)
from gapstab.errors import InvalidArgument
from gapstab.games import honest_strategy
from gapstab.suites import DEFAULT_TRIALS, SUITES, named_game, rigidity_sweep, run_suite

_TINY = {
    "lemma17": 6,
    "lemma19": 4,
    "gh": 8,
    "sqrt2": 4,
    "poincare": 8,
    "thm12": 5,
    "cor14": 4,
    "prop24": 8,
}

_HAMMING_ROWS = [
    "1 0 0 0 0 1 1",
    "0 1 0 0 1 0 1",
    "0 0 1 0 1 1 0",
    "0 0 0 1 1 1 1",
]


def _write_code(path, header, rows):
    path.write_text("\n".join([header, *rows]) + "\n")
    return str(path)


# -- suites -------------------------------------------------------------------------


def test_registry_consistent():
    assert set(SUITES) == set(DEFAULT_TRIALS)
    assert set(_TINY) == set(SUITES)


def test_run_suite_unknown():
    with pytest.raises(InvalidArgument):
        run_suite("nope")


@pytest.mark.parametrize("name", sorted(SUITES))
def test_suite_small(name):
    res = run_suite(name, trials=_TINY[name], seed=11)
    assert res.passed, res.summary()
    assert res.failures == 0
    assert res.summary().startswith("[PASS]")
    assert name in res.summary()
    assert all(len(row) == len(res.header) for row in res.rows)


def test_suite_determinism():
    a = run_suite("gh", trials=6, seed=123)
    b = run_suite("gh", trials=6, seed=123)
    assert a.rows == b.rows
    assert a.worst_ratio == b.worst_ratio
    c = run_suite("gh", trials=6, seed=124)
    assert c.rows != a.rows


# -- manifests ----------------------------------------------------------------------


def test_manifest_round_trip():
    man = ExperimentManifest("verify", seed=5, parameters={"suite": "poincare"}, out="x.csv")
    back = ExperimentManifest.from_jsonable(man.to_jsonable())
    assert back == man
    with pytest.raises(InvalidArgument):
        ExperimentManifest.from_jsonable({"seed": 1})


def test_dispatch_unknown_operation():
    with pytest.raises(InvalidArgument):
        dispatch(ExperimentManifest("nope"))


# -- command line -------------------------------------------------------------------


def test_cli_code_pass(tmp_path, capsys):
    path = _write_code(tmp_path / "rep.code", "2 3 1", ["1 1 1"])
    assert main(["code", path]) == 0
    out = capsys.readouterr().out
    assert "[3,1,3]_2" in out
    assert "PASS" in out


def test_cli_code_declared_distance_mismatch(tmp_path, capsys):
    path = _write_code(tmp_path / "bad.code", "2 7 4", _HAMMING_ROWS + ["d 2"])
    assert main(["code", path]) == 2
    assert "FAIL" in capsys.readouterr().out


def test_cli_missing_file(capsys):
    assert main(["code", "/nonexistent/nope.code"]) == 3
    record = json.loads(capsys.readouterr().err)
    assert "message" in record


def test_cli_bad_flag(capsys):
    assert main(["verify", "not-a-suite"]) == 3
    assert json.loads(capsys.readouterr().err)["error"] == "InvalidArgument"


def test_cli_kappa(tmp_path, capsys):
    path = tmp_path / "mu.json"
    path.write_text(json.dumps({"orders": [2], "weights": {"1": "1"}}))
    assert main(["kappa", str(path)]) == 0
    out = capsys.readouterr().out
    assert "kappa = 1/2" in out
    assert "abelian-Fourier" in out


def test_cli_game_pipeline(tmp_path, capsys):
    code = _write_code(tmp_path / "id.code", "2 1 1", ["1"])
    game = str(tmp_path / "game.json")
    strat = str(tmp_path / "strat.json")

    assert main(["build-game", code, "--out", game]) == 0
    out = capsys.readouterr().out
    assert "questions: 17" in out
    assert "rigidity constant: 1/4" in out

    assert main(["honest", game, "--out", strat]) == 0
    assert "value 1.000000000" in capsys.readouterr().out

    assert main(["eval", game, strat]) == 0
    assert "value 1.000000000" in capsys.readouterr().out

    rep = str(tmp_path / "rigidity.json")
    assert main(["rigidity", game, strat, "--out", rep]) == 0
    capsys.readouterr()
    blob = json.loads(open(rep).read())
    assert blob["epsilon"] < 1e-12
    assert "certificate" not in blob


def test_cli_build_game_needs_out(tmp_path, capsys):
    code = _write_code(tmp_path / "id.code", "2 1 1", ["1"])
    assert main(["build-game", code]) == 3
    capsys.readouterr()


def test_cli_round(tmp_path, capsys):
    rep = regular_rep(cyclic(3))
    phi = AlmostHom(rep.group, rep.algebra, rep.images)
    path = str(tmp_path / "hom.json")
    write_almost_hom(path, phi)
    back = read_almost_hom(path)
    assert back.group.orders == (3,)

    assert main(["round", path]) == 0
    blob = json.loads(capsys.readouterr().out)
    assert blob["distance"] < 1e-12

    cap_before = stability.ROUNDING_DIM_CAP
    assert main(["round", path, "--dim-cap", "4"]) == 4
    assert json.loads(capsys.readouterr().err)["error"] == "ResourceCap"
    assert stability.ROUNDING_DIM_CAP == cap_before  # override must not leak


def test_cli_verify_csv(tmp_path, capsys):
    out = tmp_path / "rows.csv"
    assert main(["verify", "poincare", "--trials", "10", "--out", str(out)]) == 0
    text = capsys.readouterr().out
    assert "[PASS] poincare" in text
    lines = out.read_text().splitlines()
    assert len(lines) == 11  # header + one row per trial


def test_cli_manifest_replay(tmp_path, capsys):
    csv1 = tmp_path / "a.csv"
    csv2 = tmp_path / "b.csv"
    man = {
        "operation": "verify",
        "seed": 5,
        "parameters": {"suite": "poincare", "trials": 8},
        "out": str(csv1),
    }
    man_path = tmp_path / "man.json"
    man_path.write_text(json.dumps(man))
    assert main(["run", str(man_path)]) == 0
    man["out"] = str(csv2)
    man_path.write_text(json.dumps(man))
    assert main(["run", str(man_path)]) == 0
    capsys.readouterr()
    assert csv1.read_bytes() == csv2.read_bytes()


def test_cli_malformed_manifest(tmp_path, capsys):
    path = tmp_path / "man.json"
    path.write_text(json.dumps({"seed": 1}))
    assert main(["run", str(path)]) == 3
    path.write_text("{not json")
    assert main(["run", str(path)]) == 3
    capsys.readouterr()


def test_cli_sweep(tmp_path, capsys):
    out = tmp_path / "sweep.csv"
    code = [
        "sweep", "--game", "repetition",
        "--points", "3", "--sigma-min", "0.05", "--sigma-max", "0.2",
        "--out", str(out),
    ]
    assert main(code) == 0
    assert "0 violations" in capsys.readouterr().out
    lines = out.read_text().splitlines()
    assert lines[0] == "sigma,eps,lhs,bound,closeness,cc_eps"
    assert len(lines) == 4


def test_sweep_defect_matches_report():
    """The quick sweep and the full rigidity report take the twisted defect
    from one implementation, so their per-point values agree exactly."""
    game = named_game("repetition")
    honest = honest_strategy(game)
    sigmas = [0.02, 0.3]
    full = rigidity_sweep(game, honest, sigmas, seed=3, full_report=True)
    quick = rigidity_sweep(game, honest, sigmas, seed=3, full_report=False)
    assert [p["lhs"] for p in quick] == [p["lhs"] for p in full]
    assert [p["eps"] for p in quick] == [p["eps"] for p in full]
    assert all(p["lhs"] > 0 for p in quick)
