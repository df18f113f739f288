import json
import math

import numpy as np
import pytest

import gapstab.algebra as algebra
import gapstab.cli as cli
import gapstab.games as games
import gapstab.groups as groups
import gapstab.stability as stability
import gapstab.suites as suites
from gapstab.abelian import boolean_group, cyclic, regular_rep
from gapstab.algebra import AlmostHom
from gapstab.cli import (
    DEFAULT_SEED,
    ExperimentManifest,
    dispatch,
    main,
    read_almost_hom,
    write_almost_hom,
)
from gapstab.errors import InvalidArgument, ResourceCap
from gapstab.games import honest_strategy
from gapstab.suites import SUITES, named_game, rigidity_sweep, run_suite

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


def test_registry_consistent(monkeypatch):
    assert set(_TINY) == set(SUITES)
    # without trials a suite runs its own default
    monkeypatch.setitem(SUITES, "gh", lambda **kw: kw)
    assert run_suite("gh", seed=3) == {"seed": 3}


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


def test_suite_driver_tallies_the_trials_in_order():
    """_suite gives each trial its own generator, counts the failed trials,
    keeps the worst ratio and the rows in trial order, and reports the
    details as the trials leave them."""

    def trial(i, rng, details):
        assert rng.random() == suites._rng(5, i).random()
        details["calls"] += 1
        return i != 1, [0.5, 2.0, 1.0][i], (i,)

    res = suites._suite("t", 2.0, ("trial",), 3, 5, trial, calls=0)
    assert (res.name, res.constant, res.trials, res.header) == ("t", 2.0, 3, ("trial",))
    assert (res.failures, res.worst_ratio, res.rows) == (1, 2.0, [(0,), (1,), (2,)])
    assert res.details == {"calls": 3}


@pytest.mark.parametrize("name", sorted(SUITES))
def test_cli_verify_without_trials_exits_3(name, capsys):
    """run_suite, which the CLI, manifests and the benchmark's replays go
    through, refuses a trial count below 1."""
    for trials in ("0", "-5"):
        assert main(["verify", name, "--trials", trials]) == 3
        captured = capsys.readouterr()
        assert "PASS" not in captured.out
        assert "at least one trial" in json.loads(captured.err)["message"]


def test_cli_sweep_without_points_exits_3(monkeypatch, capsys):
    """A sweep of no points is refused before the game is read."""
    monkeypatch.setattr(cli, "_load_game", lambda path: pytest.fail("game read"))
    for points in ("0", "-5"):
        assert main(["sweep", "--points", points]) == 3
        captured = capsys.readouterr()
        assert "violations" not in captured.out
        assert "at least one point" in json.loads(captured.err)["message"]


def test_suite_determinism():
    a = run_suite("gh", trials=6, seed=123)
    b = run_suite("gh", trials=6, seed=123)
    assert a.rows == b.rows
    assert a.worst_ratio == b.worst_ratio
    c = run_suite("gh", trials=6, seed=124)
    assert c.rows != a.rows


def test_suite_gh_computes_each_defect_once(monkeypatch):
    """suite_gh reads eps off the certificate, which is defect(phi) bit for
    bit, and calls defect only for a trial the rounding refuses other than by
    the cap: a trial the cap refuses records a NaN eps, because its defect
    builds what the cap bounds."""
    calls, expected = [], []
    defect, round_ = suites.defect, stability.gowers_hatami_round

    def recorded(phi):
        expected.append(defect(phi))
        return round_(phi)

    monkeypatch.setattr(suites, "defect", lambda phi: calls.append(phi) or defect(phi))
    monkeypatch.setattr(stability, "gowers_hatami_round", recorded)
    res = suites.suite_gh(trials=6, seed=11)
    assert calls == [] and res.failures == 0
    assert [row[3] for row in res.rows] == expected
    monkeypatch.setattr(stability, "gowers_hatami_round", round_)
    monkeypatch.setattr(algebra, "ROUNDING_DIM_CAP", 1)
    res = suites.suite_gh(trials=3, seed=11)
    assert calls == [] and res.failures == 3
    assert all(math.isnan(row[3]) for row in res.rows)


def test_suite_sqrt2_splits_s3_once(monkeypatch):
    """The suites' permutation representations are built once per process:
    over 300 trials, a third of them on S3, S3's regular representation is
    split into irreps once."""
    calls, split = [], groups._regular_irreps
    monkeypatch.setattr(groups, "_regular_irreps", lambda group: calls.append(group) or split(group))
    suites._permutation_rep.cache_clear()
    res = suites.suite_sqrt2(trials=300)
    assert res.failures == 0 and len(calls) == 1


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


def test_cli_tol_belongs_to_code(tmp_path, capsys):
    """``--tol`` is the kappa agreement tolerance of ``code``; no other
    subcommand reads it, so the others refuse it as an input error."""
    path = _write_code(tmp_path / "rep.code", "2 3 1", ["1 1 1"])
    assert main(["code", path, "--tol", "1e-6"]) == 0
    assert "PASS" in capsys.readouterr().out
    rep = regular_rep(cyclic(3))
    hom = str(tmp_path / "hom.json")
    write_almost_hom(hom, AlmostHom(rep.group, rep.algebra, rep.images))
    assert main(["round", hom, "--tol", "1e-3"]) == 3
    assert json.loads(capsys.readouterr().err)["error"] == "InvalidArgument"


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


def _edited(path, edit):
    """Rewrite the JSON file ``path`` through ``edit`` and return the path."""
    obj = json.loads(open(path).read())
    edit(obj)
    with open(path, "w") as fh:
        json.dump(obj, fh)
    return path


def _assert_malformed(argv, capsys, message):
    """The command exits with the input-error code 3 and the JSON error
    record of InvalidArgument with ``message``."""
    assert main(argv) == 3
    assert json.loads(capsys.readouterr().err) == {"error": "InvalidArgument", "message": message}


@pytest.fixture
def game_files(tmp_path, capsys):
    """A built game file and its honest strategy file."""
    code = _write_code(tmp_path / "id.code", "2 1 1", ["1"])
    game, strat = str(tmp_path / "game.json"), str(tmp_path / "strat.json")
    assert main(["build-game", code, "--out", game]) == 0
    assert main(["honest", game, "--out", strat]) == 0
    capsys.readouterr()
    return game, strat


def test_cli_game_file_of_another_shape(game_files, capsys):
    """A meta.omega entry [label, 5] instead of [label, {alpha, beta}]."""
    game, strat = game_files

    def edit(obj):
        obj["meta"]["omega"][0][1] = 5

    message = "malformed file['meta']['omega'][0][1]: unexpected 5"
    _assert_malformed(["eval", _edited(game, edit), strat], capsys, message)


def test_cli_strategy_file_of_another_shape(game_files, capsys):
    """A PVM entry [1, 5] instead of [answer, blocks]."""
    game, strat = game_files

    def edit(obj):
        obj["pvms"][0][1][0] = [1, 5]

    message = "malformed file['pvms'][0][1][0][1]: unexpected 5"
    _assert_malformed(["eval", game, _edited(strat, edit)], capsys, message)


def test_cli_strategy_file_with_an_extra_block(game_files, capsys):
    """A projection with one block more than the algebra has."""
    game, strat = game_files

    def edit(obj):
        blocks = obj["pvms"][0][1][0][1]
        blocks.append(blocks[0])

    _assert_malformed(["eval", game, _edited(strat, edit)], capsys, "2 blocks, expected 1")


def test_cli_map_file_of_another_shape(tmp_path, capsys):
    """An image entry [element, 5] instead of [element, blocks]."""
    rep = regular_rep(cyclic(3))
    path = str(tmp_path / "hom.json")
    write_almost_hom(path, AlmostHom(rep.group, rep.algebra, rep.images))

    def edit(obj):
        obj["images"][1][1] = 5

    message = "malformed file['images'][1][1]: unexpected 5"
    _assert_malformed(["round", _edited(path, edit)], capsys, message)


def test_cli_measure_file_of_another_shape(tmp_path, capsys):
    """A weight [1] where a number or fraction string belongs."""
    path = tmp_path / "mu.json"
    path.write_text(json.dumps({"orders": [2], "weights": {"1": [1]}}))
    _assert_malformed(["kappa", str(path)], capsys, "malformed file['weights']['1']: unexpected [1]")


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

    cap_before = algebra.ROUNDING_DIM_CAP
    assert main(["round", path, "--dim-cap", "4"]) == 4
    assert json.loads(capsys.readouterr().err)["error"] == "ResourceCap"
    assert algebra.ROUNDING_DIM_CAP == cap_before  # override must not leak


def test_one_cap_refuses_the_rounding_up_front(tmp_path, capsys, monkeypatch):
    """The defect and the rounding read one cap, so a lowered cap refuses the
    rounding of the exact regular map of Z2^4 in its up-front check, before
    the group's irreps are built, and the CLI's --dim-cap does the same."""
    rep = regular_rep(boolean_group(4))
    phi = AlmostHom(rep.group, rep.algebra, rep.images)
    path = str(tmp_path / "z2_4.json")
    write_almost_hom(path, phi)
    monkeypatch.setattr(algebra, "ROUNDING_DIM_CAP", 8)
    with pytest.raises(ResourceCap, match="group order 16 exceeds the cap 8"):
        stability.gowers_hatami_round(phi)
    assert rep.group._irreps is None
    monkeypatch.undo()
    assert main(["round", path, "--dim-cap", "8"]) == 4
    assert json.loads(capsys.readouterr().err)["error"] == "ResourceCap"
    assert main(["round", path]) == 0


def test_cli_verify_csv(tmp_path, capsys):
    out = tmp_path / "rows.csv"
    assert main(["verify", "poincare", "--trials", "10", "--out", str(out)]) == 0
    text = capsys.readouterr().out
    assert "[PASS] poincare" in text
    lines = out.read_text().splitlines()
    assert len(lines) == 11  # header + one row per trial


def test_cli_verify_dim_cap_reaches_the_rounding(capsys):
    """The cap reaches gowers_hatami_round through the manifest: every gh
    trial is refused, so the suite fails."""
    cap_before = algebra.ROUNDING_DIM_CAP
    assert main(["verify", "gh", "--trials", "2", "--dim-cap", "1"]) == 2
    assert "[FAIL] gh: 2 trials, 2 violations" in capsys.readouterr().out
    assert algebra.ROUNDING_DIM_CAP == cap_before


def test_noisy_hom_draws_the_same_unitaries():
    """suites._noisy_hom against the inline draw of e^{i sigma H} it replaced."""
    rep = regular_rep(cyclic(3))
    phi = suites._noisy_hom(rep, 0.05, np.random.default_rng(4))
    rng = np.random.default_rng(4)
    for g in rep.group.elements:
        b = rep.images[g].blocks[0]
        d = b.shape[0]
        h = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        h = (h + h.conj().T) / 2
        h /= np.linalg.norm(h, 2)
        vals, vecs = np.linalg.eigh(h)
        want = ((vecs * np.exp(1j * 0.05 * vals)) @ vecs.conj().T) @ b
        assert np.array_equal(phi.images[g].blocks[0], want)


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


def test_cli_sweep_keeps_the_probe_point(monkeypatch, tmp_path):
    """The sweep's own first full report probes the rounding cap, and is
    kept: three points cost three rigidity reports, and the CSV holds
    exactly the points of one uninterrupted sweep."""
    calls = []
    report = suites._rigidity

    def counted(game, algebra, pvms, rounding):
        calls.append(rounding)
        return report(game, algebra, pvms, rounding)

    out = tmp_path / "sweep.csv"
    code = [
        "sweep", "--game", "repetition",
        "--points", "3", "--sigma-min", "0.05", "--sigma-max", "0.2",
        "--out", str(out),
    ]
    monkeypatch.setattr(suites, "_rigidity", counted)
    assert main(code) == 0
    assert calls == [True, True, True]
    game = named_game("repetition")
    sigmas = np.logspace(np.log10(0.05), np.log10(0.2), 3)
    points = rigidity_sweep(game, honest_strategy(game), sigmas, seed=DEFAULT_SEED)
    header = out.read_text().splitlines()[0].split(",")
    rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
    assert rows == [[repr(q[k]) for k in header] for q in points]


def test_cli_sweep_counts_a_nan_point_as_a_violation(monkeypatch, capsys):
    """The sweep applies the suites' slack rule, under which a NaN left side
    does not hold."""

    def nan_sweep(game, honest, sigmas, **kwargs):
        keys = ("sigma", "eps", "lhs", "bound", "closeness", "cc_eps")
        return [dict(dict.fromkeys(keys, 0.1), sigma=s, lhs=float("nan")) for s in sigmas]

    monkeypatch.setattr(cli, "rigidity_sweep", nan_sweep)
    code = ["sweep", "--game", "repetition", "--points", "2"]
    assert main(code) == 2
    assert "2 points, 2 violations" in capsys.readouterr().out


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


def test_cli_sweep_hamming_falls_back_to_left_side(monkeypatch, capsys):
    """Under a cap of 511 the Hamming rounding (extension order and largest
    Fourier block 512) is refused, so the sweep reports the twisted defect
    against 1320 c c' eps alone.  The cap is checked first, so the refused
    probe draws no noise and computes no value: two reported points cost two
    value passes and two strategies' worth of noise unitaries."""
    values, unitaries = [], []
    value_terms, noise = games._value_terms, games._noise_unitaries

    def counted_values(*args, **kwargs):
        values.append(1)
        return value_terms(*args, **kwargs)

    def counted_noise(*args):
        for u in noise(*args):
            unitaries.append(1)
            yield u

    monkeypatch.setattr(games, "_value_terms", counted_values)
    monkeypatch.setattr(games, "_noise_unitaries", counted_noise)
    code = [
        "sweep", "--game", "hamming", "--dim-cap", "511",
        "--points", "2", "--sigma-min", "0.05", "--sigma-max", "0.1",
    ]
    assert main(code) == 0
    out = capsys.readouterr().out
    assert "reporting the left side only" in out
    assert "2 points, 0 violations" in out
    assert len(values) == 2
    assert len(unitaries) == 2 * len(honest_strategy(named_game("hamming")).pvms)
