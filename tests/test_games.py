import json
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from gapstab import algebra, games, stability, suites
from gapstab.abelian import AbelianGroup, boolean_group, pvm_from_rep, rep_from_pvm
from gapstab.algebra import PVM, AlgebraElement, TracialAlgebra, haar_unitary
from gapstab.codes import LinearCode
from gapstab.errors import GapstabError, InvalidArgument, InvalidPVM, ResourceCap
from gapstab.games import (
    ANTICOMMUTATION_CONSTANT,
    COMMUTATION_PROJECTION_CONSTANT,
    COMMUTATION_UNITARY_CONSTANT,
    ETA_SQUARE_CONSTANT,
    Game,
    SignedPerm,
    SynchronousStrategy,
    _CELLS,
    _LINES,
    _SIGMA_X,
    _SIGMA_Z,
    _joint_pvm,
    _magic_grid,
    _sign_pvm,
    _TAU_X,
    _TAU_Z,
    _rigidity,
    _value_terms,
    anticommutation_bound_check,
    closeness,
    combined_game,
    commutation_bound_check,
    commutation_game,
    expand_rules,
    game_from_code,
    gn_game,
    honest_strategy,
    line_cells,
    line_sign,
    magic_square_game,
    pauli_pvms,
    pauli_rigidity_report,
    perturb_strategy,
    strategy_from_jsonable,
    strategy_to_jsonable,
    value,
)
from gapstab.spectral import kappa
from gapstab.suites import named_game, rigidity_sweep


def _diag_strategy():
    """A perfect commutation-game strategy: two diagonal sign observables."""
    alg = TracialAlgebra.matrix(4)

    def diag(signs):
        eye = np.eye(4)
        plus = np.diag([(1.0 + s) / 2 for s in signs])
        return PVM(alg, [-1, 1], [AlgebraElement(alg, [eye - plus]),
                                  AlgebraElement(alg, [plus])])

    p = [1, 1, -1, -1]
    q = [1, -1, 1, -1]
    pvms = {"x1": diag(p), "x2": diag(q)}
    joint = {}
    for a in (-1, 1):
        for b in (-1, 1):
            m = np.diag([
                float(pa == a and qa == b) for pa, qa in zip(p, q)
            ])
            joint[(a, b)] = AlgebraElement(alg, [m])
    outcomes = list(joint)
    pvms["y"] = PVM(alg, outcomes, [joint[o] for o in outcomes])
    return SynchronousStrategy(alg, pvms)


# -- Game construction and bookkeeping --------------------------------------------


def test_game_validation():
    answers = {"x": (0, 1), "y": (0, 1)}
    mu = {("x", "y"): 1}
    rules = {("x", "y"): ("pairs", frozenset({(0, 0), (1, 1)}))}
    Game(["x", "y"], answers, mu, rules)
    with pytest.raises(InvalidArgument):
        Game(["x", "x"], {"x": (0,)}, {("x", "x"): 1}, {("x", "x"): ("pairs", frozenset())})
    with pytest.raises(InvalidArgument):
        Game(["x", "y"], {"x": (0, 1), "y": ()}, mu, rules)
    with pytest.raises(InvalidArgument):
        Game(["x", "y"], answers, {("x", "y"): Fraction(1, 2)}, rules)
    with pytest.raises(InvalidArgument):
        Game(["x", "y"], answers, {("x", "z"): 1}, rules)
    with pytest.raises(InvalidArgument):
        Game(["x", "y"], answers, {("y", "x"): -1, ("x", "y"): 2}, rules)
    with pytest.raises(InvalidArgument):
        Game(["x", "y"], answers, {("y", "y"): 1}, rules)


def test_accepts_swapped_orientation():
    game = commutation_game((-1, 1), (-1, 1))
    # the rule is stored for ("x1", "y"); querying the reverse order must agree
    for a in (-1, 1):
        for b in game.answers["y"]:
            assert game.accepts("x1", "y", a, b) == game.accepts("y", "x1", b, a)


def _question_mass(game, x):
    """Row mass sum_y mu(x, y): the chance x is the first question."""
    return sum((p for (a, _), p in game.mu.items() if a == x), Fraction(0))


def test_marginal_and_question_mass():
    game = game_from_code(LinearCode(2, [[1]]))
    assert _question_mass(game, "PX") == Fraction(1, 3)
    assert _question_mass(game, "PZ") == Fraction(1, 3)
    total = sum(_question_mass(game, x) for x in game.questions)
    assert total == 1


def test_game_json_round_trip():
    game = game_from_code(LinearCode(2, [[1]]))
    blob = game.to_jsonable()
    back = Game.from_jsonable(blob)
    assert back.questions == game.questions
    assert back.mu == game.mu
    assert back.rules == game.rules
    assert back.h_group.orders == game.h_group.orders
    assert back.omega == game.omega
    assert back.rigidity_constant == Fraction(1, 4)
    strat = honest_strategy(back)
    assert abs(value(back, strat) - 1.0) < 1e-9


def _named(name):
    return gn_game(4, rng=np.random.default_rng(0)) if name == "gn4" else named_game(name)


def _reload(blob) -> Game:
    return Game.from_jsonable(json.loads(json.dumps(blob)))


def _parent_format(game) -> dict:
    """The file the earlier writer made: mu and rules sorted by repr, and
    under ``meta`` copies of the laws, the case of every pair, each label's
    sign, the rigidity constant and the distinguished questions."""
    frac = games._frac_str
    enc = games._encode
    return {
        "questions": [[enc(x), [enc(a) for a in game.answers[x]]] for x in game.questions],
        "mu": [[enc(x), enc(y), frac(p)] for (x, y), p in sorted(game.mu.items(), key=repr)],
        "rules": [
            [enc(x), enc(y), tag,
             sorted(map(enc, param), key=repr) if tag == "pairs" else enc(param)]
            for (x, y), (tag, param) in sorted(game.rules.items(), key=repr)
        ],
        "meta": {
            "h_orders": list(game.h_group.orders),
            "alpha_law": [[enc(g), frac(p)] for g, p in game.alpha_law.items_nonzero()],
            "beta_law": [[enc(g), frac(p)] for g, p in game.beta_law.items_nonzero()],
            "case_of": [
                [enc(x), enc(y), game.case_of((x, y))] for x, y in sorted(game.mu, key=repr)
            ],
            "omega": [
                [enc(w), {"alpha": enc(pt.alpha), "beta": enc(pt.beta), "sign": game.sign(w)}]
                for w, pt in sorted(game.omega.items(), key=repr)
            ],
            "rigidity_constant": frac(game.rigidity_constant),
            "distinguished": {"PX": "PX", "PZ": "PZ"},
        },
    }


def _assert_same_game(back, game):
    assert back.questions == game.questions
    assert list(back.mu.items()) == list(game.mu.items())
    assert back.answers == game.answers and back.rules == game.rules
    assert back.h_group.orders == game.h_group.orders
    assert list(back.omega.items()) == list(game.omega.items())
    for law in ("alpha_law", "beta_law"):
        assert list(getattr(back, law).weights.items()) == list(getattr(game, law).weights.items())
    assert back.rigidity_constant == game.rigidity_constant


@pytest.mark.parametrize("name", ["repetition", "hamming", "gn4"])
def test_reloaded_game_is_the_written_game(name):
    """A written and reloaded combined game equals the game in memory, its
    question and mu order included, so its value is the same to the bit;
    a file in the earlier format, mu sorted by repr, loads to the same game."""
    game = _named(name)
    strat = perturb_strategy(honest_strategy(game), 0.05, np.random.default_rng(0))
    for blob in (game.to_jsonable(), _parent_format(game)):
        back = _reload(blob)
        _assert_same_game(back, game)
        assert value(back, strat) == value(game, strat)
    if name != "gn4":
        constant = {"repetition": Fraction(1, 4), "hamming": Fraction(49, 36)}[name]
        assert game.rigidity_constant == constant


def test_stored_derived_values_are_ignored():
    """A file's laws, cases, signs and rigidity constant are copies the loader
    never reads: tampering with them changes no derived value and no report
    number (the perturbed Hamming strategy of sigma 0.05, default_rng(0))."""
    game = named_game("hamming")
    strat = perturb_strategy(honest_strategy(game), 0.05, np.random.default_rng(0))
    blob = _parent_format(game)
    meta = blob["meta"]
    uniform = Fraction(1, game.h_group.order)
    meta["alpha_law"] = [[list(g), str(uniform)] for g in game.h_group.elements]
    meta["beta_law"] = meta["alpha_law"]
    meta["case_of"] = [[x, y, 1] for x, y, _ in meta["case_of"]]
    for _, point in meta["omega"]:
        point["sign"] = -point["sign"]
    meta["rigidity_constant"] = "1/1"
    back = _reload(blob)
    _assert_same_game(back, game)
    assert all(back.sign(w) == game.sign(w) for w in game.omega)
    reports = [_rigidity(g, strat.algebra, strat.pvms.items(), rounding=False) for g in (game, back)]
    assert reports[0] == reports[1]
    assert reports[1]["c_alpha"] == reports[1]["c_beta"] == 7 / 6


def _tamper(part):
    def apply(blob):
        if part == "alpha off the group":
            blob["meta"]["omega"][0][1]["alpha"] = [2, 0, 0, 0]
        elif part == "beta off the group":
            blob["meta"]["omega"][0][1]["beta"] = [0, 1]
        elif part == "weight":
            row = next(row for row in blob["mu"] if row[0] == "PX")
            row[2] = str(2 * Fraction(row[2]))
        elif part in ("weights moved", "mu"):  # half of one mass to another: the sum stays 1
            rows = [row for row in blob["mu"] if (row[0] == "PX") == (part != "mu")]
            a, b = [row for row in rows if row[0] != "PZ"][:2]
            half = Fraction(a[2]) / 2
            a[2], b[2] = str(half), str(Fraction(b[2]) + half)
        elif part == "rule":
            rule = next(rule for rule in blob["rules"] if rule[2] == "pauli_x")
            rule[3] = [1 - rule[3][0]] + rule[3][1:]
        elif part == "answer":
            blob["questions"][2][1] = blob["questions"][2][1][::-1]
        elif part == "question order":
            blob["questions"][2], blob["questions"][3] = blob["questions"][3], blob["questions"][2]
        elif part == "label":
            blob["meta"]["omega"][0][0] = "elsewhere"
        elif part == "meta":
            del blob["meta"]
    return apply


@pytest.mark.parametrize(
    "part, match",
    [
        ("alpha off the group", "out of range"),
        ("beta off the group", "out of range"),
        ("weight", "sum to 1"),
        ("weights moved", "independent"),
        ("mu", "mu"),
        ("rule", "rules"),
        ("answer", "answers"),
        ("question order", "questions"),
        ("label", "labels"),
        ("meta", "Pauli rules"),
    ],
)
def test_game_file_that_disagrees_with_omega_is_refused_at_load(part, match):
    """alpha or beta off the group, a changed weight, a question, answer, mu
    or rule entry that disagrees with the game omega defines, and Pauli
    rules without omega raise InvalidArgument where the file enters, in
    either file format."""
    game = named_game("hamming")
    for blob in (game.to_jsonable(), _parent_format(game)):
        _tamper(part)(blob)
        with pytest.raises(InvalidArgument, match=match):
            _reload(blob)


def test_expanded_game_writes_and_reloads_as_a_plain_game():
    """expand_rules gives a plain game: its file holds the explicit tables
    and no Pauli data, reloads to the same questions, mu order, rules and
    value bits, and the rigidity report refuses it."""
    game = game_from_code(LinearCode(2, [[1, 1, 1]]))
    expanded = expand_rules(game)
    blob = expanded.to_jsonable()
    assert "meta" not in blob
    back = _reload(blob)
    assert back.omega is None and back.h_group is None
    assert back.questions == expanded.questions
    assert list(back.mu.items()) == list(expanded.mu.items())
    assert back.rules == expanded.rules
    strat = perturb_strategy(honest_strategy(game), 0.1, np.random.default_rng(2))
    assert value(back, strat) == value(expanded, strat)
    with pytest.raises(InvalidArgument, match="combined-game structure"):
        pauli_rigidity_report(back, strat)


def test_strategy_json_round_trip():
    game = game_from_code(LinearCode(2, [[1]]))
    strat = perturb_strategy(honest_strategy(game), 0.1, np.random.default_rng(0))
    back = strategy_from_jsonable(strategy_to_jsonable(strat))
    assert abs(value(game, strat) - value(game, back)) < 1e-12


# -- commutation game --------------------------------------------------------------


def test_commutation_game_honest():
    game = commutation_game((-1, 1), (-1, 1))
    strat = _diag_strategy()
    assert abs(value(game, strat) - 1.0) < 1e-12
    chk = commutation_bound_check(strat, 0.0)
    assert chk.lhs_projections < 1e-20
    assert chk.lhs_unitary < 1e-20


def test_commutation_game_perturbed():
    game = commutation_game((-1, 1), (-1, 1))
    rng = np.random.default_rng(1)
    for _ in range(5):
        strat = perturb_strategy(_diag_strategy(), 0.15, rng)
        eps = 1.0 - value(game, strat)
        assert eps > 1e-8
        chk = commutation_bound_check(strat, eps)
        assert chk.bound_projections == COMMUTATION_PROJECTION_CONSTANT * eps
        assert chk.bound_unitary == COMMUTATION_UNITARY_CONSTANT * eps
        assert chk.lhs_projections <= chk.bound_projections * (1 + 1e-9)
        assert chk.lhs_unitary <= chk.bound_unitary * (1 + 1e-9)


def test_commutation_game_empty_answers():
    with pytest.raises(InvalidArgument):
        commutation_game((), (-1, 1))


# -- magic square game -------------------------------------------------------------


def _magic_strategy(game, p_mat=_SIGMA_X, q_mat=_SIGMA_Z):
    grid = _magic_grid(p_mat, q_mat)
    alg = TracialAlgebra.matrix(len(grid[(1, 1)]))
    pvms = {c: _sign_pvm(alg, grid[c]) for c in _CELLS}
    for line in _LINES:
        mats = [grid[c] for c in line_cells(line)]
        pvms[line] = _joint_pvm(alg, game.answers[line], mats)
    return SynchronousStrategy(alg, pvms)


def test_magic_square_structure():
    game = magic_square_game()
    assert len(game.questions) == 15
    assert len(game.mu) == 18
    assert all(p == Fraction(1, 18) for p in game.mu.values())
    assert [line for line in _LINES if line_sign(line) == -1] == [("v", 3)]
    for line in _LINES:
        for b in game.answers[line]:
            assert b[0] * b[1] * b[2] == line_sign(line)


def test_magic_square_honest():
    game = magic_square_game()
    strat = _magic_strategy(game)
    assert abs(value(game, strat) - 1.0) < 1e-12
    chk = anticommutation_bound_check(strat, 0.0)
    assert chk.lhs < 1e-20
    assert chk.eta_square_sum < 1e-20


def test_magic_square_perturbed():
    game = magic_square_game()
    rng = np.random.default_rng(2)
    for _ in range(3):
        strat = perturb_strategy(_magic_strategy(game), 0.1, rng)
        eps = 1.0 - value(game, strat)
        assert eps > 1e-8
        chk = anticommutation_bound_check(strat, eps)
        assert chk.bound == ANTICOMMUTATION_CONSTANT * eps
        assert chk.lhs <= chk.bound * (1 + 1e-9)
        assert set(chk.eta_by_line) == set(_LINES)


@pytest.mark.parametrize("sigma", [0.01, 0.1, 0.3, 0.6, 1.0])
def test_line_defects_sum_to_their_budget(sigma):
    """sum_l eta_l^2 = 24 eps to rounding, with eta_l^2 the mean over a
    line's three cells, up to sigma = 1; the budget check never trips."""
    game = magic_square_game()
    rng = np.random.default_rng(11)
    for _ in range(4):
        strat = perturb_strategy(_magic_strategy(game), sigma, rng)
        eps = 1.0 - value(game, strat)
        chk = anticommutation_bound_check(strat, eps)
        assert chk.eta_square_bound == ETA_SQUARE_CONSTANT * eps
        assert chk.eta_square_sum == pytest.approx(chk.eta_square_bound, rel=1e-9)
        assert sum(e**2 for e in chk.eta_by_line.values()) == chk.eta_square_sum


def test_line_defects_over_budget_raise():
    """The line-defect budget is a hard check: an epsilon below the
    strategy's own raises."""
    game = magic_square_game()
    strat = perturb_strategy(_magic_strategy(game), 0.1, np.random.default_rng(3))
    eps = 1.0 - value(game, strat)
    with pytest.raises(GapstabError, match="line defects"):
        anticommutation_bound_check(strat, eps / 2)


def test_lemma19_suite_line_defects_equal_their_budget():
    """Over 100 trials of the lemma19 suite, sum_l eta_l^2 equals its
    24 eps budget to relative 1e-9."""
    res = suites.suite_lemma19(trials=100)
    col = res.header.index("eta_sq_sum")
    for row in res.rows:
        assert row[col] == pytest.approx(row[col + 1], rel=1e-9)


def test_magic_grid_rejects_commuting_pair():
    with pytest.raises(GapstabError):
        _magic_grid(_SIGMA_Z, _SIGMA_Z)


# -- Pauli PVMs --------------------------------------------------------------------


def test_pauli_pvms_single_qubit():
    tau_x, tau_z = pauli_pvms(1)
    assert np.allclose(tau_x[(0,)].blocks[0], _TAU_X[0])
    assert np.allclose(tau_x[(1,)].blocks[0], _TAU_X[1])
    assert np.allclose(tau_z[(0,)].blocks[0], _TAU_Z[0])
    assert np.allclose(tau_z[(1,)].blocks[0], _TAU_Z[1])


def test_pauli_pvms_caps():
    with pytest.raises(ResourceCap):
        pauli_pvms(13)
    with pytest.raises(InvalidArgument):
        pauli_pvms(0)


def test_pauli_reps_twisted_relation():
    tau_x, tau_z = pauli_pvms(2)
    grp = boolean_group(2)
    u = rep_from_pvm(tau_x, grp)
    v = rep_from_pvm(tau_z, grp.dual())
    alg = u.algebra
    for h in grp.elements:
        for chi in grp.elements:
            s = float(grp.pairing(chi, h))
            res = alg.norm2(u.images[h] * v.images[chi] - s * (v.images[chi] * u.images[h]))
            assert res < 1e-12


# -- combined games ----------------------------------------------------------------


def test_combined_game_single_anticommuting_pair():
    grp = boolean_group(1)
    game = combined_game(grp, {"w": 1}, {"w": (1,)}, {"w": (1,)})
    assert len(game.questions) == 17  # PX, PZ, nine cells, six lines
    assert game.sign("w") == -1
    strat = honest_strategy(game)
    assert abs(value(game, strat) - 1.0) < 1e-9


def test_combined_game_both_branches():
    grp = boolean_group(1)
    omega = {"c": Fraction(1, 2), "a": Fraction(1, 2)}
    alpha = {"c": (0,), "a": (1,)}
    beta = {"c": (1,), "a": (1,)}
    game = combined_game(grp, omega, alpha, beta)
    assert len(game.questions) == 2 + 3 + 15
    assert game.sign("c") == 1
    assert game.sign("a") == -1
    strat = honest_strategy(game)
    assert abs(value(game, strat) - 1.0) < 1e-9


def test_combined_game_rejects_dependent_variables():
    grp = boolean_group(1)
    omega = {"w1": Fraction(1, 2), "w2": Fraction(1, 2)}
    alpha = {"w1": (0,), "w2": (1,)}
    beta = {"w1": (0,), "w2": (1,)}  # beta == alpha under the pairing: dependent
    with pytest.raises(InvalidArgument):
        combined_game(grp, omega, alpha, beta)


def test_combined_game_rejects_higher_exponent():
    from gapstab.abelian import AbelianGroup

    with pytest.raises(InvalidArgument):
        combined_game(AbelianGroup((3,)), {"w": 1}, {"w": (1,)}, {"w": (1,)})


def test_game_from_code():
    game = game_from_code(LinearCode(2, [[1]]))
    assert game.rigidity_constant == Fraction(1, 4)
    assert _question_mass(game, "PX") == Fraction(1, 3)
    with pytest.raises(InvalidArgument):
        game_from_code(LinearCode(2, [[1, 1, 1]]), LinearCode(2, [[1, 0], [0, 1]]))
    with pytest.raises(InvalidArgument):
        game_from_code(LinearCode(3, [[1]]))


def test_gn_game():
    game = gn_game(1, rng=np.random.default_rng(0))
    strat = honest_strategy(game)
    assert abs(value(game, strat) - 1.0) < 1e-9


# -- value engine ------------------------------------------------------------------


def test_value_requires_full_strategy():
    game = commutation_game((-1, 1), (-1, 1))
    strat = _diag_strategy()
    partial = SynchronousStrategy(strat.algebra, {"x1": strat["x1"], "x2": strat["x2"]})
    with pytest.raises(InvalidArgument):
        value(game, partial)


def test_value_shortcut_matches_explicit():
    game = game_from_code(LinearCode(2, [[1]]))
    strat = perturb_strategy(honest_strategy(game), 0.2, np.random.default_rng(3))
    v_short = value(game, strat)
    v_expl = value(expand_rules(game), strat)
    assert abs(v_short - v_expl) < 1e-12


def test_expand_rules_value_match(monkeypatch):
    game = game_from_code(LinearCode(2, [[1]]))
    strat = perturb_strategy(honest_strategy(game), 0.15, np.random.default_rng(4))
    expanded = expand_rules(game)
    assert all(tag == "pairs" for tag, _ in expanded.rules.values())
    assert abs(value(game, strat) - value(expanded, strat)) < 1e-12
    monkeypatch.setattr(games, "_RULE_TABLE_CAP", 1)
    with pytest.raises(ResourceCap):
        expand_rules(game)


def test_perturb_strategy_zero_sigma():
    game = commutation_game((-1, 1), (-1, 1))
    strat = _diag_strategy()
    same = perturb_strategy(strat, 0.0, np.random.default_rng(6))
    assert abs(value(game, same) - 1.0) < 1e-12
    with pytest.raises(InvalidArgument):
        perturb_strategy(strat, -0.1, np.random.default_rng(6))


def test_conjugated_identity_unit_is_one_product_on_hamming():
    """A PVM whose unit is the identity moves it to u u*, one product per
    block, equal entry for entry to the two products (u 1) u*, on every
    question of the Hamming strategy under its noise unitaries."""
    honest = honest_strategy(named_game("hamming"))
    alg = honest.algebra
    noise = algebra._noise_unitaries(alg.dims, len(honest.pvms), 0.05, np.random.default_rng(8))
    for pvm, blocks in zip(honest.pvms.values(), noise):
        assert pvm._unit_is_one
        moved = pvm.conjugated(AlgebraElement(alg, blocks))
        for u, unit in zip(blocks, moved.unit.blocks, strict=True):
            assert np.array_equal(unit, (u @ np.eye(len(u))) @ u.conj().T)


def test_pauli_signs_index_the_outcomes_in_one_call(monkeypatch):
    """A pauli_x/pauli_z pair maps its PVM's outcomes to element indices with
    one array call: each sign row takes one AbelianGroup.index call (its
    parameter's character row), not one more per outcome.  A pair takes at
    most two rows, the observable's (cached per parameter) and, on answer
    groups of order at most 16 as here, the explicit cross-check's."""
    game = named_game("hamming")
    strat = perturb_strategy(honest_strategy(game), 0.05, np.random.default_rng(1))
    pauli_pairs = sum(
        game._rule_for(x, y)[0][0] in ("pauli_x", "pauli_z") for x, y in game.mu
    )
    calls = []
    index = AbelianGroup.index
    monkeypatch.setattr(AbelianGroup, "index", lambda self, g: calls.append(g) or index(self, g))
    got = value(game, strat)
    outcomes = len(strat["PX"].outcomes)
    assert pauli_pairs < len(calls) <= 2 * pauli_pairs < outcomes * pauli_pairs
    monkeypatch.undo()
    assert got == pytest.approx(value(expand_rules(game), strat), abs=1e-12)


# -- closeness and the bridge ------------------------------------------------------


def test_closeness_identity_witness():
    strat = _diag_strategy()
    w = tuple(np.eye(d) for d in strat.algebra.dims)
    cert = closeness(strat, strat, w)
    assert cert.trace_defect_base < 1e-12
    assert cert.trace_defect_corner < 1e-12
    assert cert.strategy_distance < 1e-20
    r = cert.report()
    assert set(r["per_question"]) == {"x1", "x2", "y"}


def test_closeness_refuses_strategies_without_a_common_question():
    """The repetition honest strategy split into its PX and PZ parts: no
    question is measured, so no distance is certified."""
    strat = honest_strategy(named_game("repetition"))
    px = SynchronousStrategy(strat.algebra, {"PX": strat["PX"]})
    pz = SynchronousStrategy(strat.algebra, {"PZ": strat["PZ"]})
    w = tuple(np.eye(d) for d in strat.algebra.dims)
    with pytest.raises(InvalidArgument, match="share no question"):
        closeness(px, pz, w)
    assert closeness(px, px, w).per_question.keys() == {"PX"}


def test_unitary_pvm_bridge():
    """E_h ||U(h) - V(h)||_2^2 = sum_chi ||P_chi - Q_chi||_2^2, both sides
    summed literally, for two representations of (Z/2)^2 far apart: the
    identity the report's ``bridge_residual`` measures."""
    tau_x, _ = pauli_pvms(2)
    grp = boolean_group(2)
    u = rep_from_pvm(tau_x, grp)
    c = AlgebraElement(u.algebra, [haar_unitary(4, np.random.default_rng(7))])
    v = rep_from_pvm(tau_x.conjugated(c), grp)
    alg = u.algebra
    unitary_side = np.mean([alg.norm2(u.images[h] - v.images[h]) ** 2 for h in grp.elements])
    pu, pv = pvm_from_rep(u), pvm_from_rep(v)
    pvm_side = sum(alg.norm2(pu[chi] - pv[chi]) ** 2 for chi in grp.elements)
    assert unitary_side > 1e-6
    assert abs(unitary_side - pvm_side) < 1e-10


# -- rigidity reports --------------------------------------------------------------


def test_rigidity_report_honest():
    game = game_from_code(LinearCode(2, [[1]]))
    strat = honest_strategy(game)
    rep = pauli_rigidity_report(game, strat)
    assert rep["epsilon"] < 1e-12
    assert rep["prop_lhs"] < 1e-12
    assert rep["c_alpha"] == 0.5 and rep["c_beta"] == 0.5
    assert rep["relation_residual"] < 1e-9
    assert rep["closeness"]["strategy_distance"] < 1e-9
    assert rep["bridge_residual"] < 1e-10
    cert = rep["certificate"]
    assert max(cert.trace_defect_base, cert.trace_defect_corner, cert.strategy_distance) <= 1e-8


def test_rigidity_report_conjugated_honest():
    game = game_from_code(LinearCode(2, [[1]]))
    strat = honest_strategy(game)
    alg = strat.algebra
    c = AlgebraElement(alg, [haar_unitary(alg.dims[0], np.random.default_rng(8))])
    moved = SynchronousStrategy(
        alg, {x: pvm.conjugated(c) for x, pvm in strat.pvms.items()}
    )
    assert abs(value(game, moved) - 1.0) < 1e-12
    rep = pauli_rigidity_report(game, moved)
    assert rep["epsilon"] < 1e-12
    assert rep["closeness"]["strategy_distance"] < 1e-8


def test_rigidity_report_requires_structure():
    game = magic_square_game()
    strat = _magic_strategy(game)
    with pytest.raises(InvalidArgument):
        pauli_rigidity_report(game, strat)


def test_hamming_report_refuses_rounding_before_amplification(monkeypatch):
    """Under a cap of 511 the Hamming rounding is refused: its extension has
    order 512 and its largest Fourier block (m = 32 times the 16-dimensional
    faithful irrep) is 512.  The refusal comes before the pair's defects, its
    gap constants or the amplification check are computed; under the default
    cap the report does reach them."""
    import gapstab.stability as stability

    def not_reached(*args, **kwargs):
        raise AssertionError("amplification work ran before the cap check")

    for name in ("_pair_defects", "kappa", "_twisted_amplification"):
        monkeypatch.setattr(stability, name, not_reached)
    game = named_game("hamming")
    strat = honest_strategy(game)
    with pytest.raises(AssertionError, match="before the cap check"):
        pauli_rigidity_report(game, strat)
    monkeypatch.setattr(algebra, "ROUNDING_DIM_CAP", 511)
    with pytest.raises(ResourceCap, match="512"):
        pauli_rigidity_report(game, strat)


@pytest.mark.parametrize("name", ["repetition", "hamming"])
def test_pauli_signs_are_the_pairing(name, monkeypatch):
    """value reads the Pauli signs off a character-table row; against the
    table built from one pairing call per entry it is bit-identical."""
    game = named_game(name)
    group = game.h_group
    strat = perturb_strategy(honest_strategy(game), 0.1, np.random.default_rng(5))
    fast = value(game, strat)
    els = group.elements
    paired = np.array([[complex(group.pairing(chi, a)) for a in els] for chi in els])
    monkeypatch.setattr(group, "character_table", lambda: paired)
    assert fast == value(game, strat)


# -- the stacked kernels against the per-outcome loops ------------------------------


def _random_pvm(alg, outcomes, rng):
    blocks = [[] for _ in outcomes]
    for n in alg.dims:
        u = haar_unitary(n, rng)
        labels = rng.integers(len(outcomes), size=n)
        for k in range(len(outcomes)):
            cols = u[:, labels == k]
            blocks[k].append(cols @ cols.conj().T)
    return PVM(alg, outcomes, [alg.element(b) for b in blocks])


_H = boolean_group(2)
_SIGNS = (-1, 1)
_RULE_KINDS = {
    "pairs": (("T", "S"), ("pairs", frozenset({(0, 1), (2, -1), (1, 1), (2, 1)}))),
    "match_coord": (("S", "Y"), ("match_coord", 1)),
    "pauli_x": (("PX", "S"), ("pauli_x", (1, 0))),
    "pauli_z": (("PX", "S"), ("pauli_z", (1, 1))),
    "swapped": (("S", "PX"), ("pauli_x", (0, 1))),
}


@pytest.mark.parametrize("kind", sorted(_RULE_KINDS))
def test_value_matches_the_literal_trace_sums(kind):
    """value through the trace kernel against sum_{a, b} D tau(P_a Q_b) with
    full products, on a two-block algebra with unequal weights."""
    answers = {
        "PX": _H.elements,
        "S": _SIGNS,
        "Y": tuple((a, b) for a in _SIGNS for b in _SIGNS),
        "T": (0, 1, 2),
    }
    (x, y), rule = _RULE_KINDS[kind]
    rule_pair = (y, x) if kind == "swapped" else (x, y)
    game = Game(tuple(answers), answers, {(x, y): Fraction(1)}, {rule_pair: rule})
    game.h_group = _H
    alg = TracialAlgebra([(3, Fraction(1, 5)), (6, Fraction(4, 5))])
    rng = np.random.default_rng(len(kind))
    strat = SynchronousStrategy(
        alg, {q: _random_pvm(alg, list(answers[q]), rng) for q in answers}
    )
    px, py = strat[x], strat[y]
    literal = 0.0
    for a in px.outcomes:
        for b in py.outcomes:
            if game.accepts(x, y, a, b):
                literal += float(np.real(alg.tau(px[a] * py[b])))
    assert 0.05 < literal < 0.95
    for g in (game, expand_rules(game)):
        assert value(g, strat) == pytest.approx(literal, rel=1e-12)


# -- the float construction of perfect strategies, kept as the oracle ---------------
#
# The perfect strategies were built from dense float observables, every PVM
# validated in full; the exact path must give the same stacks (bit for bit,
# the sign of every zero included), outcome order and residual.

_DENSE_X = np.array([[0.0, 1.0], [1.0, 0.0]])
_DENSE_Z = np.array([[1.0, 0.0], [0.0, -1.0]])


def _float_magic_grid(p_mat, q_mat):
    d = p_mat.shape[0]
    gens = {
        "P": np.kron(p_mat, np.eye(2)),
        "Q": np.kron(q_mat, np.eye(2)),
        "X": np.kron(np.eye(d), _DENSE_X),
        "Z": np.kron(np.eye(d), _DENSE_Z),
    }
    grid = {}
    for cell, word in games._GRID_WORDS.items():
        m = np.eye(2 * d, dtype=complex)
        for letter in word:
            m = m @ gens[letter]
        grid[cell] = m
    return grid


def _float_sign_pvm(alg, mat):
    eye = np.eye(mat.shape[0])
    return PVM(alg, [-1, 1], [[(eye - mat) / 2, (eye + mat) / 2]])


def _float_joint_pvm(alg, outcomes, mats):
    eye = np.eye(mats[0].shape[0])
    projs = []
    for b in outcomes:
        m = eye.astype(complex)
        for s, obs in zip(b, mats):
            m = m @ (eye + float(s) * obs) / 2
        projs.append(m)
    return PVM(alg, list(outcomes), [projs])


def _float_commuting_pvms(alg, p, q, answers):
    return {
        "x1": _float_sign_pvm(alg, p),
        "x2": _float_sign_pvm(alg, q),
        "y": _float_joint_pvm(alg, answers, [p, q]),
    }


def _float_grid_pvms(alg, p, q, answers):
    grid = _float_magic_grid(p, q)
    pvms = {cell: _float_sign_pvm(alg, grid[cell]) for cell in _CELLS}
    for line in _LINES:
        pvms[line] = _float_joint_pvm(alg, answers[line], [grid[c] for c in line_cells(line)])
    return pvms


def _float_pauli_pvms(n):
    alg = TracialAlgebra.matrix(2**n)
    x_stack = z_stack = np.ones((1, 1, 1))
    for _ in range(n):
        x_stack, z_stack = np.kron(x_stack, _TAU_X), np.kron(z_stack, _TAU_Z)
    elements = list(boolean_group(n).elements)
    return PVM(alg, elements, [x_stack]), PVM(alg, elements, [z_stack])


def _float_honest_strategy(game):
    group = game.h_group
    n = len(group.orders)
    tau_x, tau_z = _float_pauli_pvms(n)
    lam = rep_from_pvm(tau_x, group).images
    mod = rep_from_pvm(tau_z, group).images
    alg = TracialAlgebra.matrix(2 ** (n + 1))
    pvms = {
        q: PVM(alg, pvm.outcomes, [np.kron(pvm.stacks[0], np.eye(2)[None])])
        for q, pvm in (("PX", tau_x), ("PZ", tau_z))
    }
    for w, (_, alpha, beta) in game.omega.items():
        p_mat = lam[alpha].blocks[0]
        q_mat = mod[beta].blocks[0]
        if game.sign(w) == 1:
            pw, qw = np.kron(p_mat, np.eye(2)), np.kron(q_mat, np.eye(2))
            sub = _float_commuting_pvms(alg, pw, qw, game.answers[(w, "y")])
        else:
            answers = {line: game.answers[(w, line)] for line in _LINES}
            sub = _float_grid_pvms(alg, p_mat, q_mat, answers)
        pvms.update(((w, key), pvm) for key, pvm in sub.items())
    return SynchronousStrategy(alg, pvms)


def _dense(o: SignedPerm) -> np.ndarray:
    m = np.zeros((len(o), len(o)))
    m[np.arange(len(o)), o.perm] = o.sign
    return m


def _assert_same_pvms(exact: dict, oracle: dict):
    """The exact PVMs hold real float16 stacks whose complex copies are the
    validated oracle's stacks byte for byte."""
    assert list(exact) == list(oracle)
    for x, pvm in oracle.items():
        got = exact[x]
        assert got.outcomes == pvm.outcomes, x
        assert all(s.dtype == np.float16 for s in got.stacks), x
        assert [s.astype(complex).tobytes() for s in got.stacks] == [
            s.tobytes() for s in pvm.stacks
        ], x
        assert got.residual == pvm.residual, x


@pytest.mark.parametrize("name", ["repetition", "hamming"])
def test_honest_strategy_matrices_unchanged(name):
    """lambda(h) and M(chi) from rep_from_pvm give the bits of the old
    per-character sums, and the honest PVMs are built from them."""
    game = named_game(name)
    group = game.h_group
    tau_x, tau_z = pauli_pvms(len(group.orders))
    lam, mod = {}, {}
    for h in group.elements:
        acc_l = acc_m = None
        for chi in group.elements:
            s = float(group.pairing(chi, h))
            tl, tm = s * tau_x[chi].blocks[0], s * tau_z[chi].blocks[0]
            acc_l = tl if acc_l is None else acc_l + tl
            acc_m = tm if acc_m is None else acc_m + tm
        lam[h], mod[h] = acc_l, acc_m
    strat = honest_strategy(game)
    alg = strat.algebra
    eye = np.eye(2)
    for w, (_, alpha, beta) in game.omega.items():
        p, q = lam[alpha], mod[beta]
        if game.sign(w) == 1:
            expected = {
                (w, "x1"): _float_sign_pvm(alg, np.kron(p, eye)),
                (w, "x2"): _float_sign_pvm(alg, np.kron(q, eye)),
            }
        else:
            grid = _float_magic_grid(p, q)
            expected = {(w, c): _float_sign_pvm(alg, grid[c]) for c in _CELLS}
        for x, pvm in expected.items():
            for a in pvm.outcomes:
                assert np.array_equal(strat[x][a].blocks[0], pvm[a].blocks[0])


@pytest.mark.parametrize("name", ["repetition", "hamming", "gn4"])
def test_exact_honest_strategy_equals_the_float_oracle(name):
    game = gn_game(4, rng=np.random.default_rng(0)) if name == "gn4" else named_game(name)
    _assert_same_pvms(honest_strategy(game).pvms, _float_honest_strategy(game).pvms)


@pytest.mark.parametrize("n", range(1, 7))
def test_exact_pauli_pvms_equal_the_float_oracle(n):
    exact, oracle = pauli_pvms(n), _float_pauli_pvms(n)
    _assert_same_pvms(dict(enumerate(exact)), dict(enumerate(oracle)))


def test_exact_magic_square_and_commutation_strategies_equal_the_float_oracle():
    msq = magic_square_game()
    alg = TracialAlgebra.matrix(4)
    exact = games._grid_pvms(alg, _SIGMA_X, _SIGMA_Z, msq.answers)
    _assert_same_pvms(exact, _float_grid_pvms(alg, _DENSE_X, _DENSE_Z, msq.answers))
    # a commuting pair of permutations with signs, and two diagonal ones
    answers = commutation_game((-1, 1), (-1, 1)).answers["y"]
    alg = TracialAlgebra.matrix(4)
    pairs = [
        (SignedPerm([1, 0, 3, 2], [1, 1, -1, -1]), SignedPerm([0, 1, 2, 3], [1, 1, -1, -1])),
        (SignedPerm([0, 1, 2, 3], [1, 1, -1, -1]), SignedPerm([0, 1, 2, 3], [1, -1, 1, -1])),
    ]
    for p, q in pairs:
        exact = games._commuting_pvms(alg, p, q, answers)
        _assert_same_pvms(exact, _float_commuting_pvms(alg, _dense(p), _dense(q), answers))
        assert value(commutation_game((-1, 1), (-1, 1)), SynchronousStrategy(alg, exact)) == 1.0


def _complex_stored(pvm: PVM) -> PVM:
    """The same PVM with its stacks stored as complex128, as exact PVMs
    once were."""
    stacks = [s.astype(complex) for s in pvm.stacks]
    return PVM._trusted(pvm.algebra, pvm.outcomes, stacks, pvm.residual)


def _stack_bytes(pvm: PVM) -> list:
    return [s.tobytes() for s in pvm.stacks]


def _assert_real_conjugates_as_complex(pvms: dict, rng) -> dict:
    """Every PVM of ``pvms`` holds real float16 stacks, and its conjugate by
    each noise draw has the bytes and bound of the complex copy's; returns
    the conjugates."""
    alg = next(iter(pvms.values())).algebra
    noise = algebra._noise_unitaries(alg.dims, len(pvms), 0.05, rng)
    out = {}
    for (x, pvm), blocks in zip(pvms.items(), noise, strict=True):
        assert all(s.dtype == np.float16 for s in pvm.stacks), x
        u = AlgebraElement(alg, blocks)
        got, want = pvm.conjugated(u), _complex_stored(pvm).conjugated(u)
        assert _stack_bytes(got) == _stack_bytes(want), x
        assert [b.tobytes() for b in got.unit.blocks] == [b.tobytes() for b in want.unit.blocks]
        assert got.residual == want.residual, x
        out[x] = got
    return out


def _assert_closeness_as_complex(real: dict, noisy: dict, rng):
    """closeness between the real PVMs and their conjugates, either way
    round, gives the complex copy's numbers bit for bit."""
    alg = next(iter(real.values())).algebra
    w = tuple(haar_unitary(n, rng) for n in alg.dims)
    copy = {x: _complex_stored(p) for x, p in real.items()}
    for a, b, a_copy, b_copy in ((real, noisy, copy, noisy), (noisy, real, noisy, copy)):
        got = closeness(SynchronousStrategy(alg, a), SynchronousStrategy(alg, b), w)
        want = closeness(SynchronousStrategy(alg, a_copy), SynchronousStrategy(alg, b_copy), w)
        assert got.report() == want.report()


def _assert_json_as_complex(pvms: dict):
    """strategy_to_jsonable writes the complex copy's text and builds no
    element on the real PVMs."""
    alg = next(iter(pvms.values())).algebra
    copy = {x: _complex_stored(p) for x, p in pvms.items()}
    got = json.dumps(strategy_to_jsonable(SynchronousStrategy(alg, pvms)))
    assert got == json.dumps(strategy_to_jsonable(SynchronousStrategy(alg, copy)))
    assert not any("projections" in vars(p) for p in pvms.values())


@pytest.mark.parametrize("n", range(1, 7))
def test_real_pauli_pvms_act_as_their_complex_copies(n):
    """pauli_pvms(n) store float16 stacks; conjugation by noise draws,
    rep_from_pvm, closeness and the JSON writer give bit for bit what the
    complex-stored copies give."""
    group = boolean_group(n)
    tau_x, tau_z = pauli_pvms(n)
    real = {"PX": tau_x, "PZ": tau_z}
    rng = np.random.default_rng(n)
    noisy = _assert_real_conjugates_as_complex(real, rng)
    for pvm, grp in ((tau_x, group), (tau_z, group.dual())):
        got, want = rep_from_pvm(pvm, grp), rep_from_pvm(_complex_stored(pvm), grp)
        assert [s.tobytes() for s in got.stacks] == [s.tobytes() for s in want.stacks]
    _assert_closeness_as_complex(real, noisy, rng)
    _assert_json_as_complex(real)


def test_real_hamming_honest_strategy_acts_as_its_complex_copy():
    """The Hamming honest strategy stores float16 stacks; conjugation by the
    noise draws, the value terms of a strategy mixing real and conjugated
    PVMs, rep_from_pvm on PX and PZ, closeness and the JSON writer give bit
    for bit what the complex-stored copy gives."""
    game = named_game("hamming")
    honest = honest_strategy(game)
    rng = np.random.default_rng(0)
    noisy = _assert_real_conjugates_as_complex(honest.pvms, rng)
    copy = {x: _complex_stored(p) for x, p in honest.pvms.items()}
    # every other question perturbed, so value pairs real with complex stacks
    for source in (honest.pvms, copy):
        mixed = [(x, noisy[x] if i % 2 else p) for i, (x, p) in enumerate(source.items())]
        terms = _value_terms(game, mixed)
        if source is copy:
            assert terms[0] == real_terms[0] < 1.0
            assert terms[1] == real_terms[1]
        real_terms = terms
    perfect = value(game, honest)
    assert perfect == value(game, SynchronousStrategy(honest.algebra, copy)) > 1.0 - 1e-12
    group = game.h_group
    for x, grp in (("PX", group), ("PZ", group.dual())):
        got, want = rep_from_pvm(honest[x], grp), rep_from_pvm(copy[x], grp)
        assert [s.tobytes() for s in got.stacks] == [s.tobytes() for s in want.stacks]
    _assert_closeness_as_complex(honest.pvms, noisy, rng)
    _assert_json_as_complex(honest.pvms)


def test_exact_pvm_rejects_entries_float16_would_round():
    """A pair {P, 1 - P} with the entry 1/2 + 2^-20, which float16 would
    round, sums to the identity but is refused, not stored rounded."""
    a = 0.5 + 2.0**-20
    b = math.sqrt(a * (1 - a))
    p = np.array([[a, b], [b, 1 - a]])
    stack = np.array([p, np.eye(2) - p])
    assert np.array_equal(stack.sum(axis=0), np.eye(2))
    with pytest.raises(InvalidPVM, match="float16"):
        games._exact_pvm(TracialAlgebra.matrix(2), [0, 1], stack)


def test_hamming_honest_stacks_take_a_quarter_of_their_float64_bytes():
    honest = honest_strategy(named_game("hamming"))
    stacks = [s for pvm in honest.pvms.values() for s in pvm.stacks]
    assert all(s.dtype == np.float16 for s in stacks)
    assert 4 * sum(s.nbytes for s in stacks) == 8 * sum(s.size for s in stacks)


def test_reading_a_projection_keeps_nothing_on_the_pvm():
    """``pvm[a]`` of an honest PVM is built per read: the PVM's attributes are
    the same objects before and after, and the element's block is the complex
    copy of the stack's row, as an element of a complex-stored copy gives."""
    pvm = honest_strategy(named_game("hamming")).pvms["PX"]
    before = dict(vars(pvm))
    for x in pvm.outcomes:
        got = pvm[x].blocks[0]
        assert got.dtype == complex
        assert got.tobytes() == _complex_stored(pvm)[x].blocks[0].tobytes()
    assert [p.blocks[0].tobytes() for p in pvm.projections] == [
        s.astype(complex).tobytes() for s in pvm.stacks[0]
    ]
    after = vars(pvm)
    assert after.keys() == before.keys()
    assert all(after[k] is v for k, v in before.items())


@pytest.mark.parametrize("n", range(1, 5))
def test_pauli_signed_perms_equal_the_pauli_representations(n):
    """X^h and Z^chi from their bits are the images of rep_from_pvm on the
    Pauli PVMs."""
    group = boolean_group(n)
    tau_x, tau_z = pauli_pvms(n)
    for letter, pvm in ((_SIGMA_X, tau_x), (_SIGMA_Z, tau_z)):
        images = rep_from_pvm(pvm, group).images
        for h in group.elements:
            assert np.array_equal(images[h].blocks[0], _dense(games._pauli(letter, h)))


@pytest.mark.parametrize(
    "perm, sign",
    [
        ([0, 0], [1, 1]),  # not a permutation
        ([0, 2], [1, 1]),  # out of range
        ([1, 0], [1, 2]),  # a sign that is not +-1
        ([1, 0], [1]),  # length mismatch
        ([1.0, 0.0], [1, 1]),  # not integers
        ([1, 0], [1.0, -1.0]),
        ([[0]], [[1]]),  # not one-dimensional
    ],
)
def test_signed_perm_rejects_what_is_not_one(perm, sign):
    with pytest.raises(InvalidArgument):
        SignedPerm(perm, sign)


def _no_stack(*args):
    raise AssertionError("a stack was formed before the laws were checked")


def test_broken_laws_raise_before_any_stack(monkeypatch):
    monkeypatch.setattr(games, "_joint_stack", _no_stack)
    alg = TracialAlgebra.matrix(4)
    cycle = SignedPerm([1, 2, 3, 0], [1, 1, 1, 1])  # order 4, not an involution
    antisym = SignedPerm([1, 0, 2, 3], [1, -1, 1, 1])  # squares to -1 on a plane
    flip, diag = SignedPerm([1, 0, 3, 2], [1, 1, 1, 1]), SignedPerm([0, 1, 2, 3], [1, -1, 1, -1])
    answers = commutation_game((-1, 1), (-1, 1)).answers["y"]
    for op in (cycle, antisym):
        with pytest.raises(GapstabError, match="involution"):
            _sign_pvm(alg, op)
    with pytest.raises(GapstabError, match="commute"):
        games._commuting_pvms(alg, flip, diag, answers)  # flip and diag anticommute
    answers = magic_square_game().answers
    with pytest.raises(GapstabError, match="involution"):
        games._grid_pvms(alg, _SIGMA_X, _SIGMA_X, answers)  # a commuting pair
    # an anticommuting pair always completes to a grid with the right line
    # products, so the product check is seen against a flipped line sign
    monkeypatch.setattr(games, "line_sign", lambda line: 1)
    with pytest.raises(GapstabError, match=r"grid line \('v', 3\) has the wrong product"):
        games._grid_pvms(alg, _SIGMA_X, _SIGMA_Z, answers)


def test_an_outcome_list_missing_a_projection_raises():
    alg = TracialAlgebra.matrix(4)
    p, q = SignedPerm([0, 1, 2, 3], [1, 1, -1, -1]), SignedPerm([0, 1, 2, 3], [1, -1, 1, -1])
    with pytest.raises(InvalidPVM, match="sum"):
        _joint_pvm(alg, [(1, 1), (1, -1), (-1, 1)], [p, q])
    with pytest.raises(InvalidPVM, match="duplicate"):
        _joint_pvm(alg, [(1, 1), (1, -1), (-1, 1), (-1, -1), (1, 1)], [p, q])
    with pytest.raises(InvalidPVM, match="signs"):
        _joint_pvm(alg, [(2, 1), (-2, 1), (1, -1), (-1, -1)], [p, q])
    # zero projections may be listed: (1, 1) and (-1, -1) vanish for q = -p
    minus_p = p @ SignedPerm([0, 1, 2, 3], [-1] * 4)
    _joint_pvm(alg, [(1, 1), (1, -1), (-1, 1), (-1, -1)], [p, minus_p])


def test_game_file_rejects_labels_off_the_group_at_load():
    """alpha and beta are checked once, by combined_game, where a game file
    enters: the honest build then takes X^alpha and Z^beta from their bits
    knowing they are group elements."""
    for key, bad in (("alpha", [2, 0, 0, 0]), ("beta", [0, 1])):
        blob = named_game("hamming").to_jsonable()
        blob["meta"]["omega"][0][1][key] = bad
        with pytest.raises(InvalidArgument, match="out of range"):
            Game.from_jsonable(blob)


@pytest.mark.parametrize(
    "tag, param", [("pairs", 5), ("pairs", [[0, 1, 1]]), ("match_coord", "x")]
)
def test_game_file_rule_params_take_the_shape_of_their_tag(tag, param):
    """A rule's param is checked against its tag where the file enters: a
    "pairs" rule lists pairs of answers and a "match_coord" rule names a
    coordinate."""
    blob = {"questions": [["a", [0, 1]]], "mu": [["a", "a", "1"]], "rules": [["a", "a", tag, param]]}
    with pytest.raises(InvalidArgument, match=r"malformed file\['rules'\]\[0\]\[3\]"):
        Game.from_jsonable(blob)
    blob["rules"][0][3] = [[0, 0], [1, 1]] if tag == "pairs" else 0
    assert Game.from_jsonable(blob).rules[("a", "a")][0] == tag


def test_hamming_honest_and_perturbed_strategies_are_validated_once(monkeypatch):
    """The honest PVMs are formed exactly and their noisy conjugates carry a
    derived bound: neither goes through PVM validation."""
    calls = []
    full = PVM.__init__

    def counted(self, *args, **kwargs):
        calls.append(1)
        full(self, *args, **kwargs)

    monkeypatch.setattr(PVM, "__init__", counted)
    honest = honest_strategy(named_game("hamming"))
    perturb_strategy(honest, 0.05, np.random.default_rng(0))
    assert len(honest.pvms) == 449 and calls == []


def test_perturb_strategy_draws_the_same_unitaries():
    """perturb_strategy against the inline draw of e^{i sigma H} it replaced."""
    strat = honest_strategy(named_game("repetition"))
    alg = strat.algebra
    moved = perturb_strategy(strat, 0.07, np.random.default_rng(12))
    rng = np.random.default_rng(12)
    for x, pvm in strat.pvms.items():
        blocks = []
        for d in alg.dims:
            h = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
            h = (h + h.conj().T) / 2
            h /= np.linalg.norm(h, 2)
            vals, vecs = np.linalg.eigh(h)
            blocks.append((vecs * np.exp(1j * 0.07 * vals)) @ vecs.conj().T)
        u = AlgebraElement(alg, blocks)
        for a in pvm.outcomes:
            assert np.array_equal(moved[x][a].blocks[0], (u * pvm[a] * u.H).blocks[0])


def test_trusted_conjugation_leaves_every_number_unchanged(monkeypatch):
    """With the derived bound forced to inf, every conjugation goes through
    the full check; the perturbed Hamming report (sigma 0.05, default_rng(0))
    and a quick sweep give the same numbers either way."""
    game = named_game("hamming")
    honest = honest_strategy(game)

    def run():
        strat = perturb_strategy(honest, 0.05, np.random.default_rng(0))
        report = pauli_rigidity_report(game, strat)
        del report["certificate"]  # compared through its numbers in "closeness"
        return report, rigidity_sweep(game, honest, [0.05, 0.2], full_report=False)

    trusted = run()
    monkeypatch.setattr(algebra, "_conjugation_bound", lambda *args: math.inf)
    assert run() == trusted


# -- the streamed value and the quick sweep ------------------------------------------


@pytest.mark.parametrize("name", ["repetition", "hamming"])
def test_quick_sweep_equals_the_materialised_strategy(name):
    """The quick sweep streams each point's perturbed PVMs into the value;
    perturbing the whole strategy, taking ``value`` and the mean of the pair
    defects of PX and PZ on the same draws gives every number bit for bit."""
    game = named_game(name)
    honest = honest_strategy(game)
    group, dual = game.h_group, game.h_group.dual()
    c_alpha = float(kappa(group, game.alpha_law).kappa)
    c_beta = float(kappa(dual, game.beta_law).kappa)
    sigmas = [0.01, 0.05, 0.2]
    for spawn_base in (0, 5):
        points = rigidity_sweep(
            game, honest, sigmas, seed=7, full_report=False, spawn_base=spawn_base
        )
        for j, (sigma, pt) in enumerate(zip(sigmas, points, strict=True)):
            seq = np.random.SeedSequence(entropy=7, spawn_key=(spawn_base + j,))
            strat = perturb_strategy(honest, sigma, np.random.default_rng(seq))
            eps = 1.0 - value(game, strat)
            u, v = rep_from_pvm(strat["PX"], group), rep_from_pvm(strat["PZ"], dual)
            lhs = float(algebra._pair_defects(u, v, group.character_table().T).mean())
            assert pt["eps"] == eps and pt["lhs"] == lhs
            assert pt["bound"] == 1320.0 * c_alpha * c_beta * eps
            assert pt["cc_eps"] == c_alpha * c_beta * eps
    with pytest.raises(InvalidArgument, match="perturbation size must be nonnegative"):
        rigidity_sweep(game, honest, [-0.1], full_report=False)


def test_value_does_not_depend_on_the_pvm_order():
    """A strategy whose PVMs come in the reverse of ``game.mu`` order has the
    same value and the same pair terms, bit for bit."""
    game = named_game("hamming")
    strat = perturb_strategy(honest_strategy(game), 0.05, np.random.default_rng(2))
    backwards = SynchronousStrategy(strat.algebra, dict(reversed(list(strat.pvms.items()))))
    assert list(backwards.pvms)[-1] == "PX"
    assert value(game, backwards) == value(game, strat)
    val, terms, kept = _value_terms(game, backwards.pvms.items(), keep=("PZ",))
    assert (val, terms) == _value_terms(game, strat.pvms.items())[:2]
    assert kept == {"PZ": strat["PZ"]}


def _raised(game, alg, pvms) -> str:
    """The message of the InvalidArgument (not a subclass) that value raises."""
    with pytest.raises(InvalidArgument) as info:
        value(game, SynchronousStrategy(alg, pvms))
    assert info.type is InvalidArgument
    return str(info.value)


def test_value_errors_keep_their_types_and_messages():
    """A question of the support that has no PVM is reported first, with
    every such question; otherwise the first question in ``game.mu`` order
    whose PVM has other outcomes than its answer set."""
    game = commutation_game((-1, 1), (-1, 1))
    strat = _diag_strategy()
    alg = strat.algebra
    relabelled = {
        x: PVM(alg, range(len(pvm)), pvm.stacks) for x, pvm in strat.pvms.items()
    }
    assert _raised(game, alg, {"x2": strat["x2"]}) == "strategy lacks PVMs for [\"'x1'\", \"'y'\"]"
    assert _raised(game, alg, {"x2": relabelled["x2"]}) == "strategy lacks PVMs for [\"'x1'\", \"'y'\"]"
    # x2 arrives first, but y comes first in game.mu order
    mismatched = {"x1": strat["x1"], "x2": relabelled["x2"], "y": relabelled["y"]}
    assert _raised(game, alg, mismatched) == "answer set mismatch at question 'y'"
    assert _raised(game, alg, {**strat.pvms, "x2": relabelled["x2"]}) == (
        "answer set mismatch at question 'x2'"
    )


def _perturbed_strategy_bytes(honest) -> int:
    """The bytes of a whole perturbed copy of ``honest``: its projections'
    entries as complex128, 16 bytes each, whatever the honest stacks' dtype."""
    return 16 * sum(s.size for pvm in honest.pvms.values() for s in pvm.stacks)


def test_quick_hamming_point_holds_no_perturbed_strategy():
    """Under tracemalloc, which sees numpy's buffers, a quick Hamming sweep
    point peaks well below a whole perturbed strategy's projections: it holds
    one omega label's perturbed PVMs at a time, plus PX and PZ, never a whole
    perturbed strategy beside the honest one."""
    game = named_game("hamming")
    honest = honest_strategy(game)
    projections = _perturbed_strategy_bytes(honest)
    rigidity_sweep(game, honest, [0.05], full_report=False)  # fill the caches once
    tracemalloc.start()
    try:
        rigidity_sweep(game, honest, [0.05], full_report=False)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 0.75 * projections


def _report_numbers(report):
    """A rigidity report without its certificate object, whose numbers the
    ``closeness`` entry carries."""
    return {k: v for k, v in report.items() if k != "certificate"}


@pytest.mark.parametrize("name", ["repetition", "hamming"])
def test_full_sweep_point_equals_the_report_on_the_materialised_strategy(name, monkeypatch):
    """A full sweep point streams its perturbed PVMs into the rigidity core;
    the report on the whole perturbed strategy, drawn with the same rng, has
    every number of the point and of the streamed report bit for bit,
    closeness included."""
    game = named_game(name)
    honest = honest_strategy(game)
    streamed = []

    def kept(*args, **kwargs):
        streamed.append(_rigidity(*args, **kwargs))
        return streamed[-1]

    monkeypatch.setattr(suites, "_rigidity", kept)
    sigmas = [0.01, 0.05, 0.2]
    for spawn_base in (0, 5):
        streamed.clear()
        points = rigidity_sweep(
            game, honest, sigmas, seed=7, full_report=True, spawn_base=spawn_base
        )
        for j, (sigma, pt) in enumerate(zip(sigmas, points, strict=True)):
            seq = np.random.SeedSequence(entropy=7, spawn_key=(spawn_base + j,))
            strat = perturb_strategy(honest, sigma, np.random.default_rng(seq))
            rep = pauli_rigidity_report(game, strat)
            assert pt == {
                "sigma": sigma,
                "eps": rep["epsilon"],
                "lhs": rep["prop_lhs"],
                "bound": rep["prop_bound"],
                "closeness": rep["closeness"]["strategy_distance"],
                "cc_eps": rep["c_alpha"] * rep["c_beta"] * rep["epsilon"],
            }
            assert _report_numbers(streamed[j]) == _report_numbers(rep)


def _unreadable():
    """A stream whose first ``next()`` raises."""
    raise AssertionError("a PVM was read")
    yield


def test_a_refused_rounding_reads_no_pvm(monkeypatch):
    """Under a cap of 511 the Hamming rounding (extension order 512) is
    refused before the report reads its first PVM, and before a full sweep
    point draws its first noise unitary."""
    game = named_game("hamming")
    honest = honest_strategy(game)
    monkeypatch.setattr(algebra, "ROUNDING_DIM_CAP", 511)
    strat = SynchronousStrategy(honest.algebra, {})
    strat.pvms = type("Unreadable", (), {"items": staticmethod(_unreadable)})()
    with pytest.raises(ResourceCap, match="512"):
        pauli_rigidity_report(game, strat)
    with pytest.raises(ResourceCap, match="512"):
        _rigidity(game, honest.algebra, _unreadable(), rounding=True)
    monkeypatch.setattr(games, "_noise_unitaries", lambda *args: _unreadable())
    with pytest.raises(ResourceCap, match="512"):
        rigidity_sweep(game, honest, [0.05], full_report=True)


def test_full_hamming_point_holds_no_perturbed_strategy():
    """Under tracemalloc, a full Hamming sweep point, rounding included,
    peaks below three times a whole perturbed strategy's projections: it
    streams the perturbed PVMs as the quick point does and keeps only PX and
    PZ for the rounding."""
    game = named_game("hamming")
    honest = honest_strategy(game)
    projections = _perturbed_strategy_bytes(honest)
    rigidity_sweep(game, honest, [0.05], full_report=True)  # fill the caches once
    tracemalloc.start()
    try:
        rigidity_sweep(game, honest, [0.05], full_report=True)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3 * projections
