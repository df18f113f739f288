"""Acceptance gate: eleven criteria, one test per criterion.

Each test asserts the criterion's tolerances and runtime budget and prints a
single summary line; ``pytest -v`` therefore yields one pass/fail line per
criterion.  Tolerances appear next to the asserts they govern.
"""

import itertools
import json
import math
import time
from fractions import Fraction

import numpy as np
import pytest

from gapstab.abelian import boolean_group, cyclic, regular_rep, rep_from_pvm
from gapstab.algebra import (
    PVM,
    AlgebraElement,
    AlmostHom,
    TracialAlgebra,
    defect,
    rep_residual,
)
from gapstab.cli import main as cli_main
from gapstab.codes import LinearCode, measure_from_code, random_code
from gapstab.games import (
    SynchronousStrategy,
    _CELLS,
    _LINES,
    _SIGMA_X,
    _SIGMA_Z,
    _joint_pvm,
    _magic_grid,
    _sign_pvm,
    commutation_game,
    honest_strategy,
    line_cells,
    line_sign,
    magic_square_game,
    pauli_pvms,
    pauli_rigidity_report,
    perturb_strategy,
    value,
)
from gapstab.groups import ProductGroup
from gapstab.spectral import ProbMeasure, kappa
from gapstab.stability import (
    SUBGROUP_CONSTANT,
    equivariance_residual,
    gowers_hatami_round,
    stabilize_product,
    subgroup_closeness_check,
    twisted_amplification_check,
)
from gapstab.suites import named_game, run_suite


def _ok(name, detail):
    print(f"{name} PASS: {detail}")


def _headroom(elapsed, budget):
    """Elapsed time against a runtime budget; under 2x headroom is flagged."""
    ratio = budget / elapsed
    flag = " LOW HEADROOM" if ratio < 2.0 else ""
    return f"{elapsed:.1f}s of {budget:.0f}s budget, headroom {ratio:.1f}x{flag}"


# -- 1. kappa identity on exhaustive and random code families ----------------------


def test_ac01_kappa_identity_exhaustive_and_random():
    t0 = time.monotonic()

    # every binary [K, N] code with N <= 4, K <= 8, up to column permutation:
    # systematic form [I | P] with P's columns taken as a multiset
    count = 0
    for n in range(1, 5):
        for k in range(n, 9):
            for ptuple in itertools.combinations_with_replacement(
                range(2**n), k - n
            ):
                rows = [
                    [1 if j == i else 0 for j in range(n)]
                    + [(c >> i) & 1 for c in ptuple]
                    for i in range(n)
                ]
                code = LinearCode(2, rows)
                predicted = Fraction(1, 2) * Fraction(k, code.distance())
                group, mu, pred2 = measure_from_code(code)
                assert pred2 == predicted
                assert kappa(group, mu).kappa == predicted  # exact rationals
                count += 1
    assert count == 6378

    # 200 random codes over F_2, F_3, F_4, F_5; group order capped for runtime
    rng = np.random.default_rng(1)
    ncap = {2: 6, 3: 6, 4: 5, 5: 4}
    lengths_seen = set()
    for _ in range(200):
        q = int(rng.choice([2, 3, 4, 5]))
        n = int(rng.integers(1, ncap[q] + 1))
        k = int(rng.integers(n, 13))
        code = random_code(q, k, n, 1, rng=rng)
        group, mu, predicted = measure_from_code(code)
        measured = kappa(group, mu).kappa
        if q == 2:
            assert measured == predicted  # exact rationals
        else:
            assert abs(float(measured) - float(predicted)) <= 1e-9
        lengths_seen.add((q, n))
    assert (2, 6) in lengths_seen or (3, 6) in lengths_seen  # N = 6 exercised

    elapsed = time.monotonic() - t0
    assert elapsed < 30.0
    _ok("AC1", f"6378 exhaustive + 200 random codes, {_headroom(elapsed, 30.0)}")


# -- 2. repetition and Hamming anchors ----------------------------------------------


def test_ac02_repetition_and_hamming_anchors():
    rep_code = LinearCode(2, [[1, 1, 1]])
    group, mu, predicted = measure_from_code(rep_code)
    assert predicted == Fraction(1, 2)
    assert kappa(group, mu).kappa == Fraction(1, 2)

    hamming = LinearCode(
        2,
        [
            [1, 0, 0, 0, 0, 1, 1],
            [0, 1, 0, 0, 1, 0, 1],
            [0, 0, 1, 0, 1, 1, 0],
            [0, 0, 0, 1, 1, 1, 1],
        ],
    )
    assert hamming.distance() == 3
    assert hamming.params == (7, 4, 3)
    group, mu, predicted = measure_from_code(hamming)
    assert predicted == Fraction(7, 6)
    assert kappa(group, mu).kappa == Fraction(7, 6)
    _ok("AC2", "kappa = 1/2 and 7/6 by both routes, exact")


# -- 3. Gowers-Hatami rounding ------------------------------------------------------


def test_ac03_gowers_hatami_rounding():
    t0 = time.monotonic()
    res = run_suite("gh", trials=200, seed=7)
    assert res.passed and res.failures == 0, res.summary()
    # rows: (trial, group_order, dim, eps, distance, bound, trace_excess, trace_bound)
    for i, row in enumerate(res.rows):
        _, order, dim, eps, dist, bound, excess, excess_bound = row
        assert order <= 24 and dim <= 8
        if i % 20 == 0:  # exact-representation trials
            assert dist < 1e-10
        else:
            assert 1e-6 <= eps <= 0.5
            assert dist <= bound * (1 + 1e-9)
            assert excess <= excess_bound * (1 + 1e-9) + 1e-12
    spread = [r[3] for i, r in enumerate(res.rows) if i % 20 != 0]
    assert min(spread) < 1e-4 and max(spread) > 1e-2  # defects span the range
    elapsed = time.monotonic() - t0
    assert elapsed < 300.0
    _ok(
        "AC3",
        f"200 trials, worst ratio {res.worst_ratio:.3e}, "
        f"eps in [{min(spread):.1e}, {max(spread):.1e}], {_headroom(elapsed, 300.0)}",
    )


# -- 4. subgroup bound on product-form constructions --------------------------------


def _noisy_unitary(alg, sigma, rng):
    blocks = []
    for d in alg.dims:
        h = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        h = (h + h.conj().T) / 2
        h /= max(np.linalg.norm(h, 2), 1e-300)
        vals, vecs = np.linalg.eigh(h)
        blocks.append((vecs * np.exp(1j * sigma * vals)) @ vecs.conj().T)
    return AlgebraElement(alg, blocks)


def _product_form(a_grp, b_grp, sigma, rng):
    """phi(a, b) = R_A(a) ox (N_b R_B(b)) with N_e = 1: exact along A x {e}."""
    grp = ProductGroup(a_grp, b_grp)
    ra, rb = regular_rep(a_grp), regular_rep(b_grp)
    alg_b = rb.algebra
    alg = TracialAlgebra.matrix(a_grp.order * b_grp.order)
    noise = {
        b: alg_b.identity()
        if b == b_grp.identity
        else _noisy_unitary(alg_b, sigma, rng)
        for b in b_grp.elements
    }
    images = {}
    for a in a_grp.elements:
        for b in b_grp.elements:
            m = np.kron(
                ra.images[a].blocks[0], (noise[b] * rb.images[b]).blocks[0]
            )
            images[(a, b)] = AlgebraElement(alg, [m])
    return grp, AlmostHom(grp, alg, images)


def test_ac04_subgroup_bound_product_form():
    rng = np.random.default_rng(2)
    factories = [
        lambda: cyclic(2),
        lambda: cyclic(3),
        lambda: cyclic(4),
        lambda: boolean_group(2),
    ]
    trials = 0
    worst = 0.0
    for fa in factories:
        for fb in (lambda: cyclic(2), lambda: cyclic(3)):
            for sigma in (0.08, 0.2, 0.35):
                a_grp, b_grp = fa(), fb()
                grp, phi = _product_form(a_grp, b_grp, sigma, rng)
                sub = [(a, b_grp.identity) for a in a_grp.elements]
                assert equivariance_residual(phi, sub) < 1e-10
                cert = gowers_hatami_round(phi)
                close = subgroup_closeness_check(phi, sub, cert)
                # squared form: lhs^2 <= 38^2 eps on every trial
                assert close.lhs**2 <= SUBGROUP_CONSTANT**2 * cert.input_defect
                assert close.lhs <= close.bound
                if close.bound > 0:
                    worst = max(worst, close.lhs / close.bound)
                trials += 1
    assert trials == 24

    # the same construction through the two-stage product stabilization
    for sigma in (0.1, 0.25):
        grp, phi = _product_form(cyclic(2), cyclic(3), sigma, rng)
        mu1 = ProbMeasure.uniform(cyclic(2))
        mu2 = ProbMeasure.uniform(cyclic(3))
        # raises if eta or the stage-two defect exceeds its bound
        pi, report = stabilize_product(phi, mu1, mu2)
        assert report.pi_residual < 1e-8
        assert rep_residual(pi) < 1e-8  # measured on the assembled map itself
    _ok("AC4", f"24 product-form trials, worst lhs/bound {worst:.3e}")


# -- 5. amplification inequality and uniform equality --------------------------------


def test_ac05_amplification_inequality():
    for name in ("thm12", "cor14"):
        res = run_suite(name, trials=500, seed=7)
        assert res.passed and res.failures == 0, res.summary()
        assert res.details["uniform_equality_failures"] == 0

    # equality at uniform measures, checked directly per dimension
    for n in (1, 2, 3):
        grp = boolean_group(n)
        tau_x, tau_z = pauli_pvms(n)
        u = rep_from_pvm(tau_x, grp)
        v = rep_from_pvm(tau_z, grp.dual())
        chk = twisted_amplification_check(
            u, v, ProbMeasure.uniform(grp), ProbMeasure.uniform(grp.dual())
        )
        assert abs(chk.lhs - chk.rhs) <= 1e-10 * max(1.0, abs(chk.rhs))
    _ok("AC5", "500 + 500 trials, uniform equality to 1e-10 at N = 1..3")


# -- 6. Poincare inequality and the sqrt(2) bound ------------------------------------


def test_ac06_poincare_and_sqrt2():
    pres = run_suite("poincare", trials=1000, seed=7)
    assert pres.passed and pres.failures == 0, pres.summary()

    sres = run_suite("sqrt2", trials=1000, seed=7)
    assert sres.passed and sres.failures == 0, sres.summary()
    assert sres.details["tightness_gap"] <= 1e-9  # witness with E_N(V) = 0
    _ok(
        "AC6",
        f"1000 + 1000 trials, sqrt(2) tightness gap {sres.details['tightness_gap']:.1e}",
    )


# -- 7. honest strategies and the magic grid ----------------------------------------


def _commutation_honest():
    alg = TracialAlgebra.matrix(4)
    p = [1, 1, -1, -1]
    q = [1, -1, 1, -1]

    def diag(signs):
        plus = np.diag([(1.0 + s) / 2 for s in signs])
        return PVM(
            alg,
            [-1, 1],
            [AlgebraElement(alg, [np.eye(4) - plus]), AlgebraElement(alg, [plus])],
        )

    pvms = {"x1": diag(p), "x2": diag(q)}
    outcomes = [(a, b) for a in (-1, 1) for b in (-1, 1)]
    pvms["y"] = PVM(
        alg,
        outcomes,
        [
            AlgebraElement(
                alg,
                [np.diag([float(pa == a and qa == b) for pa, qa in zip(p, q)])],
            )
            for a, b in outcomes
        ],
    )
    return SynchronousStrategy(alg, pvms)


def _grid_line_products(strategy, prefix):
    """Worst deviation of the nine reconstructed cell observables' line products."""
    obs = {}
    for cell in _CELLS:
        pvm = strategy[(prefix, cell)]
        obs[cell] = (pvm[1] - pvm[-1]).blocks[0]
    worst = 0.0
    eye = np.eye(obs[(1, 1)].shape[0])
    for line in _LINES:
        prod = eye.astype(complex)
        for c in line_cells(line):
            prod = prod @ obs[c]
        worst = max(worst, float(np.max(np.abs(prod - line_sign(line) * eye))))
    return worst


def test_ac07_honest_game_values():
    vals = {}

    game = commutation_game((-1, 1), (-1, 1))
    vals["commutation"] = value(game, _commutation_honest())

    msq = magic_square_game()
    grid = _magic_grid(_SIGMA_X, _SIGMA_Z)
    alg = TracialAlgebra.matrix(4)
    pvms = {c: _sign_pvm(alg, grid[c]) for c in _CELLS}
    for line in _LINES:
        pvms[line] = _joint_pvm(
            alg, msq.answers[line], [grid[c] for c in line_cells(line)]
        )
    vals["magic-square"] = value(msq, SynchronousStrategy(alg, pvms))

    worst_grid = 0.0
    for name in ("repetition", "hamming"):
        game = named_game(name)
        strat = honest_strategy(game)
        vals[name] = value(game, strat)
        anti = [w for w in game.omega if game.sign(w) == -1]
        assert anti, f"{name} game has no anticommuting branch"
        worst_grid = max(worst_grid, _grid_line_products(strat, anti[0]))

    for name, v in vals.items():
        assert abs(v - 1.0) <= 1e-9, (name, v)
    assert worst_grid <= 1e-10  # line products of reconstructed grid observables
    _ok(
        "AC7",
        "honest values 1 +- 1e-9 on "
        + ", ".join(sorted(vals))
        + f"; grid line products within {worst_grid:.1e}",
    )


# -- 8. perturbed-strategy commutation bounds ----------------------------------------


def test_ac08_perturbed_strategy_bounds():
    r17 = run_suite("lemma17", trials=500, seed=7)
    assert r17.passed and r17.failures == 0, r17.summary()
    dim_col = r17.header.index("dim")
    assert max(row[dim_col] for row in r17.rows) <= 32

    r19 = run_suite("lemma19", trials=500, seed=7)
    assert r19.passed and r19.failures == 0, r19.summary()
    dim_col = r19.header.index("dim")
    assert max(row[dim_col] for row in r19.rows) <= 32
    _ok(
        "AC8",
        f"500 + 500 trials; worst ratios {r17.worst_ratio:.3e} (16/64 eps), "
        f"{r19.worst_ratio:.3e} (432 eps)",
    )


# -- 9. rigidity sweep scaling -------------------------------------------------------


def test_ac09_rigidity_sweep_scaling():
    t0 = time.monotonic()
    res = run_suite("prop24", trials=200, seed=7)
    assert res.passed and res.failures == 0, res.summary()
    slope = res.details["loglog_slope"]
    assert res.details["slope_ok"]
    assert abs(slope - 1.0) <= 0.2
    elapsed = time.monotonic() - t0
    assert elapsed < 600.0
    _ok("AC9", f"200 sweep points, log-log slope {slope:.3f}, {_headroom(elapsed, 600.0)}")


# -- 10. replay determinism ----------------------------------------------------------


def test_ac10_replay_determinism(tmp_path, capsys):
    for suite, trials in (("poincare", 40), ("lemma17", 12)):
        outputs = []
        for tag in ("a", "b"):
            out = tmp_path / f"{suite}-{tag}.csv"
            man = tmp_path / f"{suite}-{tag}.json"
            man.write_text(
                json.dumps(
                    {
                        "operation": "verify",
                        "seed": 13,
                        "parameters": {"suite": suite, "trials": trials},
                        "out": str(out),
                    }
                )
            )
            assert cli_main(["run", str(man)]) == 0
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1], f"{suite} replay diverged"
    capsys.readouterr()
    _ok("AC10", "manifest replays byte-identical for poincare and lemma17")


# -- 11. the Hamming rigidity report end to end --------------------------------------


def test_ac11_hamming_rigidity_report():
    """One full report on a perturbed Hamming [7,4,3] strategy (four qubits,
    449 questions): every bound of the chain holds and the closeness
    constant strategy_distance / (c c' eps) is finite."""
    game = named_game("hamming")
    strat = perturb_strategy(honest_strategy(game), 0.05, np.random.default_rng(0))
    t0 = time.monotonic()
    rep = pauli_rigidity_report(game, strat)
    elapsed = time.monotonic() - t0
    assert rep["epsilon"] > 1e-4
    assert rep["epsilon_sum"] <= rep["epsilon_sum_bound"] * (1 + 1e-9) + 1e-12
    assert rep["prop_lhs"] <= rep["prop_bound"] * (1 + 1e-9) + 1e-12
    bound = 30000.0 * rep["rounding_epsilon"]
    assert max(rep["rounding_distance_u"], rep["rounding_distance_v"]) <= bound
    assert rep["relation_residual"] <= 1e-9
    assert rep["bridge_residual"] <= 1e-12
    constant = rep["closeness_constant"]
    assert constant is not None and math.isfinite(constant)
    assert elapsed < 30.0
    _ok(
        "AC11",
        f"Hamming report eps {rep['epsilon']:.2e}, prop ratio {rep['prop_ratio']:.3e}, "
        f"closeness constant {constant:.3f}, {_headroom(elapsed, 30.0)}",
    )
