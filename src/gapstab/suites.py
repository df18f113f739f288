"""Randomized verification suites behind the command-line ``verify`` driver.

Each suite draws deterministic per-trial seeds from a single entropy value,
checks one of the library's guaranteed inequalities on every trial, and
returns a :class:`SuiteResult` carrying pass/fail, the worst measured
ratio against the guaranteed constant, and the per-trial rows that the CLI
writes out as CSV.  Aggregation uses only sums and maxima, so trial order
never matters.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import stability
from .abelian import boolean_group, cyclic, regular_rep, rep_from_pvm
from .algebra import (
    AlgebraElement,
    AlmostHom,
    TracialAlgebra,
    UnitaryRep,
    commutator_gap_check,
    conditional_expectation_commutant,
    defect,
    haar_unitary,
    nearest_unitary_in_commutant,
)
from .codes import code_new, measure_from_code, random_code
from .errors import GapstabError, InvalidArgument
from .games import (
    SynchronousStrategy,
    _joint_pvm,
    _magic_grid,
    _sign_pvm,
    anticommutation_bound_check,
    commutation_bound_check,
    commutation_game,
    game_from_code,
    honest_strategy,
    line_cells,
    magic_square_game,
    pauli_pvms,
    pauli_rigidity_report,
    perturb_strategy,
    twisted_defect,
    value,
    _CELLS,
    _LINES,
)
from .groups import ProductGroup, symmetric_group
from .spectral import ProbMeasure, kappa, poincare_residual

_SLACK_REL = 1e-9
_SLACK_ABS = 1e-12


def _holds(lhs: float, bound: float) -> bool:
    return lhs <= bound * (1 + _SLACK_REL) + _SLACK_ABS


def _ratio(lhs: float, bound: float) -> float:
    if bound > 1e-300:
        return lhs / bound
    return 0.0 if lhs <= _SLACK_ABS else math.inf


def _rng(seed: int, i: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(i,)))


@dataclass
class SuiteResult:
    """Outcome of one named verification suite."""

    name: str
    constant: float
    trials: int
    failures: int
    worst_ratio: float
    header: tuple
    rows: list
    details: dict = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return self.failures == 0

    def summary(self) -> str:
        state = "PASS" if self.passed else "FAIL"
        return (
            f"[{state}] {self.name}: {self.trials} trials, "
            f"{self.failures} violations, constant {self.constant:g}, "
            f"worst ratio {self.worst_ratio:.3e}"
        )


# -- suite lemma17: value forces commutation----------------------------------------


def _random_commuting_strategy(game, d: int, rng) -> SynchronousStrategy:
    """Perfect commutation-game strategy from a random shared eigenbasis."""
    alg = TracialAlgebra.matrix(d)
    u = haar_unitary(d, rng)
    s = rng.integers(0, 2, size=d) * 2 - 1
    t = rng.integers(0, 2, size=d) * 2 - 1
    p = (u * s) @ u.conj().T
    q = (u * t) @ u.conj().T
    return SynchronousStrategy(
        alg,
        {
            "x1": _sign_pvm(alg, p),
            "x2": _sign_pvm(alg, q),
            "y": _joint_pvm(alg, game.answers["y"], [p, q]),
        },
    )


def suite_lemma17(trials: int = 500, seed: int = 7, dim_cap: int = 4096) -> SuiteResult:
    """Perturbed commutation-game strategies against the 16e and 64e bounds."""
    game = commutation_game((-1, 1), (-1, 1))
    rows = []
    failures = 0
    worst = 0.0
    for i in range(trials):
        rng = _rng(seed, i)
        d = int(rng.integers(2, 33))
        sigma = 10.0 ** rng.uniform(-2.5, -0.5)
        strat = perturb_strategy(_random_commuting_strategy(game, d, rng), sigma, rng)
        eps = 1.0 - value(game, strat)
        chk = commutation_bound_check(strat, eps)
        ok = _holds(chk.lhs_projections, chk.bound_projections) and _holds(
            chk.lhs_unitary, chk.bound_unitary
        )
        failures += not ok
        worst = max(
            worst,
            _ratio(chk.lhs_projections, chk.bound_projections),
            _ratio(chk.lhs_unitary, chk.bound_unitary),
        )
        rows.append(
            (
                i,
                d,
                sigma,
                eps,
                chk.lhs_projections,
                chk.bound_projections,
                chk.lhs_unitary,
                chk.bound_unitary,
            )
        )
    return SuiteResult(
        "lemma17",
        16.0,
        trials,
        failures,
        worst,
        ("trial", "dim", "sigma", "eps", "lhs_proj", "bound_proj", "lhs_unit", "bound_unit"),
        rows,
    )


# -- suite lemma19: value forces anticommutation------------------------------------


def _random_grid_strategy(game, k: int, rng) -> SynchronousStrategy:
    """Perfect magic-square strategy around a conjugated anticommuting pair."""
    sx = np.array([[0.0, 1.0], [1.0, 0.0]])
    sz = np.array([[1.0, 0.0], [0.0, -1.0]])
    u = haar_unitary(2 * k, rng)
    p = u @ np.kron(sx, np.eye(k)) @ u.conj().T
    q = u @ np.kron(sz, np.eye(k)) @ u.conj().T
    grid = _magic_grid(p, q)
    alg = TracialAlgebra.matrix(4 * k)
    pvms = {}
    for cell in _CELLS:
        pvms[cell] = _sign_pvm(alg, grid[cell])
    for line in _LINES:
        pvms[line] = _joint_pvm(
            alg, game.answers[line], [grid[c] for c in line_cells(line)]
        )
    return SynchronousStrategy(alg, pvms)


def suite_lemma19(trials: int = 500, seed: int = 7, dim_cap: int = 4096) -> SuiteResult:
    """Perturbed magic-square strategies against the 432e bound."""
    game = magic_square_game()
    rows = []
    failures = 0
    eta_violations = 0
    worst = 0.0
    for i in range(trials):
        rng = _rng(seed, i)
        k = int(rng.integers(1, 9))  # strategy dimension 4k <= 32
        sigma = 10.0 ** rng.uniform(-2.5, -0.6)
        strat = perturb_strategy(_random_grid_strategy(game, k, rng), sigma, rng)
        eps = 1.0 - value(game, strat)
        chk = anticommutation_bound_check(strat, eps)
        ok = _holds(chk.lhs, chk.bound)
        failures += not ok
        eta_violations += not _holds(chk.eta_square_sum, chk.eta_square_bound)
        worst = max(worst, _ratio(chk.lhs, chk.bound))
        rows.append(
            (i, 4 * k, sigma, eps, chk.lhs, chk.bound, chk.eta_square_sum, chk.eta_square_bound)
        )
    return SuiteResult(
        "lemma19",
        432.0,
        trials,
        failures,
        worst,
        ("trial", "dim", "sigma", "eps", "lhs", "bound", "eta_sq_sum", "eta_sq_budget"),
        rows,
        details={"eta_budget_violations": eta_violations},
    )


# -- Gowers-Hatami rounding --------------------------------------------------------


def _rep_pool_entry(idx: int, rng) -> UnitaryRep:
    """A small exact representation: |G| <= 24, dimension <= 8."""
    kind = idx % 4
    if kind == 0:
        return regular_rep(cyclic(int(rng.integers(2, 9))))
    if kind == 1:
        return regular_rep(boolean_group(int(rng.integers(1, 4))))
    if kind == 2:
        n = 4 if rng.integers(0, 2) else 3  # S4 hits the |G| = 24 edge
        grp = symmetric_group(n)
        alg = TracialAlgebra.matrix(n)
        images = {}
        for g in grp.elements:
            m = np.zeros((n, n), dtype=complex)
            for src, dst in enumerate(g):
                m[dst, src] = 1.0
            images[g] = AlgebraElement(alg, [m])
        return UnitaryRep(grp, alg, images, check="none")
    two = cyclic(2)
    s3 = symmetric_group(3)
    grp = ProductGroup(two, s3)
    alg = TracialAlgebra.matrix(6)
    flip = {(0,): np.eye(2), (1,): np.array([[0.0, 1.0], [1.0, 0.0]])}
    images = {}
    for a, g in grp.elements:
        m = np.zeros((3, 3), dtype=complex)
        for src, dst in enumerate(g):
            m[dst, src] = 1.0
        images[(a, g)] = AlgebraElement(alg, [np.kron(flip[a], m)])
    return UnitaryRep(grp, alg, images, check="none")


def _noisy_hom(rep: UnitaryRep, sigma: float, rng) -> AlmostHom:
    """Independent unitary noise e^{i sigma H} on every image."""
    alg = rep.algebra
    images = {}
    for g in rep.group.elements:
        blocks = []
        for b in rep.images[g].blocks:
            d = b.shape[0]
            h = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
            h = (h + h.conj().T) / 2
            nrm = np.linalg.norm(h, 2)
            if nrm > 0:
                h /= nrm
            vals, vecs = np.linalg.eigh(h)
            blocks.append(((vecs * np.exp(1j * sigma * vals)) @ vecs.conj().T) @ b)
        images[g] = AlgebraElement(alg, blocks)
    return AlmostHom(rep.group, alg, images)


def suite_gh(trials: int = 200, seed: int = 7, dim_cap: int = 4096) -> SuiteResult:
    """Random almost-homomorphisms through the full rounding pipeline."""
    rows = []
    failures = 0
    worst = 0.0
    exact_trials = 0
    for i in range(trials):
        rng = _rng(seed, i)
        rep = _rep_pool_entry(i, rng)
        exact = i % 20 == 0
        sigma = 0.0 if exact else 10.0 ** rng.uniform(-2.85, -0.5)
        phi = _noisy_hom(rep, sigma, rng)
        eps = defect(phi)
        try:
            cert = stability.gowers_hatami_round(phi)
        except GapstabError:
            failures += 1
            rows.append((i, rep.group.order, sum(rep.algebra.dims), eps) + (math.nan,) * 4)
            continue
        rep_report = cert.report()
        dist = rep_report["distance"]
        ok = _holds(dist, 169.0 * eps) and _holds(rep_report["trace_excess"], 16.0 * eps)
        if exact:
            exact_trials += 1
            ok = ok and dist < 1e-10
        failures += not ok
        worst = max(worst, _ratio(dist, 169.0 * eps))
        rows.append(
            (
                i,
                rep.group.order,
                sum(rep.algebra.dims),
                eps,
                dist,
                169.0 * eps,
                rep_report["trace_excess"],
                16.0 * eps,
            )
        )
    return SuiteResult(
        "gh",
        169.0,
        trials,
        failures,
        worst,
        ("trial", "group_order", "dim", "eps", "distance", "bound", "trace_excess", "trace_bound"),
        rows,
        details={"exact_trials": exact_trials},
    )


# -- sqrt(2) nearest unitary -------------------------------------------------------


def _small_rep(idx: int, rng) -> UnitaryRep:
    kind = idx % 3
    if kind == 0:
        return regular_rep(cyclic(int(rng.integers(2, 7))))
    if kind == 1:
        return regular_rep(boolean_group(int(rng.integers(1, 3))))
    grp = symmetric_group(3)
    alg = TracialAlgebra.matrix(3)
    images = {}
    for g in grp.elements:
        m = np.zeros((3, 3), dtype=complex)
        for src, dst in enumerate(g):
            m[dst, src] = 1.0
        images[g] = AlgebraElement(alg, [m])
    return UnitaryRep(grp, alg, images, check="none")


def suite_sqrt2(trials: int = 1000, seed: int = 7, dim_cap: int = 4096) -> SuiteResult:
    """Nearest commutant unitary against sqrt(2) times the expectation distance.

    Trial 0 is the tightness witness: the regular two-element group with the
    mean-zero unitary diag(1, -1) achieves the bound exactly.
    """
    rows = []
    failures = 0
    worst = 0.0
    tightness_gap = math.nan
    for i in range(trials):
        rng = _rng(seed, i)
        if i == 0:
            rep = regular_rep(cyclic(2))
            v = AlgebraElement(rep.algebra, [np.diag([1.0, -1.0])])
        else:
            rep = _small_rep(i, rng)
            v = AlgebraElement(
                rep.algebra, [haar_unitary(d, rng) for d in rep.algebra.dims]
            )
        alg = rep.algebra
        u = nearest_unitary_in_commutant(rep, v, rng=np.random.default_rng(7))
        lhs = alg.norm2(v - u)
        rhs = math.sqrt(2.0) * alg.norm2(v - conditional_expectation_commutant(rep, v))
        ok = _holds(lhs, rhs)
        if i == 0:
            tightness_gap = abs(lhs - rhs)
            ok = ok and tightness_gap <= 1e-9 and abs(lhs - math.sqrt(2.0)) <= 1e-9
        failures += not ok
        worst = max(worst, _ratio(lhs, rhs))
        rows.append((i, rep.group.order, sum(alg.dims), lhs, rhs))
    return SuiteResult(
        "sqrt2",
        math.sqrt(2.0),
        trials,
        failures,
        worst,
        ("trial", "group_order", "dim", "lhs", "bound"),
        rows,
        details={"tightness_gap": tightness_gap},
    )


# -- Poincare inequality -----------------------------------------------------------


def _random_generating_measure(group, rng) -> ProbMeasure:
    elements = list(group.elements)
    for _ in range(64):
        size = int(rng.integers(1, min(len(elements), 4) + 1))
        picks = [elements[int(j)] for j in rng.choice(len(elements), size, replace=False)]
        raw = {g: int(rng.integers(1, 6)) for g in picks}
        total = sum(raw.values())
        try:
            mu = ProbMeasure(group, {g: f"{c}/{total}" for g, c in raw.items()})
        except InvalidArgument:
            continue
        if mu.generates():
            return mu
    return ProbMeasure.uniform(group)


def suite_poincare(trials: int = 1000, seed: int = 7, dim_cap: int = 4096) -> SuiteResult:
    """Commutator and vector Poincare inequalities on random measures."""
    rows = []
    failures = 0
    worst = 0.0
    identity_worst = 0.0
    for i in range(trials):
        rng = _rng(seed, i)
        rep = _small_rep(i, rng)
        alg = rep.algebra
        mu = _random_generating_measure(rep.group, rng)
        v = AlgebraElement(
            alg,
            [
                rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
                for d in alg.dims
            ],
        )
        chk = commutator_gap_check(rep, mu, v)
        n = alg.total_dim
        xi = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        vec_lhs, vec_rhs = poincare_residual(rep, mu, xi)
        ok = (
            _holds(chk.lhs, chk.rhs_half)
            and _holds(chk.uniform_average, chk.rhs_full)
            and _holds(vec_lhs, vec_rhs)
        )
        scale = max(1.0, chk.uniform_average)
        identity_gap = abs(chk.uniform_average - 2.0 * chk.lhs) / scale
        ok = ok and identity_gap <= 1e-10
        failures += not ok
        worst = max(worst, _ratio(chk.lhs, chk.rhs_half), _ratio(vec_lhs, vec_rhs))
        identity_worst = max(identity_worst, identity_gap)
        rows.append(
            (i, rep.group.order, chk.lhs, chk.rhs_half, chk.uniform_average, chk.rhs_full, vec_lhs, vec_rhs)
        )
    return SuiteResult(
        "poincare",
        1.0,
        trials,
        failures,
        worst,
        ("trial", "group_order", "lhs", "rhs_half", "uniform", "rhs_full", "vec_lhs", "vec_rhs"),
        rows,
        details={"identity_worst_gap": identity_worst},
    )


# -- amplification (plain and twisted) ---------------------------------------------


def _code_measure(n: int, rng) -> ProbMeasure:
    length = int(rng.integers(n, 13))
    code = random_code(2, length, n, 1, rng=rng)
    _, mu, _ = measure_from_code(code)
    return mu


def _conjugated_pauli_reps(n: int, rng):
    """Translation and modulation representations under independent unitaries."""
    tau_x, tau_z = pauli_pvms(n)
    grp = boolean_group(n)
    alg = tau_x.algebra
    cu = AlgebraElement(alg, [haar_unitary(d, rng) for d in alg.dims])
    cv = AlgebraElement(alg, [haar_unitary(d, rng) for d in alg.dims])
    u = rep_from_pvm(tau_x.conjugated(cu), grp)
    v = rep_from_pvm(tau_z.conjugated(cv), grp.dual())
    return u, v


def suite_thm12(trials: int = 500, seed: int = 7, dim_cap: int = 4096) -> SuiteResult:
    """Commutator amplification with code-derived measures; uniform equality."""
    rows = []
    failures = 0
    eq_failures = 0
    worst = 0.0
    for i in range(trials):
        rng = _rng(seed, i)
        n = int(rng.integers(1, 5))
        u, v = _conjugated_pauli_reps(n, rng)
        mu = _code_measure(n, rng)
        nu = _code_measure(n, rng)
        nu = ProbMeasure(v.group, dict(nu.items_nonzero()))
        chk = stability.commutator_amplification_check(u, v, mu, nu)
        ok = _holds(chk.lhs, chk.rhs)
        if i % 5 == 0:
            ueq = stability.commutator_amplification_check(
                u, v, ProbMeasure.uniform(u.group), ProbMeasure.uniform(v.group)
            )
            eq_gap = abs(ueq.lhs - ueq.rhs)
            if eq_gap > 1e-10 * max(1.0, ueq.rhs):
                eq_failures += 1
                ok = False
        failures += not ok
        worst = max(worst, _ratio(chk.lhs, chk.rhs))
        rows.append((i, n, chk.lhs, chk.rhs))
    return SuiteResult(
        "thm12",
        1.0,
        trials,
        failures,
        worst,
        ("trial", "qubits", "lhs", "bound"),
        rows,
        details={"uniform_equality_failures": eq_failures},
    )


def suite_cor14(trials: int = 500, seed: int = 7, dim_cap: int = 4096) -> SuiteResult:
    """Twisted amplification; the tensor reduction is cross-checked at N <= 3."""
    rows = []
    failures = 0
    eq_failures = 0
    worst = 0.0
    for i in range(trials):
        rng = _rng(seed, i)
        n = int(rng.integers(1, 5))
        u, v = _conjugated_pauli_reps(n, rng)
        mu = _code_measure(n, rng)
        nu_raw = _code_measure(n, rng)
        nu = ProbMeasure(v.group, dict(nu_raw.items_nonzero()))
        chk = stability.twisted_amplification_check(u, v, mu, nu, tensor_cap=128)
        ok = _holds(chk.lhs, chk.rhs)
        if i % 5 == 0:
            ueq = stability.twisted_amplification_check(
                u,
                v,
                ProbMeasure.uniform(u.group),
                ProbMeasure.uniform(v.group),
                tensor_cap=0,
            )
            eq_gap = abs(ueq.lhs - ueq.rhs)
            if eq_gap > 1e-10 * max(1.0, ueq.rhs):
                eq_failures += 1
                ok = False
        failures += not ok
        worst = max(worst, _ratio(chk.lhs, chk.rhs))
        rows.append((i, n, chk.lhs, chk.rhs))
    return SuiteResult(
        "cor14",
        1.0,
        trials,
        failures,
        worst,
        ("trial", "qubits", "lhs", "bound"),
        rows,
        details={"uniform_equality_failures": eq_failures},
    )


# -- suite prop24: rigidity sweep---------------------------------------------------

_REPETITION_GENERATOR = [[1, 1, 1]]
_HAMMING_GENERATOR = [
    [1, 0, 0, 0, 0, 1, 1],
    [0, 1, 0, 0, 1, 0, 1],
    [0, 0, 1, 0, 1, 1, 0],
    [0, 0, 0, 1, 1, 1, 1],
]


def named_game(name: str):
    if name == "repetition":
        return game_from_code(code_new(2, _REPETITION_GENERATOR))
    if name == "hamming":
        return game_from_code(code_new(2, _HAMMING_GENERATOR))
    raise InvalidArgument(f"unknown built-in game {name!r}")


def rigidity_sweep(
    game,
    honest,
    sigmas,
    seed: int = 7,
    full_report: bool = True,
    spawn_base: int = 0,
):
    """Perturbation sweep: per-point (sigma, eps, lhs, bound, closeness).

    With ``full_report`` the end-to-end rigidity report runs per point and
    the closeness distance is recorded; otherwise only the twisted
    commutation defect is checked against 1320 c c' eps.
    """
    group = game.h_group
    dual = group.dual()
    c_alpha = float(kappa(group, game.alpha_law).kappa)
    c_beta = float(kappa(dual, game.beta_law).kappa)
    points = []
    for j, sigma in enumerate(sigmas):
        rng = _rng(seed, spawn_base + j)
        strat = perturb_strategy(honest, float(sigma), rng)
        if full_report:
            rep = pauli_rigidity_report(game, strat)
            points.append(
                {
                    "sigma": float(sigma),
                    "eps": rep["epsilon"],
                    "lhs": rep["prop_lhs"],
                    "bound": rep["prop_bound"],
                    "closeness": rep["closeness"]["strategy_distance"],
                    "cc_eps": c_alpha * c_beta * rep["epsilon"],
                }
            )
        else:
            eps = 1.0 - value(game, strat)
            lhs = twisted_defect(
                rep_from_pvm(strat["PX"], group), rep_from_pvm(strat["PZ"], dual)
            )
            points.append(
                {
                    "sigma": float(sigma),
                    "eps": eps,
                    "lhs": lhs,
                    "bound": 1320.0 * c_alpha * c_beta * eps,
                    "closeness": None,
                    "cc_eps": c_alpha * c_beta * eps,
                }
            )
    return points


def _loglog_slope(xs, ys) -> float:
    lx = np.log([x for x, y in zip(xs, ys) if x > 0 and y > 0])
    ly = np.log([y for x, y in zip(xs, ys) if x > 0 and y > 0])
    if len(lx) < 2:
        return math.nan
    return float(np.polyfit(lx, ly, 1)[0])


def suite_prop24(trials: int = 200, seed: int = 7, dim_cap: int = 4096) -> SuiteResult:
    """Rigidity sweep on the repetition- and Hamming-code games.

    Half the points run the end-to-end report on the repetition game (one
    qubit; the rounding fits easily) and the closeness-vs-eps log-log slope
    is fitted there; the other half check the twisted commutation bound on
    the Hamming game at four qubits, where the dilation exceeds the
    dimension cap and only the inequality itself is measured.
    """
    per_game = max(trials // 2, 2)
    sigmas = np.logspace(-2.2, -0.45, per_game)
    rows = []
    failures = 0
    worst = 0.0

    game_r = named_game("repetition")
    hon_r = honest_strategy(game_r)
    rep_points = rigidity_sweep(game_r, hon_r, sigmas, seed=seed, full_report=True)
    for j, pt in enumerate(rep_points):
        ok = _holds(pt["lhs"], pt["bound"])
        failures += not ok
        worst = max(worst, _ratio(pt["lhs"], pt["bound"]))
        rows.append(
            ("repetition", j, pt["sigma"], pt["eps"], pt["lhs"], pt["bound"], pt["closeness"])
        )

    game_h = named_game("hamming")
    hon_h = honest_strategy(game_h)
    ham_points = rigidity_sweep(
        game_h, hon_h, sigmas, seed=seed, full_report=False, spawn_base=per_game
    )
    for j, pt in enumerate(ham_points):
        ok = _holds(pt["lhs"], pt["bound"])
        failures += not ok
        worst = max(worst, _ratio(pt["lhs"], pt["bound"]))
        rows.append(
            ("hamming", j, pt["sigma"], pt["eps"], pt["lhs"], pt["bound"], ""),
        )

    fit = [
        (pt["eps"], pt["closeness"])
        for pt in rep_points
        if pt["eps"] > 1e-9 and pt["closeness"] is not None and pt["closeness"] > 0
    ]
    slope = _loglog_slope([x for x, _ in fit], [y for _, y in fit])
    slope_ok = not math.isnan(slope) and abs(slope - 1.0) <= 0.2
    if not slope_ok:
        failures += 1
    return SuiteResult(
        "prop24",
        1320.0,
        len(rows),
        failures,
        worst,
        ("game", "point", "sigma", "eps", "lhs", "bound", "closeness"),
        rows,
        details={"loglog_slope": slope, "slope_ok": slope_ok},
    )


SUITES = {
    "lemma17": suite_lemma17,
    "lemma19": suite_lemma19,
    "thm12": suite_thm12,
    "cor14": suite_cor14,
    "gh": suite_gh,
    "sqrt2": suite_sqrt2,
    "poincare": suite_poincare,
    "prop24": suite_prop24,
}

DEFAULT_TRIALS = {
    "lemma17": 500,
    "lemma19": 500,
    "thm12": 500,
    "cor14": 500,
    "gh": 200,
    "sqrt2": 1000,
    "poincare": 1000,
    "prop24": 200,
}


def run_suite(name: str, trials: int | None = None, seed: int = 7, dim_cap: int = 4096) -> SuiteResult:
    if name not in SUITES:
        raise InvalidArgument(
            f"unknown suite {name!r}; choose from {', '.join(sorted(SUITES))}"
        )
    if trials is None:
        trials = DEFAULT_TRIALS[name]
    return SUITES[name](trials=trials, seed=seed, dim_cap=dim_cap)
