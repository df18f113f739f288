"""The three benchmark workloads: seeded inputs, operations and their checks.

Inputs are built only through gapstab's public API, so refactors of the
program's private helpers do not change what the benchmark measures.  Every
gapstab function is looked up through its module at call time (``gs.games.
value``, never a name imported once), so the tracer's wrappers see each call.

An operation is an :class:`Op`: a fingerprint key, the seeded parameters it
was generated from, and a closure that runs a chain of public calls, checks
the certified result and returns its certificate numbers.  A check that fails
raises :class:`CheckFailed`.
"""

from __future__ import annotations

import itertools
import os
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

import numpy as np

import gapstab as gs

HERE = os.path.dirname(os.path.abspath(__file__))

# Slack on "lhs <= bound" checks: relative VALIDATION_TOL plus an absolute
# floor for bounds that are zero up to rounding, as in gapstab.suites.
SLACK_REL = 1e-9
SLACK_ABS = 1e-12


class CheckFailed(Exception):
    """A certified bound or exact identity did not hold."""


@dataclass
class Op:
    key: str
    params: tuple
    run: Callable[[], dict]


def seeded_rng(seed: int, *keys: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=keys))


def require(lhs: float, bound: float, label: str) -> None:
    if not lhs <= bound * (1 + SLACK_REL) + SLACK_ABS:
        raise CheckFailed(f"{label}: {lhs!r} exceeds its bound {bound!r}")


def log_uniform(rng, lo: float, hi: float) -> float:
    return float(10.0 ** rng.uniform(lo, hi))


# -- input builders on the public API ------------------------------------------


def sign_pvm(alg, mat):
    eye = np.eye(mat.shape[0])
    return gs.algebra.PVM(
        alg, [-1, 1], [alg.element([(eye - mat) / 2]), alg.element([(eye + mat) / 2])]
    )


def joint_pvm(alg, outcomes, mats):
    """Joint spectral PVM of commuting involutions, one projection per sign tuple."""
    eye = np.eye(mats[0].shape[0])
    projs = []
    for signs in outcomes:
        m = eye.astype(complex)
        for s, obs in zip(signs, mats):
            m = m @ (eye + s * obs) / 2
        projs.append(alg.element([m]))
    return gs.algebra.PVM(alg, list(outcomes), projs)


def commuting_strategy(game, d: int, rng):
    """Perfect commutation-game strategy from a random shared eigenbasis."""
    alg = gs.algebra.TracialAlgebra.matrix(d)
    u = gs.algebra.haar_unitary(d, rng)
    p = (u * (rng.integers(0, 2, size=d) * 2 - 1)) @ u.conj().T
    q = (u * (rng.integers(0, 2, size=d) * 2 - 1)) @ u.conj().T
    pvms = {
        "x1": sign_pvm(alg, p),
        "x2": sign_pvm(alg, q),
        "y": joint_pvm(alg, game.answers["y"], [p, q]),
    }
    return gs.games.SynchronousStrategy(alg, pvms)


_SX = np.array([[0.0, 1.0], [1.0, 0.0]])
_SZ = np.array([[1.0, 0.0], [0.0, -1.0]])
# Mermin-Peres grid over an anticommuting pair (P, Q) and an auxiliary qubit
# (X, Z); P and Q sit at the distinguished cells (1,1) and (2,2).
_GRID = {
    (1, 1): "P", (1, 2): "Z", (1, 3): "PZ",
    (2, 1): "X", (2, 2): "Q", (2, 3): "QX",
    (3, 1): "PX", (3, 2): "QZ", (3, 3): "PQXZ",
}
_LINES = tuple(("h", i) for i in (1, 2, 3)) + tuple(("v", j) for j in (1, 2, 3))


def grid_strategy(game, k: int, rng):
    """Perfect magic-square strategy of dimension 4k around a rotated pair."""
    u = gs.algebra.haar_unitary(2 * k, rng)
    gens = {
        "P": np.kron(u @ np.kron(_SX, np.eye(k)) @ u.conj().T, np.eye(2)),
        "Q": np.kron(u @ np.kron(_SZ, np.eye(k)) @ u.conj().T, np.eye(2)),
        "X": np.kron(np.eye(2 * k), _SX),
        "Z": np.kron(np.eye(2 * k), _SZ),
    }
    grid = {cell: np.linalg.multi_dot([np.eye(4 * k)] + [gens[c] for c in word])
            for cell, word in _GRID.items()}
    alg = gs.algebra.TracialAlgebra.matrix(4 * k)
    pvms = {cell: sign_pvm(alg, m) for cell, m in grid.items()}
    for line in _LINES:
        cells = gs.games.line_cells(line)
        pvms[line] = joint_pvm(alg, game.answers[line], [grid[c] for c in cells])
    return gs.games.SynchronousStrategy(alg, pvms)


def permutation_rep(grp, flip=None):
    """Permutation representation of a permutation group, optionally tensored
    with the sign-flip representation of a leading Z/2 factor."""
    alg_dim = len(grp.identity) if flip is None else 2 * len(grp.second.identity)
    alg = gs.algebra.TracialAlgebra.matrix(alg_dim)
    swap = {(0,): np.eye(2), (1,): _SX}
    images = {}
    for g in grp.elements:
        perm = g if flip is None else g[1]
        m = np.zeros((len(perm), len(perm)))
        for src, dst in enumerate(perm):
            m[dst, src] = 1.0
        if flip is not None:
            m = np.kron(swap[g[0]], m)
        images[g] = alg.element([m])
    return gs.algebra.UnitaryRep(grp, alg, images)


def small_rotation(d: int, sigma: float, rng) -> np.ndarray:
    """e^{i sigma H} with H Gaussian self-adjoint of operator norm 1."""
    h = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    h = (h + h.conj().T) / 2
    h /= np.linalg.norm(h, 2)
    vals, vecs = np.linalg.eigh(h)
    return (vecs * np.exp(1j * sigma * vals)) @ vecs.conj().T


def noisy_hom(rep, sigma: float, rng):
    """Independent unitary noise on every image of an exact representation."""
    alg = rep.algebra
    images = {
        g: alg.element([small_rotation(b.shape[0], sigma, rng) @ b for b in rep.images[g].blocks])
        for g in rep.group.elements
    }
    return gs.algebra.AlmostHom(rep.group, alg, images)


# -- kappa-codes ----------------------------------------------------------------

# random-code dimension caps per field size, as in the AC1 acceptance test
_RANDOM_DIM_CAP = {2: 6, 3: 6, 4: 5, 5: 4}
RANDOM_PER_FIELD = 50
# codes per pass from an exhaustive binary shape class of size n:
# CLASS_WEIGHT * sqrt(n), about 5600 binary codes per pass in all
CLASS_WEIGHT = 25


class KappaCodes:
    """measure_from_code + distance + kappa per code, exact for q = 2."""

    name = "kappa-codes"

    def build(self, seed: int) -> dict:
        family = []
        for n in range(1, 5):
            for k in range(n, 9):
                for cols in itertools.combinations_with_replacement(range(2**n), k - n):
                    rows = [
                        [int(j == i) for j in range(n)] + [(c >> i) & 1 for c in cols]
                        for i in range(n)
                    ]
                    family.append((f"x{len(family)}", 2, np.array(rows, dtype=np.int64)))
        rng = seeded_rng(seed, 0)
        for q, cap in _RANDOM_DIM_CAP.items():
            for j in range(RANDOM_PER_FIELD):
                n = 1 + j % cap  # every dimension equally often
                k = int(rng.integers(n, 13))
                code = gs.codes.random_code(q, k, n, 1, rng=rng)
                family.append((f"r{q}.{j}", q, code.generator))
        return {"seed": seed, "family": family}

    def _op(self, entry) -> Op:
        label, q, gen = entry

        def run():
            code = gs.codes.LinearCode(gs.codes.finite_field(q), gen)
            d = code.distance()
            group, mu, predicted = gs.codes.measure_from_code(code)
            measured = gs.spectral.kappa(group, mu).kappa
            if predicted != Fraction(q - 1, q) * Fraction(code.length, d):
                raise CheckFailed(f"{label}: predicted kappa {predicted} is not ((q-1)/q) K/d")
            if q == 2:
                if measured != predicted:
                    raise CheckFailed(f"{label}: kappa {measured} != {predicted} exactly")
            elif not abs(float(measured) - float(predicted)) <= 1e-9:
                raise CheckFailed(f"{label}: kappa {measured} != {predicted} to 1e-9")
            return {"d": d, "kappa": measured}

        return Op(label, (q, gen.shape, gen.tobytes()), run)

    def pass_quotas(self, state):
        """Family indices grouped by shape class, with codes per pass for each.

        Every random code is its own class and runs once per pass.  An
        exhaustive binary class (K, N) runs CLASS_WEIGHT * sqrt(size) codes
        per pass, cycling through its members in a seeded order, so every
        code still runs.  Visiting each code once instead would make 59% of
        the operations (K, N) = (8, 4) codes of nearly one cost: the latency
        median then sits in one narrow peak and jumps between the fast and
        slow phases of a shared machine.  The square-root weights spread the
        middle of the distribution over a ramp of shapes instead.
        """
        shapes = {}
        quotas = []
        for i, (label, _, gen) in enumerate(state["family"]):
            if label.startswith("x"):
                shapes.setdefault(gen.shape, []).append(i)
            else:
                quotas.append(([i], 1))
        rng = seeded_rng(state["seed"], 4)
        for members in shapes.values():
            order = [members[j] for j in rng.permutation(len(members))]
            quotas.append((order, round(CLASS_WEIGHT * len(members) ** 0.5)))
        return quotas

    def rounds(self, state):
        """One code per round; each pass runs the class quotas in a new seeded order."""
        family = state["family"]
        quotas = self.pass_quotas(state)
        for c in itertools.count():
            picks = [
                members[(c * quota + j) % len(members)]
                for members, quota in quotas
                for j in range(quota)
            ]
            for i in seeded_rng(state["seed"], 1, c).permutation(len(picks)):
                yield [self._op(family[picks[i]])]

    def traced_ops(self, state):
        """Every code of the family once, in a seeded order."""
        family = state["family"]
        return [self._op(family[i]) for i in seeded_rng(state["seed"], 1).permutation(len(family))]

    def reference_ops(self, state):
        return [self._op(entry) for entry in state["family"]]

    def manifest(self, seed: int):
        return {
            "operation": "code",
            "seed": seed,
            "parameters": {"path": os.path.join(HERE, "hamming.code")},
        }


class CycleWorkload:
    """A workload whose rounds are numbered cycles of fixed slots."""

    trace_cycles: int
    reference_cycles: int

    def rounds(self, state):
        for c in itertools.count():
            yield self.cycle(state, c)

    def traced_ops(self, state):
        return [op for c in range(self.trace_cycles) for op in self.cycle(state, c)]

    def reference_ops(self, state):
        return [op for c in range(self.reference_cycles) for op in self.cycle(state, c)]


# -- pauli-bounds ---------------------------------------------------------------

# One cycle's slots.  Dimensions and code lengths are fixed per slot and only
# the perturbations are seeded, so a cycle costs about the same on any seed.
# Every lemma17 dimension keeps the median inside the lemma17 band; the extra
# N = 3, 4 amplification slots keep the p90 inside the amplification band.
L17_DIMS = tuple(range(2, 33))
L19_HALF_DIMS = tuple(range(1, 9))
AMP_QUBITS = (1, 2, 3, 4, 3, 4)
AMP_CODE_LENGTH = 8


class PauliBounds(CycleWorkload):
    """Perturb a perfect strategy, take its value, check the paper's bound."""

    name = "pauli-bounds"
    trace_cycles = 2
    reference_cycles = 24

    def build(self, seed: int) -> dict:
        rng = seeded_rng(seed, 0)
        commutation = gs.games.commutation_game((-1, 1), (-1, 1))
        magic = gs.games.magic_square_game()
        measures = {}
        for kind in ("thm12", "cor14"):
            for n in sorted(set(AMP_QUBITS)):
                pair = []
                for _ in range(2):
                    code = gs.codes.random_code(2, AMP_CODE_LENGTH, n, 1, rng=rng)
                    _, mu, _ = gs.codes.measure_from_code(code)
                    pair.append(dict(mu.items_nonzero()))
                measures[kind, n] = pair
        hamming = gs.suites.named_game("hamming")
        return {
            "seed": seed,
            "commutation": commutation,
            "magic": magic,
            "l17": {d: commuting_strategy(commutation, d, rng) for d in L17_DIMS},
            "l19": {k: grid_strategy(magic, k, rng) for k in L19_HALF_DIMS},
            "paulis": {n: gs.games.pauli_pvms(n) for n in AMP_QUBITS},
            "measures": measures,
            "hamming": hamming,
            "hamming_honest": gs.games.honest_strategy(hamming),
        }

    def cycle(self, state, c: int):
        seed = state["seed"]
        slots = (
            [("lemma17", d) for d in L17_DIMS]
            + [("lemma19", k) for k in L19_HALF_DIMS]
            + [(kind, n) for kind in ("thm12", "cor14") for n in AMP_QUBITS]
            + [("hamming", 0)]
        )
        ops = []
        for s, (kind, size) in enumerate(slots):
            rng = seeded_rng(seed, 2, c, s)
            sigma = log_uniform(rng, -2.0, -0.6)
            make = getattr(self, "_" + kind)
            ops.append(Op(f"{c}.{s}", (kind, size, sigma), make(state, size, sigma, rng, c)))
        return ops

    def _lemma17(self, state, d, sigma, rng, c):
        def run():
            strat = gs.games.perturb_strategy(state["l17"][d], sigma, rng)
            eps = 1.0 - gs.games.value(state["commutation"], strat)
            chk = gs.games.commutation_bound_check(strat, eps)
            require(chk.lhs_projections, chk.bound_projections, "lemma17 16 eps")
            require(chk.lhs_unitary, chk.bound_unitary, "lemma17 64 eps")
            return {"eps": eps, "lhs": chk.lhs_projections, "lhs_unitary": chk.lhs_unitary}

        return run

    def _lemma19(self, state, k, sigma, rng, c):
        def run():
            strat = gs.games.perturb_strategy(state["l19"][k], sigma, rng)
            eps = 1.0 - gs.games.value(state["magic"], strat)
            chk = gs.games.anticommutation_bound_check(strat, eps)
            require(chk.lhs, chk.bound, "lemma19 432 eps")
            return {"eps": eps, "lhs": chk.lhs}

        return run

    def _amplification(self, state, kind, n, rng, check):
        tau_x, tau_z = state["paulis"][n]
        alg = tau_x.algebra
        mu_w, nu_w = state["measures"][kind, n]

        def run():
            grp = gs.abelian.boolean_group(n)
            dual = grp.dual()
            cu = alg.element([gs.algebra.haar_unitary(d, rng) for d in alg.dims])
            cv = alg.element([gs.algebra.haar_unitary(d, rng) for d in alg.dims])
            u = gs.abelian.rep_from_pvm(tau_x.conjugated(cu), grp)
            v = gs.abelian.rep_from_pvm(tau_z.conjugated(cv), dual)
            mu = gs.spectral.ProbMeasure(grp, mu_w)
            nu = gs.spectral.ProbMeasure(dual, nu_w)
            chk = check(u, v, mu, nu)
            require(chk.lhs, chk.rhs, f"{kind} amplification")
            return {"lhs": chk.lhs, "rhs": chk.rhs}

        return run

    def _thm12(self, state, n, sigma, rng, c):
        return self._amplification(
            state, "thm12", n, rng, gs.stability.commutator_amplification_check
        )

    def _cor14(self, state, n, sigma, rng, c):
        def check(u, v, mu, nu):
            return gs.stability.twisted_amplification_check(u, v, mu, nu, tensor_cap=128)

        return self._amplification(state, "cor14", n, rng, check)

    def _hamming(self, state, j, sigma, rng, c):
        def run():
            (pt,) = gs.suites.rigidity_sweep(
                state["hamming"],
                state["hamming_honest"],
                [sigma],
                seed=state["seed"],
                full_report=False,
                spawn_base=c,
            )
            require(pt["lhs"], pt["bound"], "prop24 1320 c c' eps")
            return {"eps": pt["eps"], "lhs": pt["lhs"]}

        return run

    def manifest(self, seed: int):
        return {
            "operation": "verify",
            "seed": seed,
            "parameters": {"suite": "lemma19", "trials": 12},
        }


# -- rounding -------------------------------------------------------------------

# (label, copies per cycle).  Small entries are AC3-pool maps (|G| <= 24,
# dim <= 8); large ones are regular representations at n*m = 256 and 1024.
# The operations around the median form a ramp of sizes (d4 .. c2xs3, then
# the reports) rather than one block of equal cost, which would put the median
# on the jump between fast and slow phases of a shared machine.  The p90 falls
# in the n*m = 256 band.
ROUNDING_SLOTS = (
    ("cyclic2", 1), ("cyclic3", 1), ("cyclic4", 1), ("cyclic5", 1),
    ("cyclic6", 1), ("cyclic7", 1), ("boolean1", 1), ("boolean2", 1),
    ("s3", 1), ("s3-regular", 1),
    ("d4", 1), ("cyclic8", 1), ("d4-regular", 1), ("z2xz4", 1), ("boolean3", 1),
    ("a4", 2), ("c2xs3", 2), ("report", 6),
    ("s4", 3), ("z2^4", 1), ("z16", 1), ("z4xz4", 1), ("z2xz8", 1),
    ("z2^5", 1),
)


def _inversions(perm):
    return sum(a > b for a, b in itertools.combinations(perm, 2))


def _rounding_reps():
    ab, groups = gs.abelian, gs.groups
    s3 = groups.symmetric_group(3)
    d4 = groups.PermutationGroup(
        [tuple((i + k) % 4 for i in range(4)) for k in range(4)]
        + [tuple((k - i) % 4 for i in range(4)) for k in range(4)]
    )
    a4 = groups.PermutationGroup(
        [p for p in itertools.permutations(range(4)) if _inversions(p) % 2 == 0]
    )
    return {
        **{f"cyclic{m}": lambda m=m: ab.regular_rep(ab.cyclic(m)) for m in range(2, 9)},
        **{f"boolean{r}": lambda r=r: ab.regular_rep(ab.boolean_group(r)) for r in (1, 2, 3)},
        "s3": lambda: permutation_rep(s3),
        "s3-regular": lambda: ab.regular_rep(s3),
        "z2xz4": lambda: ab.regular_rep(ab.AbelianGroup((2, 4))),
        "d4": lambda: permutation_rep(d4),
        "d4-regular": lambda: ab.regular_rep(d4),
        "a4": lambda: permutation_rep(a4),
        "s4": lambda: permutation_rep(groups.symmetric_group(4)),
        "c2xs3": lambda: permutation_rep(groups.ProductGroup(ab.cyclic(2), s3), flip=True),
        "z2^4": lambda: ab.regular_rep(ab.boolean_group(4)),
        "z16": lambda: ab.regular_rep(ab.cyclic(16)),
        "z4xz4": lambda: ab.regular_rep(ab.AbelianGroup((4, 4))),
        "z2xz8": lambda: ab.regular_rep(ab.AbelianGroup((2, 8))),
        "z2^5": lambda: ab.regular_rep(ab.boolean_group(5)),
    }


class Rounding(CycleWorkload):
    """Gowers-Hatami rounding of noisy maps, and full rigidity reports."""

    name = "rounding"
    trace_cycles = 1
    reference_cycles = 16

    def build(self, seed: int) -> dict:
        game = gs.suites.named_game("repetition")
        return {
            "seed": seed,
            "reps": {label: make() for label, make in _rounding_reps().items()},
            "game": game,
            "honest": gs.games.honest_strategy(game),
        }

    def cycle(self, state, c: int):
        ops = []
        slots = [label for label, copies in ROUNDING_SLOTS for _ in range(copies)]
        for s, label in enumerate(slots):
            rng = seeded_rng(state["seed"], 3, c, s)
            if label == "report":
                sigma = log_uniform(rng, -2.2, -0.45)
                run = self._report(state, sigma, rng)
            else:
                sigma = log_uniform(rng, -2.85, -0.5)
                run = self._round(state["reps"][label], sigma, rng)
            ops.append(Op(f"{c}.{s}", (label, sigma), run))
        return ops

    def _round(self, rep, sigma, rng):
        def run():
            phi = noisy_hom(rep, sigma, rng)
            eps = gs.algebra.defect(phi)
            report = gs.stability.gowers_hatami_round(phi).report()
            require(report["distance"], 169.0 * eps, "Gowers-Hatami 169 eps")
            require(report["trace_excess"], 16.0 * eps, "Gowers-Hatami trace 16 eps")
            return {
                "eps": eps,
                "distance": report["distance"],
                "trace_excess": report["trace_excess"],
            }

        return run

    def _report(self, state, sigma, rng):
        def run():
            strat = gs.games.perturb_strategy(state["honest"], sigma, rng)
            rep = gs.games.pauli_rigidity_report(state["game"], strat)
            require(rep["prop_lhs"], rep["prop_bound"], "prop24 1320 c c' eps")
            require(rep["epsilon_sum"], rep["epsilon_sum_bound"], "per-case defects 3 eps")
            # unitary and PVM sides of the bridge are one quantity computed twice
            require(rep["bridge_residual"], 0.0, "unitary/PVM bridge identity")
            return {
                "eps": rep["epsilon"],
                "prop_lhs": rep["prop_lhs"],
                "distance": rep["closeness"]["strategy_distance"],
            }

        return run

    def manifest(self, seed: int):
        return {
            "operation": "verify",
            "seed": seed,
            "parameters": {"suite": "gh", "trials": 24},
        }


WORKLOADS = {w.name: w for w in (KappaCodes(), PauliBounds(), Rounding())}
