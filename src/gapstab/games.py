"""Synchronous non-local games built around commutation and anticommutation.

A game is a question set with a rational distribution on question pairs and
a decision rule per pair.  Strategies are families of PVMs in a tracial
algebra, one per question, and the value is the accepted mass.  The module
provides the commutation game, the magic-square (anticommutation) game,
the Pauli PVMs, the combined Pauli-basis game driven by a pair of
independent group-valued random variables, the game built from a pair of
binary codes, honest (perfect) strategies, the almost-commutation and
almost-anticommutation bound checks, and the rigidity report that chains
the game value into the Pauli-pair rounding.
"""

from __future__ import annotations

import itertools
import math
from collections import namedtuple
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .abelian import AbelianGroup, boolean_group, rep_from_pvm
from .algebra import (
    PVM,
    AlgebraElement,
    TracialAlgebra,
    UnitaryRep,
)
from .codes import LinearCode, measure_from_code, random_code
from .errors import GapstabError, InvalidArgument, ResourceCap
from .spectral import ProbMeasure, kappa
from .stability import Intertwiner, _check_bound, round_pauli_pair

COMMUTATION_PROJECTION_CONSTANT = 16.0
COMMUTATION_UNITARY_CONSTANT = 64.0
ANTICOMMUTATION_CONSTANT = 432.0
ETA_SQUARE_CONSTANT = 24.0
COMBINED_CONSTANT = 1320.0

PAULI_DIM_CAP = 12


def _encode(label):
    """Question labels and answers as JSON values: tuples become lists."""
    if isinstance(label, tuple):
        return [_encode(x) for x in label]
    return label


def _decode(obj):
    if isinstance(obj, list):
        return tuple(_decode(x) for x in obj)
    return obj


def _frac_str(p: Fraction) -> str:
    return f"{p.numerator}/{p.denominator}"


class Game:
    """Questions, a rational pair distribution, answer sets, decision rules.

    ``rules`` maps an ordered support pair to a tagged rule; the rule is
    shared by the reversed pair through :meth:`accepts`, which keeps the
    decision symmetric by construction.  Tags:

    - ("pairs", pairset): explicit accepted (a, b) pairs,
    - ("match_coord", k): accept when a == b[k] (b a tuple answer),
    - ("pauli_x", h): accept when <chi, h> == b for a character answer chi,
    - ("pauli_z", chi): accept when <chi, h> == b for a group answer h.
    """

    def __init__(self, questions, answers, mu, rules):
        self.questions = tuple(questions)
        qset = set(self.questions)
        if len(qset) != len(self.questions):
            raise InvalidArgument("duplicate question labels")
        self.answers = {x: tuple(a) for x, a in answers.items()}
        for x in self.questions:
            if not self.answers.get(x):
                raise InvalidArgument(f"question {x!r} has no answers")
        self.mu = {}
        for pair, p in mu.items():
            p = Fraction(p)
            if p < 0:
                raise InvalidArgument("negative question-pair weight")
            if p:
                self.mu[pair] = self.mu.get(pair, 0) + p
        if sum(self.mu.values()) != 1:
            raise InvalidArgument("question distribution does not sum to 1")
        self.rules = dict(rules)
        for x, y in self.mu:
            if x not in qset or y not in qset:
                raise InvalidArgument(f"support pair ({x!r}, {y!r}) off the question set")
            if (x, y) not in self.rules and (y, x) not in self.rules:
                raise InvalidArgument(f"no decision rule for ({x!r}, {y!r})")
        # plumbing for games with Pauli structure; populated by constructors
        self.h_group = None
        self.alpha_law = None
        self.beta_law = None
        self.case_of = {}
        self.omega_data = {}
        self.rigidity_constant = None
        self.distinguished = {}

    def marginal(self, x) -> Fraction:
        """mu(x) = (1/2) sum_y mu(x,y) + mu(y,x)."""
        total = Fraction(0)
        for (a, b), p in self.mu.items():
            if a == x:
                total += p
            if b == x:
                total += p
        return total / 2

    def question_mass(self, x) -> Fraction:
        """Row mass sum_y mu(x, y): the chance x is the first question."""
        return sum((p for (a, _), p in self.mu.items() if a == x), Fraction(0))

    def _rule_for(self, x, y):
        """(rule, swapped) for an ordered support pair."""
        if (x, y) in self.rules:
            return self.rules[(x, y)], False
        return self.rules[(y, x)], True

    def accepts(self, x, y, a, b) -> bool:
        rule, swapped = self._rule_for(x, y)
        if swapped:
            a, b = b, a
        tag, param = rule
        if tag == "pairs":
            return (a, b) in param
        if tag == "match_coord":
            return a == b[param]
        if tag == "pauli_x":
            return self.h_group.pairing(a, param) == b
        if tag == "pauli_z":
            return self.h_group.pairing(param, a) == b
        raise InvalidArgument(f"unknown decision tag {tag!r}")

    def copy_meta_from(self, other: "Game"):
        self.h_group = other.h_group
        self.alpha_law = other.alpha_law
        self.beta_law = other.beta_law
        self.case_of = dict(other.case_of)
        self.omega_data = dict(other.omega_data)
        self.rigidity_constant = other.rigidity_constant
        self.distinguished = dict(other.distinguished)

    def to_jsonable(self) -> dict:
        out = {
            "questions": [
                [_encode(x), [_encode(a) for a in self.answers[x]]]
                for x in self.questions
            ],
            "mu": [
                [_encode(x), _encode(y), _frac_str(p)]
                for (x, y), p in sorted(self.mu.items(), key=repr)
            ],
            "rules": [
                [_encode(x), _encode(y), tag,
                 sorted(map(_encode, param), key=repr) if tag == "pairs" else _encode(param)]
                for (x, y), (tag, param) in sorted(self.rules.items(), key=repr)
            ],
        }
        meta = {}
        if self.h_group is not None:
            meta["h_orders"] = list(self.h_group.orders)
        if self.alpha_law is not None:
            meta["alpha_law"] = [
                [_encode(g), _frac_str(p)] for g, p in self.alpha_law.items_nonzero()
            ]
        if self.beta_law is not None:
            meta["beta_law"] = [
                [_encode(g), _frac_str(p)] for g, p in self.beta_law.items_nonzero()
            ]
        if self.case_of:
            meta["case_of"] = [
                [_encode(x), _encode(y), c]
                for (x, y), c in sorted(self.case_of.items(), key=repr)
            ]
        if self.omega_data:
            meta["omega"] = [
                [_encode(w),
                 {"alpha": _encode(d["alpha"]), "beta": _encode(d["beta"]),
                  "sign": d["sign"]}]
                for w, d in sorted(self.omega_data.items(), key=repr)
            ]
        if self.rigidity_constant is not None:
            meta["rigidity_constant"] = _frac_str(Fraction(self.rigidity_constant))
        if self.distinguished:
            meta["distinguished"] = {
                k: _encode(v) for k, v in self.distinguished.items()
            }
        if meta:
            out["meta"] = meta
        return out

    @classmethod
    def from_jsonable(cls, obj: dict) -> "Game":
        questions = []
        answers = {}
        for x_enc, ans in obj["questions"]:
            x = _decode(x_enc)
            questions.append(x)
            answers[x] = tuple(_decode(a) for a in ans)
        mu = {
            (_decode(x), _decode(y)): Fraction(p) for x, y, p in obj["mu"]
        }
        rules = {}
        for x, y, tag, param in obj["rules"]:
            if tag == "pairs":
                param = frozenset(_decode(p) for p in param)
            else:
                param = _decode(param)
            rules[(_decode(x), _decode(y))] = (tag, param)
        game = cls(questions, answers, mu, rules)
        meta = obj.get("meta", {})
        if "h_orders" in meta:
            game.h_group = AbelianGroup(tuple(meta["h_orders"]))
        if "alpha_law" in meta:
            game.alpha_law = ProbMeasure(
                game.h_group,
                {_decode(g): Fraction(p) for g, p in meta["alpha_law"]},
            )
        if "beta_law" in meta:
            game.beta_law = ProbMeasure(
                game.h_group.dual(),
                {_decode(g): Fraction(p) for g, p in meta["beta_law"]},
            )
        for x, y, c in meta.get("case_of", []):
            game.case_of[(_decode(x), _decode(y))] = c
        for w_enc, d in meta.get("omega", []):
            game.omega_data[_decode(w_enc)] = {
                "alpha": _decode(d["alpha"]),
                "beta": _decode(d["beta"]),
                "sign": d["sign"],
            }
        if "rigidity_constant" in meta:
            game.rigidity_constant = Fraction(meta["rigidity_constant"])
        for k, v in meta.get("distinguished", {}).items():
            game.distinguished[k] = _decode(v)
        return game

    def __repr__(self):
        return f"Game(|X|={len(self.questions)}, |supp mu|={len(self.mu)})"


class SynchronousStrategy:
    """One PVM per question, all in the same tracial algebra."""

    def __init__(self, algebra: TracialAlgebra, pvms: dict):
        self.algebra = algebra
        self.pvms = dict(pvms)
        for x, pvm in self.pvms.items():
            if pvm.algebra is not algebra and not pvm.algebra.compatible(algebra):
                raise InvalidArgument(f"PVM at {x!r} lives on a different algebra")

    def __getitem__(self, x) -> PVM:
        return self.pvms[x]

    def restricted(self, questions) -> "SynchronousStrategy":
        return SynchronousStrategy(
            self.algebra, {x: self.pvms[x] for x in questions}
        )


def strategy_to_jsonable(strategy: SynchronousStrategy) -> dict:
    alg = strategy.algebra
    out = {
        "algebra": [[d, _frac_str(Fraction(w))] for d, w in zip(alg.dims, alg.weights)],
        "pvms": [],
    }
    for x, pvm in sorted(strategy.pvms.items(), key=repr):
        entries = []
        for a in pvm.outcomes:
            blocks = [
                [np.real(b).tolist(), np.imag(b).tolist()]
                for b in pvm[a].blocks
            ]
            entries.append([_encode(a), blocks])
        out["pvms"].append([_encode(x), entries])
    return out


def strategy_from_jsonable(obj: dict) -> SynchronousStrategy:
    alg = TracialAlgebra([(d, Fraction(w)) for d, w in obj["algebra"]])
    pvms = {}
    for x_enc, entries in obj["pvms"]:
        outcomes = []
        projections = []
        for a_enc, blocks in entries:
            outcomes.append(_decode(a_enc))
            projections.append(
                AlgebraElement(
                    alg,
                    [np.array(re) + 1j * np.array(im) for re, im in blocks],
                )
            )
        pvms[_decode(x_enc)] = PVM(alg, outcomes, projections)
    return SynchronousStrategy(alg, pvms)


# -- value ----------------------------------------------------------------------


def _sign_observable(pvm: PVM) -> AlgebraElement:
    return pvm[1] - pvm[-1]


def _pauli_unitary(pvm: PVM, rule_tag: str, param, group: AbelianGroup):
    """The strategy observable selecting the rule's accepted sign pattern."""
    acc = None
    for a in pvm.outcomes:
        s = group.pairing(a, param) if rule_tag == "pauli_x" else group.pairing(param, a)
        term = float(s) * pvm[a]
        acc = term if acc is None else acc + term
    return acc


def _pair_value(game: Game, strategy: SynchronousStrategy, x, y, cache, pauli_mode):
    """sum_{a, b} D(x, y, a, b) tau(P^x_a P^y_b) for one support pair."""
    rule, swapped = game._rule_for(x, y)
    if swapped:
        x, y = y, x  # tau(PQ) = tau(QP): evaluate in the rule's orientation
    tag, param = rule
    alg = strategy.algebra
    px, py = strategy[x], strategy[y]
    if tag == "pairs":
        return sum(
            float(np.real(alg.tau(px[a] * py[b]))) for a, b in param
        )
    if tag == "match_coord":
        return sum(
            float(np.real(alg.tau(px[b[param]] * py[b]))) for b in py.outcomes
        )
    if tag in ("pauli_x", "pauli_z"):
        def explicit():
            total = 0.0
            for a in px.outcomes:
                s = (
                    game.h_group.pairing(a, param)
                    if tag == "pauli_x"
                    else game.h_group.pairing(param, a)
                )
                total += float(np.real(alg.tau(px[a] * py[s])))
            return total

        if pauli_mode == "explicit":
            return explicit()
        key = (x, tag, param)
        if key not in cache:
            cache[key] = _pauli_unitary(px, tag, param, game.h_group)
        u = cache[key]
        t = _sign_observable(py)
        short = 0.5 + 0.5 * float(np.real(alg.tau(u * t)))
        # cheap regimes cross-check the shortcut against the literal sum
        if game.h_group.order <= 16 and abs(short - explicit()) > 1e-10:
            raise GapstabError("observable shortcut disagrees with the explicit sum")
        return short
    raise InvalidArgument(f"unknown decision tag {tag!r}")


def value(game: Game, strategy: SynchronousStrategy, pauli_mode: str = "shortcut") -> float:
    """Accepted mass of the strategy: integral of the decision over mu.

    Pauli-consistency pairs are evaluated through the sign observable
    sum_a <a, .> P_a (one trace per pair instead of a sum over the whole
    answer group); ``pauli_mode="explicit"`` forces the literal double sum
    for cross-checks.
    """
    if pauli_mode not in ("shortcut", "explicit"):
        raise InvalidArgument("pauli_mode must be 'shortcut' or 'explicit'")
    missing = [x for pair in game.mu for x in pair if x not in strategy.pvms]
    if missing:
        raise InvalidArgument(f"strategy lacks PVMs for {sorted(set(map(repr, missing)))}")
    for pair in game.mu:
        for q in pair:
            have = set(strategy[q].outcomes)
            want = set(game.answers[q])
            if have != want:
                raise InvalidArgument(f"answer set mismatch at question {q!r}")
    cache = {}
    total = 0.0
    for (x, y), p in game.mu.items():
        total += float(p) * _pair_value(game, strategy, x, y, cache, pauli_mode)
    if total < -1e-9 or total > 1 + 1e-9:
        raise GapstabError(f"game value {total} escaped [0, 1]")
    return min(max(total, 0.0), 1.0)


def expand_rules(game: Game, cap: int = 4096) -> Game:
    """Replace every intensional rule by its explicit accepted-pair table.

    Cross-check helper: values computed against the expanded game must
    agree with the tagged evaluators.  The cap bounds the answer-pair count
    per rule.
    """
    rules = {}
    for (x, y), (tag, param) in game.rules.items():
        if tag == "pairs":
            rules[(x, y)] = (tag, param)
            continue
        na, nb = len(game.answers[x]), len(game.answers[y])
        if na * nb > cap:
            raise ResourceCap(f"rule table for ({x!r}, {y!r}) has {na * nb} entries")
        table = frozenset(
            (a, b)
            for a in game.answers[x]
            for b in game.answers[y]
            if game.accepts(x, y, a, b)
        )
        rules[(x, y)] = ("pairs", table)
    out = Game(game.questions, game.answers, game.mu, rules)
    out.copy_meta_from(game)
    return out


def symmetrize(game: Game) -> Game:
    """Replace mu by its transpose-average; strategy values are unchanged."""
    mu = {}
    for (x, y), p in game.mu.items():
        mu[(x, y)] = mu.get((x, y), 0) + p / 2
        mu[(y, x)] = mu.get((y, x), 0) + p / 2
    out = Game(game.questions, game.answers, mu, game.rules)
    out.copy_meta_from(game)
    for (x, y), c in game.case_of.items():
        out.case_of[(y, x)] = c
    return out


# -- closeness -------------------------------------------------------------------


@dataclass
class ClosenessCertificate:
    """The three quantities defining closeness of synchronous strategies.

    ``trace_defect_base`` is tau(1 - w* w) in the base algebra;
    ``trace_defect_corner`` is tau'(P - w w*) in the corner trace normalized
    so tau'(P) = 1; ``strategy_distance`` is the weighted question average
    of sum_a ||P^x_a - w* Q^x_a w||_2^2.
    """

    p: AlgebraElement
    w: Intertwiner
    trace_defect_base: float
    trace_defect_corner: float
    strategy_distance: float
    per_question: dict

    def is_close(self, eps: float) -> bool:
        return (
            self.trace_defect_base <= eps
            and self.trace_defect_corner <= eps
            and self.strategy_distance <= eps
        )

    def report(self) -> dict:
        return {
            "trace_defect_base": self.trace_defect_base,
            "trace_defect_corner": self.trace_defect_corner,
            "strategy_distance": self.strategy_distance,
            "per_question": dict(self.per_question),
        }


def closeness(
    strat_a: SynchronousStrategy,
    strat_b: SynchronousStrategy,
    w: Intertwiner,
    p: AlgebraElement | None = None,
    weights: dict | None = None,
) -> ClosenessCertificate:
    """Measure how close strat_a is to the corner strategy strat_b via w.

    ``weights`` assigns the question average (uniform over the common
    questions by default); answer sets must agree question by question.
    """
    base = strat_a.algebra
    corner = strat_b.algebra
    if p is None:
        p = corner.identity()
    questions = sorted(
        set(strat_a.pvms) & set(strat_b.pvms), key=repr
    )
    if weights is None:
        weights = {x: 1.0 / len(questions) for x in questions}
    tau_p = float(np.real(corner.tau(p)))
    if tau_p <= 0:
        raise InvalidArgument("corner projection has nonpositive trace")
    trace_base = float(np.real(base.tau(base.identity() - w.w_star_w())))
    trace_corner = float(np.real(corner.tau(p - w.w_w_star()))) / tau_p
    per_question = {}
    for x in weights:
        pa, pb = strat_a[x], strat_b[x]
        if set(pa.outcomes) != set(pb.outcomes):
            raise InvalidArgument(f"answer sets differ at question {x!r}")
        per_question[x] = sum(
            base.norm2(pa[a] - w.conjugate(pb[a])) ** 2 for a in pa.outcomes
        )
    distance = sum(float(weights[x]) * per_question[x] for x in weights)
    return ClosenessCertificate(
        p=p,
        w=w,
        trace_defect_base=trace_base,
        trace_defect_corner=trace_corner,
        strategy_distance=distance,
        per_question=per_question,
    )


UnitaryPvmBridge = namedtuple("UnitaryPvmBridge", ["unitary_side", "pvm_side"])


def unitary_pvm_bridge(
    u_rep: UnitaryRep, v_rep: UnitaryRep, w: Intertwiner
) -> UnitaryPvmBridge:
    """Both sides of E_h ||U(h) - w* V(h) w||_2^2 = sum_chi ||P_chi - w* Q_chi w||_2^2.

    U acts on the base, V on the corner; both are representations of the
    same abelian group whose PVMs are recovered by Fourier averaging.  The
    two sides are computed independently.
    """
    from .abelian import pvm_from_rep

    group = u_rep.group
    base = u_rep.algebra
    lhs = 0.0
    for h in group.elements:
        lhs += base.norm2(u_rep.images[h] - w.conjugate(v_rep.images[h])) ** 2
    lhs /= group.order
    pu = pvm_from_rep(u_rep)
    pv = pvm_from_rep(v_rep)
    rhs = sum(
        base.norm2(pu[chi] - w.conjugate(pv[chi])) ** 2 for chi in pu.outcomes
    )
    return UnitaryPvmBridge(lhs, rhs)


# -- the commutation game ----------------------------------------------------------


def commutation_game(a1, a2) -> Game:
    """Three questions: two marginals and their joint refinement."""
    a1, a2 = tuple(a1), tuple(a2)
    if not a1 or not a2:
        raise InvalidArgument("answer sets must be nonempty")
    questions = ("x1", "x2", "y")
    answers = {
        "x1": a1,
        "x2": a2,
        "y": tuple(itertools.product(a1, a2)),
    }
    mu = {("x1", "y"): Fraction(1, 2), ("x2", "y"): Fraction(1, 2)}
    rules = {
        ("x1", "y"): ("match_coord", 0),
        ("x2", "y"): ("match_coord", 1),
    }
    game = Game(questions, answers, mu, rules)
    game.distinguished = {"x1": "x1", "x2": "x2"}
    return game


CommutationBounds = namedtuple(
    "CommutationBounds",
    ["lhs_projections", "bound_projections", "lhs_unitary", "bound_unitary"],
)


def commutation_bound_check(
    strategy: SynchronousStrategy, epsilon: float, x1="x1", x2="x2"
) -> CommutationBounds:
    """Almost-commutation forced by a near-perfect commutation-game value.

    Restricts the strategy to the two marginal questions.  lhs_projections
    = sum_{a,b} ||[p_a, q_b]||_2^2 against 16 epsilon; for +-1 answer sets
    also the observable form ||[p_1 - p_-1, q_1 - q_-1]||_2^2 against
    64 epsilon.
    """
    p_pvm = strategy[x1]
    q_pvm = strategy[x2]
    alg = p_pvm.algebra
    lhs = 0.0
    for a in p_pvm.outcomes:
        for b in q_pvm.outcomes:
            c = p_pvm[a] * q_pvm[b] - q_pvm[b] * p_pvm[a]
            lhs += alg.norm2(c) ** 2
    lhs_unitary = None
    bound_unitary = None
    if set(p_pvm.outcomes) == {-1, 1} and set(q_pvm.outcomes) == {-1, 1}:
        u = _sign_observable(p_pvm)
        v = _sign_observable(q_pvm)
        lhs_unitary = alg.norm2(u * v - v * u) ** 2
        bound_unitary = COMMUTATION_UNITARY_CONSTANT * epsilon
    return CommutationBounds(
        lhs, COMMUTATION_PROJECTION_CONSTANT * epsilon, lhs_unitary, bound_unitary
    )


# -- the magic square game --------------------------------------------------------

_CELLS = tuple((i, j) for i in (1, 2, 3) for j in (1, 2, 3))
_LINES = tuple(("h", i) for i in (1, 2, 3)) + tuple(("v", j) for j in (1, 2, 3))


def line_cells(line):
    kind, k = line
    if kind == "h":
        return tuple((k, j) for j in (1, 2, 3))
    return tuple((i, k) for i in (1, 2, 3))


def line_sign(line) -> int:
    return -1 if line == ("v", 3) else 1


def magic_square_game() -> Game:
    """Nine cells, six lines, consistency on the 18 incidences.

    Line answers are the sign triples multiplying to the line's sign: +1
    everywhere except the last vertical line.
    """
    questions = _CELLS + _LINES
    answers = {c: (-1, 1) for c in _CELLS}
    for line in _LINES:
        sign = line_sign(line)
        answers[line] = tuple(
            b for b in itertools.product((-1, 1), repeat=3)
            if b[0] * b[1] * b[2] == sign
        )
    mu = {}
    rules = {}
    for line in _LINES:
        cells = line_cells(line)
        for k, c in enumerate(cells):
            mu[(c, line)] = Fraction(1, 18)
            rules[(c, line)] = ("match_coord", k)
    game = Game(questions, answers, mu, rules)
    game.distinguished = {"x1": (1, 1), "x2": (2, 2)}
    return game


AnticommutationBounds = namedtuple(
    "AnticommutationBounds",
    ["lhs", "bound", "eta_by_line", "eta_square_sum", "eta_square_bound"],
)


def anticommutation_bound_check(
    strategy: SynchronousStrategy, epsilon: float
) -> AnticommutationBounds:
    """Anticommutation at the distinguished cells forced by a large value.

    lhs = ||UV + VU||_2^2 for the (1,1) and (2,2) sign observables, bounded
    by 432 epsilon.  The per-line defects eta_l (how far each cell
    observable is from the line's induced observable) are returned with
    their stated budget sum_l eta_l^2 <= 24 epsilon.
    """
    alg = strategy.algebra
    obs = {c: _sign_observable(strategy[c]) for c in _CELLS}
    eta_by_line = {}
    for line in _LINES:
        cells = line_cells(line)
        total = 0.0
        for k, c in enumerate(cells):
            pvm = strategy[line]
            induced = None
            for b in pvm.outcomes:
                term = float(b[k]) * pvm[b]
                induced = term if induced is None else induced + term
            total += alg.norm2(obs[c] - induced) ** 2
        eta_by_line[line] = math.sqrt(total)
    u = obs[(1, 1)]
    v = obs[(2, 2)]
    lhs = alg.norm2(u * v + v * u) ** 2
    eta_sq = sum(e**2 for e in eta_by_line.values())
    return AnticommutationBounds(
        lhs,
        ANTICOMMUTATION_CONSTANT * epsilon,
        eta_by_line,
        eta_sq,
        ETA_SQUARE_CONSTANT * epsilon,
    )


# -- Pauli PVMs -------------------------------------------------------------------

_TAU_X = {
    0: np.array([[0.5, 0.5], [0.5, 0.5]]),
    1: np.array([[0.5, -0.5], [-0.5, 0.5]]),
}
_TAU_Z = {
    0: np.array([[1.0, 0.0], [0.0, 0.0]]),
    1: np.array([[0.0, 0.0], [0.0, 1.0]]),
}


def pauli_pvms(n: int, cap: int = PAULI_DIM_CAP):
    """The X- and Z-basis product PVMs on 2^n dimensions.

    Outcomes are the elements of (Z/2)^n read as characters (X side) and
    group elements (Z side); the associated unitary representations are the
    translations and the modulations.
    """
    if n < 1:
        raise InvalidArgument("the number of qubits must be positive")
    if n > cap:
        raise ResourceCap(f"{n} qubits exceed the cap {cap}")
    group = boolean_group(n)
    alg = TracialAlgebra.matrix(2**n)
    x_projs, z_projs = [], []
    for a in group.elements:
        mx = np.array([[1.0]])
        mz = np.array([[1.0]])
        for bit in a:
            mx = np.kron(mx, _TAU_X[bit])
            mz = np.kron(mz, _TAU_Z[bit])
        x_projs.append(AlgebraElement(alg, [mx]))
        z_projs.append(AlgebraElement(alg, [mz]))
    tau_x = PVM(alg, list(group.elements), x_projs)
    tau_z = PVM(alg, list(group.elements), z_projs)
    return tau_x, tau_z


# -- the combined game ------------------------------------------------------------


def _check_independent(omega, alpha, beta):
    joint = {}
    marg_a = {}
    marg_b = {}
    for w, p in omega.items():
        key = (alpha[w], beta[w])
        joint[key] = joint.get(key, 0) + p
        marg_a[alpha[w]] = marg_a.get(alpha[w], 0) + p
        marg_b[beta[w]] = marg_b.get(beta[w], 0) + p
    for a, pa in marg_a.items():
        for b, pb in marg_b.items():
            if joint.get((a, b), Fraction(0)) != pa * pb:
                raise InvalidArgument(
                    "alpha and beta are not independent under the supplied "
                    "probability space"
                )
    return marg_a, marg_b


def combined_game(h_group: AbelianGroup, omega, alpha, beta) -> Game:
    """Pauli-basis test from two independent group-valued variables.

    ``omega`` maps labels to rational weights; ``alpha`` and ``beta`` take
    each label to an element of ``h_group`` and of its dual.  The sign of
    the pairing <beta(w), alpha(w)> routes each label to the commutation or
    the anticommutation sub-game; PX and PZ carry the whole-group answer
    sets and consistency rules against the sub-games' distinguished
    questions.
    """
    if not isinstance(h_group, AbelianGroup) or h_group.exponent > 2:
        raise InvalidArgument("the question group must be abelian of exponent 2")
    omega = {w: Fraction(p) for w, p in omega.items() if Fraction(p) != 0}
    if sum(omega.values()) != 1:
        raise InvalidArgument("omega weights must sum to 1")
    for w in omega:
        if alpha[w] not in h_group or beta[w] not in h_group.dual():
            raise InvalidArgument(f"alpha/beta out of range at {w!r}")
    marg_a, marg_b = _check_independent(omega, alpha, beta)

    com = commutation_game((-1, 1), (-1, 1))
    anti = magic_square_game()
    sub = {1: com, -1: anti}

    questions = ["PX", "PZ"]
    answers = {"PX": tuple(h_group.elements), "PZ": tuple(h_group.elements)}
    mu = {}
    rules = {}
    case_of = {}
    omega_data = {}
    third = Fraction(1, 3)
    for w, p in omega.items():
        sign = int(h_group.pairing(beta[w], alpha[w]))
        omega_data[w] = {"alpha": alpha[w], "beta": beta[w], "sign": sign}
        game_w = sub[sign]
        for q in game_w.questions:
            label = (w, q)
            questions.append(label)
            answers[label] = game_w.answers[q]
        x1 = (w, game_w.distinguished["x1"])
        x2 = (w, game_w.distinguished["x2"])
        mu[("PX", x1)] = third * p
        rules[("PX", x1)] = ("pauli_x", alpha[w])
        case_of[("PX", x1)] = 1
        mu[("PZ", x2)] = third * p
        rules[("PZ", x2)] = ("pauli_z", beta[w])
        case_of[("PZ", x2)] = 3
        for (qx, qy), pq in game_w.mu.items():
            pair = ((w, qx), (w, qy))
            mu[pair] = third * p * pq
            rules[pair] = game_w.rules[(qx, qy)]
            case_of[pair] = 2
    game = Game(questions, answers, mu, rules)
    game.h_group = h_group
    game.alpha_law = ProbMeasure(h_group, marg_a)
    game.beta_law = ProbMeasure(h_group.dual(), marg_b)
    game.case_of = case_of
    game.omega_data = omega_data
    game.distinguished = {"PX": "PX", "PZ": "PZ"}
    return game


def game_from_code(code: LinearCode, code2: LinearCode | None = None) -> Game:
    """The combined game driven by the column measures of two binary codes.

    Omega is the product of the two supports carrying the product of the
    column laws; alpha and beta are the coordinate projections, and the
    dual is identified with the group through the bit-sum pairing.  The
    rigidity constant kappa * kappa' is attached to the game.
    """
    if code2 is None:
        code2 = code
    if code.q != 2 or code2.q != 2:
        raise InvalidArgument("the construction needs binary codes")
    if code.dim != code2.dim:
        raise InvalidArgument("codes must have the same dimension")
    group_a, mu_a, kappa_a = measure_from_code(code)
    group_b, mu_b, kappa_b = measure_from_code(code2)
    omega = {}
    alpha = {}
    beta = {}
    for a, pa in mu_a.items_nonzero():
        for b, pb in mu_b.items_nonzero():
            w = (a, b)
            omega[w] = pa * pb
            alpha[w] = a
            beta[w] = b
    game = combined_game(group_a, omega, alpha, beta)
    game.rigidity_constant = Fraction(kappa_a) * Fraction(kappa_b)
    return game


def gn_game(n: int, code_source=None, rng=None) -> Game:
    """A rigidity game for n qubits from one good binary code.

    ``code_source`` may be a LinearCode or a callable producing one; the
    default rejection-samples a [4n, n, >= n+1] code.  Both measure slots
    use the same code.
    """
    if code_source is None:
        code = random_code(2, 4 * n, n, n + 1, rng=rng)
    elif callable(code_source):
        code = code_source()
    else:
        code = code_source
    if code.dim != n:
        raise InvalidArgument(f"code dimension {code.dim} does not match n={n}")
    return game_from_code(code)


# -- honest strategies ------------------------------------------------------------


def _pauli_reps_matrices(group: AbelianGroup, tau_x: PVM, tau_z: PVM):
    """lambda(h) and M(chi) as plain matrices from the Pauli PVMs."""
    lam = {}
    mod = {}
    for h in group.elements:
        acc_l = None
        acc_m = None
        for chi in group.elements:
            s = float(group.pairing(chi, h))
            tl = s * tau_x[chi].blocks[0]
            tm = s * tau_z[chi].blocks[0]
            acc_l = tl if acc_l is None else acc_l + tl
            acc_m = tm if acc_m is None else acc_m + tm
        lam[h] = acc_l
        mod[h] = acc_m
    return lam, mod


_SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]])
_SIGMA_Z = np.array([[1.0, 0.0], [0.0, -1.0]])

_GRID_WORDS = {
    (1, 1): ("P",),
    (1, 2): ("Z",),
    (1, 3): ("P", "Z"),
    (2, 1): ("X",),
    (2, 2): ("Q",),
    (2, 3): ("Q", "X"),
    (3, 1): ("P", "X"),
    (3, 2): ("Q", "Z"),
    (3, 3): ("P", "Q", "X", "Z"),
}


def _magic_grid(p_mat, q_mat, tol=1e-10):
    """Nine involutions completing the anticommuting pair (p, q).

    p and q sit at the distinguished cells; an auxiliary qubit supplies a
    second anticommuting pair, and every remaining cell is the product of
    commuting generators.  The grid laws (self-adjoint involutions, lines
    pairwise commuting, line products equal to the line signs) are checked
    numerically and a failure is a construction bug, never silent.
    """
    d = p_mat.shape[0]
    gens = {
        "P": np.kron(p_mat, np.eye(2)),
        "Q": np.kron(q_mat, np.eye(2)),
        "X": np.kron(np.eye(d), _SIGMA_X),
        "Z": np.kron(np.eye(d), _SIGMA_Z),
    }
    grid = {}
    for cell, word in _GRID_WORDS.items():
        m = np.eye(2 * d, dtype=complex)
        for letter in word:
            m = m @ gens[letter]
        grid[cell] = m
    eye = np.eye(2 * d)
    for cell, m in grid.items():
        if np.max(np.abs(m - m.conj().T)) > tol or np.max(np.abs(m @ m - eye)) > tol:
            raise GapstabError(f"grid observable at {cell} is not an involution")
    for line in _LINES:
        cells = line_cells(line)
        prod = np.eye(2 * d, dtype=complex)
        for c in cells:
            prod = prod @ grid[c]
        if np.max(np.abs(prod - line_sign(line) * eye)) > tol:
            raise GapstabError(f"grid line {line} has the wrong product")
        for c1, c2 in itertools.combinations(cells, 2):
            if np.max(np.abs(grid[c1] @ grid[c2] - grid[c2] @ grid[c1])) > tol:
                raise GapstabError(f"grid line {line} is not commuting at {c1},{c2}")
    return grid


def _sign_pvm(alg, mat) -> PVM:
    eye = np.eye(mat.shape[0])
    return PVM(
        alg,
        [-1, 1],
        [
            AlgebraElement(alg, [(eye - mat) / 2]),
            AlgebraElement(alg, [(eye + mat) / 2]),
        ],
    )


def _joint_pvm(alg, outcomes, mats) -> PVM:
    """Joint spectral PVM of commuting involutions, indexed by sign tuples.

    ``outcomes`` lists the accepted sign tuples; their joint projections
    must sum to the identity (the rest vanish), which the PVM validation
    enforces.
    """
    eye = np.eye(mats[0].shape[0])
    projs = []
    for b in outcomes:
        m = eye.astype(complex)
        for s, obs in zip(b, mats):
            m = m @ (eye + float(s) * obs) / 2
        projs.append(AlgebraElement(alg, [m]))
    return PVM(alg, list(outcomes), projs)


def honest_strategy(game: Game) -> SynchronousStrategy:
    """A perfect strategy for a combined game, on one auxiliary qubit.

    PX and PZ answer with the Pauli PVMs (tensored with the auxiliary
    identity).  Commutation branches answer with the joint PVM of the
    commuting pair lambda(alpha) and M(beta); anticommutation branches
    build a verified magic-square grid around that pair.
    """
    if game.h_group is None or not game.omega_data:
        raise InvalidArgument("the game does not carry combined-game structure")
    group = game.h_group
    n = len(group.orders)
    tau_x, tau_z = pauli_pvms(n)
    lam, mod = _pauli_reps_matrices(group, tau_x, tau_z)
    dim = 2**n
    alg = TracialAlgebra.matrix(2 * dim)

    def widen(m):
        return AlgebraElement(alg, [np.kron(m, np.eye(2))])

    pvms = {
        "PX": PVM(
            alg,
            list(tau_x.outcomes),
            [widen(tau_x[a].blocks[0]) for a in tau_x.outcomes],
        ),
        "PZ": PVM(
            alg,
            list(tau_z.outcomes),
            [widen(tau_z[a].blocks[0]) for a in tau_z.outcomes],
        ),
    }
    for w, data in game.omega_data.items():
        p_mat = lam[data["alpha"]]
        q_mat = mod[data["beta"]]
        if data["sign"] == 1:
            pw = np.kron(p_mat, np.eye(2))
            qw = np.kron(q_mat, np.eye(2))
            pvms[(w, "x1")] = _sign_pvm(alg, pw)
            pvms[(w, "x2")] = _sign_pvm(alg, qw)
            pvms[(w, "y")] = _joint_pvm(
                alg, game.answers[(w, "y")], [pw, qw]
            )
        else:
            grid = _magic_grid(p_mat, q_mat)
            for cell in _CELLS:
                pvms[(w, cell)] = _sign_pvm(alg, grid[cell])
            for line in _LINES:
                mats = [grid[c] for c in line_cells(line)]
                pvms[(w, line)] = _joint_pvm(
                    alg, game.answers[(w, line)], mats
                )
    return SynchronousStrategy(alg, pvms)


def perturb_strategy(
    strategy: SynchronousStrategy, sigma: float, rng
) -> SynchronousStrategy:
    """Conjugate every question's PVM by an independent unitary e^{i sigma H}.

    H is Gaussian self-adjoint scaled to operator norm 1 per block, so the
    PVM structure is preserved exactly and sigma is the rotation angle.
    """
    if sigma < 0:
        raise InvalidArgument("perturbation size must be nonnegative")
    alg = strategy.algebra
    out = {}
    for x, pvm in strategy.pvms.items():
        blocks = []
        for d in alg.dims:
            h = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
            h = (h + h.conj().T) / 2
            nrm = np.linalg.norm(h, 2)
            if nrm > 0:
                h /= nrm
            vals, vecs = np.linalg.eigh(h)
            blocks.append((vecs * np.exp(1j * sigma * vals)) @ vecs.conj().T)
        u = AlgebraElement(alg, blocks)
        out[x] = pvm.conjugated(u)
    return SynchronousStrategy(alg, out)


# -- rigidity ---------------------------------------------------------------------


def _case_values(game: Game, strategy: SynchronousStrategy) -> dict:
    """Conditional values of the three combined-game cases."""
    cache = {}
    masses = {1: Fraction(0), 2: Fraction(0), 3: Fraction(0)}
    sums = {1: 0.0, 2: 0.0, 3: 0.0}
    for (x, y), p in game.mu.items():
        c = game.case_of[(x, y)]
        masses[c] += p
        sums[c] += float(p) * _pair_value(game, strategy, x, y, cache, "shortcut")
    return {
        c: (sums[c] / float(masses[c]) if masses[c] else 1.0) for c in (1, 2, 3)
    }


def twisted_defect(u_rep: UnitaryRep, v_rep: UnitaryRep) -> float:
    """E_{h,chi} ||U(h)V(chi) - chi(h) V(chi) U(h)||_2^2, uniform over the
    group of ``u_rep`` and its dual, the group of ``v_rep``."""
    group, dual = u_rep.group, v_rep.group
    alg = u_rep.algebra
    total = 0.0
    for h in group.elements:
        uh = u_rep.images[h]
        for chi in dual.elements:
            vchi = v_rep.images[chi]
            s = float(group.pairing(chi, h))
            total += alg.norm2(uh * vchi - s * (vchi * uh)) ** 2
    return total / group.order**2


def pauli_rigidity_report(game: Game, strategy: SynchronousStrategy) -> dict:
    """Measure a strategy's rigidity: value, defects, bounds, closeness.

    Computes epsilon = 1 - value and the three per-case defects; checks the
    twisted-commutation bound 1320 c c' epsilon at the PX/PZ restriction;
    rounds the PX/PZ representation pair to an exactly twisted pair and
    reports the strategy-level closeness certificate of the corner strategy
    it induces, together with the unitary/PVM bridge residual.
    """
    if game.h_group is None or not game.case_of:
        raise InvalidArgument("the game does not carry combined-game structure")
    group = game.h_group
    dual = group.dual()
    val = value(game, strategy)
    eps = 1.0 - val
    case_vals = _case_values(game, strategy)
    eps_cases = {c: 1.0 - v for c, v in case_vals.items()}
    eps_sum = sum(eps_cases.values())

    _check_bound(eps_sum, 3.0 * eps, "sum of per-case defects")

    c_alpha = float(kappa(group, game.alpha_law).kappa)
    c_beta = float(kappa(dual, game.beta_law).kappa)

    u_rep = rep_from_pvm(strategy["PX"], group)
    v_rep = rep_from_pvm(strategy["PZ"], dual)
    lhs = twisted_defect(u_rep, v_rep)
    prop_bound = COMBINED_CONSTANT * c_alpha * c_beta * eps
    _check_bound(lhs, prop_bound, "twisted commutation defect")

    rounding = round_pauli_pair(u_rep, v_rep, game.alpha_law, game.beta_law)
    tr = rounding.rounding
    from .abelian import pvm_from_rep

    corner_strategy = SynchronousStrategy(
        tr.u_tilde.algebra,
        {
            "PX": pvm_from_rep(tr.u_tilde),
            "PZ": pvm_from_rep(tr.v_tilde),
        },
    )
    cert = closeness(
        strategy.restricted(["PX", "PZ"]),
        corner_strategy,
        tr.w,
        weights={"PX": 0.5, "PZ": 0.5},
    )
    bridge = unitary_pvm_bridge(u_rep, tr.u_tilde, tr.w)

    report = {
        "value": val,
        "epsilon": eps,
        "epsilon_cases": eps_cases,
        "epsilon_sum": eps_sum,
        "epsilon_sum_bound": 3.0 * eps,
        "c_alpha": c_alpha,
        "c_beta": c_beta,
        "prop_lhs": lhs,
        "prop_bound": prop_bound,
        "prop_constant": COMBINED_CONSTANT,
        "prop_ratio": lhs / prop_bound if prop_bound > 1e-300 else None,
        "rounding_epsilon": tr.epsilon,
        "rounding_distance_u": tr.distance_u,
        "rounding_distance_v": tr.distance_v,
        "relation_residual": tr.relation_residual,
        "closeness": cert.report(),
        "closeness_constant": (
            cert.strategy_distance / (c_alpha * c_beta * eps) if eps > 1e-300 else None
        ),
        "bridge_residual": abs(bridge.unitary_side - bridge.pvm_side),
        "certificate": cert,
    }
    return report
