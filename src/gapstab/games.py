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
from functools import cached_property
from types import MappingProxyType

import numpy as np

from .abelian import AbelianGroup, boolean_group, pvm_from_rep, rep_from_pvm
from .algebra import (
    PVM,
    AlgebraElement,
    TracialAlgebra,
    _noise_unitaries,
    _rounding_slack,
    _trace_pairing,
    _weighted_sums,
)
from .codes import LinearCode, measure_from_code, random_code
from .errors import GapstabError, InvalidArgument, InvalidPVM, ResourceCap, check_shape
from .spectral import ProbMeasure, kappa
from .stability import (
    _check_bound,
    _pauli_extension,
    _pauli_pair,
    _pullback_sq,
    _ratio,
    _round_pauli,
)

COMMUTATION_PROJECTION_CONSTANT = 16.0
COMMUTATION_UNITARY_CONSTANT = 64.0
ANTICOMMUTATION_CONSTANT = 432.0
ETA_SQUARE_CONSTANT = 24.0
COMBINED_CONSTANT = 1320.0

PAULI_DIM_CAP = 12
_RULE_TABLE_CAP = 4096  # answer pairs per rule that expand_rules tabulates


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


def _is_label(obj) -> bool:
    """A question label or answer as :func:`_encode` writes it: a string,
    an integer or a list of them."""
    return isinstance(obj, (str, int)) or isinstance(obj, list) and all(map(_is_label, obj))


def _is_matrix(obj) -> bool:
    """A JSON matrix of real numbers: a list of equal-length rows."""
    try:
        a = np.asarray(obj)
    except ValueError:  # ragged rows
        return False
    return a.ndim == 2 and a.dtype.kind in "iuf"


def _element_to_json(blocks) -> list:
    """An element's blocks (complex, or real for an exact PVM's stacks) as
    their real and imaginary parts."""
    return [[np.real(b).tolist(), np.imag(b).tolist()] for b in blocks]


def _element_from_json(alg: TracialAlgebra, blocks) -> AlgebraElement:
    """The inverse of :func:`_element_to_json`; ``alg.element`` checks the
    block count and shapes."""
    return alg.element([np.array(re) + 1j * np.array(im) for re, im in blocks])


# JSON shapes of the input files (see :func:`~gapstab.errors.check_shape`)
_FRACTION = (str, int, float)  # what Fraction() takes
_ALGEBRA = [[int, _FRACTION], ...]
_ELEMENT = [[_is_matrix, _is_matrix], ...]  # real and imaginary part per block
_GAME_FILE = {
    "questions": [[_is_label, [_is_label, ...]], ...],
    "mu": [[_is_label, _is_label, _FRACTION], ...],
    "rules": [[_is_label, _is_label, str, _is_label], ...],
}
_COMBINED_META = {
    "h_orders": [int, ...],
    "omega": [[_is_label, {"alpha": [int, ...], "beta": [int, ...]}], ...],
}
# the param of a rule, by tag; any other tag takes a label
_RULE_PARAM = {"pairs": [[_is_label, _is_label], ...], "match_coord": int}
_STRATEGY_FILE = {"algebra": _ALGEBRA, "pvms": [[_is_label, [[_is_label, _ELEMENT], ...]], ...]}


class Game:
    """Questions, a rational pair distribution, answer sets, decision rules.

    ``rules`` maps an ordered support pair to a tagged rule; the rule is
    shared by the reversed pair through :meth:`accepts`, which keeps the
    decision symmetric by construction.  Tags:

    - ("pairs", pairset): explicit accepted (a, b) pairs,
    - ("match_coord", k): accept when a == b[k] (b a tuple answer),
    - ("pauli_x", h): accept when <chi, h> == b for a character answer chi,
    - ("pauli_z", chi): accept when <chi, h> == b for a group answer h.

    A combined game (:func:`combined_game`) also holds its Pauli data once:
    ``h_group``, the group the two Pauli rule tags pair over, and ``omega``,
    each label taken to its weight, alpha and beta.  Everything else of the
    Pauli structure is derived from them: the laws of alpha and beta
    (computed once), :meth:`sign`, :meth:`case_of` and
    :attr:`rigidity_constant`.  Other games leave both ``None``.
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
        # a combined game's Pauli data, set by combined_game alone
        self.h_group = None
        self.omega = None

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

    @cached_property
    def alpha_law(self) -> ProbMeasure:
        """The law of alpha on ``h_group``."""
        return ProbMeasure(self.h_group, _marginal((g, p) for p, g, _ in self.omega.values()))

    @cached_property
    def beta_law(self) -> ProbMeasure:
        """The law of beta on the dual of ``h_group``."""
        dual = self.h_group.dual()
        return ProbMeasure(dual, _marginal((g, p) for p, _, g in self.omega.values()))

    @property
    def rigidity_constant(self) -> Fraction:
        """c c' = kappa(alpha law) kappa(beta law), the gap constants of the
        certificate 1320 c c' epsilon; exact at exponent 2."""
        laws = (self.alpha_law, self.beta_law)
        return math.prod(kappa(law.group, law).kappa for law in laws)

    def sign(self, w) -> int:
        """<beta(w), alpha(w)>: 1 routes label ``w`` to the commutation
        sub-game, -1 to the magic square."""
        return _sign(self.h_group, self.omega[w])

    @staticmethod
    def case_of(pair) -> int:
        """The case of a combined game's support pair: 1 for PX against a
        sub-game question, 3 for PZ, 2 for a pair inside a sub-game."""
        return {"PX": 1, "PZ": 3}.get(pair[0], 2)

    def to_jsonable(self) -> dict:
        """Questions with their answers, mu and rules, in the game's order;
        a combined game adds its group orders and its omega labels with
        alpha and beta under ``meta``.  Nothing derived is written."""
        out = {
            "questions": [
                [_encode(x), [_encode(a) for a in self.answers[x]]]
                for x in self.questions
            ],
            "mu": [[_encode(x), _encode(y), _frac_str(p)] for (x, y), p in self.mu.items()],
            "rules": [
                [_encode(x), _encode(y), tag,
                 sorted(map(_encode, param), key=repr) if tag == "pairs" else _encode(param)]
                for (x, y), (tag, param) in self.rules.items()
            ],
        }
        if self.omega is not None:
            out["meta"] = {
                "h_orders": list(self.h_group.orders),
                "omega": [
                    [_encode(w), {"alpha": _encode(pt.alpha), "beta": _encode(pt.beta)}]
                    for w, pt in self.omega.items()
                ],
            }
        return out

    @classmethod
    def from_jsonable(cls, obj: dict) -> "Game":
        """The game of a file written by :meth:`to_jsonable`.

        A file with ``meta.omega`` is a combined game: it is rebuilt by
        :func:`combined_game` from ``meta.h_orders`` and the alpha and beta
        of ``meta.omega``, the labels taken in the order they first appear
        in ``questions`` and each weight as three times the mass of the
        label's PX pair.  Every other ``meta`` key is ignored, and a file
        whose questions, answers, mu or rules differ from the rebuild raises
        :class:`InvalidArgument`, as does a file with Pauli rules and no
        ``meta.omega`` or a file of another shape (:func:`check_shape`).
        """
        check_shape(obj, _GAME_FILE)
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
        for i, (x, y, tag, param) in enumerate(obj["rules"]):
            check_shape(param, _RULE_PARAM.get(tag, _is_label), f"file['rules'][{i}][3]")
            if tag == "pairs":
                param = frozenset(_decode(p) for p in param)
            else:
                param = _decode(param)
            rules[(_decode(x), _decode(y))] = (tag, param)
        meta = check_shape(obj.get("meta", {}), {}, "file['meta']")
        if "omega" not in meta:
            if any(tag in ("pauli_x", "pauli_z") for tag, _ in rules.values()):
                raise InvalidArgument("Pauli rules need the group and omega of a combined game")
            return cls(questions, answers, mu, rules)
        check_shape(meta, _COMBINED_META, "file['meta']")
        points = {_decode(w): d for w, d in meta["omega"]}
        labels = dict.fromkeys(x[0] for x in questions if isinstance(x, tuple) and len(x) == 2)
        if set(labels) != set(points):
            raise InvalidArgument("the omega labels differ from the labels of the questions")
        weight = {
            y[0]: 3 * p for (x, y), p in mu.items() if x == "PX" and isinstance(y, tuple) and y
        }
        game = combined_game(
            AbelianGroup(tuple(meta["h_orders"])),
            {w: weight.get(w, 0) for w in labels},
            {w: _decode(points[w]["alpha"]) for w in labels},
            {w: _decode(points[w]["beta"]) for w in labels},
        )
        read = {"questions": tuple(questions), "answers": answers, "mu": mu, "rules": rules}
        differ = [name for name, part in read.items() if getattr(game, name) != part]
        if differ:
            raise InvalidArgument(f"the file's {', '.join(differ)} differ from the rebuilt game")
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


def strategy_to_jsonable(strategy: SynchronousStrategy) -> dict:
    alg = strategy.algebra
    out = {
        "algebra": [[d, _frac_str(Fraction(w))] for d, w in zip(alg.dims, alg.weights)],
        "pvms": [],
    }
    for x, pvm in sorted(strategy.pvms.items(), key=repr):
        # read off the stacks, so no element (a complex copy of a real
        # stack) is built and kept on the PVM
        entries = [
            [_encode(a), _element_to_json([s[i] for s in pvm.stacks])]
            for i, a in enumerate(pvm.outcomes)
        ]
        out["pvms"].append([_encode(x), entries])
    return out


def strategy_from_jsonable(obj: dict) -> SynchronousStrategy:
    """The strategy of a file written by :func:`strategy_to_jsonable`, every
    PVM validated; a file of another shape (:func:`check_shape`) raises
    :class:`InvalidArgument`."""
    check_shape(obj, _STRATEGY_FILE)
    alg = TracialAlgebra([(d, Fraction(w)) for d, w in obj["algebra"]])
    pvms = {}
    for x_enc, entries in obj["pvms"]:
        outcomes = [_decode(a_enc) for a_enc, _ in entries]
        projections = [_element_from_json(alg, blocks) for _, blocks in entries]
        pvms[_decode(x_enc)] = PVM(alg, outcomes, projections)
    return SynchronousStrategy(alg, pvms)


# -- value ----------------------------------------------------------------------


def _sign_observable(pvm: PVM) -> AlgebraElement:
    """P_1 - P_-1, read off the stacks, so no element (a complex copy of a
    real stack) is built.  The rows are promoted before the subtraction, so
    the difference of two float16 rows is formed in complex, not float16."""
    i, j = pvm.index(1), pvm.index(-1)
    return AlgebraElement(pvm.algebra, [np.subtract(s[i], s[j], dtype=complex) for s in pvm.stacks])


def _pair_value(game: Game, held: dict, x, y, cache):
    """sum_{a, b} D(x, y, a, b) tau(P^x_a P^y_b) for one support pair, the
    PVMs of ``x`` and ``y`` read from ``held``."""
    rule, swapped = game._rule_for(x, y)
    if swapped:
        x, y = y, x  # tau(PQ) = tau(QP): evaluate in the rule's orientation
    tag, param = rule
    px, py = held[x], held[y]
    alg = px.algebra

    def accepted(pairs):
        """sum over the accepted (a, b) of Re tau(P^x_a P^y_b)."""
        i, j = [px.index(a) for a, _ in pairs], [py.index(b) for _, b in pairs]
        return _trace_pairing(alg, px.stacks, py.stacks, i, j)

    if tag == "pairs":
        return accepted(list(param))
    if tag == "match_coord":
        return accepted([(b[param], b) for b in py.outcomes])
    if tag in ("pauli_x", "pauli_z"):
        group = game.h_group

        def signs():
            """<a, param> (pauli_x) or <param, a> (pauli_z) over the outcomes
            a: the pairing is symmetric, so both are the character row of
            param, exactly +-1 at exponent 2."""
            if "characters" not in cache:
                cache["characters"] = group.character_table().real
            row = cache["characters"][group.index(param)]
            return row[np.ravel_multi_index(tuple(np.array(px.outcomes).T), group.orders)]

        def explicit():
            return accepted(list(zip(px.outcomes, signs())))

        key = (x, tag, param)
        if key not in cache:
            # the observable sum_a <a, .> P_a selecting the accepted signs
            cache[key] = _weighted_sums(signs()[None], px.stacks)
        t = [blk[None] for blk in _sign_observable(py).blocks]
        short = 0.5 + 0.5 * _trace_pairing(alg, cache[key], t, [0], [0])
        # cheap regimes cross-check the shortcut against the literal sum
        if group.order <= 16 and abs(short - explicit()) > 1e-10:
            raise GapstabError("observable shortcut disagrees with the explicit sum")
        return short
    raise InvalidArgument(f"unknown decision tag {tag!r}")


def value(game: Game, strategy: SynchronousStrategy) -> float:
    """Accepted mass of the strategy: integral of the decision over mu.

    Every tau(P Q) is a Hadamard-product trace sum_{ij} P[i, j] Q[j, i] on
    the PVM stacks, O(d^2) per term instead of a d^3 product.
    Pauli-consistency pairs are evaluated through the sign observable
    sum_a <a, .> P_a (one trace per pair instead of a sum over the whole
    answer group); on answer groups of order at most 16 each such pair is
    cross-checked against the literal double sum.  The literal table of
    every rule is :func:`expand_rules`.  The strategy's PVMs go through
    :func:`_value_terms` as one stream, so their order does not change the
    number.
    """
    return _value_terms(game, strategy.pvms.items())[0]


def _value_terms(game: Game, pvms, keep=()) -> tuple:
    """The value, its terms {(x, y): mu(x, y) times the pair's value} and the
    PVMs of the questions in ``keep``, from one pass over a stream ``pvms``
    of ``(question, PVM)`` pairs.

    The pair terms are summed in ``game.mu`` order, with one cache for every
    pair, whatever the order of the stream: a PVM is held from its arrival
    until its question's last support pair has been summed, and then dropped
    unless its question is in ``keep``.  A stream in the order of ``game.mu``
    (an honest strategy and its perturbations, one omega label after another)
    thus holds one sub-game at a time.  Each question's answer set is checked
    once, as its PVM arrives.  The whole stream is read; a question of a
    support pair that never arrives, then a PVM whose outcomes are not the
    question's answer set (the first in ``game.mu`` order), raise
    :class:`InvalidArgument`.
    """
    pairs = list(game.mu.items())
    last = {q: t for t, (pair, _) in enumerate(pairs) for q in pair}
    held, kept, terms, cache = {}, {}, {}, {}
    seen, mismatched = set(), set()
    total = 0.0
    t = 0
    for x, pvm in pvms:
        seen.add(x)
        if x in keep:
            kept[x] = pvm
        if x not in last:
            continue
        if set(pvm.outcomes) != set(game.answers[x]):
            mismatched.add(x)
        if mismatched:
            continue  # read on, so a missing question is still reported first
        held[x] = pvm
        while t < len(pairs) and all(q in held for q in pairs[t][0]):
            (a, b), p = pairs[t]
            terms[(a, b)] = term = float(p) * _pair_value(game, held, a, b, cache)
            total += term
            for q in (a, b):
                if last[q] == t:
                    held.pop(q, None)
            t += 1
    missing = [x for pair in game.mu for x in pair if x not in seen]
    if missing:
        raise InvalidArgument(f"strategy lacks PVMs for {sorted(set(map(repr, missing)))}")
    if mismatched:
        q = next(q for pair in game.mu for q in pair if q in mismatched)
        raise InvalidArgument(f"answer set mismatch at question {q!r}")
    if total < -1e-9 or total > 1 + 1e-9:
        raise GapstabError(f"game value {total} escaped [0, 1]")
    return min(max(total, 0.0), 1.0), terms, kept


def expand_rules(game: Game) -> Game:
    """Replace every intensional rule by its explicit accepted-pair table.

    Cross-check helper: values computed against the expanded game must
    agree with the tagged evaluators.  ``_RULE_TABLE_CAP`` bounds the
    answer-pair count per rule.  The result is a plain game with the same
    questions and mu order: it carries no group or omega, so it writes and
    reloads as a plain game file, and :func:`pauli_rigidity_report` refuses
    it.
    """
    rules = {}
    for (x, y), (tag, param) in game.rules.items():
        if tag == "pairs":
            rules[(x, y)] = (tag, param)
            continue
        na, nb = len(game.answers[x]), len(game.answers[y])
        if na * nb > _RULE_TABLE_CAP:
            raise ResourceCap(f"rule table for ({x!r}, {y!r}) has {na * nb} entries")
        table = frozenset(
            (a, b)
            for a in game.answers[x]
            for b in game.answers[y]
            if game.accepts(x, y, a, b)
        )
        rules[(x, y)] = ("pairs", table)
    return Game(game.questions, game.answers, game.mu, rules)


# -- closeness -------------------------------------------------------------------


@dataclass
class ClosenessCertificate:
    """The three quantities defining closeness of synchronous strategies.

    ``trace_defect_base`` is tau(1 - w* w) in the base algebra;
    ``trace_defect_corner`` is tau'(1 - w w*) in the corner trace normalized
    so tau'(1) = 1; ``strategy_distance`` is the uniform question average
    of sum_a ||P^x_a - w* Q^x_a w||_2^2.  ``w`` is the isometry from the
    base algebra into the corner, one (corner_b x base_b) matrix per block.
    """

    w: tuple
    trace_defect_base: float
    trace_defect_corner: float
    strategy_distance: float
    per_question: dict

    def report(self) -> dict:
        return {
            "trace_defect_base": self.trace_defect_base,
            "trace_defect_corner": self.trace_defect_corner,
            "strategy_distance": self.strategy_distance,
            "per_question": dict(self.per_question),
        }


def _trace_defect(algebra: TracialAlgebra, grams) -> float:
    """Re tau(1 - G) for one Gram matrix G per block of ``algebra``."""
    total = sum(c * np.trace(np.eye(len(g)) - g) for c, g in zip(algebra.coeffs, grams))
    return float(np.real(total))


def closeness(
    strat_a: SynchronousStrategy, strat_b: SynchronousStrategy, w: tuple
) -> ClosenessCertificate:
    """Measure how close strat_a is to the corner strategy strat_b via w.

    ``w`` holds one (corner_b x base_b) matrix per block, the base being
    strat_a's algebra and the corner strat_b's.  The question average is
    uniform over the common questions, of which there must be one; answer
    sets must agree question by question.  The corner projection is the
    identity of strat_b's algebra.
    """
    base = strat_a.algebra
    corner = strat_b.algebra
    questions = sorted(
        set(strat_a.pvms) & set(strat_b.pvms), key=repr
    )
    if not questions:
        raise InvalidArgument("the strategies share no question")
    weights = {x: 1.0 / len(questions) for x in questions}
    trace_base = _trace_defect(base, [m.conj().T @ m for m in w])
    trace_corner = _trace_defect(corner, [m @ m.conj().T for m in w]) / corner.tau_one
    per_question = {}
    for x in weights:
        pa, pb = strat_a[x], strat_b[x]
        if set(pa.outcomes) != set(pb.outcomes):
            raise InvalidArgument(f"answer sets differ at question {x!r}")
        order = [pb.index(a) for a in pa.outcomes]
        pulled = _pullback_sq(w, base.coeffs, pa.stacks, [s[order] for s in pb.stacks])
        per_question[x] = float(pulled.sum())
    distance = sum(float(weights[x]) * per_question[x] for x in weights)
    return ClosenessCertificate(
        w=w,
        trace_defect_base=trace_base,
        trace_defect_corner=trace_corner,
        strategy_distance=distance,
        per_question=per_question,
    )


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
    return Game(questions, answers, mu, rules)


CommutationBounds = namedtuple(
    "CommutationBounds",
    ["lhs_projections", "bound_projections", "lhs_unitary", "bound_unitary"],
)


def commutation_bound_check(strategy: SynchronousStrategy, epsilon: float) -> CommutationBounds:
    """Almost-commutation forced by a near-perfect commutation-game value.

    Restricts the strategy to the two marginal questions ``"x1"`` and
    ``"x2"`` of :func:`commutation_game`.  lhs_projections
    = sum_{a,b} ||[p_a, q_b]||_2^2 against 16 epsilon; for +-1 answer sets
    also the observable form ||[p_1 - p_-1, q_1 - q_-1]||_2^2 against
    64 epsilon.
    """
    p_pvm = strategy["x1"]
    q_pvm = strategy["x2"]
    alg = p_pvm.algebra
    lhs = 0.0
    qs = q_pvm.projections
    for p in p_pvm.projections:
        for q in qs:
            lhs += alg.norm2(p * q - q * p) ** 2
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
    return Game(questions, answers, mu, rules)


AnticommutationBounds = namedtuple(
    "AnticommutationBounds",
    ["lhs", "bound", "eta_by_line", "eta_square_sum", "eta_square_bound"],
)


def anticommutation_bound_check(
    strategy: SynchronousStrategy, epsilon: float
) -> AnticommutationBounds:
    """Anticommutation at the distinguished cells forced by a large value.

    lhs = ||UV + VU||_2^2 for the (1,1) and (2,2) sign observables, bounded
    by 432 epsilon.  The per-line defect eta_l^2 is the mean over the line's
    three cells of ||A_c - B_{c,l}||_2^2, the distance of the cell observable
    from the one the line induces on that cell.  Since ||A - B||_2^2 is four
    times the disagreement probability of two +-1 observables and each of
    the 18 (cell, line) questions has mass 1/18, sum_l eta_l^2 = 24 epsilon
    when epsilon is the strategy's 1 - value: the budget is checked (it
    raises past rounding) as well as returned.
    """
    alg = strategy.algebra
    obs = {c: _sign_observable(strategy[c]) for c in _CELLS}
    eta_by_line = {}
    for line in _LINES:
        pvm = strategy[line]
        # row k: the observable sum_b b[k] P_b the line induces on its k-th cell
        induced = _weighted_sums(np.array(pvm.outcomes, dtype=float).T, pvm.stacks)
        total = 0.0
        for c, blocks in zip(line_cells(line), zip(*induced)):
            total += alg.norm2(obs[c] - AlgebraElement(alg, blocks)) ** 2
        eta_by_line[line] = math.sqrt(total / 3)
    u = obs[(1, 1)]
    v = obs[(2, 2)]
    lhs = alg.norm2(u * v + v * u) ** 2
    eta_sq = sum(e**2 for e in eta_by_line.values())
    _check_bound(eta_sq, ETA_SQUARE_CONSTANT * epsilon, "sum of line defects")
    return AnticommutationBounds(
        lhs,
        ANTICOMMUTATION_CONSTANT * epsilon,
        eta_by_line,
        eta_sq,
        ETA_SQUARE_CONSTANT * epsilon,
    )


# -- exact PVMs from signed permutations --------------------------------------------


class SignedPerm:
    """A real signed permutation matrix O, with O[i, perm[i]] = sign[i].

    The two integer arrays make products, Kronecker products and comparisons
    exact.  ``perm`` must be a permutation of range(d) and ``sign`` a
    matching array of +-1 integers; anything else raises
    :class:`InvalidArgument`.  Such an O is orthogonal, so it is a
    self-adjoint involution exactly when its square is the identity.
    """

    __slots__ = ("perm", "sign")

    def __init__(self, perm, sign):
        perm, sign = np.asarray(perm), np.asarray(sign)
        if (
            perm.ndim != 1
            or sign.shape != perm.shape
            or perm.dtype.kind not in "iu"
            or sign.dtype.kind not in "iu"
            or not np.array_equal(np.sort(perm), np.arange(len(perm)))
            or not np.isin(sign, (-1, 1)).all()
        ):
            raise InvalidArgument(
                "not a signed permutation: perm must permute range(d), sign be +-1"
            )
        self.perm = perm.astype(np.intp)
        self.sign = sign.astype(np.int8)

    @classmethod
    def _of(cls, perm, sign) -> "SignedPerm":
        """An instance on arrays already known to form a signed permutation,
        such as a product of two: kept as they are, not checked."""
        obj = cls.__new__(cls)
        obj.perm, obj.sign = perm, sign
        return obj

    @classmethod
    def identity(cls, d: int) -> "SignedPerm":
        return cls._of(np.arange(d), np.ones(d, dtype=np.int8))

    def is_scalar(self, s: int = 1) -> bool:
        """Whether this is ``s`` times the identity."""
        return bool((self.perm == np.arange(len(self))).all() and (self.sign == s).all())

    def __len__(self):
        return len(self.perm)

    def __matmul__(self, other: "SignedPerm") -> "SignedPerm":
        if len(other) != len(self):
            raise InvalidArgument(f"signed permutations of sizes {len(self)} and {len(other)}")
        return SignedPerm._of(other.perm[self.perm], self.sign * other.sign[self.perm])

    def kron(self, other: "SignedPerm") -> "SignedPerm":
        """The Kronecker product, ``self`` the outer factor."""
        perm = self.perm[:, None] * len(other) + other.perm
        return SignedPerm._of(perm.ravel(), (self.sign[:, None] * other.sign).ravel())

    def __eq__(self, other):
        return bool(
            len(self) == len(other)
            and (self.perm == other.perm).all()
            and (self.sign == other.sign).all()
        )

    __hash__ = None


_SIGMA_X = SignedPerm([1, 0], [1, 1])
_SIGMA_Z = SignedPerm([0, 1], [1, -1])
_ONE_QUBIT = SignedPerm.identity(2)


def _exact_pvm(alg, outcomes, stack) -> PVM:
    """The PVM of ``outcomes`` on one (k, n, n) stack of projections formed
    exactly in binary64, stored through :meth:`PVM._trusted` as a real
    float16 stack: a quarter of the float64 bytes and an eighth of a complex
    stack's.

    The stack is the caller's exact projections (dyadic entries of signed
    permutations), so every validation residual is exactly zero and the
    recorded ``residual`` is the rounding slack alone, the value a full
    validation records.  Two checks are left, both exact: the projections
    must sum to the identity, else a nonzero projection is missing, and
    every entry must survive the cast to float16, as the entries +-2^-k or
    0 (k <= 12) of the Pauli strategies do; either failure raises
    :class:`InvalidPVM`.
    """
    outcomes = list(outcomes)
    stack = np.asarray(stack, dtype=float)
    n = stack.shape[-1]
    if len(set(outcomes)) != len(outcomes):
        raise InvalidPVM("duplicate outcome labels")
    if not np.array_equal(stack.sum(axis=0), np.eye(n)):
        raise InvalidPVM("the projections do not sum to the identity")
    half = stack.astype(np.float16)
    if not np.array_equal(half, stack):
        raise InvalidPVM("the projections are not exact in float16")
    return PVM._trusted(alg, outcomes, (half,), _rounding_slack(n, len(outcomes)))


def _joint_stack(signs: np.ndarray, ops) -> np.ndarray:
    """prod_k (1 + b_k O_k) / 2 for every row b of the (K, m) array of signs
    ``signs``, as a real (K, d, d) stack, from one pass over the 2^m
    subset products O_S: the projection is 2^-m sum_S (prod_{k in S} b_k) O_S.
    Every O_S is a signed permutation, so each entry is a sum of terms
    +-2^-m, formed exactly (one ``bincount`` over the K 2^m d nonzero
    entries), and a zero entry is +0."""
    count, m = signs.shape
    d = len(ops[0])
    terms = [(SignedPerm.identity(d), np.full(count, 0.5**m))]
    for o, s in zip(ops, signs.T):
        terms += [(op @ o, coef * s) for op, coef in terms]
    # entry (b, i, perm_S[i]) of outcome b receives coef_S[b] sign_S[i]
    cells = np.arange(d) * d + np.array([op.perm for op, _ in terms])
    cells = (np.arange(count) * d * d)[:, None, None] + cells
    values = np.array([coef[:, None] * op.sign for op, coef in terms]).transpose(1, 0, 2)
    flat = np.bincount(cells.ravel(), weights=values.ravel(), minlength=count * d * d)
    return flat.reshape(count, d, d)


def _spectral_pvm(alg, outcomes, signs, ops) -> PVM:
    """The PVM taking each label of ``outcomes`` to the joint spectral
    projection of the commuting self-adjoint involutions ``ops`` at the
    matching sign tuple of ``signs``.  The laws of ``ops`` are checked
    exactly, and a failure raises :class:`GapstabError`, before any stack
    is formed."""
    for o in ops:
        if not (o @ o).is_scalar():
            raise GapstabError("an observable is not a self-adjoint involution")
    for a, b in itertools.combinations(ops, 2):
        if a @ b != b @ a:
            raise GapstabError("the observables do not commute")
    if any(len(b) != len(ops) or not set(b) <= {-1, 1} for b in signs):
        raise InvalidPVM(f"outcomes must be tuples of {len(ops)} signs +-1")
    signs = np.array(signs, dtype=int).reshape(len(signs), len(ops))
    return _exact_pvm(alg, outcomes, _joint_stack(signs, ops))


# -- Pauli PVMs -------------------------------------------------------------------

# the one-qubit X- and Z-basis projections, indexed by the outcome bit
_TAU_X = np.array([[[0.5, 0.5], [0.5, 0.5]], [[0.5, -0.5], [-0.5, 0.5]]])
_TAU_Z = np.array([[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.0, 1.0]]])


def pauli_pvms(n: int):
    """The X- and Z-basis product PVMs on 2^n dimensions.

    Outcomes are the elements of (Z/2)^n read as characters (X side) and
    group elements (Z side); the associated unitary representations are the
    translations and the modulations.  The projections are Kronecker
    products of the exact one-qubit ones, so they are stored through
    :func:`_exact_pvm` with completeness checked exactly.
    """
    if n < 1:
        raise InvalidArgument("the number of qubits must be positive")
    if n > PAULI_DIM_CAP:
        raise ResourceCap(f"{n} qubits exceed the cap {PAULI_DIM_CAP}")
    group = boolean_group(n)
    alg = TracialAlgebra.matrix(2**n)
    # the Kronecker product of stacks runs the outcome bits, first bit outermost,
    # in the order of group.elements
    x_stack = z_stack = np.ones((1, 1, 1))
    for _ in range(n):
        x_stack, z_stack = np.kron(x_stack, _TAU_X), np.kron(z_stack, _TAU_Z)
    return _exact_pvm(alg, group.elements, x_stack), _exact_pvm(alg, group.elements, z_stack)


def _pauli(letter: SignedPerm, bits) -> SignedPerm:
    """letter^{bits_1} (x) ... (x) letter^{bits_n}, first bit outermost: X^h
    for ``_SIGMA_X`` and Z^chi for ``_SIGMA_Z``, the images of h and chi
    under the representations of the Pauli PVMs (:func:`rep_from_pvm`)."""
    out = SignedPerm.identity(1)
    for b in bits:
        out = out.kron(letter if b else _ONE_QUBIT)
    return out


# -- the combined game ------------------------------------------------------------


OmegaPoint = namedtuple("OmegaPoint", "weight alpha beta")


def _marginal(pairs) -> dict:
    """The total weight of each key of an iterable of (key, weight) pairs, in
    order of first appearance."""
    out = {}
    for key, p in pairs:
        out[key] = out.get(key, 0) + p
    return out


def _sign(h_group: AbelianGroup, pt: OmegaPoint) -> int:
    return int(h_group.pairing(pt.beta, pt.alpha))


def _check_independent(game: Game):
    """Raise unless the joint law of (alpha, beta) is the product of their laws."""
    joint = _marginal(((pt.alpha, pt.beta), pt.weight) for pt in game.omega.values())
    for a, pa in game.alpha_law.weights.items():
        for b, pb in game.beta_law.weights.items():
            if joint.get((a, b), 0) != pa * pb:
                raise InvalidArgument(
                    "alpha and beta are not independent under the supplied "
                    "probability space"
                )


def combined_game(h_group: AbelianGroup, omega, alpha, beta) -> Game:
    """Pauli-basis test from two independent group-valued variables.

    ``omega`` maps labels to rational weights; ``alpha`` and ``beta`` take
    each label to an element of ``h_group`` and of its dual.  The sign of
    the pairing <beta(w), alpha(w)> routes each label to the commutation or
    the anticommutation sub-game; PX and PZ carry the whole-group answer
    sets and consistency rules against the sub-games' distinguished
    questions (x1, x2 and the cells (1, 1), (2, 2)).

    Here alpha and beta are checked, for games built in memory and read from
    files alike.  The game stores ``h_group`` and ``omega``, each nonzero
    label taken to its :class:`OmegaPoint` in the given order (see
    :class:`Game` for what is derived from them).
    """
    if not isinstance(h_group, AbelianGroup) or h_group.exponent > 2:
        raise InvalidArgument("the question group must be abelian of exponent 2")
    points = {
        w: OmegaPoint(Fraction(p), alpha[w], beta[w]) for w, p in omega.items() if Fraction(p) != 0
    }
    if sum(pt.weight for pt in points.values()) != 1:
        raise InvalidArgument("omega weights must sum to 1")
    for w, pt in points.items():
        if pt.alpha not in h_group or pt.beta not in h_group.dual():
            raise InvalidArgument(f"alpha/beta out of range at {w!r}")

    sub = {
        1: (commutation_game((-1, 1), (-1, 1)), "x1", "x2"),
        -1: (magic_square_game(), (1, 1), (2, 2)),
    }
    questions = ["PX", "PZ"]
    answers = {"PX": tuple(h_group.elements), "PZ": tuple(h_group.elements)}
    mu = {}
    rules = {}
    third = Fraction(1, 3)
    for w, pt in points.items():
        game_w, x1, x2 = sub[_sign(h_group, pt)]
        for q in game_w.questions:
            label = (w, q)
            questions.append(label)
            answers[label] = game_w.answers[q]
        mu[("PX", (w, x1))] = third * pt.weight
        rules[("PX", (w, x1))] = ("pauli_x", pt.alpha)
        mu[("PZ", (w, x2))] = third * pt.weight
        rules[("PZ", (w, x2))] = ("pauli_z", pt.beta)
        for (qx, qy), pq in game_w.mu.items():
            pair = ((w, qx), (w, qy))
            mu[pair] = third * pt.weight * pq
            rules[pair] = game_w.rules[(qx, qy)]
    game = Game(questions, answers, mu, rules)
    game.h_group, game.omega = h_group, MappingProxyType(points)
    _check_independent(game)
    return game


def game_from_code(code: LinearCode, code2: LinearCode | None = None) -> Game:
    """The combined game driven by the column measures of two binary codes.

    Omega is the product of the two supports carrying the product of the
    column laws; alpha and beta are the coordinate projections, and the
    dual is identified with the group through the bit-sum pairing.  The
    game's ``rigidity_constant`` is then kappa * kappa' of the two codes.
    """
    if code2 is None:
        code2 = code
    if code.q != 2 or code2.q != 2:
        raise InvalidArgument("the construction needs binary codes")
    if code.dim != code2.dim:
        raise InvalidArgument("codes must have the same dimension")
    group_a, mu_a, _ = measure_from_code(code)
    _, mu_b, _ = measure_from_code(code2)
    omega = {}
    alpha = {}
    beta = {}
    for a, pa in mu_a.items_nonzero():
        for b, pb in mu_b.items_nonzero():
            w = (a, b)
            omega[w] = pa * pb
            alpha[w] = a
            beta[w] = b
    return combined_game(group_a, omega, alpha, beta)


def gn_game(n: int, rng=None) -> Game:
    """A rigidity game for n qubits from one good binary code.

    Rejection-samples a [4n, n, >= n+1] code with ``rng``; both measure
    slots use it.  For a given code, call :func:`game_from_code`.
    """
    return game_from_code(random_code(2, 4 * n, n, n + 1, rng=rng))


# -- honest strategies ------------------------------------------------------------


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


def _magic_grid(p: SignedPerm, q: SignedPerm) -> dict:
    """Nine involutions completing the anticommuting pair (p, q), as signed
    permutations on twice the dimension.

    p and q sit at the distinguished cells; an auxiliary qubit supplies a
    second anticommuting pair, and every remaining cell is the product of
    commuting generators.  The grid laws (self-adjoint involutions, lines
    pairwise commuting, line products equal to the line signs) are checked
    exactly, and a failure raises :class:`GapstabError`.
    """
    one = SignedPerm.identity(len(p))
    gens = {
        "P": p.kron(_ONE_QUBIT),
        "Q": q.kron(_ONE_QUBIT),
        "X": one.kron(_SIGMA_X),
        "Z": one.kron(_SIGMA_Z),
    }
    grid = {}
    for cell, word in _GRID_WORDS.items():
        m = gens[word[0]]
        for letter in word[1:]:
            m = m @ gens[letter]
        grid[cell] = m
    for cell, m in grid.items():
        if not (m @ m).is_scalar():
            raise GapstabError(f"grid observable at {cell} is not an involution")
    for line in _LINES:
        cells = line_cells(line)
        for c1, c2 in itertools.combinations(cells, 2):
            if grid[c1] @ grid[c2] != grid[c2] @ grid[c1]:
                raise GapstabError(f"grid line {line} is not commuting at {c1},{c2}")
        a, b, c = (grid[cell] for cell in cells)
        if not (a @ b @ c).is_scalar(line_sign(line)):
            raise GapstabError(f"grid line {line} has the wrong product")
    return grid


def _sign_pvm(alg, op: SignedPerm) -> PVM:
    """The {-1, 1} spectral PVM of a self-adjoint involution."""
    return _spectral_pvm(alg, [-1, 1], [(-1,), (1,)], [op])


def _joint_pvm(alg, outcomes, ops) -> PVM:
    """Joint spectral PVM of commuting self-adjoint involutions ``ops``,
    indexed by sign tuples.

    ``outcomes`` lists the accepted sign tuples.  Their joint projections
    must sum to the identity, the others being zero; a list that misses a
    nonzero one raises :class:`InvalidPVM` (see :func:`_exact_pvm`).
    """
    return _spectral_pvm(alg, outcomes, outcomes, ops)


def _commuting_pvms(alg, p, q, answers) -> dict:
    """The commutation-game PVMs of commuting involutions p and q: x1 and x2
    answer with their signs, y with their joint PVM over ``answers``.  The
    pair's laws are checked, by the joint PVM, before any stack is formed."""
    joint = _joint_pvm(alg, answers, [p, q])
    return {"x1": _sign_pvm(alg, p), "x2": _sign_pvm(alg, q), "y": joint}


def _grid_pvms(alg, p, q, answers) -> dict:
    """The magic-square PVMs of the checked grid around anticommuting
    involutions p and q: each cell answers with the sign of its observable,
    each line with the joint PVM of its three cells over ``answers[line]``."""
    grid = _magic_grid(p, q)
    pvms = {cell: _sign_pvm(alg, grid[cell]) for cell in _CELLS}
    for line in _LINES:
        pvms[line] = _joint_pvm(alg, answers[line], [grid[c] for c in line_cells(line)])
    return pvms


def honest_strategy(game: Game) -> SynchronousStrategy:
    """A perfect strategy for a combined game, on one auxiliary qubit.

    PX and PZ answer with the Pauli PVMs (tensored with the auxiliary
    identity).  Commutation branches answer with the joint PVM of the
    commuting pair X^alpha and Z^beta; anticommutation branches build the
    magic-square grid around that pair.  Every observable is a signed
    permutation taken from the bits of alpha and beta, its laws are checked
    exactly, and every projection is formed exactly, so no PVM is validated
    in floating point and every PVM holds one real float16 stack (see
    :func:`_exact_pvm`).
    """
    if game.omega is None:
        raise InvalidArgument("the game does not carry combined-game structure")
    group = game.h_group
    tau_x, tau_z = pauli_pvms(len(group.orders))
    alg = TracialAlgebra.matrix(2 * group.order)
    # PX and PZ act as the Pauli PVMs on the qubits and trivially on the
    # auxiliary one: every projection p becomes p (x) 1_2
    pvms = {
        q: _exact_pvm(alg, pvm.outcomes, np.kron(pvm.stacks[0], np.eye(2)[None]))
        for q, pvm in (("PX", tau_x), ("PZ", tau_z))
    }
    for w, pt in game.omega.items():
        p, q = _pauli(_SIGMA_X, pt.alpha), _pauli(_SIGMA_Z, pt.beta)
        if game.sign(w) == 1:
            pw, qw = p.kron(_ONE_QUBIT), q.kron(_ONE_QUBIT)
            sub = _commuting_pvms(alg, pw, qw, game.answers[(w, "y")])
        else:
            answers = {line: game.answers[(w, line)] for line in _LINES}
            sub = _grid_pvms(alg, p, q, answers)
        pvms.update(((w, key), pvm) for key, pvm in sub.items())
    return SynchronousStrategy(alg, pvms)


def perturb_strategy(
    strategy: SynchronousStrategy, sigma: float, rng
) -> SynchronousStrategy:
    """Conjugate every question's PVM by an independent unitary e^{i sigma H}.

    H is Gaussian self-adjoint scaled to operator norm 1 per block, so the
    PVM structure is preserved up to rounding and sigma is the rotation
    angle.  Each conjugated PVM carries a residual bound derived from the
    honest PVM's and from the unitarity residual of e^{i sigma H} (see
    :meth:`PVM.conjugated`); it is validated in full only when that bound
    exceeds half of ``VALIDATION_TOL``.  The PVMs come from
    :func:`_perturbed_pvms`, which the rigidity sweep streams instead into
    the one rigidity core, quick and full points alike, without holding the
    perturbed strategy.  The noise comes from ``algebra._noise_unitaries``:
    when it spans several chunks and two CPUs are available, each chunk's
    ``eigh`` runs on one helper thread while this thread draws and conjugates;
    the PVMs and the state of ``rng`` afterwards are the same bit for bit.
    """
    return SynchronousStrategy(strategy.algebra, dict(_perturbed_pvms(strategy, sigma, rng)))


def _perturbed_pvms(strategy: SynchronousStrategy, sigma: float, rng):
    """``(question, conjugated PVM)`` pairs of :func:`perturb_strategy`, in
    strategy order, each PVM formed only when it is drawn: the noise is
    drawn chunk by chunk as the pairs are read, in the same order as when
    they are all read at once.  A stream left partway may have drawn up to
    ``algebra._LOOKAHEAD`` chunks of noise beyond the pairs read.  A
    negative sigma raises at once."""
    if sigma < 0:
        raise InvalidArgument("perturbation size must be nonnegative")
    alg = strategy.algebra
    noise = _noise_unitaries(alg.dims, len(strategy.pvms), sigma, rng)
    return (
        (x, pvm.conjugated(AlgebraElement(alg, blocks)))
        for (x, pvm), blocks in zip(strategy.pvms.items(), noise)
    )


# -- rigidity ---------------------------------------------------------------------


def pauli_rigidity_report(game: Game, strategy: SynchronousStrategy) -> dict:
    """Measure a strategy's rigidity: value, defects, bounds, closeness.

    Computes epsilon = 1 - value and the three per-case defects; checks the
    twisted-commutation bound 1320 c c' epsilon at the PX/PZ restriction;
    rounds the PX/PZ representation pair to an exactly twisted pair and
    reports the strategy-level closeness certificate of the corner strategy
    it induces, together with the unitary/PVM bridge residual.  The value,
    the case values and the pair's defects and gap constants come once each.
    The strategy's PVMs stream into :func:`_rigidity`, the one implementation
    the rigidity sweep shares, which checks the rounding cap before it reads
    a PVM.
    """
    return _rigidity(game, strategy.algebra, strategy.pvms.items(), rounding=True)


def _rigidity(game: Game, algebra: TracialAlgebra, pvms, rounding: bool) -> dict:
    """The rigidity report of a strategy on ``algebra`` whose PVMs come as a
    stream ``pvms`` of ``(question, PVM)`` pairs, read once by
    :func:`_value_terms`, which holds only PX and PZ past their last pair.
    With ``rounding`` the extension is built and the rounding cap checked
    before the stream is read; without it the report stops at ``prop_ratio``.
    """
    if game.omega is None:
        raise InvalidArgument("the game does not carry combined-game structure")
    group, dual = game.h_group, game.h_group.dual()
    ext = _pauli_extension(group, dual, algebra.dims) if rounding else None
    val, terms, kept = _value_terms(game, pvms, keep=("PX", "PZ"))
    eps = 1.0 - val
    # one minus the conditional value of each of the three combined-game cases
    masses = {1: Fraction(0), 2: Fraction(0), 3: Fraction(0)}
    sums = {1: 0.0, 2: 0.0, 3: 0.0}
    for pair, p in game.mu.items():
        case = game.case_of(pair)
        masses[case] += p
        sums[case] += terms[pair]
    eps_cases = {c: 1.0 - (sums[c] / float(masses[c]) if masses[c] else 1.0) for c in sums}
    eps_sum = sum(eps_cases.values())

    _check_bound(eps_sum, 3.0 * eps, "sum of per-case defects")

    u_rep = rep_from_pvm(kept["PX"], group)
    v_rep = rep_from_pvm(kept["PZ"], dual)
    pair = _pauli_pair(u_rep, v_rep, game.alpha_law, game.beta_law, ext)
    lhs, c_alpha, c_beta = float(pair.defects.mean()), pair.k_mu, pair.k_nu
    prop_bound = COMBINED_CONSTANT * c_alpha * c_beta * eps
    _check_bound(lhs, prop_bound, "twisted commutation defect")
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
        "prop_ratio": _ratio(lhs, prop_bound),
    }
    if not rounding:
        return report

    tr = _round_pauli(pair).rounding
    corner = {"PX": pvm_from_rep(tr.u_tilde), "PZ": pvm_from_rep(tr.v_tilde)}
    corner_strategy = SynchronousStrategy(tr.u_tilde.algebra, corner)
    cert = closeness(SynchronousStrategy(algebra, kept), corner_strategy, tr.w)
    report.update(
        rounding_epsilon=tr.epsilon,
        rounding_distance_u=tr.distance_u,
        rounding_distance_v=tr.distance_v,
        relation_residual=tr.relation_residual,
        closeness=cert.report(),
        closeness_constant=(
            cert.strategy_distance / (c_alpha * c_beta * eps) if eps > 1e-300 else None
        ),
        # the unitary/PVM bridge: E_a ||U(a) - w* U~(a) w||^2 is the rounding's
        # distance_u, sum_chi ||P_chi - w* P~_chi w||^2 the certificate's PX term
        bridge_residual=abs(tr.distance_u - cert.per_question["PX"]),
        certificate=cert,
    )
    return report
