"""Command-line driver for experiments, verification suites, and reports.

Every invocation normalizes to an :class:`ExperimentManifest` (seed,
operation, parameters, output path), so a run can be replayed exactly from
a saved manifest via the ``run`` subcommand.  Exit codes: 0 success,
2 bound violation, 3 invalid input, 4 resource cap.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from . import algebra, stability
from .abelian import AbelianGroup
from .algebra import AlmostHom, TracialAlgebra
from .codes import measure_from_code, read_code_file
from .errors import GapstabError, InvalidArgument, ResourceCap, check_shape
from .games import (
    _ALGEBRA,
    _ELEMENT,
    _FRACTION,
    Game,
    _element_from_json,
    _element_to_json,
    game_from_code,
    gn_game,
    honest_strategy,
    pauli_rigidity_report,
    strategy_from_jsonable,
    strategy_to_jsonable,
    value,
)
from .spectral import ProbMeasure, kappa
from .suites import SUITES, _holds, named_game, rigidity_sweep, run_suite

DEFAULT_SEED = 7
# the defaults of the optional parameters, for the flags and for manifests without them
DEFAULTS = {"game": "repetition", "points": 40, "sigma_min": 0.006, "sigma_max": 0.35, "tol": 1e-9}


@dataclass
class ExperimentManifest:
    """Self-contained description of one deterministic run."""

    operation: str
    seed: int = DEFAULT_SEED
    parameters: dict = field(default_factory=dict)
    out: str | None = None

    def to_jsonable(self) -> dict:
        obj = {"operation": self.operation, "seed": self.seed, "parameters": self.parameters}
        if self.out is not None:
            obj["out"] = self.out
        return obj

    @classmethod
    def from_jsonable(cls, obj: dict) -> "ExperimentManifest":
        try:
            return cls(
                operation=str(obj["operation"]),
                seed=int(obj.get("seed", DEFAULT_SEED)),
                parameters=dict(obj.get("parameters", {})),
                out=obj.get("out"),
            )
        except (TypeError, KeyError) as exc:
            raise InvalidArgument(f"malformed manifest: {exc}") from exc


# -- file helpers -------------------------------------------------------------------


def _write_csv(path: str, header, rows) -> None:
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        for row in rows:
            w.writerow(
                [
                    ""
                    if v is None
                    else (repr(v) if isinstance(v, float) else v)
                    for v in row
                ]
            )


def _load_json(path: str) -> dict:
    with open(path) as fh:
        return json.load(fh)


# JSON shapes of the measure and map files (see errors.check_shape)
_MEASURE_FILE = {"orders": [int, ...], "weights": {str: _FRACTION}}
_HOM_FILE = {"orders": [int, ...], "algebra": _ALGEBRA, "images": [[str, _ELEMENT], ...]}


def _read_measure(path: str):
    obj = check_shape(_load_json(path), _MEASURE_FILE)
    group = AbelianGroup(tuple(obj["orders"]))
    weights = {}
    for key, frac in obj["weights"].items():
        elem = tuple(int(t) for t in key.split())
        weights[elem] = weights.get(elem, Fraction(0)) + Fraction(frac)
    return group, ProbMeasure(group, weights)


def write_almost_hom(path: str, phi: AlmostHom) -> None:
    """Dump a map on an abelian group to JSON (orders, algebra, images)."""
    group = phi.group
    if not isinstance(group, AbelianGroup):
        raise InvalidArgument("only abelian-group files are supported")
    alg = phi.algebra
    obj = {
        "orders": list(group.orders),
        "algebra": [[d, str(Fraction(w))] for d, w in zip(alg.dims, alg.weights)],
        "images": [
            [" ".join(str(t) for t in g), _element_to_json(phi.images[g].blocks)]
            for g in group.elements
        ],
    }
    with open(path, "w") as fh:
        json.dump(obj, fh)


def read_almost_hom(path: str) -> AlmostHom:
    """The map of a file written by :func:`write_almost_hom`; a file of
    another shape (:func:`check_shape`) raises :class:`InvalidArgument`."""
    obj = check_shape(_load_json(path), _HOM_FILE)
    group = AbelianGroup(tuple(obj["orders"]))
    alg = TracialAlgebra([(d, Fraction(w)) for d, w in obj["algebra"]])
    images = {}
    for key, blocks in obj["images"]:
        g = tuple(int(t) for t in key.split())
        images[g] = _element_from_json(alg, blocks)
    return AlmostHom(group, alg, images)


def _load_game(spec: str) -> Game:
    if spec in ("repetition", "hamming"):
        return named_game(spec)
    return Game.from_jsonable(_load_json(spec))


def _json_default(x):
    if isinstance(x, Fraction):
        return str(x)
    if isinstance(x, (np.floating, np.integer)):
        return x.item()
    if isinstance(x, (np.bool_,)):
        return bool(x)
    raise TypeError(f"not JSON-serializable: {type(x)}")


def _emit_report(report: dict, out: str | None) -> None:
    text = json.dumps(report, indent=2, sort_keys=True, default=_json_default)
    if out:
        with open(out, "w") as fh:
            fh.write(text + "\n")
        print(f"wrote {out}")
    else:
        print(text)


# -- operations ---------------------------------------------------------------------


def _op_kappa(man: ExperimentManifest) -> int:
    path = man.parameters["path"]
    with open(path) as fh:
        head = fh.read(1)
    if head == "{":
        group, mu = _read_measure(path)
    else:
        code = read_code_file(path)
        group, mu, predicted = measure_from_code(code)
        print(f"code-derived measure, predicted kappa {predicted}")
    rep = kappa(group, mu)
    print(f"kappa = {rep.kappa}")
    print(f"second eigenvalue = {rep.second_eigenvalue}")
    print(f"method = {rep.method}")
    if man.out:
        _emit_report(
            {
                "kappa": float(rep.kappa),
                "kappa_exact": str(rep.kappa),
                "second_eigenvalue": float(rep.second_eigenvalue),
                "method": rep.method,
            },
            man.out,
        )
    return 0


def _op_code(man: ExperimentManifest) -> int:
    code = read_code_file(man.parameters["path"])
    tol = float(man.parameters.get("tol", DEFAULTS["tol"]))
    d = code.distance()
    group, mu, predicted = measure_from_code(code)
    rep = kappa(group, mu)
    if code.q == 2:
        ok = rep.kappa == predicted
    else:
        ok = abs(float(rep.kappa) - float(predicted)) <= tol
    print(f"[{code.length},{code.dim},{d}]_{code.q}")
    print(f"kappa predicted = {predicted}")
    print(f"kappa measured  = {rep.kappa}")
    print(f"cross-check {'PASS' if ok else 'FAIL'}")
    return 0 if ok else 2


def _op_build_game(man: ExperimentManifest) -> int:
    p = man.parameters
    if "gn" in p:
        rng = np.random.default_rng(man.seed)
        game = gn_game(int(p["gn"]), rng=rng)
    elif "codes" in p and p["codes"]:
        codes = [read_code_file(c) for c in p["codes"]]
        if len(codes) > 2:
            raise InvalidArgument("at most two code files")
        game = game_from_code(*codes)
    else:
        raise InvalidArgument("need code files or an --gn size")
    if not man.out:
        raise InvalidArgument("build-game requires --out")
    with open(man.out, "w") as fh:
        json.dump(game.to_jsonable(), fh)
    print(f"questions: {len(game.questions)}")
    print(f"rigidity constant: {game.rigidity_constant}")
    print(f"wrote {man.out}")
    return 0


def _op_honest(man: ExperimentManifest) -> int:
    game = _load_game(man.parameters["game"])
    strat = honest_strategy(game)
    v = value(game, strat)
    print(f"value {v:.9f}")
    if man.out:
        with open(man.out, "w") as fh:
            json.dump(strategy_to_jsonable(strat), fh)
        print(f"wrote {man.out}")
    return 0


def _op_eval(man: ExperimentManifest) -> int:
    game = _load_game(man.parameters["game"])
    strat = strategy_from_jsonable(_load_json(man.parameters["strategy"]))
    v = value(game, strat)
    print(f"value {v:.9f}")
    return 0


def _op_round(man: ExperimentManifest) -> int:
    phi = read_almost_hom(man.parameters["path"])
    cert = stability.gowers_hatami_round(phi)
    _emit_report(cert.report(), man.out)
    return 0


def _op_rigidity(man: ExperimentManifest) -> int:
    game = _load_game(man.parameters["game"])
    strat = strategy_from_jsonable(_load_json(man.parameters["strategy"]))
    report = dict(pauli_rigidity_report(game, strat))
    report.pop("certificate", None)
    _emit_report(report, man.out)
    return 0


def _op_verify(man: ExperimentManifest) -> int:
    name = man.parameters["suite"]
    trials = man.parameters.get("trials")
    res = run_suite(name, trials=None if trials is None else int(trials), seed=man.seed)
    print(res.summary())
    for k, v in sorted(res.details.items()):
        print(f"  {k}: {v}")
    if man.out:
        _write_csv(man.out, res.header, res.rows)
        print(f"wrote {man.out}")
    return 0 if res.passed else 2


def _op_sweep(man: ExperimentManifest) -> int:
    p = {**DEFAULTS, **man.parameters}
    game = _load_game(p["game"])
    honest = honest_strategy(game)
    points = int(p["points"])
    lo, hi = float(p["sigma_min"]), float(p["sigma_max"])
    if not (0 < lo <= hi):
        raise InvalidArgument("need 0 < sigma_min <= sigma_max")
    sigmas = np.logspace(math.log10(lo), math.log10(hi), points)
    # the rounding cap is checked before any noise is drawn, so a refused
    # full sweep has drawn nothing and the quick sweep draws the same points
    try:
        pts = rigidity_sweep(game, honest, sigmas, seed=man.seed, full_report=True)
    except ResourceCap:
        print("rounding exceeds the dimension cap; reporting the left side only")
        pts = rigidity_sweep(game, honest, sigmas, seed=man.seed, full_report=False)
    header = ("sigma", "eps", "lhs", "bound", "closeness", "cc_eps")
    rows = [
        (q["sigma"], q["eps"], q["lhs"], q["bound"], q["closeness"], q["cc_eps"])
        for q in pts
    ]
    worst = max((q["lhs"] / q["bound"] for q in pts if q["bound"] > 0), default=0.0)
    violations = sum(not _holds(q["lhs"], q["bound"]) for q in pts)
    print(f"{points} points, {violations} violations, worst ratio {worst:.3e}")
    if man.out:
        _write_csv(man.out, header, rows)
        print(f"wrote {man.out}")
    return 0 if violations == 0 else 2


_OPERATIONS = {
    "kappa": _op_kappa,
    "code": _op_code,
    "build-game": _op_build_game,
    "honest": _op_honest,
    "eval": _op_eval,
    "round": _op_round,
    "rigidity": _op_rigidity,
    "verify": _op_verify,
    "sweep": _op_sweep,
}


def dispatch(man: ExperimentManifest) -> int:
    if man.operation not in _OPERATIONS:
        raise InvalidArgument(
            f"unknown operation {man.operation!r}; "
            f"choose from {', '.join(sorted(_OPERATIONS))}"
        )
    old_cap = algebra.ROUNDING_DIM_CAP
    if "dim_cap" in man.parameters:
        algebra.ROUNDING_DIM_CAP = int(man.parameters["dim_cap"])
    try:
        return _OPERATIONS[man.operation](man)
    finally:
        algebra.ROUNDING_DIM_CAP = old_cap


# -- argument parsing ---------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    """Raise instead of exiting so bad flags map to the input-error code."""

    def error(self, message):
        raise InvalidArgument(message)


def _add_common(sp, out=True):
    sp.add_argument("--seed", type=int, default=DEFAULT_SEED)
    sp.add_argument("--dim-cap", type=int, default=None, help="override the rounding dimension cap")
    if out:
        sp.add_argument("--out", default=None, help="write the report/CSV here")


def _build_parser() -> _Parser:
    parser = _Parser(prog="gapstab", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("kappa", help="spectral gap constant of a measure or code file")
    sp.add_argument("path")
    _add_common(sp)

    sp = sub.add_parser("code", help="code parameters and gap-constant cross-check")
    sp.add_argument("path")
    sp.add_argument("--tol", type=float, default=DEFAULTS["tol"], help="kappa agreement tolerance")
    _add_common(sp)

    sp = sub.add_parser("build-game", help="build a game file from codes")
    sp.add_argument("codes", nargs="*", help="one or two code files")
    sp.add_argument("--gn", type=int, default=None, help="random-code game at this size")
    _add_common(sp)

    sp = sub.add_parser("honest", help="honest strategy and its value")
    sp.add_argument("game", help="game file, or built-in: repetition, hamming")
    _add_common(sp)

    sp = sub.add_parser("eval", help="evaluate a strategy file on a game")
    sp.add_argument("game")
    sp.add_argument("strategy")
    _add_common(sp, out=False)

    sp = sub.add_parser("round", help="round an almost-homomorphism file")
    sp.add_argument("path")
    _add_common(sp)

    sp = sub.add_parser("rigidity", help="full rigidity report for a game + strategy")
    sp.add_argument("game")
    sp.add_argument("strategy")
    _add_common(sp)

    sp = sub.add_parser("verify", help="run a named randomized bound suite")
    sp.add_argument("suite", choices=sorted(SUITES))
    sp.add_argument("--trials", type=int, default=None)
    _add_common(sp)

    sp = sub.add_parser("sweep", help="perturbation sweep CSV (eps vs closeness)")
    sp.add_argument("--game", default=DEFAULTS["game"])
    sp.add_argument("--points", type=int, default=DEFAULTS["points"])
    sp.add_argument("--sigma-min", type=float, default=DEFAULTS["sigma_min"])
    sp.add_argument("--sigma-max", type=float, default=DEFAULTS["sigma_max"])
    _add_common(sp)

    sp = sub.add_parser("run", help="replay a saved manifest file")
    sp.add_argument("manifest")

    return parser


def _manifest_from_args(args) -> ExperimentManifest:
    if args.command == "run":
        return ExperimentManifest.from_jsonable(_load_json(args.manifest))
    params = {}
    if args.command in ("kappa", "code", "round"):
        params["path"] = args.path
    if args.command == "code":
        params["tol"] = args.tol
    if args.command == "build-game":
        if args.gn is not None:
            params["gn"] = args.gn
        else:
            params["codes"] = args.codes
    if args.command in ("honest", "eval", "rigidity", "sweep"):
        params["game"] = args.game
    if args.command in ("eval", "rigidity"):
        params["strategy"] = args.strategy
    if args.command == "verify":
        params["suite"] = args.suite
        if args.trials is not None:
            params["trials"] = args.trials
    if args.command == "sweep":
        params["points"] = args.points
        params["sigma_min"] = args.sigma_min
        params["sigma_max"] = args.sigma_max
    if getattr(args, "dim_cap", None) is not None:
        params["dim_cap"] = args.dim_cap
    return ExperimentManifest(
        operation=args.command,
        seed=getattr(args, "seed", DEFAULT_SEED),
        parameters=params,
        out=getattr(args, "out", None),
    )


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        man = _manifest_from_args(args)
        return dispatch(man)
    except ResourceCap as exc:
        _fail(exc)
        return 4
    except InvalidArgument as exc:
        _fail(exc)
        return 3
    except (OSError, json.JSONDecodeError, KeyError, ValueError) as exc:
        _fail(exc)
        return 3
    except GapstabError as exc:
        _fail(exc)
        return 2


def _fail(exc) -> None:
    record = {"error": type(exc).__name__, "message": str(exc)}
    print(json.dumps(record), file=sys.stderr)


if __name__ == "__main__":
    sys.exit(main())
