"""Benchmark harness for gapstab.

    python3 perfbench/run.py --workload kappa-codes --seed 0 --seconds 36 --trace 0

Runs one workload in this process on inputs generated from ``--seed``.  With
``--trace 0`` it times whole rounds of operations for ``--seconds`` seconds and
prints the end-to-end metrics; with ``--trace 1`` it runs a fixed list of
operations untraced, traced and untraced again and prints the per-layer
metrics.
Every operation's certificate is checked; at the default seed it is also
compared with ``reference.json``.  The last line of standard output is one
JSON object; the exit code is 1 when any check failed.

``--record-reference`` rewrites the workload's entry in ``reference.json``
from the default seed.  See README.md for the metrics and their meaning.
"""

from __future__ import annotations

import time

START = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import csv  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import re  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from fractions import Fraction  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(ROOT, ".perfbench_out")
REFERENCE = os.path.join(HERE, "reference.json")

DEFAULT_SEED = 0
# One BLAS thread: the machine has two cores and other processes on it, and a
# second BLAS thread bought less speed than it cost in run-to-run spread.
BLAS_THREADS = "1"
SETUP_REPEATS = 3
# The p90 latency needs at least ten samples beyond it.
P90_MIN_SAMPLES = 100
FINGERPRINT_REL_TOL = 1e-9  # gapstab.algebra.VALIDATION_TOL
PROBE_SIGMA = 0.05


def percentile(samples, q: float) -> float:
    """Nearest-rank percentile; refuses when fewer than ten samples lie beyond it."""
    n = len(samples)
    rank = max(1, math.ceil(q * n))
    if n - rank < 10:
        raise ValueError(f"{n} samples leave {n - rank} beyond the {q:g} quantile; need 10")
    return sorted(samples)[rank - 1]


def encode(value):
    """Certificate number in JSON form: Fractions as exact strings."""
    if isinstance(value, Fraction):
        return str(value)
    if isinstance(value, int):
        return value
    return float(value)


def same(ref, value) -> bool:
    got = encode(value)
    if isinstance(ref, float) and isinstance(got, float):
        return math.isclose(got, ref, rel_tol=FINGERPRINT_REL_TOL, abs_tol=0.0)
    return got == ref


class Tally:
    """Runs operations, times them and checks their certificates."""

    def __init__(self, gs, check_failed, reference=None, keep=False):
        self.gs = gs
        self.check_failed = check_failed
        self.reference = reference or {}
        self.keep = keep
        self.latencies = []
        self.attempted = 0
        self.failed = 0
        self.incorrect = []
        self.compared = 0
        self.certs = {}

    def run(self, op):
        self.attempted += 1
        t0 = time.perf_counter()
        try:
            cert = op.run()
        except self.check_failed as exc:
            return self._fail(op, exc, incorrect=True)
        except self.gs.errors.ResourceCap as exc:
            return self._fail(op, exc, incorrect=False)
        except self.gs.errors.GapstabError as exc:
            return self._fail(op, exc, incorrect=True)
        self.latencies.append(time.perf_counter() - t0)
        if self.keep:
            self.certs[op.key] = {k: encode(v) for k, v in cert.items()}
        ref = self.reference.get(op.key)
        if ref is not None:
            self.compared += 1
            if set(ref) != set(cert) or not all(same(ref[k], cert[k]) for k in ref):
                self.incorrect.append(f"{op.key}: certificate {cert} != reference {ref}")

    def _fail(self, op, exc, incorrect):
        self.failed += 1
        self.latencies.append(math.inf)  # a failure misses every latency limit
        if incorrect:
            self.incorrect.append(f"{op.key} {op.params[:2]}: {type(exc).__name__}: {exc}")


def load_program():
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = BLAS_THREADS
    src = os.path.join(ROOT, "src")
    if not os.path.isdir(os.path.join(src, "gapstab")):
        raise SystemExit(f"perfbench: no gapstab package under {src}; run from a full checkout")
    sys.path.insert(0, src)
    import gapstab
    import workloads

    return gapstab, workloads


def load_reference(name):
    if not os.path.exists(REFERENCE):
        return {}
    with open(REFERENCE) as fh:
        return json.load(fh).get(name, {})


# -- CLI parity -------------------------------------------------------------------


def _cell_matches(cell: str, value) -> bool:
    if value is None:
        return cell == ""
    if isinstance(value, float):
        return float(cell) == value or (math.isnan(value) and math.isnan(float(cell)))
    return cell == str(value)


def cli_parity(gs, wl, seed, tracer=None):
    """Replay the workload's manifest twice through the CLI; both replays must
    be byte-identical and agree with the same computation run in process."""
    manifest = wl.manifest(seed)
    params = manifest["parameters"]
    if manifest["operation"] == "verify":
        manifest["out"] = os.path.join(OUT_DIR, f"{wl.name}-cli.csv")
    path = os.path.join(OUT_DIR, f"{wl.name}-manifest.json")
    with open(path, "w") as fh:
        json.dump(manifest, fh)
    replays = []
    for _ in range(2):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(buf):
            span = tracer.open("cli.run") if tracer else None
            try:
                code = gs.cli.main(["run", path])
            finally:
                if tracer:
                    tracer.close(span)
        data = buf.getvalue().encode()
        if manifest.get("out"):
            with open(manifest["out"], "rb") as fh:
                data += fh.read()
        replays.append((code, data))
    problems = []
    if replays[0] != replays[1]:
        problems.append("CLI replays are not byte-identical")
    if replays[0][0] != 0:
        problems.append(f"CLI exit code {replays[0][0]}")
    if manifest["operation"] == "code":
        code = gs.codes.read_code_file(params["path"])
        group, mu, _ = gs.codes.measure_from_code(code)
        expected = gs.spectral.kappa(group, mu).kappa
        found = re.search(r"kappa measured\s*=\s*(\S+)", replays[0][1].decode())
        if not found or Fraction(found.group(1)) != expected:
            problems.append(f"CLI kappa does not match the in-process value {expected}")
    else:
        res = gs.suites.run_suite(params["suite"], trials=params["trials"], seed=seed)
        with open(manifest["out"], newline="") as fh:
            header, *body = list(csv.reader(fh))
        if (
            tuple(header) != tuple(res.header)
            or len(body) != len(res.rows)
            or not all(
                len(row) == len(vals) and all(map(_cell_matches, row, vals))
                for row, vals in zip(body, res.rows)
            )
        ):
            problems.append("CLI CSV does not match the in-process suite rows")
    return problems


# -- runs -------------------------------------------------------------------------


def hamming_probe(gs, wl_module, seed):
    """End-to-end rigidity report on a perturbed Hamming-game strategy."""
    game = gs.suites.named_game("hamming")
    honest = gs.games.honest_strategy(game)
    strat = gs.games.perturb_strategy(honest, PROBE_SIGMA, wl_module.seeded_rng(seed, 9))
    t0 = time.perf_counter()
    try:
        gs.games.pauli_rigidity_report(game, strat)
        verdict = "completed"
    except gs.errors.ResourceCap:
        verdict = "ResourceCap"
    return verdict, time.perf_counter() - t0


def untraced_run(gs, wlm, wl, args, import_s):
    builds = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        state = wl.build(args.seed)
        builds.append(time.perf_counter() - t0)
    setup_s = import_s + statistics.median(builds)

    reference = load_reference(wl.name) if args.seed == DEFAULT_SEED else {}
    tally = Tally(gs, wlm.CheckFailed, reference)
    t0 = time.perf_counter()
    deadline = t0 + args.seconds
    for batch in wl.rounds(state):  # whole rounds, so every run has the same mix
        for op in batch:
            tally.run(op)
        if time.perf_counter() >= deadline and tally.attempted >= P90_MIN_SAMPLES:
            break
    elapsed = time.perf_counter() - t0
    problems = tally.incorrect + cli_parity(gs, wl, args.seed)
    completed = tally.attempted - tally.failed
    metrics = {
        "ops_per_s": (completed / elapsed, "1/s"),
        "op_p50_ms": (percentile(tally.latencies, 0.5) * 1e3, "ms"),
        "op_p90_ms": (percentile(tally.latencies, 0.9) * 1e3, "ms"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    notes = [
        f"{tally.attempted} operations in {elapsed:.2f} s; {tally.failed} failed, "
        f"failed_frac {tally.failed / tally.attempted:g}",
        f"latency samples {len(tally.latencies)}, "
        f"{len(tally.latencies) - math.ceil(0.9 * len(tally.latencies))} beyond p90",
        f"setup builds {', '.join(f'{b:.3f}' for b in builds)} s plus import {import_s:.3f} s",
        f"fingerprint: {tally.compared} certificates compared with reference.json"
        if reference
        else "fingerprint: not checked (not the default seed)",
    ]
    return tally, problems, metrics, notes


LAYER_UNITS = {"calls": "count", "self_ms": "ms", "max_dim": "dim"}


def timed_pass(tally, ops, tracer=None):
    t0 = time.perf_counter()
    for i, op in enumerate(ops):
        if tracer is None:
            tally.run(op)
            continue
        tracer.op = i
        span = tracer.open("bench.op")
        try:
            tally.run(op)
        finally:
            tracer.close(span)
    return time.perf_counter() - t0


def traced_run(gs, wlm, wl, args):
    from tracing import Tracer

    reference = load_reference(wl.name) if args.seed == DEFAULT_SEED else {}
    plain = Tally(gs, wlm.CheckFailed, reference)
    tally = Tally(gs, wlm.CheckFailed, reference)
    tracer = Tracer()
    state = wl.build(args.seed)
    # untraced passes before and after the traced one bracket slow drift
    untraced_s = timed_pass(plain, wl.traced_ops(state))
    with tracer.installed(gs):
        tracer.op = "setup"
        ops = wl.traced_ops(wl.build(args.seed))
        traced_s = timed_pass(tally, ops, tracer)
    layers = tracer.layer_metrics()
    untraced_s = (untraced_s + timed_pass(plain, wl.traced_ops(state))) / 2
    with tracer.installed(gs):
        tracer.op = "probe"
        verdict, verdict_s = hamming_probe(gs, wlm, args.seed)
        tracer.op = "cli"
        problems = plain.incorrect + tally.incorrect + cli_parity(gs, wl, args.seed, tracer)
    trace_path = os.path.join(OUT_DIR, f"trace-{wl.name}-seed{args.seed}.jsonl")
    tracer.write(trace_path)
    layers["cli.run.self_ms"] = tracer.self_ms("cli.run")

    metrics = {name: (value, LAYER_UNITS[name.rsplit(".", 1)[1]]) for name, value in layers.items()}
    metrics["trace_overhead_frac"] = (traced_s / untraced_s - 1.0, "fraction")
    metrics["games.pauli_rigidity_report.hamming_verdict"] = (
        1 if verdict == "completed" else 0,
        "bool",
    )
    metrics["games.pauli_rigidity_report.hamming_verdict_s"] = (verdict_s, "s")
    notes = [
        f"{len(ops)} operations: untraced {untraced_s:.2f} s, traced {traced_s:.2f} s",
        f"Hamming rigidity report: {verdict} after {verdict_s:.1f} s",
        f"{len(tracer.spans)} spans written to {os.path.relpath(trace_path, ROOT)}",
    ]
    return tally, problems, metrics, notes


def record_reference(gs, wlm, wl):
    tally = Tally(gs, wlm.CheckFailed, keep=True)
    for op in wl.reference_ops(wl.build(DEFAULT_SEED)):
        tally.run(op)
    if tally.incorrect or tally.failed:
        raise SystemExit("perfbench: reference run failed:\n" + "\n".join(tally.incorrect))
    data = {}
    if os.path.exists(REFERENCE):
        with open(REFERENCE) as fh:
            data = json.load(fh)
    data[wl.name] = tally.certs
    with open(REFERENCE, "w") as fh:
        fh.write("{\n")
        for i, (name, certs) in enumerate(sorted(data.items())):
            fh.write(f"{json.dumps(name)}: {{\n")
            lines = [f"{json.dumps(k)}: {json.dumps(v, sort_keys=True)}" for k, v in certs.items()]
            fh.write(",\n".join(lines))
            fh.write("\n}" + (",\n" if i + 1 < len(data) else "\n"))
        fh.write("}\n")
    print(f"recorded {len(tally.certs)} certificates for {wl.name}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=36.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-reference", action="store_true")
    args = parser.parse_args(argv)

    gs, wlm = load_program()
    import_s = time.perf_counter() - START
    if args.workload not in wlm.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(wlm.WORKLOADS)}")
    wl = wlm.WORKLOADS[args.workload]
    os.makedirs(OUT_DIR, exist_ok=True)
    if args.record_reference:
        record_reference(gs, wlm, wl)
        return 0

    if args.trace:
        tally, problems, metrics, notes = traced_run(gs, wlm, wl, args)
    else:
        tally, problems, metrics, notes = untraced_run(gs, wlm, wl, args, import_s)

    print(f"workload {wl.name}, seed {args.seed}, trace {args.trace}")
    for line in notes:
        print("  " + line)
    for line in problems[:20]:
        print("  CHECK FAILED: " + line)
    if len(problems) > 20:
        print(f"  ... and {len(problems) - 20} more failed checks")
    for name, (value, unit) in metrics.items():
        print(f"  {name:<52} {value:>14.6g} {unit}")
    correct = not problems
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": tally.attempted,
                "failed": tally.failed,
                "metrics": {
                    name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()
                },
            }
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
