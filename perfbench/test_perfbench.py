"""Self-tests of the benchmark harness.

    python3 -m pytest perfbench/test_perfbench.py -q
"""

import itertools
import os
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

import gapstab as gs  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


# -- percentile rule ---------------------------------------------------------------


def test_percentile_nearest_rank():
    samples = list(range(100, 0, -1))
    assert run.percentile(samples, 0.5) == 50
    assert run.percentile(samples, 0.9) == 90


def test_percentile_needs_ten_samples_beyond():
    run.percentile(list(range(100)), 0.9)  # exactly ten beyond
    with pytest.raises(ValueError):
        run.percentile(list(range(99)), 0.9)
    with pytest.raises(ValueError):
        run.percentile(list(range(19)), 0.5)


# -- self time -------------------------------------------------------------------


def _span(name, start, end, parent):
    return [name, start, end, parent, 0]


def test_self_time_nested():
    spans = [
        _span("a", 0.0, 10.0, -1),
        _span("b", 2.0, 5.0, 0),
        _span("c", 3.0, 4.0, 1),
        _span("d", 6.0, 7.0, 0),
    ]
    assert tracing.self_times(spans) == pytest.approx([8.0 - 4.0 + 0.0 + 2.0, 2.0, 1.0, 1.0])


def test_self_time_overlapping_children_counted_once():
    spans = [
        _span("a", 0.0, 10.0, -1),
        _span("b", 1.0, 4.0, 0),
        _span("c", 3.0, 6.0, 0),  # overlaps b on [3, 4]
        _span("d", 5.5, 12.0, 0),  # overlaps c and runs past the parent's end
    ]
    # children cover [1, 10] of the parent
    assert tracing.self_times(spans)[0] == pytest.approx(1.0)


def test_tracer_spans_counts_and_restores():
    tracer = tracing.Tracer()
    original_value = gs.games.value
    original_pairing = gs.abelian.AbelianGroup.pairing
    tracer.install(gs)
    try:
        assert gs.games.value is not original_value
        assert gs.suites.value is gs.games.value  # imported-by-name references too
        grp = gs.abelian.boolean_group(2)
        rep = gs.abelian.regular_rep(grp)  # UnitaryRep -> AlmostHom: one span
        grp.pairing((1, 0), (1, 1))
    finally:
        tracer.uninstall()
    assert gs.games.value is original_value
    assert gs.abelian.AbelianGroup.pairing is original_pairing
    names = [s[0] for s in tracer.spans]
    assert names.count("algebra.AlmostHom.init") == 1
    assert tracer.counts["abelian.pairing"] == 1
    assert tracer.counts["groups.mul"] == rep.group.order**2
    metrics = tracer.layer_metrics()
    assert metrics["algebra.AlmostHom.init.calls"] == 1
    assert set(metrics) == set(
        tracing.SPAN_METRICS + tracing.COUNT_METRICS + tracing.MAX_METRICS
    )


# -- seeded inputs ---------------------------------------------------------------


def _inputs(wl, seed, nops=40):
    ops = []
    for batch in wl.rounds(wl.build(seed)):
        ops.extend(batch)
        if len(ops) >= nops:
            break
    return [op.params for op in ops[:nops]]


def _same_params(a, b):
    return len(a) == len(b) and all(
        len(x) == len(y) and all(np.array_equal(u, v) for u, v in zip(x, y)) for x, y in zip(a, b)
    )


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_inputs_depend_only_on_the_seed(name):
    wl = workloads.WORKLOADS[name]
    first, again, other = (_inputs(wl, seed) for seed in (3, 3, 4))
    assert _same_params(first, again)
    assert not _same_params(first, other)


def test_random_codes_depend_only_on_the_seed():
    wl = workloads.WORKLOADS["kappa-codes"]
    first, again, other = (wl.build(seed)["family"] for seed in (3, 3, 4))
    exhaustive = 6378
    assert len(first) == exhaustive + 4 * workloads.RANDOM_PER_FIELD
    assert all(np.array_equal(a[2], b[2]) for a, b in zip(first, again))
    assert all(np.array_equal(a[2], b[2]) for a, b in zip(first[:exhaustive], other))
    assert not all(
        np.array_equal(a[2], b[2]) for a, b in zip(first[exhaustive:], other[exhaustive:])
    )


def test_generated_strategies_are_perfect():
    state = workloads.WORKLOADS["pauli-bounds"].build(5)
    for strat in state["l17"].values():
        assert gs.games.value(state["commutation"], strat) == pytest.approx(1.0, abs=1e-9)
    for strat in state["l19"].values():
        assert gs.games.value(state["magic"], strat) == pytest.approx(1.0, abs=1e-9)


def test_reference_comparison_is_exact_for_fractions():
    from fractions import Fraction

    assert run.same("7/6", Fraction(7, 6))
    assert not run.same("7/6", 7 / 6)
    assert run.same(0.1, 0.1 * (1 + 5e-10))
    assert not run.same(0.1, 0.1 * (1 + 5e-9))


def test_kappa_code_passes_visit_every_code():
    wl = workloads.WORKLOADS["kappa-codes"]
    state = wl.build(2)
    per_pass = sum(quota for _, quota in wl.pass_quotas(state))
    seen = {r[0].key for r in itertools.islice(wl.rounds(state), 3 * per_pass)}
    assert seen == {label for label, _, _ in state["family"]}
