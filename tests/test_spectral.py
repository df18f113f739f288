import math
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gapstab import spectral
from gapstab.abelian import AbelianGroup, boolean_group, cyclic, regular_rep
from gapstab.codes import LinearCode, measure_from_code
from gapstab.errors import (
    InvalidArgument,
    NonGeneratingSupport,
    ResourceCap,
    SamplingFailure,
)
from gapstab.groups import FiniteGroup, symmetric_group
from gapstab.spectral import (
    GROUP_ORDER_CAP,
    ProbMeasure,
    alon_roichman_sample,
    kappa,
    kappa_abelian,
    kappa_general,
    poincare_residual,
)


def test_measure_validation():
    grp = cyclic(3)
    mu = ProbMeasure(grp, {(0,): "1/3", (1,): "2/3"})
    assert mu((1,)) == Fraction(2, 3)
    assert mu((2,)) == 0
    with pytest.raises(InvalidArgument):
        ProbMeasure(grp, {(0,): Fraction(1, 2)})  # mass 1/2
    with pytest.raises(InvalidArgument):
        ProbMeasure(grp, {(0,): Fraction(3, 2), (1,): Fraction(-1, 2)})
    with pytest.raises(InvalidArgument):
        ProbMeasure(grp, {(7,): 1})  # not an element


def test_uniform_on_multiset():
    grp = cyclic(2)
    mu = ProbMeasure.uniform_on(grp, [(1,), (1,), (0,)])
    assert mu((1,)) == Fraction(2, 3)


def test_symmetrized_and_convolve():
    grp = cyclic(4)
    mu = ProbMeasure.delta(grp, (1,))
    sym = mu.symmetrized()
    assert sym((1,)) == sym((3,)) == Fraction(1, 2)
    conv = mu.convolve(ProbMeasure.delta(grp, (2,)))
    assert conv((3,)) == 1


def test_generates():
    grp = boolean_group(2)
    assert ProbMeasure.uniform(grp).generates()
    assert not ProbMeasure.delta(grp, (1, 0)).generates()
    two_gens = ProbMeasure.uniform_on(grp, [(1, 0), (0, 1)])
    assert two_gens.generates()


def test_fourier_exact_exponent_two():
    grp = boolean_group(2)
    mu = ProbMeasure.uniform_on(grp, [(1, 0), (0, 1)])
    for chi in grp.elements:
        assert isinstance(mu.fourier(chi), Fraction)
    assert mu.fourier((0, 0)) == 1
    assert mu.fourier((1, 1)) == -1  # both generators pair to -1
    assert mu.fourier((1, 0)) == 0


def test_kappa_repetition_code():
    """kappa = 1/2 for the [3,1,3] repetition measure, exactly."""
    grp = boolean_group(1)
    mu = ProbMeasure.uniform_on(grp, [(1,), (1,), (1,)])
    rep = kappa_abelian(grp, mu)
    assert rep.kappa == Fraction(1, 2)
    assert rep.second_eigenvalue == -1


def test_kappa_uniform_measure():
    grp = boolean_group(3)
    rep = kappa_abelian(grp, ProbMeasure.uniform(grp))
    assert rep.kappa == 1


@pytest.mark.parametrize("n", [1, 2, 3])
def test_kappa_identity_code(n):
    # the [n, n, 1] code places uniform mass on the n standard characters
    grp = boolean_group(n)
    mu = ProbMeasure.uniform_on(
        grp, [tuple(1 if j == i else 0 for j in range(n)) for i in range(n)]
    )
    assert kappa_abelian(grp, mu).kappa == Fraction(n, 2)


def test_kappa_trivial_group():
    for grp in (cyclic(1), AbelianGroup((1, 1))):
        rep = kappa_abelian(grp, ProbMeasure.uniform(grp))
        assert rep.kappa == 0 and rep.second_eigenvalue == -math.inf


def test_kappa_needs_generating_support():
    grp = boolean_group(2)
    with pytest.raises(NonGeneratingSupport):
        kappa_abelian(grp, ProbMeasure.delta(grp, (1, 0)))


def test_kappa_general_s3():
    """Uniform on a transposition and a 3-cycle: kappa = 4/3.

    Oracle: eigenvalues of the symmetrized walk on S3 are
    {1, 1/4, 1/4, 0, -3/4, -3/4}, so the gap is 3/4.
    """
    grp = symmetric_group(3)
    mu = ProbMeasure.uniform_on(grp, [(1, 0, 2), (1, 2, 0)])
    rep = kappa_general(grp, mu)
    assert abs(float(rep.kappa) - 4.0 / 3.0) < 1e-12
    assert abs(float(rep.second_eigenvalue) - 0.25) < 1e-12


def test_kappa_dispatch_consistency():
    grp = boolean_group(2)
    mu = ProbMeasure.uniform_on(grp, [(1, 0), (0, 1), (1, 1)])
    exact = kappa(grp, mu)
    general = kappa_general(grp, mu)
    assert abs(float(exact.kappa) - float(general.kappa)) < 1e-10
    assert exact.method == "abelian-Fourier"


def test_kappa_general_cap(monkeypatch):
    assert GROUP_ORDER_CAP == 5040
    grp = symmetric_group(3)
    monkeypatch.setattr(spectral, "GROUP_ORDER_CAP", 4)
    with pytest.raises(ResourceCap):
        kappa_general(grp, ProbMeasure.uniform(grp))


def test_poincare_residual():
    rep = regular_rep(boolean_group(2))
    mu = ProbMeasure.uniform_on(rep.group, [(1, 0), (0, 1)])
    rng = np.random.default_rng(0)
    xi = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    lhs, rhs = poincare_residual(rep, mu, xi)
    assert lhs <= rhs * (1 + 1e-9) + 1e-12
    # invariant vectors sit in the kernel of both sides
    ones = np.ones(4) / 2.0
    lhs0, rhs0 = poincare_residual(rep, mu, ones)
    assert lhs0 < 1e-14 and rhs0 < 1e-14
    with pytest.raises(InvalidArgument):
        poincare_residual(rep, mu, np.ones(3))


def test_measure_jsonable():
    grp = boolean_group(2)
    mu = ProbMeasure.uniform_on(grp, [(1, 0), (1, 0), (0, 1)])
    obj = mu.to_jsonable()
    assert obj == {"1 0": "2/3", "0 1": "1/3"}


def test_alon_roichman_sample():
    grp = boolean_group(3)
    mu = alon_roichman_sample(grp, target_kappa=2.0, rng=np.random.default_rng(1))
    assert float(kappa(grp, mu).kappa) <= 2.0
    again = alon_roichman_sample(grp, target_kappa=2.0, rng=np.random.default_rng(1))
    assert dict(mu.items_nonzero()) == dict(again.items_nonzero())


def test_alon_roichman_failure(monkeypatch):
    grp = boolean_group(2)
    monkeypatch.setattr(spectral, "_SAMPLE_TRIES", 3)
    with pytest.raises(SamplingFailure):
        alon_roichman_sample(grp, target_kappa=1e-6, rng=np.random.default_rng(0))


# -- the integer character-phase kernel against the per-character loop ------------


class _OpaqueGroup(FiniteGroup):
    """An abelian group's elements and law behind a plain FiniteGroup, so that
    ProbMeasure.generates takes its breadth-first path (the oracle)."""

    def __init__(self, group):
        self.elements, self.identity = group.elements, group.identity
        self.mul, self.inv = group.mul, group.inv
        self._post_init_common()


def _kappa_by_characters(group, mu):
    """The loop the kernel replaced: the max of mu.fourier over chi != 1."""
    vals = [mu.fourier(chi) for chi in group.elements if chi != group.identity]
    if group.exponent <= 2:
        best = max(vals)
        return Fraction(1) / (1 - best), best
    best = max(float(np.real(v)) for v in vals)
    return 1.0 / (1.0 - best), best


def _random_measure(group, data):
    idx = data.draw(
        st.lists(st.integers(0, group.order - 1), min_size=1, max_size=12, unique=True)
    )
    raw = data.draw(
        st.lists(st.integers(1, 60), min_size=len(idx), max_size=len(idx))
    )
    total = sum(raw)
    return ProbMeasure(
        group, {group.elements[i]: Fraction(r, total) for i, r in zip(idx, raw)}
    )


def _assert_kernel_matches_loop(group, mu, tol=None):
    if not ProbMeasure(_OpaqueGroup(group), dict(mu.items_nonzero())).generates():
        with pytest.raises(NonGeneratingSupport):
            kappa_abelian(group, mu)
        return
    rep = kappa_abelian(group, mu)
    want_kappa, want_lam = _kappa_by_characters(group, mu)
    if tol is None:
        assert isinstance(rep.kappa, Fraction)
        assert isinstance(rep.second_eigenvalue, Fraction)
        assert (rep.kappa, rep.second_eigenvalue) == (want_kappa, want_lam)
    else:
        assert abs(rep.second_eigenvalue - want_lam) <= tol
        assert abs(rep.kappa - want_kappa) <= tol * max(1.0, want_kappa)


@given(st.integers(1, 4), st.data())
@settings(max_examples=60, deadline=None)
def test_kappa_kernel_exact_on_boolean_groups(rank, data):
    group = boolean_group(rank)
    _assert_kernel_matches_loop(group, _random_measure(group, data))


@pytest.mark.parametrize("orders", [(3, 9), (4, 6), (5, 5), (2, 8)])
@given(data=st.data())
@settings(max_examples=15, deadline=None)
def test_kappa_kernel_floats_agree_with_loop(orders, data):
    group = AbelianGroup(orders)
    _assert_kernel_matches_loop(group, _random_measure(group, data), tol=1e-12)


def test_kappa_kernel_exact_on_every_binary_code_shape():
    rng = np.random.default_rng(5)
    for n in range(1, 5):
        for k in range(n, 9):
            cols = rng.integers(2**n, size=k - n)
            rows = [[int(j == i) for j in range(n)] + [int(c >> i & 1) for c in cols]
                    for i in range(n)]
            group, mu, predicted = measure_from_code(LinearCode(2, rows))
            assert kappa_abelian(group, mu).kappa == predicted
            _assert_kernel_matches_loop(group, mu)


def test_kappa_exact_above_int64_denominator():
    group = boolean_group(3)
    den = 3**41  # above 2^63: the numerators leave int64
    assert den >= 2**63
    mu = ProbMeasure(group, {(1, 0, 0): Fraction(1, den), (0, 1, 0): Fraction(2, 3),
                             (1, 1, 1): 1 - Fraction(2, 3) - Fraction(1, den)})
    _assert_kernel_matches_loop(group, mu)
    assert kappa_abelian(group, mu).second_eigenvalue.denominator == den


@given(
    st.lists(st.sampled_from([1, 2, 3, 4, 6]), min_size=1, max_size=3),
    st.booleans(),
    st.data(),
)
@settings(max_examples=80, deadline=None)
def test_annihilator_test_matches_breadth_first_search(orders, in_subgroup, data):
    group = AbelianGroup(orders)
    pool = list(group.elements)
    if in_subgroup and group.order > 1:
        # the kernel of a nontrivial character is a proper subgroup
        chi = group.elements[data.draw(st.integers(1, group.order - 1))]
        pool = [a for a in pool if abs(group.pairing(chi, a) - 1) < 1e-9]
    support = data.draw(st.lists(st.sampled_from(pool), min_size=1, max_size=5))
    mu = ProbMeasure.uniform_on(group, support)
    oracle = ProbMeasure.uniform_on(_OpaqueGroup(group), support).generates()
    if in_subgroup and group.order > 1:
        assert not oracle
    assert mu.generates() == oracle
    if not oracle:
        with pytest.raises(NonGeneratingSupport) as info:
            kappa_abelian(group, mu)
        assert str(info.value) == "support does not generate the group; kappa is not defined"


def test_kappa_exact_when_the_lcm_leaves_int64():
    """Every denominator fits in int64 but their lcm 2^36 * 3^20 does not."""
    group = boolean_group(2)
    a, b = 2 * 3**20, 2**36
    mu = ProbMeasure(group, {(0, 0): Fraction(1, a), (1, 0): Fraction(a // 2 - 1, a),
                             (0, 1): Fraction(1, b), (1, 1): Fraction(b // 2 - 1, b)})
    assert max(p.denominator for p in mu.weights.values()) < 2**63 <= mu.denominator
    _assert_kernel_matches_loop(group, mu)


def test_kappa_int64_numerators_near_the_limit():
    """With L just below 2^63, 2 ph @ n leaves int64; kappa stays exact and
    numpy warns of no overflow."""
    group = boolean_group(1)
    den = 2**62 + 1
    mu = ProbMeasure(group, {(0,): Fraction(1, den), (1,): Fraction(den - 1, den)})
    assert mu.denominator < 2**63
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rep = kappa_abelian(group, mu)
    assert rep.second_eigenvalue == Fraction(2 - den, den)
    assert rep.kappa == Fraction(den, 2 * (den - 1))


# -- validation against the Fraction sums it replaced ----------------------------


def _fraction_sum_measure(group, weights):
    """The weights dict ProbMeasure built by summing Fractions, or the
    InvalidArgument message it raised."""
    w = {}
    for g, p in weights.items():
        if g not in group:
            return f"{g!r} is not an element of the group"
        p = Fraction(p)
        if p < 0:
            return f"negative weight {p} at {g!r}"
        if p > 0:
            w[g] = w.get(g, 0) + p
    if sum(w.values()) != 1:
        return f"weights sum to {sum(w.values())}, expected 1"
    return w


_ORACLE_GROUP = AbelianGroup((2, 3))


@st.composite
def _weight_dicts(draw):
    """Weights as ints, strings and Fractions, some zero; most sum to 1, the
    rest are off by a drawn amount or carry a negative weight."""
    labels = list(_ORACLE_GROUP.elements) + [(0, 3), (2, 0)]
    keys = draw(st.lists(st.sampled_from(labels), min_size=1, max_size=6, unique=True))
    raw = draw(st.lists(st.integers(0, 9), min_size=len(keys), max_size=len(keys)))
    total = sum(raw) or 1
    shift = draw(st.sampled_from([Fraction(0)] * 3 + [Fraction(1, 7), Fraction(-1, 3)]))
    fracs = [Fraction(r, total) for r in raw]
    fracs[0] += shift
    if draw(st.booleans()) and len(fracs) > 1:
        j = draw(st.integers(1, len(fracs) - 1))
        fracs[0], fracs[j] = fracs[0] + fracs[j] + Fraction(1, 5), Fraction(-1, 5)
    forms = [
        lambda p: p,
        lambda p: f"{p.numerator}/{p.denominator}",
        lambda p: p.numerator if p.denominator == 1 else p,
        lambda p: str(p),
    ]
    return {k: draw(st.sampled_from(forms))(p) for k, p in zip(keys, fracs)}


@given(_weight_dicts())
@settings(max_examples=300, deadline=None)
def test_measure_validation_matches_fraction_sums(weights):
    want = _fraction_sum_measure(_ORACLE_GROUP, weights)
    if isinstance(want, str):
        with pytest.raises(InvalidArgument) as info:
            ProbMeasure(_ORACLE_GROUP, weights)
        assert str(info.value) == want
        return
    mu = ProbMeasure(_ORACLE_GROUP, weights)
    assert list(mu.weights.items()) == list(want.items())
    assert all(type(p) is Fraction for p in mu.weights.values())
    assert mu.denominator == math.lcm(*(p.denominator for p in want.values()))
    assert sum(mu.numerators) == mu.denominator
    assert [Fraction(n, mu.denominator) for n in mu.numerators] == list(want.values())


def test_measure_validation_messages():
    grp = cyclic(3)
    for weights, message in [
        ({(0,): "1/2"}, "weights sum to 1/2, expected 1"),
        ({(0,): 0, (1,): 0}, "weights sum to 0, expected 1"),
        ({(0,): Fraction(3, 2), (1,): "-1/2"}, "negative weight -1/2 at (1,)"),
        ({(3,): 1}, "(3,) is not an element of the group"),
    ]:
        assert _fraction_sum_measure(grp, weights) == message
        with pytest.raises(InvalidArgument) as info:
            ProbMeasure(grp, weights)
        assert str(info.value) == message


@given(st.lists(st.sampled_from(_ORACLE_GROUP.elements), min_size=1, max_size=20))
@settings(max_examples=100, deadline=None)
def test_uniform_on_matches_fraction_sums(support):
    p = Fraction(1, len(support))
    want = {}
    for g in support:
        want[g] = want.get(g, 0) + p
    mu = ProbMeasure.uniform_on(_ORACLE_GROUP, support)
    assert list(mu.weights.items()) == list(want.items())
    assert [Fraction(n, mu.denominator) for n in mu.numerators] == list(want.values())
