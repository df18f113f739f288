import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gapstab import algebra
from gapstab.abelian import boolean_group, cyclic, regular_rep
from gapstab.algebra import (
    PVM,
    AlgebraElement,
    AlmostHom,
    TracialAlgebra,
    UnitaryRep,
    commutant_blocks,
    commutator_gap_check,
    conditional_expectation_commutant,
    defect,
    haar_unitary,
    nearest_unitary_in_commutant,
    norm_conditional_duality_check,
    polar,
    unitary_polar_factor,
)
from gapstab.errors import (
    InvalidArgument,
    InvalidPVM,
    InvalidRepresentation,
    NonGeneratingSupport,
)
from gapstab.spectral import ProbMeasure


def test_algebra_validation():
    alg = TracialAlgebra([(2, Fraction(1, 2)), (3, Fraction(1, 2))])
    assert alg.dims == (2, 3)
    assert abs(alg.tau(alg.identity()) - 1.0) < 1e-15
    with pytest.raises(InvalidArgument):
        TracialAlgebra([(2, Fraction(1, 3))])  # weights must sum to 1
    with pytest.raises(InvalidArgument):
        TracialAlgebra([(0, Fraction(1, 1))])
    with pytest.raises(InvalidArgument):
        TracialAlgebra([(2, Fraction(-1, 2)), (2, Fraction(3, 2))])


def test_trace_is_weighted_block_trace():
    alg = TracialAlgebra([(1, Fraction(1, 4)), (2, Fraction(3, 4))])
    x = AlgebraElement(alg, [np.array([[2.0]]), np.diag([1.0, 3.0])])
    # tau = (1/4) * 2 + (3/4) * (1 + 3)/2
    assert abs(alg.tau(x) - (0.25 * 2 + 0.75 * 2)) < 1e-15


def test_weights_and_compatible():
    alg = TracialAlgebra([(2, Fraction(1, 2)), (3, Fraction(1, 2))])
    assert [abs(float(w) - e) < 1e-15 for w, e in zip(alg.weights, [0.5, 0.5])]
    assert alg.compatible(TracialAlgebra([(2, Fraction(1, 2)), (3, Fraction(1, 2))]))
    assert not alg.compatible(TracialAlgebra.matrix(5))


@given(st.integers(2, 5), st.integers(0, 2**32 - 1))
@settings(max_examples=12, deadline=None)
def test_norms_consistent(n, seed):
    rng = np.random.default_rng(seed)
    alg = TracialAlgebra.matrix(n)
    x = AlgebraElement(alg, [rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))])
    assert alg.norm2(x) <= alg.norm_inf(x) + 1e-12  # tau is a state
    assert abs(alg.norm2(x) ** 2 - float(np.real(alg.tau(x.H * x)))) < 1e-9 * (
        1 + alg.norm2(x) ** 2
    )


def test_element_arithmetic():
    alg = TracialAlgebra.matrix(2)
    x = alg.element([np.array([[0.0, 1.0], [0.0, 0.0]])])
    y = x + x.H
    assert np.allclose(y.blocks[0], np.array([[0, 1], [1, 0]]))
    assert abs(alg.tau(y * y) - 1.0) < 1e-15
    z = 2.0 * x - x
    assert np.allclose(z.blocks[0], x.blocks[0])


def test_haar_unitary():
    rng = np.random.default_rng(3)
    u = haar_unitary(5, rng)
    assert np.max(np.abs(u @ u.conj().T - np.eye(5))) < 1e-12
    # determinism under a reseeded generator
    v = haar_unitary(5, np.random.default_rng(3))
    assert np.allclose(u, v)


def _two_point_pvm(alg, diag):
    p = np.diag(diag).astype(complex)
    return PVM(alg, [1, -1], [alg.element([p]), alg.element([np.eye(len(diag)) - p])])


def test_pvm_validation():
    alg = TracialAlgebra.matrix(2)
    pvm = _two_point_pvm(alg, [1.0, 0.0])
    assert set(pvm.outcomes) == {1, -1}
    p = alg.element([np.diag([1.0, 0.0]).astype(complex)])
    with pytest.raises(InvalidPVM):
        PVM(alg, [0, 1], [p, p])  # not orthogonal / incomplete
    with pytest.raises(InvalidPVM):
        PVM(alg, [0], [p])  # does not sum to the identity
    q = alg.element([np.array([[0.5, 0.5], [0.5, 0.5]], dtype=complex)])
    zero = alg.zero()
    # a vanishing projection is legitimate
    PVM(alg, [0, 1, 2], [q, alg.identity() - q, zero])


def test_pvm_conjugated():
    alg = TracialAlgebra.matrix(3)
    pvm = _two_point_pvm(alg, [1.0, 1.0, 0.0])
    u = alg.element([haar_unitary(3, np.random.default_rng(0))])
    moved = pvm.conjugated(u)
    for a in pvm.outcomes:
        assert abs(alg.tau(moved[a]) - alg.tau(pvm[a])) < 1e-12


def test_almost_hom_rejects_non_unitary():
    grp = cyclic(2)
    alg = TracialAlgebra.matrix(2)
    images = {g: alg.identity() for g in grp.elements}
    images[(1,)] = alg.element([np.diag([1.0, 0.5]).astype(complex)])
    with pytest.raises(InvalidRepresentation):
        AlmostHom(grp, alg, images)


def test_unitary_rep_validates_multiplication():
    grp = cyclic(4)
    alg = TracialAlgebra.matrix(2)
    # i^k rotations form a rep; breaking one image must be caught
    rot = np.array([[0.0, -1.0], [1.0, 0.0]])
    images = {
        (k,): alg.element([np.linalg.matrix_power(rot, k).astype(complex)])
        for k in range(4)
    }
    UnitaryRep(grp, alg, images)
    images[(2,)] = alg.element([np.eye(2, dtype=complex)])
    with pytest.raises(InvalidRepresentation):
        UnitaryRep(grp, alg, images)


def test_defect_of_exact_rep_is_zero():
    rep = regular_rep(cyclic(3))
    assert defect(rep) < 1e-28


def test_conditional_expectation():
    rep = regular_rep(boolean_group(2))
    alg = rep.algebra
    rng = np.random.default_rng(5)
    v = alg.element([rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))])
    ev = conditional_expectation_commutant(rep, v)
    for g in rep.group.elements:
        u = rep.images[g]
        assert alg.norm_inf(u * ev - ev * u) < 1e-10
    assert abs(alg.tau(ev) - alg.tau(v)) < 1e-12  # trace preserving
    assert alg.norm2(conditional_expectation_commutant(rep, ev) - ev) < 1e-12


def test_gap_check_identity_and_bounds():
    """The uniform commutator average is exactly twice the commutant distance."""
    rep = regular_rep(cyclic(4))
    alg = rep.algebra
    rng = np.random.default_rng(2)
    v = alg.element([rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))])
    mu = ProbMeasure(rep.group, {(1,): Fraction(1, 2), (3,): Fraction(1, 2)})
    chk = commutator_gap_check(rep, mu, v)
    assert chk.lhs <= chk.rhs_half * (1 + 1e-9) + 1e-12
    assert chk.uniform_average <= chk.rhs_full * (1 + 1e-9) + 1e-12
    assert abs(chk.uniform_average - 2.0 * chk.lhs) < 1e-10 * max(1.0, chk.uniform_average)


def test_gap_check_commutant_element():
    rep = regular_rep(cyclic(3))
    v = conditional_expectation_commutant(
        rep, rep.algebra.element([np.diag([1.0, 2.0, 3.0]).astype(complex)])
    )
    mu = ProbMeasure.uniform(rep.group)
    chk = commutator_gap_check(rep, mu, v)
    assert chk.lhs < 1e-12


def test_gap_check_needs_generating_measure():
    rep = regular_rep(boolean_group(2))
    mu = ProbMeasure(rep.group, {(1, 0): 1})  # generates a proper subgroup
    with pytest.raises(NonGeneratingSupport):
        commutator_gap_check(rep, mu, rep.algebra.identity())


def test_polar_decomposition():
    alg = TracialAlgebra.matrix(3)
    rng = np.random.default_rng(11)
    x = alg.element([rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))])
    u, pos = polar(x)
    assert alg.norm_inf(u * pos - x) < 1e-10
    assert alg.norm_inf(u * u.H - alg.identity()) < 1e-10
    evals = np.linalg.eigvalsh(pos.blocks[0])
    assert evals.min() > -1e-12


def test_polar_with_kernel():
    """On singular input the polar factor is the support partial isometry."""
    alg = TracialAlgebra.matrix(2)
    x = alg.element([np.diag([2.0, 0.0]).astype(complex)])
    w, pos = polar(x)
    support = np.diag([1.0, 0.0])
    assert np.allclose((w.H * w).blocks[0], support)
    assert alg.norm_inf(w * pos - x) < 1e-10


def test_unitary_polar_factor():
    rng = np.random.default_rng(4)
    b = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    u = unitary_polar_factor(b)
    assert np.max(np.abs(u @ u.conj().T - np.eye(4))) < 1e-10


def test_commutant_blocks_regular_rep():
    """The commutant of the regular rep of Z/2 is two one-dimensional blocks."""
    rep = regular_rep(cyclic(2))
    dec = commutant_blocks(rep)
    assert sorted(m for (_, _, m, _) in dec.components) == [1, 1]
    x = conditional_expectation_commutant(
        rep, rep.algebra.element([np.diag([1.0, -2.0]).astype(complex)])
    )
    assert dec.scalar_block_residual(x) < 1e-8
    y = dec.compress(x)
    assert rep.algebra.norm2(dec.lift(y) - x) < 1e-10
    assert abs(dec.algebra_n.tau(y) - rep.algebra.tau(x)) < 1e-12


def test_nearest_unitary_sqrt2():
    """||v - u||_2 <= sqrt(2) ||v - E(v)||_2, tight at a mean-zero unitary."""
    rep = regular_rep(cyclic(2))
    alg = rep.algebra
    v = alg.element([np.diag([1.0, -1.0]).astype(complex)])
    # E(v) = 0 here, so ||v - u||_2^2 = 2 for every unitary u of the commutant
    u = nearest_unitary_in_commutant(rep, v)
    for g in rep.group.elements:
        assert alg.norm_inf(u * rep.images[g] - rep.images[g] * u) < 1e-9
    lhs = alg.norm2(v - u)
    assert abs(lhs - math.sqrt(2.0)) < 1e-9


def test_nearest_unitary_recovers_member():
    rep = regular_rep(boolean_group(2))
    alg = rep.algebra
    v = conditional_expectation_commutant(rep, alg.element(
        [np.diag(np.exp(1j * np.array([0.2, 0.9, 1.4, -0.3])))]
    ))
    u, _ = polar(v)
    # u is a unitary of the commutant already, so it is its own best approximant
    best = nearest_unitary_in_commutant(rep, u)
    assert alg.norm2(best - u) < 1e-8


def test_norm_conditional_duality():
    rep = regular_rep(cyclic(3))
    alg = rep.algebra
    rng = np.random.default_rng(9)
    xi = alg.element([rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))])
    lhs, sup = norm_conditional_duality_check(rep, xi)
    assert abs(lhs - sup) < 1e-9 * max(1.0, lhs)  # the dual pairing attains the norm
    member = conditional_expectation_commutant(rep, xi)
    lhs0, sup0 = norm_conditional_duality_check(rep, member)
    assert lhs0 < 1e-12 and sup0 == 0.0


# -- screened validation at the tolerance boundary -----------------------------

TOL = 1e-9


def _count_exact_norms(monkeypatch):
    """Count the exact operator-norm computations made by validation."""
    calls = []
    exact = TracialAlgebra.norm_inf

    def counted(self, x):
        calls.append(1)
        return exact(self, x)

    monkeypatch.setattr(TracialAlgebra, "norm_inf", counted)
    return calls


def _scaled_halves(d, delta):
    """Two-outcome family on M_d whose first projection is (1 + delta) on half
    the diagonal: its idempotence and sum residuals are diagonal, of operator
    norm about delta and Frobenius norm about delta * sqrt(d / 2)."""
    alg = TracialAlgebra.matrix(d)
    half = np.r_[np.ones(d // 2), np.zeros(d - d // 2)]
    p = alg.element([np.diag((1.0 + delta) * half).astype(complex)])
    q = alg.element([np.diag(1.0 - half).astype(complex)])
    return alg, [p, q]


def _tilted_pairs(m, s):
    """Two-outcome family on M_{2m}: in each 2 x 2 block, |e_0><e_0| and the
    projection onto cos(t) e_1 + s e_0 with sin(t) = s.  The product and the
    sum residual have operator norm s and Frobenius norm s * sqrt(m) or more."""
    d = 2 * m
    c = math.sqrt(1.0 - s * s)
    a = np.zeros((d, d), dtype=complex)
    b = np.zeros((d, d), dtype=complex)
    for i in range(m):
        a[2 * i, 2 * i] = 1.0
        v = np.zeros(d, dtype=complex)
        v[2 * i], v[2 * i + 1] = s, c
        b += np.outer(v, v.conj())
    alg = TracialAlgebra.matrix(d)
    return alg, [alg.element([a]), alg.element([b])]


def test_pvm_screen_accepts_without_exact_norms(monkeypatch):
    calls = _count_exact_norms(monkeypatch)
    alg = TracialAlgebra.matrix(32)
    rng = np.random.default_rng(1)
    u = alg.element([haar_unitary(32, rng)])
    pvm = _two_point_pvm(alg, [1.0] * 12 + [0.0] * 20)
    pvm.conjugated(u)
    e = np.eye(32)
    PVM(alg, list(range(32)), [alg.element([np.outer(e[i], e[i])]) for i in range(32)])
    assert calls == []


def test_pvm_accepts_operator_norm_below_tol_frobenius_above(monkeypatch):
    calls = _count_exact_norms(monkeypatch)
    alg, projs = _scaled_halves(64, 0.9 * TOL)
    frob = np.linalg.norm(projs[0].blocks[0] @ projs[0].blocks[0] - projs[0].blocks[0])
    assert frob > TOL
    PVM(alg, [0, 1], projs, tol=TOL)
    assert calls  # the screen failed and the exact path decided
    alg, projs = _tilted_pairs(32, 0.9 * TOL)
    assert np.linalg.norm(projs[0].blocks[0] @ projs[1].blocks[0]) > TOL
    PVM(alg, ["a", "b"], projs, tol=TOL)


def test_pvm_rejects_operator_norm_just_above_tol():
    alg, projs = _scaled_halves(64, 1.1 * TOL)
    with pytest.raises(InvalidPVM) as info:
        PVM(alg, [0, 1], projs, tol=TOL)
    p, q = projs
    worst = max(alg.norm_inf(p * p - p), alg.norm_inf(p - p.H), alg.norm_inf(q * q - q))
    worst_sum = alg.norm_inf(p + q - alg.identity())
    assert info.value.residual == max(worst, worst_sum)
    assert TOL < info.value.residual < 1.2 * TOL
    alg, projs = _tilted_pairs(32, 1.1 * TOL)
    with pytest.raises(InvalidPVM):
        PVM(alg, ["a", "b"], projs, tol=TOL)


@pytest.mark.parametrize("stack_entries", [None, 4 * 16 * 16])
def test_pvm_names_first_non_orthogonal_pair(monkeypatch, stack_entries):
    """The first failing pair in (i, j) order is named, with its exact
    operator-norm residual, also when the pairs span several chunks (the
    failing ones in the last, partial chunk)."""
    if stack_entries is not None:
        monkeypatch.setattr(algebra, "_STACK_ENTRIES", stack_entries)
    alg = TracialAlgebra.matrix(16)
    e = np.eye(16)
    projs = [alg.element([np.outer(e[i], e[i]).astype(complex)]) for i in range(6)]
    # outcomes 3 and 4 overlap, and so do 4 and 5
    for i, j in ((3, 4), (4, 5)):
        v = (e[i] + e[j]) / math.sqrt(2.0)
        projs[j] = alg.element([np.outer(v, v).astype(complex)])
    labels = ["x0", "x1", "x2", "x3", "x4", "x5"]
    total = alg.zero()
    for p in projs:
        total = total + p
    # a unit equal to the sum keeps the sum check out of the way
    with pytest.raises(InvalidPVM, match="'x3','x4' are not orthogonal") as info:
        PVM(alg, labels, projs, unit=total)
    assert info.value.residual == alg.norm_inf(projs[3] * projs[4])


def test_pvm_multi_block_and_corner():
    alg = TracialAlgebra([(2, Fraction(1, 4)), (3, Fraction(3, 4))])
    rng = np.random.default_rng(6)
    u = alg.element([haar_unitary(2, rng), haar_unitary(3, rng)])
    projs = [
        alg.element([np.diag([1.0, 0.0]), np.diag([1.0, 0.0, 0.0])]),
        alg.element([np.diag([0.0, 1.0]), np.diag([0.0, 1.0, 1.0])]),
    ]
    pvm = PVM(alg, ["a", "b"], projs)
    pvm.conjugated(u)
    # a defect in the second block alone is caught
    bad = [projs[0], alg.element([np.diag([0.0, 1.0]), np.diag([0.0, 1.0, 0.5])])]
    with pytest.raises(InvalidPVM):
        PVM(alg, ["a", "b"], bad)
    # a measure in the corner below diag(1, 1, 0) of M_3
    m3 = TracialAlgebra.matrix(3)
    unit = m3.element([np.diag([1.0, 1.0, 0.0])])
    corner = PVM(
        m3,
        [0, 1],
        [m3.element([np.diag([1.0, 0.0, 0.0])]), m3.element([np.diag([0.0, 1.0, 0.0])])],
        unit=unit,
    )
    corner.conjugated(m3.element([haar_unitary(3, rng)]))
    with pytest.raises(InvalidPVM):
        PVM(m3, [0], [m3.element([np.diag([1.0, 0.0, 0.0])])], unit=unit)


def test_almost_hom_unitarity_boundary():
    grp = cyclic(2)
    alg = TracialAlgebra.matrix(64)
    ident = alg.identity()

    def images(delta):
        # (1 + delta)^2 - 1 is about 2 delta on every diagonal entry
        return {(0,): ident, (1,): (1.0 + delta) * ident}

    AlmostHom(grp, alg, images(0.45 * TOL), tol=TOL)
    with pytest.raises(InvalidRepresentation) as info:
        AlmostHom(grp, alg, images(0.55 * TOL), tol=TOL)
    u = images(0.55 * TOL)[(1,)]
    exact = max(alg.norm_inf(u * u.H - ident), alg.norm_inf(u.H * u - ident))
    assert info.value.residual == exact
    assert TOL < exact < 1.2 * TOL


def test_unitary_rep_multiplication_boundary():
    """u(g)^2 = e^{2i theta} 1 misses u(g^2) = 1 by |e^{2i theta} - 1| on all
    64 diagonal entries: operator norm r, Frobenius norm 8 r."""
    grp = cyclic(2)
    alg = TracialAlgebra.matrix(64)
    signs = np.diag(np.resize([1.0, -1.0], 64))

    def images(r):
        theta = math.asin(r / 2.0)
        return {(0,): alg.identity(), (1,): alg.element([np.exp(1j * theta) * signs])}

    UnitaryRep(grp, alg, images(0.9 * TOL), tol=TOL)
    with pytest.raises(InvalidRepresentation) as info:
        UnitaryRep(grp, alg, images(1.1 * TOL), tol=TOL)
    u = images(1.1 * TOL)
    assert info.value.residual == alg.norm_inf(u[(0,)] - u[(1,)] * u[(1,)])
    assert TOL < info.value.residual < 1.2 * TOL


def test_pvm_self_adjointness_boundary():
    """{P, 1 - P} with P = [[1, x], [0, 0]] is idempotent, complete and
    orthogonal; only P - P* = [[0, x], [-x, 0]] is off, with operator norm x
    and Frobenius norm x sqrt(2)."""
    alg = TracialAlgebra.matrix(2)

    def family(x):
        p = np.array([[1.0, x], [0.0, 0.0]], dtype=complex)
        return [alg.element([p]), alg.element([np.eye(2) - p])]

    PVM(alg, [0, 1], family(0.9 * TOL), tol=TOL)
    with pytest.raises(InvalidPVM) as info:
        PVM(alg, [0, 1], family(1.1 * TOL), tol=TOL)
    assert TOL < info.value.residual < 1.2 * TOL
