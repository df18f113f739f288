import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gapstab import algebra, groups, stability, suites
from gapstab.abelian import AbelianGroup, boolean_group, cyclic, regular_rep
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
    rep_residual,
    unitary_polar_factor,
)
from gapstab.errors import (
    DegenerateDecomposition,
    InvalidArgument,
    InvalidPVM,
    InvalidRepresentation,
    NonGeneratingSupport,
    ResourceCap,
)
from gapstab.groups import CentralExtensionGroup, ProductGroup, symmetric_group
from gapstab.spectral import ProbMeasure
from gapstab.stability import equivariance_residual


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


def test_unitary_polar_factor():
    rng = np.random.default_rng(4)
    b = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    u = unitary_polar_factor(b)
    assert np.max(np.abs(u @ u.conj().T - np.eye(4))) < 1e-10


def test_commutant_blocks_regular_rep():
    """The commutant of the regular rep of Z/2 is two one-dimensional blocks;
    compress and lift move a stack of commutant elements and back."""
    rep = regular_rep(cyclic(2))
    dec = commutant_blocks(rep)
    assert sorted(m for (_, _, m, _) in dec.components) == [1, 1]
    diagonals = np.array([[1.0, -2.0], [3.0, 0.5], [0.0, 1.0]])
    xs = algebra._commutant_mean(rep.stacks, [np.array([np.diag(d) for d in diagonals], complex)])
    ys = dec.compress(xs)
    assert [y.shape for y in ys] == [(3, 1, 1), (3, 1, 1)]
    np.testing.assert_allclose(dec.lift(ys)[0], xs[0], rtol=0, atol=1e-10)
    tau_n = sum(c * np.trace(y, axis1=1, axis2=2) for c, y in zip(dec.algebra_n.coeffs, ys))
    tau = rep.algebra.coeffs[0] * np.trace(xs[0], axis1=1, axis2=2)
    np.testing.assert_allclose(tau_n, tau, rtol=0, atol=1e-12)


@pytest.mark.parametrize("entries", [algebra._STACK_ENTRIES, 150])
def test_commutant_mean_matches_group_loop(monkeypatch, entries):
    """The stacked kernel against the literal sum over the group, on a stack
    of four elements of M_6 (+) M_3 under S3 (the regular representation on
    the first block, the permutation one on the second), in one chunk and
    in chunks of one and five group elements; the regular block's commutant
    has a component with m = d = 2, and the decomposition compresses and
    lifts the projected stack back to itself."""
    monkeypatch.setattr(algebra, "_STACK_ENTRIES", entries)
    grp = symmetric_group(3)
    perm = np.eye(3)[np.array(grp.elements)].transpose(0, 2, 1)
    alg = TracialAlgebra([(6, Fraction(1, 3)), (3, Fraction(2, 3))])
    rep = UnitaryRep(grp, alg, [regular_rep(grp).stacks[0], perm])
    rng = np.random.default_rng(8)
    xs = [
        rng.standard_normal((4, n, n)) + 1j * rng.standard_normal((4, n, n))
        for n in rep.algebra.dims
    ]
    got = algebra._commutant_mean(rep.stacks, xs)
    for u, x, e in zip(rep.stacks, xs, got):
        assert e.shape == x.shape
        for k in range(len(x)):
            want = sum(ug @ x[k] @ ug.conj().T for ug in u) / len(u)
            np.testing.assert_allclose(e[k], want, rtol=0, atol=1e-12)
    dec = commutant_blocks(rep)
    assert sorted((bi, m, d) for (bi, _, m, d) in dec.components) == [
        (0, 1, 1), (0, 1, 1), (0, 2, 2), (1, 1, 1), (1, 1, 2)
    ]
    for lifted, e in zip(dec.lift(dec.compress(got)), got):
        np.testing.assert_allclose(lifted, e, rtol=0, atol=1e-10)


def _probe_commutant_blocks(rep, rng):
    """The commutant's blocks found by random probes, the oracle for
    commutant_blocks: the conditional expectations of two random
    self-adjoint elements form a generic pair of the commutant, which
    groups._split_block splits against the character formula's dimension
    E_g |tr u(g)|^2 of each block; a degenerate draw is retried."""
    alg = rep.algebra
    targets = [
        round(float(np.sum(np.abs(np.einsum("gii->g", s)) ** 2) / rep.group.order))
        for s in rep.stacks
    ]
    for _ in range(groups._COMMUTANT_TRIES):
        probes = []
        for n in alg.dims:
            a = rng.standard_normal((2, n, n)) + 1j * rng.standard_normal((2, n, n))
            probes.append((a + a.conj().transpose(0, 2, 1)) / 2)
        pairs = algebra._commutant_mean(rep.stacks, probes)
        try:
            components = [
                (bi, w, m, d)
                for bi, (n, (t, s)) in enumerate(zip(alg.dims, pairs))
                for w, m, d in groups._split_block(t, s, n, targets[bi])
            ]
        except DegenerateDecomposition:
            continue
        return algebra.CommutantDecomposition(alg, components, [None] * len(components))
    raise AssertionError("no generic probe pair")


def _two_block_s3_rep():
    """S3 on M_6 (+) M_3: the regular representation next to the
    permutation one."""
    grp = symmetric_group(3)
    perm = np.eye(3)[np.array(grp.elements)].transpose(0, 2, 1)
    alg = TracialAlgebra([(6, Fraction(1, 3)), (3, Fraction(2, 3))])
    return UnitaryRep(grp, alg, [regular_rep(grp).stacks[0], perm])


def _stage_one_pi():
    """The rounded representation of a noisy regular S3, as the first stage
    of a product stabilization builds it."""
    phi = suites._noisy_hom(regular_rep(symmetric_group(3)), 0.1, np.random.default_rng(3))
    return stability.gowers_hatami_round(phi).pi


def _exact_phi1():
    """An exact map of Z4, trusted as the exact first stage of a product
    stabilization trusts it."""
    rep = regular_rep(cyclic(4))
    phi = AlmostHom(rep.group, rep.algebra, rep.stacks)
    return UnitaryRep._trusted(phi.group, phi.algebra, phi.stacks)


_COMMUTANT_CASES = {
    "regular-s3": lambda: regular_rep(symmetric_group(3)),
    "regular-s4": lambda: regular_rep(symmetric_group(4)),
    "z2xs3-flip": lambda: suites._permutation_rep(3, flip=True),
    "two-block": _two_block_s3_rep,
    "stage-one-pi": _stage_one_pi,
    "exact-phi1": _exact_phi1,
}


@pytest.mark.parametrize("case", sorted(_COMMUTANT_CASES))
def test_commutant_blocks_match_the_random_probe_oracle(case):
    """The blocks read off the irreps against the random-probe oracle: the
    same (block, m, d) components, the same nearest commutant unitary, and
    W* u(g) W = 1_m (x) rho(g) for every g with rho the recorded irrep."""
    rep = _COMMUTANT_CASES[case]()
    dec = commutant_blocks(rep)
    oracle = _probe_commutant_blocks(rep, np.random.default_rng(7))
    assert sorted((bi, m, d) for bi, _, m, d in dec.components) == sorted(
        (bi, m, d) for bi, _, m, d in oracle.components
    )
    families = rep.group.irrep_stacks()
    for (bi, w, m, d), (f, q) in zip(dec.components, dec.irreps):
        got = w.conj().T @ rep.stacks[bi] @ w
        want = np.kron(np.eye(m), families[f][q])
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)
    rng = np.random.default_rng(11)
    v = AlgebraElement(rep.algebra, [haar_unitary(n, rng) for n in rep.algebra.dims])
    ev = algebra._commutant_mean(rep.stacks, [b[None] for b in v.blocks])
    want = oracle.lift([unitary_polar_factor(y) for y in oracle.compress(ev)])
    for got, w in zip(nearest_unitary_in_commutant(rep, v).blocks, want):
        np.testing.assert_allclose(got, w[0], rtol=0, atol=1e-12)


def test_commutant_blocks_refuse_a_noisy_map():
    """Images off a representation by unitary noise, trusted as if they were
    one: the basis fails its check."""
    rep = regular_rep(symmetric_group(3))
    noisy = suites._noisy_hom(rep, 0.05, np.random.default_rng(5))
    with pytest.raises(DegenerateDecomposition):
        commutant_blocks(UnitaryRep._trusted(noisy.group, noisy.algebra, noisy.stacks))


def test_commutant_blocks_refuse_a_group_above_the_cap(monkeypatch):
    """The cap is checked before any irrep is built."""
    rep = regular_rep(cyclic(6))

    def fail():
        raise AssertionError("irreps built above the cap")

    monkeypatch.setattr(rep.group, "irrep_stacks", fail)
    monkeypatch.setattr(algebra, "ROUNDING_DIM_CAP", 5)
    with pytest.raises(ResourceCap):
        commutant_blocks(rep)
    with pytest.raises(ResourceCap):
        nearest_unitary_in_commutant(rep, rep.algebra.identity())


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
    u = alg.element([unitary_polar_factor(b) for b in v.blocks])
    # u is a unitary of the commutant already, so it is its own best approximant
    best = nearest_unitary_in_commutant(rep, u)
    assert alg.norm2(best - u) < 1e-8


def test_norm_conditional_duality():
    """||xi - E xi||_2 = tau(xi eta) for eta = (xi - E xi)* / ||xi - E xi||_2,
    mean-zero under E and of unit 2-norm: the dual pairing attains the
    distance to the commutant, because E is tau-orthogonal."""
    rep = regular_rep(cyclic(3))
    alg = rep.algebra
    rng = np.random.default_rng(9)
    xi = alg.element([rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))])
    diff = xi - conditional_expectation_commutant(rep, xi)
    lhs = alg.norm2(diff)
    sup = float(np.real(alg.tau(xi * ((1.0 / lhs) * diff.H))))
    assert abs(lhs - sup) < 1e-9 * max(1.0, lhs)
    member = conditional_expectation_commutant(rep, xi)
    assert alg.norm2(member - conditional_expectation_commutant(rep, member)) < 1e-12


# -- screened validation at the tolerance boundary -----------------------------

TOL = algebra.VALIDATION_TOL
assert TOL == 1e-9


def _count_exact_norms(monkeypatch):
    """Count the exact operator-norm computations made by validation: one per
    term that ``_exact_residuals`` evaluates exactly."""
    calls = []
    exact = algebra._exact_residuals

    def counted(*args):
        out = exact(*args)
        calls.extend(out[0].tolist())
        return out

    monkeypatch.setattr(algebra, "_exact_residuals", counted)
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
    moved = pvm.conjugated(u)
    PVM(alg, moved.outcomes, moved.stacks)
    e = np.eye(32)
    PVM(alg, list(range(32)), [alg.element([np.outer(e[i], e[i])]) for i in range(32)])
    assert calls == []


def test_pvm_accepts_operator_norm_below_tol_frobenius_above(monkeypatch):
    calls = _count_exact_norms(monkeypatch)
    alg, projs = _scaled_halves(64, 0.9 * TOL)
    frob = np.linalg.norm(projs[0].blocks[0] @ projs[0].blocks[0] - projs[0].blocks[0])
    assert frob > TOL
    PVM(alg, [0, 1], projs)
    assert calls  # the screen failed and the exact path decided
    alg, projs = _tilted_pairs(32, 0.9 * TOL)
    assert np.linalg.norm(projs[0].blocks[0] @ projs[1].blocks[0]) > TOL
    PVM(alg, ["a", "b"], projs)


def test_pvm_rejects_operator_norm_just_above_tol():
    alg, projs = _scaled_halves(64, 1.1 * TOL)
    with pytest.raises(InvalidPVM) as info:
        PVM(alg, [0, 1], projs)
    p, q = projs
    worst = max(alg.norm_inf(p * p - p), alg.norm_inf(p - p.H), alg.norm_inf(q * q - q))
    worst_sum = alg.norm_inf(p + q - alg.identity())
    assert info.value.residual == max(worst, worst_sum)
    assert TOL < info.value.residual < 1.2 * TOL
    alg, projs = _tilted_pairs(32, 1.1 * TOL)
    with pytest.raises(InvalidPVM):
        PVM(alg, ["a", "b"], projs)


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

    AlmostHom(grp, alg, images(0.45 * TOL))
    with pytest.raises(InvalidRepresentation) as info:
        AlmostHom(grp, alg, images(0.55 * TOL))
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

    UnitaryRep(grp, alg, images(0.9 * TOL))
    with pytest.raises(InvalidRepresentation) as info:
        UnitaryRep(grp, alg, images(1.1 * TOL))
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

    PVM(alg, [0, 1], family(0.9 * TOL))
    with pytest.raises(InvalidPVM) as info:
        PVM(alg, [0, 1], family(1.1 * TOL))
    assert TOL < info.value.residual < 1.2 * TOL


# -- two-block families whose worst residual sits in the second block ------------


def _two_block(n1, n2):
    return TracialAlgebra([(n1, Fraction(1, 4)), (n2, Fraction(3, 4))])


def _sheared(n, x):
    """n/2 copies of [[1, x], [0, 0]]: idempotent, with P - P* of operator
    norm x; P, 1 - P is complete and orthogonal in exact arithmetic."""
    return np.kron(np.eye(n // 2), np.array([[1.0, x], [0.0, 0.0]])).astype(complex)


def _tilted_two_block(s, pad):
    """The _tilted_pairs projections on M_2 (tilt s/2) (+) M_32 (tilt s), the
    second block padded by ``pad`` zero rows and columns."""
    alg = _two_block(2, 32 + pad)
    small, large = _tilted_pairs(1, s / 2)[1], _tilted_pairs(16, s)[1]
    return alg, [
        alg.element([a.blocks[0], np.pad(b.blocks[0], (0, pad))]) for a, b in zip(small, large)
    ]


def _case_pvm_own(r):
    alg = _two_block(2, 32)
    p = alg.element([_sheared(2, r / 2), _sheared(32, r)])
    q = alg.identity() - p

    def expected():
        return max(alg.norm_inf(p - p.H), alg.norm_inf(q - q.H))

    return lambda: PVM(alg, [0, 1], [p, q]), expected, InvalidPVM, "projection residual"


def _case_pvm_sum(r):
    alg, (a, b) = _tilted_two_block(r, 0)

    def expected():
        return alg.norm_inf(a + b - alg.identity())

    return lambda: PVM(alg, ["a", "b"], [a, b]), expected, InvalidPVM, "sum residual"


def _case_pvm_orthogonality(r):
    alg, (a, b) = _tilted_two_block(r, 1)
    x = alg.element([np.zeros((2, 2)), np.diag(np.r_[np.zeros(32), 1.0])])

    def make():
        return PVM(alg, ["x", "a", "b"], [x, a, b], unit=x + a + b)

    return make, lambda: alg.norm_inf(a * b), InvalidPVM, "'a','b' are not orthogonal"


def _case_unitarity(r):
    alg = _two_block(2, 64)
    ident = alg.identity()
    u = alg.element([(1.0 + r / 4) * np.eye(2), (1.0 + r / 2) * np.eye(64)])

    def expected():
        return max(alg.norm_inf(u * u.H - ident), alg.norm_inf(u.H * u - ident))

    def make():
        return AlmostHom(cyclic(2), alg, {(0,): ident, (1,): u})

    return make, expected, InvalidRepresentation, "not unitary"


def _case_law(r):
    alg = _two_block(2, 64)
    ident = alg.identity()
    # g^2 = e^{2i theta} 1 misses g^2 = e by 2 sin(theta): r/2, then r
    signs = [np.diag(np.resize([1.0, -1.0], n)) for n in alg.dims]
    g = alg.element([np.exp(1j * math.asin(x / 2)) * s for x, s in zip((r / 2, r), signs)])

    def make():
        return UnitaryRep(cyclic(2), alg, {(0,): ident, (1,): g})

    return make, lambda: alg.norm_inf(ident - g * g), InvalidRepresentation, "law fails"


TWO_BLOCK_CASES = {
    "pvm-own": _case_pvm_own,
    "pvm-sum": _case_pvm_sum,
    "pvm-orthogonality": _case_pvm_orthogonality,
    "almost-hom-unitarity": _case_unitarity,
    "unitary-rep-law": _case_law,
}


@pytest.mark.parametrize("case", list(TWO_BLOCK_CASES))
def test_two_block_residual_is_the_exact_worst(case):
    """The worst residual of the family sits in the second block, the first
    carrying half of it: validation raises with the exact operator norm of
    the literal expression, bit for bit, and accepts the family at 0.9 tol."""
    TWO_BLOCK_CASES[case](0.9 * TOL)[0]()
    make, expected, error, match = TWO_BLOCK_CASES[case](1.1 * TOL)
    with pytest.raises(error, match=match) as info:
        make()
    assert info.value.residual == expected()
    assert TOL < info.value.residual < 1.2 * TOL


@pytest.mark.parametrize("case", list(TWO_BLOCK_CASES))
def test_screen_failing_validation_uses_no_element_norm(monkeypatch, case):
    """Families that fail the Frobenius screen are decided on the stacks:
    the exact kernel runs and TracialAlgebra.norm_inf is never called."""
    element_norms = []
    monkeypatch.setattr(TracialAlgebra, "norm_inf", lambda self, x: element_norms.append(x))
    exact = _count_exact_norms(monkeypatch)
    TWO_BLOCK_CASES[case](0.9 * TOL)[0]()
    make, _, error, _ = TWO_BLOCK_CASES[case](1.1 * TOL)
    with pytest.raises(error):
        make()
    assert exact and element_norms == []


# -- stacked images and the two kernels -------------------------------------------


def _random_hom(group, alg, seed):
    """Haar-random images: unitary, far from multiplicative."""
    rng = np.random.default_rng(seed)
    return AlmostHom(
        group,
        alg,
        {g: alg.element([haar_unitary(n, rng) for n in alg.dims]) for g in group.elements},
    )


def _noisy_rep(rep, sigma, seed):
    """A representation with each image rotated by about sigma."""
    rng = np.random.default_rng(seed)
    alg = rep.algebra
    images = {}
    for g in rep.group.elements:
        blocks = []
        for b in rep.images[g].blocks:
            h = rng.standard_normal(b.shape) + 1j * rng.standard_normal(b.shape)
            vals, vecs = np.linalg.eigh((h + h.conj().T) / 2)
            blocks.append((vecs * np.exp(1j * sigma * vals)) @ vecs.conj().T @ b)
        images[g] = alg.element(blocks)
    return AlmostHom(rep.group, alg, images)


def _two_block_rep(group, seed):
    """The regular representation of ``group`` on both blocks of
    M_n (+) M_n, conjugated by a different random unitary in each."""
    n = group.order
    alg = TracialAlgebra([(n, Fraction(1, 3)), (n, Fraction(2, 3))])
    rng = np.random.default_rng(seed)
    conj = [haar_unitary(n, rng) for _ in range(2)]
    reg = regular_rep(group)
    images = {
        g: alg.element([c @ reg.images[g].blocks[0] @ c.conj().T for c in conj])
        for g in group.elements
    }
    return UnitaryRep(group, alg, images)


@pytest.mark.parametrize("stack_entries", [None, 2 * 3 * 3])
def test_pair_defect_matrix_matches_pair_loop(monkeypatch, stack_entries):
    """D[a, b] = ||U(a)V(b) - gamma[a, b] V(b)U(a)||_2^2 against the per-pair
    loop over elements, on a two-block algebra with the complex characters of
    Z3 x Z3 (and all-ones gamma), also when the products span several chunks;
    the (mu x nu)-weighted sum mu_w @ D @ nu_w against the weighted loop."""
    if stack_entries is not None:
        monkeypatch.setattr(algebra, "_STACK_ENTRIES", stack_entries)
    grp = AbelianGroup((3, 3))
    alg = TracialAlgebra([(2, Fraction(1, 3)), (3, Fraction(2, 3))])
    u = _random_hom(grp, alg, 1)
    v = _random_hom(grp.dual(), alg, 2)
    table = grp.character_table().T
    for gamma in (table, np.ones(table.shape)):
        d = algebra._pair_defects(u, v, gamma)
        assert d.shape == (9, 9)
        for i, a in enumerate(grp.elements):
            for j, b in enumerate(grp.dual().elements):
                c = u.images[a] * v.images[b] - gamma[i, j] * (v.images[b] * u.images[a])
                assert d[i, j] == pytest.approx(alg.norm2(c) ** 2, rel=1e-12)
    rng = np.random.default_rng(3)
    mu = ProbMeasure(
        grp, {a: Fraction(int(k), 45) for a, k in zip(grp.elements, rng.permutation(9) + 1)}
    )
    nu = ProbMeasure(grp.dual(), {(1, 0): Fraction(1, 4), (2, 2): Fraction(3, 4)})
    d = algebra._pair_defects(u, v, table)
    weighted = 0.0
    for a, pa in mu.items_nonzero():
        for b, pb in nu.items_nonzero():
            c = u.images[a] * v.images[b] - grp.pairing(b, a) * (v.images[b] * u.images[a])
            weighted += float(pa * pb) * alg.norm2(c) ** 2
    mu_w = np.array([float(mu(a)) for a in grp.elements])
    nu_w = np.array([float(nu(b)) for b in grp.dual().elements])
    assert mu_w @ d @ nu_w == pytest.approx(weighted, rel=1e-12)


def test_defect_matches_pair_loop():
    phi = _noisy_rep(_two_block_rep(cyclic(4), 4), 0.1, 5)
    grp, alg = phi.group, phi.algebra
    mu = ProbMeasure(grp, {(1,): Fraction(1, 3), (2,): Fraction(2, 3)})
    nu = ProbMeasure(grp, {(0,): Fraction(1, 2), (3,): Fraction(1, 2)})
    for m, n in ((None, None), (mu, nu), (nu, None)):
        gs = m.items_nonzero() if m else [(g, Fraction(1, 4)) for g in grp.elements]
        hs = list(n.items_nonzero()) if n else [(h, Fraction(1, 4)) for h in grp.elements]
        ref = 0.0
        for g, wg in gs:
            for h, wh in hs:
                r = phi.images[grp.mul(g, h)] - phi.images[g] * phi.images[h]
                ref += float(wg) * float(wh) * alg.norm2(r) ** 2
        assert ref > 1e-4
        assert defect(phi, m, n) == pytest.approx(ref, rel=1e-12)


def _pauli_extension(r):
    a = boolean_group(r)
    return CentralExtensionGroup(a, boolean_group(r), lambda x, y: a.pairing(x, y))


# Groups with irreps, where the uniform defect has a Fourier path: abelian,
# a product, the central extensions (irreps of dimension 2 and 4) and a
# two-block algebra of weights 1/3 and 2/3.
_FOURIER_DEFECT_REPS = {
    "Z5": lambda: regular_rep(cyclic(5)),
    "Z2xZ4": lambda: regular_rep(AbelianGroup((2, 4))),
    "Z2 x Z3": lambda: regular_rep(ProductGroup(cyclic(2), cyclic(3))),
    "extension-1": lambda: regular_rep(_pauli_extension(1)),
    "extension-2": lambda: regular_rep(_pauli_extension(2)),
    "two-block": lambda: _two_block_rep(AbelianGroup((2, 4)), 8),
}


def _law_sq_loop(phi, g, h):
    """||phi(gh) - phi(g)phi(h)||_2^2 for one pair, by a label product and the
    algebra's 2-norm: an oracle independent of the stacked kernels."""
    grp = phi.group
    return phi.algebra.norm2(phi.images[grp.mul(g, h)] - phi.images[g] * phi.images[h]) ** 2


def _uniform_pairwise(phi):
    """The uniform defect as the mean of the per-pair loop over all pairs."""
    els = phi.group.elements
    return sum(_law_sq_loop(phi, g, h) for g in els for h in els) / len(els) ** 2


@pytest.mark.parametrize("stack_entries", [None, 2 * 6 * 6])
def test_law_grid_matches_pair_loop(monkeypatch, stack_entries):
    """The grid kernel against the per-pair loop on a noisy regular
    representation of S3 on two blocks: every entry of a rows x columns
    grid, the defect over two weighted supports and both sides of the
    equivariance residual, also with rows and columns split over chunks,
    none of whose residuals exceeds _STACK_ENTRIES entries."""
    if stack_entries is not None:
        monkeypatch.setattr(algebra, "_STACK_ENTRIES", stack_entries)
    phi = _noisy_rep(_two_block_rep(symmetric_group(3), 4), 0.1, 5)
    grp, els = phi.group, phi.group.elements
    rows, cols = [5, 0, 3], [1, 4, 2, 5, 0]
    chunks = []
    square = np.square
    with monkeypatch.context() as m:
        # each chunk's residual is squared once, in place, as float pairs
        m.setattr(np, "square", lambda x, out: chunks.append(x.size // 2) or square(x, out=out))
        grid = algebra._law_sq(phi, rows, cols)
    assert grid.shape == (3, 5)
    assert max(chunks) <= algebra._STACK_ENTRIES
    assert len(chunks) > 2 if stack_entries is not None else len(chunks) == 2
    for i, r in enumerate(rows):
        for j, c in enumerate(cols):
            assert grid[i, j] == pytest.approx(_law_sq_loop(phi, els[r], els[c]), rel=1e-12)

    mu = ProbMeasure(grp, {els[1]: Fraction(1, 3), els[4]: Fraction(2, 3)})
    nu = ProbMeasure(grp, {els[0]: Fraction(1, 6), els[2]: Fraction(1, 2), els[5]: Fraction(1, 3)})
    ref = sum(
        float(wg * wh) * _law_sq_loop(phi, g, h)
        for g, wg in mu.items_nonzero()
        for h, wh in nu.items_nonzero()
    )
    assert ref > 1e-4
    assert defect(phi, mu, nu) == pytest.approx(ref, rel=1e-12)

    sub = [els[0], els[1]]  # the identity and the transposition (1 2)
    assert grp.is_subgroup(sub)
    want = max(math.sqrt(_law_sq_loop(phi, h, g)) for h in sub for g in els)
    assert equivariance_residual(phi, sub) == pytest.approx(want, rel=1e-12)


def _noise_unitary_loop(n, sigma, rng):
    """e^{i sigma H} drawn alone: the oracle of the batched noise kernel."""
    h = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    h = (h + h.conj().T) / 2
    nrm = np.linalg.norm(h, 2)
    if nrm > 0:
        h /= nrm
    vals, vecs = np.linalg.eigh(h)
    return (vecs * np.exp(1j * sigma * vals)) @ vecs.conj().T


@pytest.mark.parametrize(
    "dims, count, stack_entries",
    [((8,), 20, None), ((2, 3), 7, None), ((4,), 11, 40), ((2, 3), 5, 20), ((32,), 449, None)],
)
def test_noise_unitaries_equal_one_at_a_time_draws(monkeypatch, dims, count, stack_entries):
    """The batched noise kernel yields, bit for bit, the unitaries of a loop
    that draws one per count and block in turn, and leaves the generator in
    the same state; no batched eigh holds more than a quarter of
    _STACK_ENTRIES entries (or one draw's block).  449 draws at d = 32, a
    Hamming strategy's, span several chunks at the default cap."""
    if stack_entries is not None:
        monkeypatch.setattr(algebra, "_STACK_ENTRIES", stack_entries)
    batched, alone = np.random.default_rng(3), np.random.default_rng(3)
    sizes = []
    eigh = np.linalg.eigh
    with monkeypatch.context() as m:
        m.setattr(np.linalg, "eigh", lambda h: sizes.append(h.size) or eigh(h))
        got = list(algebra._noise_unitaries(dims, count, 0.3, batched))
    want = [[_noise_unitary_loop(n, 0.3, alone) for n in dims] for _ in range(count)]
    assert len(got) == count
    for blocks, ref in zip(got, want):
        assert all(np.array_equal(u, r) for u, r in zip(blocks, ref, strict=True))
    assert batched.random() == alone.random()
    assert max(sizes) <= max(algebra._STACK_ENTRIES // 4, max(dims) ** 2)
    if stack_entries is not None or count > 100:
        assert len(sizes) > len(dims)  # several chunks


def _pair_defects_by_formula(u, v, gamma):
    """The pair defects as a fresh difference and squared moduli per chunk:
    the oracle of the kernel that forms them in the chunk buffers."""
    out = np.zeros((u.group.order, v.group.order))
    for us, vs, c in zip(u.stacks, v.stacks, u.algebra.coeffs):
        for sa, sb, uv, vu in algebra._product_chunks(us, vs):
            d = uv - gamma[sa, None, sb, None] * vu
            out[sa, sb] += c * (d.real**2 + d.imag**2).sum(axis=(1, 3))
    return out


def _real_hom(group, alg, seed):
    """Real orthogonal images, stored as they are."""
    rng = np.random.default_rng(seed)
    stacks = [
        np.array([np.linalg.qr(rng.standard_normal((n, n)))[0] for _ in group.elements])
        for n in alg.dims
    ]
    return AlmostHom._trusted(group, alg, stacks)


@pytest.mark.parametrize("stack_entries", [None, 50])
@pytest.mark.parametrize("orders, dims", [((3, 3), (2, 3)), ((2,) * 5, (32,)), ((5,), (20,))])
def test_pair_defects_equal_the_fresh_formula(monkeypatch, orders, dims, stack_entries):
    """The pair defects formed in the chunk buffers equal the fresh-temporary
    formula bit for bit, with gamma all ones and with the character table,
    on complex and on real images, in one chunk or several."""
    if stack_entries is not None:
        monkeypatch.setattr(algebra, "_STACK_ENTRIES", stack_entries)
    grp = AbelianGroup(orders)
    alg = TracialAlgebra([(n, Fraction(1, len(dims))) for n in dims])
    table = grp.character_table().T
    for make in (_random_hom, _real_hom):
        u, v = make(grp, alg, 1), make(grp.dual(), alg, 2)
        for gamma in (np.ones(table.shape), table):
            got = algebra._pair_defects(u, v, gamma)
            assert got.tobytes() == _pair_defects_by_formula(u, v, gamma).tobytes()


@pytest.mark.parametrize("stack_entries", [None, 50])
@pytest.mark.parametrize("k, n", [(9, 3), (16, 16), (7, 100)])
def test_pair_traces_equal_the_fresh_formula(monkeypatch, k, n, stack_entries):
    """tr X*X, tr Z*Z and tr X*Z formed in the chunk buffers equal the
    fresh-temporary formulas bit for bit, for complex stacks, a real stack
    against a complex one and two real stacks, in one chunk or several."""
    if stack_entries is not None:
        monkeypatch.setattr(algebra, "_STACK_ENTRIES", stack_entries)
    rng = np.random.default_rng(k)
    us = np.array([haar_unitary(n, rng) for _ in range(k)])
    vs = np.array([haar_unitary(n, rng) for _ in range(k)])
    for left, right in ((us, vs), (us.real, vs), (us.real, vs.imag)):
        got = algebra._pair_traces(left, right)
        want = [np.empty(got[0].shape), np.empty(got[1].shape), np.empty(got[2].shape, complex)]
        chunks = 0
        for sa, sb, uv, vu in algebra._product_chunks(left, right):
            want[0][sa, sb] = (uv.real**2 + uv.imag**2).sum(axis=(1, 3))
            want[1][sa, sb] = (vu.real**2 + vu.imag**2).sum(axis=(1, 3))
            want[2][sa, sb] = (uv.conj() * vu).sum(axis=(1, 3))
            chunks += 1
        assert [w.tobytes() for w in want] == [g.tobytes() for g in got]
        assert chunks > 1 or stack_entries is None


def test_product_chunk_buffers_are_kept_for_the_next_call(monkeypatch):
    """The pair kernels take their chunk buffers from the spares and give
    them back: a second call allocates none and gives the same bytes.  Two
    live chunk streams never share a buffer, and a buffer above the cap is
    not kept."""
    rng = np.random.default_rng(4)
    us = np.array([haar_unitary(8, rng) for _ in range(6)])
    vs = np.array([haar_unitary(8, rng) for _ in range(6)])
    monkeypatch.setattr(algebra, "_SPARE_BUFFERS", {})

    def spares():
        return sorted(id(b) for bs in algebra._SPARE_BUFFERS.values() for b in bs)

    fresh = algebra._pair_traces(us, vs)
    kept = spares()
    assert len(kept) == 3
    again = algebra._pair_traces(us, vs)
    assert spares() == kept
    assert [x.tobytes() for x in again] == [x.tobytes() for x in fresh]
    first, second = algebra._product_chunks(us, vs), algebra._product_chunks(vs, us)
    (_, _, uv1, vu1), (_, _, uv2, vu2) = next(first), next(second)
    for a in (uv1, vu1):
        for b in (uv2, vu2):
            assert not np.shares_memory(a, b)
    assert np.array_equal(uv1.transpose(0, 2, 1, 3), us[:, None] @ vs[None])
    first.close(), second.close()
    assert len(spares()) == 4  # the second stream made one more
    monkeypatch.setattr(algebra, "_SPARE_BUFFERS", {})
    monkeypatch.setattr(algebra, "_STACK_ENTRIES", 50)
    algebra._pair_traces(us, vs)  # each 8 x 8 product exceeds 50 entries
    assert spares() == []


@pytest.mark.parametrize("case", sorted(_FOURIER_DEFECT_REPS))
def test_fourier_defect_matches_pairwise_sum(case, monkeypatch):
    """Above the floor the uniform defect is read off the Fourier blocks,
    with no pairwise residual, and agrees with the mean of the |G|^2 law
    residuals to relative 1e-10, near and far from multiplicative."""
    rep = _FOURIER_DEFECT_REPS[case]()
    assert rep.group.irrep_stacks() is not None
    tau_one = sum(rep.algebra.weights)
    for phi in (_noisy_rep(rep, 0.1, 9), _random_hom(rep.group, rep.algebra, 10)):
        ref = _uniform_pairwise(phi)
        assert ref >= 10 * algebra._FOURIER_DEFECT_FLOOR * tau_one
        with monkeypatch.context() as m:
            m.setattr(algebra, "_law_sq", None)  # any pairwise call fails
            got = defect(phi)
        assert got == pytest.approx(ref, rel=1e-10)


@pytest.mark.parametrize("case", sorted(_FOURIER_DEFECT_REPS))
def test_fourier_defect_below_the_floor_is_the_pairwise_value(case):
    """Exact and nearly exact inputs fall below the floor, where the Fourier
    value is dropped and the pairwise sum is returned unchanged."""
    rep = _FOURIER_DEFECT_REPS[case]()
    for phi in (rep, _noisy_rep(rep, 1e-3, 11)):
        cubes = [
            sum(algebra._fourier_blocks(fam, s)[2] for fam in phi.group.irrep_stacks())
            for s in phi.stacks
        ]
        assert algebra._fourier_defect(phi, cubes) is None
        assert defect(phi) == algebra._pairwise_defect(phi)
        assert defect(phi) == pytest.approx(_uniform_pairwise(phi), rel=1e-10, abs=1e-28)


@pytest.mark.parametrize("group", [cyclic(5), AbelianGroup((2, 4))])
def test_rep_residual_equals_pair_loop(group):
    phi = _noisy_rep(_two_block_rep(group, 6), 0.05, 7)
    worst = 0.0
    for g in group.elements:
        for h in group.elements:
            r = phi.images[group.mul(g, h)] - phi.images[g] * phi.images[h]
            worst = max(worst, phi.algebra.norm_inf(r))
    assert worst > 1e-3
    assert rep_residual(phi) == worst


def test_rep_residual_and_unitary_rep_sample_the_same_pairs(monkeypatch):
    """Above the cost limit both check the 64 pairs (g, h) drawn, g first,
    from default_rng(0)."""
    monkeypatch.setattr(algebra, "_LAW_COST_LIMIT", 0)
    rep = regular_rep(boolean_group(4))
    grp = rep.group
    seen = []
    pair_rule = algebra._law_pairs

    def recording(*args):
        seen.append(pair_rule(*args))
        return seen[-1]

    monkeypatch.setattr(algebra, "_law_pairs", recording)
    UnitaryRep(grp, rep.algebra, rep.images)
    phi = _noisy_rep(rep, 0.05, 8)
    worst = rep_residual(phi)
    rng = np.random.default_rng(0)
    drawn = [(int(rng.integers(16)), int(rng.integers(16))) for _ in range(64)]
    assert len(seen) == 2
    for left, right, prod in seen:
        assert list(zip(left.tolist(), right.tolist())) == drawn
        els = grp.elements
        assert prod.tolist() == [grp.index(grp.mul(els[i], els[j])) for i, j in drawn]
    els = grp.elements
    assert worst == max(
        phi.algebra.norm_inf(
            phi.images[grp.mul(els[i], els[j])] - phi.images[els[i]] * phi.images[els[j]]
        )
        for i, j in drawn
    )


def test_images_are_read_only_views_of_the_stacks():
    rep = _two_block_rep(cyclic(3), 9)
    for i, g in enumerate(rep.group.elements):
        for b, block in enumerate(rep.images[g].blocks):
            assert np.shares_memory(block, rep.stacks[b])
            assert np.array_equal(block, rep.stacks[b][i])
    with pytest.raises(ValueError):
        rep.images[(1,)].blocks[0][0, 0] = 2.0
    with pytest.raises(ValueError):
        rep.stacks[1][0] += 1.0


def _random_pvm(alg, outcomes, seed, corner=False):
    """Random ranks of a random basis in every block, one projection per
    outcome; with ``corner``, some basis vectors belong to no outcome and the
    unit is the projection onto the others."""
    rng = np.random.default_rng(seed)
    blocks = [[] for _ in outcomes]
    unit = []
    for n in alg.dims:
        u = haar_unitary(n, rng)
        labels = rng.integers(len(outcomes) + corner, size=n)
        for k in range(len(outcomes)):
            cols = u[:, labels == k]
            blocks[k].append(cols @ cols.conj().T)
        cols = u[:, labels < len(outcomes)]
        unit.append(cols @ cols.conj().T)
    return PVM(alg, outcomes, [alg.element(b) for b in blocks], unit=alg.element(unit))


@pytest.mark.parametrize("dims,k", [((2,), 2), ((5,), 7), ((3, 4), 3), ((16,), 16)])
def test_pvm_conjugated_equals_per_projection_product(dims, k):
    """The batched conjugation gives the bits of u * p * u.H per projection."""
    alg = TracialAlgebra([(n, Fraction(1, len(dims))) for n in dims])
    pvm = _random_pvm(alg, list(range(k)), 10 + k)
    rng = np.random.default_rng(k)
    u = alg.element([haar_unitary(n, rng) for n in dims])
    moved = pvm.conjugated(u)
    for a in pvm.outcomes:
        ref = u * pvm[a] * u.H
        for got, want in zip(moved[a].blocks, ref.blocks):
            assert np.array_equal(got, want)


def _count_residual_checks(monkeypatch):
    """Record each call of ``_exact_residuals``, through which every
    validation residual goes."""
    checks = []
    exact = algebra._exact_residuals
    monkeypatch.setattr(algebra, "_exact_residuals", lambda *a: checks.append(1) or exact(*a))
    return checks


def _worst_pvm_residual(pvm):
    """The largest operator-norm validation residual of a PVM, every term by
    its own SVD: self-adjointness, idempotence, the sum and orthogonality."""
    worst = 0.0
    for s, e in zip(pvm.stacks, pvm.unit.blocks):
        left, right = np.triu_indices(len(s), 1)
        for r in (s - s.conj().transpose(0, 2, 1), s @ s - s, (s.sum(axis=0) - e)[None],
                  s[left] @ s[right]):
            worst = max(worst, np.linalg.norm(r, 2, axis=(1, 2)).max(initial=0.0))
    return worst


def _outcome(make):
    """What constructing a PVM gives: the PVM, or the InvalidPVM message and
    residual."""
    try:
        return make()
    except InvalidPVM as exc:
        return str(exc), exc.residual


@pytest.mark.parametrize("corner", [False, True])
@pytest.mark.parametrize("dims", [(2,), (5,), (3, 4), (16,), (32,)])
def test_conjugated_residual_bound_beside_the_full_check(monkeypatch, dims, corner):
    """Conjugation by Haar unitaries, and by Haar unitaries stretched to a
    unitarity residual of 1e-12, 3e-10 or 1e-6, for 1 to 16 outcomes.  Up to
    3e-10 the derived bound is trusted (no residual is formed); the full check
    of the same stacks then accepts, and every exact residual is within the
    recorded bound.  At 1e-6 the result is that of the full check: the same
    message and residual, and for the identity unit a rejection."""
    checks = _count_residual_checks(monkeypatch)
    alg = TracialAlgebra([(n, Fraction(1, len(dims))) for n in dims])
    rng = np.random.default_rng(sum(dims) + corner)
    for k in range(1, 17):
        pvm = _random_pvm(alg, list(range(k)), 100 * k + sum(dims), corner)
        assert _worst_pvm_residual(pvm) <= pvm.residual
        for skew in (0.0, 1e-12, 3e-10, 1e-6):
            stretch = [np.diag(np.r_[math.sqrt(1.0 + skew), np.ones(n - 1)]) for n in dims]
            u = alg.element([haar_unitary(n, rng) @ d for n, d in zip(dims, stretch)])
            checks.clear()
            moved = _outcome(lambda: pvm.conjugated(u))
            if skew < 1e-6:
                assert checks == []
                full = PVM(alg, moved.outcomes, moved.stacks, unit=moved.unit)
                assert full.residual <= algebra.VALIDATION_TOL / 2
                assert _worst_pvm_residual(moved) <= moved.residual <= algebra.VALIDATION_TOL / 2
                continue
            stacks = [(m @ s) @ m.conj().T for m, s in zip(u.blocks, pvm.stacks)]
            full = _outcome(lambda: PVM(alg, pvm.outcomes, stacks, unit=u * pvm.unit * u.H))
            if isinstance(full, PVM):
                assert corner and isinstance(moved, PVM) and moved.residual == full.residual
            else:
                assert moved == full and full[1] > algebra.VALIDATION_TOL


def test_conjugating_a_borderline_pvm_takes_the_full_check(monkeypatch):
    """A family validated at 0.9 of the tolerance is validated again when
    conjugated, with the full check's residual."""
    alg, projs = _scaled_halves(64, 0.9 * TOL)
    pvm = PVM(alg, [0, 1], projs)
    u = alg.element([haar_unitary(64, np.random.default_rng(22))])
    checks = _count_residual_checks(monkeypatch)
    moved = pvm.conjugated(u)
    assert checks
    stacks = [(m @ s) @ m.conj().T for m, s in zip(u.blocks, pvm.stacks)]
    assert moved.residual == PVM(alg, [0, 1], stacks, unit=u * pvm.unit * u.H).residual


def test_conjugating_a_validated_pvm_forms_no_residual(monkeypatch):
    """A 16-outcome PVM conjugated by a unitary is not validated again: no
    orthogonality product, idempotence or sum residual is formed."""
    alg = TracialAlgebra.matrix(32)
    pvm = _random_pvm(alg, list(range(16)), 21)
    u = alg.element([haar_unitary(32, np.random.default_rng(21))])
    checks = _count_residual_checks(monkeypatch)
    moved = pvm.conjugated(u)
    assert checks == []
    assert moved.residual <= algebra.VALIDATION_TOL / 2
    assert not moved.stacks[0].flags.writeable
    assert np.shares_memory(moved[5].blocks[0], moved.stacks[0])


def test_pvm_projections_are_read_only_views_of_the_stacks():
    alg = TracialAlgebra([(2, Fraction(1, 3)), (3, Fraction(2, 3))])
    pvm = _random_pvm(alg, ["x", "y", "z"], 11)
    for i, a in enumerate(pvm.outcomes):
        assert pvm.index(a) == i
        assert [x.tobytes() for x in pvm.projections[i].blocks] == [
            x.tobytes() for x in pvm[a].blocks
        ]
        for b, block in enumerate(pvm[a].blocks):
            assert np.shares_memory(block, pvm.stacks[b])
            assert np.array_equal(block, pvm.stacks[b][i])
    with pytest.raises(ValueError):
        pvm["y"].blocks[0][0, 0] = 2.0
    with pytest.raises(ValueError):
        pvm.stacks[1][0] += 1.0


def test_identity_unit_pvms_share_one_read_only_unit():
    """Every PVM whose unit is the identity holds the algebra's one identity,
    not a copy of its own, and nobody can write to it."""
    alg = TracialAlgebra([(2, Fraction(1, 3)), (3, Fraction(2, 3))])
    first = PVM(alg, ["x", "y"], _random_pvm(alg, ["x", "y"], 11).stacks)
    second = PVM(alg, [0, 1, 2], _random_pvm(alg, [0, 1, 2], 12).stacks)
    assert first.unit is second.unit is alg.identity()
    for a, b, n in zip(first.unit.blocks, second.unit.blocks, alg.dims, strict=True):
        assert a is b
        assert np.array_equal(a, np.eye(n))
        with pytest.raises(ValueError):
            a[0, 0] = 2.0
    with pytest.raises(ValueError):
        alg.identity().blocks[1] += 1.0
    u = alg.element([haar_unitary(n, np.random.default_rng(3)) for n in alg.dims])
    assert first.conjugated(u).unit is not first.unit


def test_element_views_are_built_on_first_read():
    """A PVM's ``projections`` are built on each read and never kept, and a
    map's ``images`` when first read, once, from the stacks; validation and
    the stacked kernels read only the stacks."""
    alg = TracialAlgebra([(2, Fraction(1, 3)), (3, Fraction(2, 3))])
    pvm = _random_pvm(alg, ["x", "y", "z"], 11)
    before = set(vars(pvm))
    assert pvm["y"] is not pvm["y"]
    assert np.shares_memory(pvm["y"].blocks[1], pvm.projections[1].blocks[1])
    assert set(vars(pvm)) == before
    rep = _two_block_rep(cyclic(3), 9)
    assert "images" not in vars(rep)
    assert rep((1,)) is rep.images[(1,)]
    assert np.shares_memory(rep((1,)).blocks[1], rep.stacks[1])


def test_pvm_without_outcomes_is_rejected():
    alg = TracialAlgebra([(2, Fraction(1, 2)), (3, Fraction(1, 2))])
    with pytest.raises(InvalidPVM, match="sum residual 1"):
        PVM(alg, [], [])


# -- one way in: families from per-block stacks or from elements --------------------


def test_families_from_stacks_equal_families_from_elements():
    """Stacks (leading axes merged) and elements give bit-identical stacks;
    the caller's arrays are copied, not aliased, and stay writable."""
    grp = AbelianGroup((2, 3))
    rep = _two_block_rep(grp, 12)
    alg = rep.algebra
    copies = [np.array(s) for s in rep.stacks]
    by_stack = [s.reshape(2, 3, *s.shape[1:]) for s in copies]
    by_dict = {g: alg.element([s[i] for s in copies]) for i, g in enumerate(grp.elements)}
    for cls in (AlmostHom, UnitaryRep):
        from_stacks, from_dict = cls(grp, alg, by_stack), cls(grp, alg, by_dict)
        for a, b, given in zip(from_stacks.stacks, from_dict.stacks, copies):
            assert a.shape == given.shape and np.array_equal(a, b)
            assert not np.shares_memory(a, given)
            assert not a.flags.writeable and given.flags.writeable
    pvm = _random_pvm(alg, ["x", "y", "z"], 13)
    copies = [np.array(s) for s in pvm.stacks]
    from_stacks = PVM(alg, pvm.outcomes, copies)
    from_list = PVM(alg, pvm.outcomes, [alg.element(bs) for bs in zip(*copies)])
    for a, b, given in zip(from_stacks.stacks, from_list.stacks, copies):
        assert np.array_equal(a, b)
        assert not np.shares_memory(a, given) and given.flags.writeable


def test_invalid_families_fail_alike_from_either_form():
    """A non-unitary family and a PVM whose projections are neither orthogonal
    nor idempotent raise the same exception with the same residual, given as
    stacks or as elements."""
    grp = cyclic(3)
    alg = TracialAlgebra([(2, Fraction(1, 2)), (3, Fraction(1, 2))])
    rng = np.random.default_rng(14)
    stacks = [np.array([haar_unitary(n, rng) for _ in range(3)]) for n in alg.dims]
    stacks[1][2] *= 1.0 + 1e-6
    as_dict = {g: alg.element([s[i] for s in stacks]) for i, g in enumerate(grp.elements)}
    errors = []
    for images in (stacks, as_dict):
        with pytest.raises(InvalidRepresentation) as info:
            AlmostHom(grp, alg, images)
        errors.append((str(info.value), info.value.residual))
    assert errors[0] == errors[1] and errors[0][1] > 1e-6
    p = np.diag([1.0, 0.0, 0.0])
    q = np.diag([0.0, 1.0, 1.0])
    q[0, 1] = q[1, 0] = 1e-5
    stacks = [np.array([np.eye(2), np.zeros((2, 2))]), np.array([p, q])]
    errors = []
    for family in (stacks, [alg.element(bs) for bs in zip(*stacks)]):
        with pytest.raises(InvalidPVM) as info:
            PVM(alg, ["a", "b"], family)
        errors.append((str(info.value), info.value.residual))
    assert errors[0] == errors[1] and errors[0][1] > 1e-6


def test_stack_input_shape_errors():
    """A wrong number of stacks or a wrong block shape is an invalid argument;
    a wrong number of operators too, and for a PVM the count mismatch."""
    grp = cyclic(2)
    alg = TracialAlgebra([(2, Fraction(1, 2)), (3, Fraction(1, 2))])
    good = [np.array([np.eye(n)] * 2, dtype=complex) for n in alg.dims]
    AlmostHom(grp, alg, good)
    for bad in (
        good[:1],  # one stack for two blocks
        good + good[:1],
        [good[0], np.array([np.eye(2)] * 2)],  # 2 x 2 images in the 3 x 3 block
        [good[0], np.eye(3)],  # no operator axis
        [good[0][:1], good[1][:1]],  # one image for two elements
        good[0],  # a bare array, not one stack per block
    ):
        with pytest.raises(InvalidArgument):
            AlmostHom(grp, alg, bad)
    units = [np.array([np.eye(n)]) for n in alg.dims]
    PVM(alg, ["one"], units)
    with pytest.raises(InvalidPVM, match="outcome/projection count mismatch"):
        PVM(alg, ["one", "two"], units)
    with pytest.raises(InvalidArgument):
        PVM(alg, ["one"], units[:1])
    with pytest.raises(InvalidArgument):
        PVM(alg, ["one"], [units[0], np.array([np.eye(2)])])


@pytest.mark.parametrize("check", ["full", "Auto", "", None])
def test_unitary_rep_check_takes_two_values(check):
    rep = regular_rep(cyclic(3))
    UnitaryRep(rep.group, rep.algebra, rep.stacks, check="none")
    with pytest.raises(InvalidArgument, match="check must be 'auto' or 'none'"):
        UnitaryRep(rep.group, rep.algebra, rep.stacks, check=check)


def test_exact_residuals_of_1x1_stacks_take_no_svd(monkeypatch):
    """A 1 x 1 residual's operator norm is its modulus: over stacks of 1 x 1
    blocks _exact_residuals makes no SVD call and agrees with the SVD."""
    rng = np.random.default_rng(11)
    dims, count = (1, 1, 1), 5000  # several chunks per block
    stacks = [rng.standard_normal((count, 1, 1)) + 1j * rng.standard_normal((count, 1, 1))
              for _ in dims]

    def residuals(b, sel):
        yield stacks[b][sel]
        yield 0.5 * stacks[(b + 1) % len(dims)][sel]

    expected = np.max(
        [np.linalg.svd(s, compute_uv=False)[:, 0] for s in stacks], axis=0
    )
    monkeypatch.setattr(np.linalg, "svd", None)  # any SVD call fails
    failed, norms, _ = algebra._exact_residuals(dims, count, residuals, -1.0)
    assert np.array_equal(failed, np.arange(count))
    assert np.all(np.abs(norms - expected) <= 1e-15 * expected)


def test_defect_refuses_a_group_over_the_cap(monkeypatch):
    """Uniformly on Z2^13 (|G| = 8192 > ROUNDING_DIM_CAP = 4096) the defect
    raises ResourceCap before it builds an irrep (the character table alone
    would be 8192 x 8192) or forms a law residual; over small supports the
    pairwise sum still runs."""
    group = boolean_group(13)
    phi = AlmostHom(group, TracialAlgebra.matrix(1), [np.ones((group.order, 1, 1))])
    law_sq = algebra._law_sq

    def not_reached(*args):
        raise AssertionError("defect work ran before the cap check")

    monkeypatch.setattr(group, "irrep_stacks", not_reached)
    monkeypatch.setattr(algebra, "_law_sq", not_reached)
    with pytest.raises(ResourceCap, match="8192 x 8192 pairs exceeds the cap 4096 squared"):
        defect(phi)
    with pytest.raises(ResourceCap, match="8192 x 8192 pairs"):
        defect(phi, ProbMeasure.uniform(group), None)  # the same pairs, weighted
    monkeypatch.setattr(algebra, "_law_sq", law_sq)
    assert defect(phi, None, ProbMeasure.delta(group, group.identity)) == 0.0
