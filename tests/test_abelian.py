import cmath
import itertools
from fractions import Fraction

import numpy as np
import pytest

from gapstab import abelian
from gapstab.abelian import (
    AbelianGroup,
    boolean_group,
    cyclic,
    pvm_from_rep,
    regular_rep,
    rep_from_pvm,
)
from gapstab.algebra import PVM, AlgebraElement, TracialAlgebra, haar_unitary
from gapstab.errors import InvalidArgument
from gapstab.groups import validate_irreps


def test_constructors():
    assert cyclic(5).order == 5
    assert boolean_group(3).order == 8
    assert cyclic(1).order == 1
    with pytest.raises(InvalidArgument):
        AbelianGroup(())
    with pytest.raises(InvalidArgument):
        AbelianGroup((3, 0))


def test_pairing_exact_at_exponent_two():
    grp = boolean_group(2)
    for chi in grp.elements:
        for a in grp.elements:
            v = grp.pairing(chi, a)
            assert isinstance(v, int)  # stays rational for exponent <= 2
            assert v == (-1) ** (chi[0] * a[0] + chi[1] * a[1])


def test_pairing_bicharacter():
    grp = AbelianGroup((4, 3))
    rng = np.random.default_rng(1)
    for _ in range(30):
        chi, a, b = (grp.elements[int(i)] for i in rng.integers(grp.order, size=3))
        lhs = grp.pairing(chi, grp.mul(a, b))
        rhs = grp.pairing(chi, a) * grp.pairing(chi, b)
        assert abs(lhs - rhs) < 1e-12


def test_pairing_rank_mismatch():
    with pytest.raises(InvalidArgument):
        cyclic(4).pairing((1,), (1, 0))


@pytest.mark.parametrize(
    "orders", [(2,), (2, 2, 2), (1, 2), (3, 9), (4, 6), (5, 5), (2, 8), (2, 2, 4, 3)]
)
def test_character_table_matches_pairing(orders):
    grp = AbelianGroup(orders)
    loop = np.array([[grp.pairing(chi, a) for a in grp.elements] for chi in grp.elements],
                    dtype=complex)
    table = grp.character_table()
    if grp.exponent <= 2:
        assert np.array_equal(table, loop)
        return
    # chi(a) = exp(2 pi i x) with x = sum_j chi_j a_j / m_j reduced mod 1 exactly
    exact = np.array([
        [cmath.exp(2j * cmath.pi * float(sum(Fraction(x * y, m) for x, y, m
                                             in zip(chi, a, orders)) % 1))
         for a in grp.elements]
        for chi in grp.elements
    ])
    assert np.max(np.abs(table - exact)) <= 1e-15
    # pairing adds the rank fractions in floating point before exp, an angle
    # error of a few ulp of 2 pi * rank
    assert np.max(np.abs(table - loop)) <= 1e-14


def test_character_table_unitary():
    grp = AbelianGroup((2, 3))
    t = grp.character_table()
    n = grp.order
    assert np.max(np.abs(t @ t.conj().T - n * np.eye(n))) < 1e-12


def test_irreps_complete():
    validate_irreps(AbelianGroup((2, 4)))


def test_regular_rep_permutations():
    grp = cyclic(3)
    rep = regular_rep(grp)
    assert rep.algebra.dims == (3,)
    for g in grp.elements:
        m = rep.images[g].blocks[0]
        assert np.array_equal(np.abs(m), m.real.astype(m.dtype))  # 0/1 entries
        assert np.max(np.abs(m @ m.conj().T - np.eye(3))) < 1e-12
    # lambda(g) e_h = e_{gh}
    g, h = (1,), (2,)
    e_h = np.zeros(3)
    e_h[grp.index(h)] = 1.0
    out = rep.images[g].blocks[0] @ e_h
    assert out[grp.index(grp.mul(g, h))] == 1.0


def test_rep_pvm_round_trip():
    """Fourier back and forth between a PVM and its unitary representation."""
    grp = boolean_group(1)
    alg = TracialAlgebra.matrix(2)
    p0 = AlgebraElement(alg, [np.diag([1.0, 0.0]).astype(complex)])
    p1 = AlgebraElement(alg, [np.diag([0.0, 1.0]).astype(complex)])
    pvm = PVM(alg, [(0,), (1,)], [p0, p1])
    rep = rep_from_pvm(pvm, grp)
    # U(chi) = sum_a chi(a) p_a: the nontrivial character gives diag(1, -1)
    assert np.allclose(rep.images[(1,)].blocks[0], np.diag([1.0, -1.0]))
    back = pvm_from_rep(rep)
    for a in pvm.outcomes:
        assert np.abs(back[a].blocks[0] - pvm[a].blocks[0]).max() <= 1e-12


def test_rep_from_pvm_outcome_mismatch():
    grp = boolean_group(1)
    alg = TracialAlgebra.matrix(2)
    p0 = AlgebraElement(alg, [np.diag([1.0, 0.0]).astype(complex)])
    p1 = AlgebraElement(alg, [np.diag([0.0, 1.0]).astype(complex)])
    pvm = PVM(alg, ["a", "b"], [p0, p1])
    with pytest.raises(InvalidArgument):
        rep_from_pvm(pvm, grp)


def test_pvm_from_rep_nonabelian_image():
    """A rep whose images fail to commute has no joint PVM."""
    grp = boolean_group(2)
    alg = TracialAlgebra.matrix(2)
    sx = np.array([[0, 1], [1, 0]], dtype=complex)
    sz = np.diag([1.0, -1.0]).astype(complex)
    images = {
        (0, 0): AlgebraElement(alg, [np.eye(2, dtype=complex)]),
        (1, 0): AlgebraElement(alg, [sx]),
        (0, 1): AlgebraElement(alg, [sz]),
        (1, 1): AlgebraElement(alg, [sx @ sz]),
    }
    from gapstab.algebra import AlmostHom

    phi = AlmostHom(grp, alg, images)
    with pytest.raises(InvalidArgument):
        pvm_from_rep(phi)


def test_dual_pairing_orthogonality():
    grp = AbelianGroup((3, 2))
    for chi in grp.elements:
        s = sum(grp.pairing(chi, a) for a in grp.elements)
        if chi == grp.identity:
            assert abs(s - grp.order) < 1e-12
        else:
            assert abs(s) < 1e-12


def test_exponent():
    assert AbelianGroup((2, 4)).exponent == 4
    assert boolean_group(3).exponent == 2
    assert cmath.isclose(AbelianGroup((3,)).pairing((1,), (1,)), cmath.exp(2j * cmath.pi / 3))


def _two_block_pvm(group, seed):
    """A PVM on the dual of ``group`` in M_n (+) M_m with unequal weights,
    its outcomes in a shuffled order."""
    rng = np.random.default_rng(seed)
    alg = TracialAlgebra([(5, Fraction(1, 4)), (7, Fraction(3, 4))])
    outcomes = [group.elements[i] for i in rng.permutation(group.order)]
    blocks = [[] for _ in outcomes]
    for n in alg.dims:
        u = haar_unitary(n, rng)
        labels = rng.integers(len(outcomes), size=n)
        for k in range(len(outcomes)):
            cols = u[:, labels == k]
            blocks[k].append(cols @ cols.conj().T)
    return PVM(alg, outcomes, [alg.element(b) for b in blocks])


@pytest.mark.parametrize("orders", [(3, 3), (2, 2, 2), (4,)])
def test_fourier_transforms_match_the_outcome_loops(orders):
    """rep_from_pvm and pvm_from_rep against the per-element loops, with
    complex characters (Z3 x Z3, Z4) on a two-block algebra."""
    grp = AbelianGroup(orders)
    pvm = _two_block_pvm(grp, sum(orders))
    alg = pvm.algebra
    rep = rep_from_pvm(pvm, grp)
    for a in grp.elements:
        u = alg.zero()
        for chi in grp.elements:
            u = u + grp.pairing(chi, a) * pvm[chi]
        for got, want in zip(rep.images[a].blocks, u.blocks):
            assert np.allclose(got, want, rtol=0, atol=1e-12)
    back = pvm_from_rep(rep)
    for chi in grp.elements:
        p = alg.zero()
        for a in grp.elements:
            p = p + np.conj(grp.pairing(chi, a)) * rep.images[a]
        p = (1.0 / grp.order) * p
        for got, want, orig in zip(back[chi].blocks, p.blocks, pvm[chi].blocks):
            assert np.allclose(got, want, rtol=0, atol=1e-12)
            assert np.allclose(got, orig, rtol=0, atol=1e-12)


def test_membership_and_index_match_the_element_dict():
    """``in``, ``index`` and ``order`` are arithmetic on the orders and never
    build ``elements``; each answer is the one a dict keyed by the elements
    gives, and an unhashable label raises the dict's TypeError."""
    group = AbelianGroup((2, 3, 4))
    oracle = {g: i for i, g in enumerate(itertools.product(range(2), range(3), range(4)))}
    labels = list(oracle) + [
        (np.int64(1), np.int32(2), np.uint8(3)),
        (True, False, 3),
        (1.0, 2, 3),
        (Fraction(1), 2, np.float64(3.0)),
        (1 + 0j, 0, 0),
        (1.5, 0, 0),
        ("1", 0, 0),
        (None, 0, 0),
        (2, 0, 0),
        (-1, 0, 0),
        (0, 3, 0),
        (0, 0, 4),
        (0, 0, np.int64(-1)),
        (1, 2),
        (1, 2, 3, 0),
        (),
        "abc",
        5,
        None,
    ]
    for g in labels:
        assert (g in group) == (g in oracle), g
        if g in oracle:
            assert group.index(g) == oracle[g] and type(group.index(g)) is int
        else:
            with pytest.raises(InvalidArgument, match="is not an element"):
                group.index(g)
    for bad in ([0, 1, 2], (0, [1], 2), np.array([0, 1, 2])):
        with pytest.raises(TypeError) as want:
            bad in oracle
        with pytest.raises(TypeError) as got:
            bad in group
        assert str(got.value) == str(want.value)
        with pytest.raises(TypeError):
            group.index(bad)
    assert group.order == 24
    assert "elements" not in vars(group)  # nothing above built it
    assert group.elements == tuple(oracle)


@pytest.mark.parametrize("first", [0, 1])
@pytest.mark.parametrize("orders", [(2, 4, 3), (5,), (2,) * 6])
def test_phase_chunks_match_unravel_index(monkeypatch, orders, first):
    """The mixed-radix character coordinates of ``_phase_chunks`` against
    ``np.unravel_index``, with two characters per chunk so that the phases
    cross chunk boundaries; each phase is the per-coordinate sum."""
    group = AbelianGroup(orders)
    e = group.exponent
    points = np.array(group.elements[::2], dtype=np.int64)
    monkeypatch.setattr(abelian, "_PHASE_ENTRIES", 2 * len(points))
    chunks = list(group._phase_chunks(points, first))
    assert [start for start, _ in chunks] == list(range(first, group.order, 2))
    chars = np.stack(np.unravel_index(np.arange(first, group.order), orders), axis=1)
    want = [
        [sum(c * a * (e // m) for c, a, m in zip(chi, pt, orders)) % e for pt in points.tolist()]
        for chi in chars.tolist()
    ]
    assert np.vstack([ph for _, ph in chunks]).tolist() == want
