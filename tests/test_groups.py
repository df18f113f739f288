import math

import numpy as np
import pytest

from gapstab.abelian import AbelianGroup, boolean_group, cyclic
from gapstab.errors import InvalidArgument
from gapstab.groups import (
    CentralExtensionGroup,
    MulTableGroup,
    PermutationGroup,
    ProductGroup,
    symmetric_group,
    validate_irreps,
)


def _check_group_axioms(grp):
    e = grp.identity
    for g in grp.elements:
        assert grp.mul(g, e) == g
        assert grp.mul(e, g) == g
        assert grp.mul(g, grp.inv(g)) == e
    # associativity on a deterministic sample
    rng = np.random.default_rng(0)
    n = grp.order
    for _ in range(min(50, n**3)):
        g, h, k = (grp.elements[int(i)] for i in rng.integers(n, size=3))
        assert grp.mul(grp.mul(g, h), k) == grp.mul(g, grp.mul(h, k))


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_symmetric_group_orders(n):
    grp = symmetric_group(n)
    assert grp.order == math.factorial(n)
    _check_group_axioms(grp)


def test_symmetric_group_range():
    with pytest.raises(InvalidArgument):
        symmetric_group(8)  # 8! exceeds the order cap
    with pytest.raises(InvalidArgument):
        symmetric_group(0)


def test_index_and_contains():
    grp = symmetric_group(3)
    for i, g in enumerate(grp.elements):
        assert grp.index(g) == i
        assert g in grp
    assert (0, 1) not in grp
    assert list(iter(grp)) == list(grp.elements)
    with pytest.raises(InvalidArgument):
        grp.index((9, 9, 9))


def test_mul_table_group():
    # Z/3 by its multiplication table
    table = [[(i + j) % 3 for j in range(3)] for i in range(3)]
    grp = MulTableGroup(table)
    assert grp.order == 3
    _check_group_axioms(grp)


def test_mul_table_rejects_non_group():
    # constant rows: no identity / not a latin square
    with pytest.raises(InvalidArgument):
        MulTableGroup([[0, 0], [0, 0]])


def test_permutation_group_closure():
    swap = (1, 0, 2)
    with pytest.raises(InvalidArgument):
        PermutationGroup([(0, 1, 2), swap, (1, 2, 0)])  # not closed
    grp = PermutationGroup([(0, 1, 2), swap])
    assert grp.order == 2


def test_product_group():
    grp = ProductGroup(cyclic(2), symmetric_group(3))
    assert grp.order == 12
    _check_group_axioms(grp)
    a = grp.embed_first((1,))
    b = grp.embed_second((1, 0, 2))
    assert grp.mul(a, b) == ((1,), (1, 0, 2))


def test_is_subgroup():
    grp = ProductGroup(cyclic(2), cyclic(2))
    sub = [grp.identity, ((1,), (0,))]
    assert grp.is_subgroup(sub)
    assert not grp.is_subgroup([grp.identity, ((1,), (1,)), ((1,), (0,))])


def _pauli_extension(r):
    a = boolean_group(r)
    b = boolean_group(r)
    return CentralExtensionGroup(a, b, lambda x, y: a.pairing(x, y))


def test_central_extension_weyl_relation():
    grp = _pauli_extension(1)
    assert grp.order == 8
    _check_group_axioms(grp)
    x = grp.embed_a((1,))
    z = grp.embed_b((1,))
    # xz and zx differ by the central sign: the defining relation
    assert grp.mul(x, z) == ((1,), (1,), 1)
    assert grp.mul(z, x) == ((1,), (1,), -1)
    assert grp.mul(grp.central_sign, grp.central_sign) == grp.identity


def test_central_extension_validates_gamma():
    a = boolean_group(1)
    with pytest.raises(InvalidArgument):
        CentralExtensionGroup(a, a, lambda x, y: 2)  # not a sign
    with pytest.raises(InvalidArgument):
        # not multiplicative in either argument
        CentralExtensionGroup(a, a, lambda x, y: -1)


@pytest.mark.parametrize(
    "grp",
    [
        cyclic(6),
        boolean_group(2),
        AbelianGroup((3, 3)),
        AbelianGroup((2, 4)),
        boolean_group(5),
        ProductGroup(cyclic(2), cyclic(3)),
        ProductGroup(AbelianGroup((2, 2)), cyclic(4)),
        _pauli_extension(1),
        _pauli_extension(2),
        _pauli_extension(4),
    ],
    ids=[
        "Z6", "Z2^2", "Z3xZ3", "Z2xZ4", "Z2^5", "Z2xZ3", "Z2^2xZ4",
        "pauli1", "pauli2", "pauli4",
    ],
)
def test_validate_irreps(grp):
    """Every group the Fourier rounding serves; pauli1 is the repetition-game
    extension and pauli4 the Hamming-game extension (order 512)."""
    validate_irreps(grp)


def test_validate_irreps_unavailable():
    with pytest.raises(InvalidArgument):
        validate_irreps(symmetric_group(4))
