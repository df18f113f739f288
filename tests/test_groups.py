import itertools
import math

import numpy as np
import pytest

from gapstab import groups
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
    with pytest.raises(InvalidArgument, match="element 1 has no unique inverse"):
        MulTableGroup([[0, 1, 2], [1, 0, 0], [2, 2, 1]])
    # a Latin square with identity 0 and x x = 0 for all x: a loop of order 5,
    # which no group is
    loop = [
        [0, 1, 2, 3, 4],
        [1, 0, 3, 4, 2],
        [2, 4, 0, 1, 3],
        [3, 2, 4, 0, 1],
        [4, 3, 1, 2, 0],
    ]
    with pytest.raises(InvalidArgument, match="table is not associative"):
        MulTableGroup(loop)


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
    a = ((1,), grp.second.identity)
    b = (grp.first.identity, (1, 0, 2))
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


def _dihedral4():
    """The symmetries of a square as permutations of its corners."""
    return PermutationGroup(
        [tuple((i + k) % 4 for i in range(4)) for k in range(4)]
        + [tuple((k - i) % 4 for i in range(4)) for k in range(4)]
    )


def _alternating4():
    return PermutationGroup(
        [p for p in itertools.permutations(range(4)) if _inversions(p) % 2 == 0]
    )


def _inversions(perm):
    return sum(a > b for a, b in itertools.combinations(perm, 2))


def test_permutation_product_table():
    """The product table is read-only, in the smallest unsigned type that
    holds |G|, and answers mul_index with element indices."""
    s5 = symmetric_group(5)
    assert s5._table.dtype == np.uint8 and s5._table.shape == (120, 120)
    assert symmetric_group(6)._table.dtype == np.uint16
    with pytest.raises(ValueError):
        s5._table[0, 0] = 1
    assert s5.mul_index(np.array([1]), np.array([2])).dtype == np.intp
    with pytest.raises(InvalidArgument, match="not closed under inverse"):
        PermutationGroup([(0, 1, 2), (1, 2, 0)])  # the 3-cycle without its square


def _void_key_table(elements):
    """The product table by binary search of each product's big-endian
    bytes among the sorted elements' bytes, as one void key per row."""
    k, n = len(elements), len(elements[0])
    perms = np.array(elements, dtype=np.min_scalar_type(n - 1).newbyteorder(">"))
    key_type = np.dtype((np.void, perms.itemsize * n))
    keys = perms.view(key_type).ravel()
    prods = np.ascontiguousarray(perms[:, perms].reshape(-1, n))
    idx = np.minimum(np.searchsorted(keys, prods.view(key_type).ravel()), k - 1)
    found = (perms[idx] == prods).all(axis=1)
    return np.where(found, idx, k).reshape(k, k)


def test_permutation_table_matches_void_keys(monkeypatch):
    """The int64 row keys give the byte-string key table on S1..S6, on
    non-closed sets (a missing product is len(elements)) and, by void keys
    again, above degree 15; also when the products span many chunks."""
    rng = np.random.default_rng(4)
    s5 = sorted(itertools.permutations(range(5)))
    shifts = [tuple((i + k) % 16 for i in range(16)) for k in range(16)]
    sets = [sorted(itertools.permutations(range(n))) for n in range(1, 7)]
    sets += [
        sorted(s5[i] for i in rng.choice(len(s5), 30, replace=False)),
        [(0, 1, 2), (1, 2, 0)],
        shifts,
        sorted(shifts[:5]),
    ]
    for chunk in (None, 16):
        if chunk is not None:
            monkeypatch.setattr(groups, "_TABLE_CHUNK", chunk)
        for elements in sets:
            table = groups._permutation_table(elements)
            assert table.dtype == np.min_scalar_type(len(elements))
            assert np.array_equal(table, _void_key_table(elements))
    assert (groups._permutation_table(sets[6]) == 30).any()


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
    with pytest.raises(InvalidArgument, match="is not a sign"):
        CentralExtensionGroup(a, a, lambda x, y: 2)
    with pytest.raises(InvalidArgument, match="not multiplicative in a"):
        # not multiplicative in either argument
        CentralExtensionGroup(a, a, lambda x, y: -1)
    with pytest.raises(InvalidArgument, match="not multiplicative in b"):
        # a character of x for each y, but gamma(1, .) = (-1, 1) is not one of y
        CentralExtensionGroup(a, a, lambda x, y: -1 if (x, y) == ((1,), (0,)) else 1)


def test_central_extension_signs():
    grp = _pauli_extension(2)
    a, b = grp.a_group, grp.b_group
    for i, x in enumerate(a.elements):
        for j, y in enumerate(b.elements):
            assert grp.signs[i, j] == grp.gamma(x, y) == a.pairing(x, y)
    with pytest.raises(ValueError):
        grp.signs[0, 0] = -1


@pytest.mark.parametrize(
    "grp",
    [
        AbelianGroup((2, 4)),
        AbelianGroup((3, 3)),
        ProductGroup(cyclic(2), symmetric_group(3)),
        ProductGroup(AbelianGroup((2, 2)), cyclic(4)),
        _pauli_extension(1),
        _pauli_extension(2),
        MulTableGroup([[(i + j) % 6 for j in range(6)] for i in range(6)]),
        symmetric_group(3),
        symmetric_group(4),
        _dihedral4(),
        _alternating4(),
        ProductGroup(symmetric_group(5), cyclic(3)),
    ],
    ids=[
        "Z2xZ4", "Z3xZ3", "Z2xS3", "Z2^2xZ4", "pauli1", "pauli2", "table-Z6", "S3",
        "S4", "D4", "A4", "S5xZ3",
    ],
)
def test_mul_index_matches_mul(grp):
    """On every pair, mul_index agrees with multiplying the labels."""
    n, els = grp.order, grp.elements
    left, right = np.divmod(np.arange(n * n), n)
    expected = [grp.index(grp.mul(els[a], els[b])) for a, b in zip(left, right)]
    assert grp.mul_index(left, right).tolist() == expected


def _degenerate_extension():
    """Z2^2 x Z2 twisted by gamma(a, b) = (-1)^(a_0 b_0): |A| != |B|, so the
    closed form has no faithful block and the irreps (eight of dimension 1,
    two of dimension 2) come from the regular representation."""
    return CentralExtensionGroup(
        boolean_group(2), cyclic(2), lambda a, b: (-1) ** (a[0] * b[0])
    )


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
        symmetric_group(3),
        symmetric_group(4),
        symmetric_group(5),
        _alternating4(),
        _dihedral4(),
        MulTableGroup(symmetric_group(3)._table),
        ProductGroup(cyclic(2), symmetric_group(3)),
        _degenerate_extension(),
    ],
    ids=[
        "Z6", "Z2^2", "Z3xZ3", "Z2xZ4", "Z2^5", "Z2xZ3", "Z2^2xZ4",
        "pauli1", "pauli2", "pauli4", "S3", "S4", "S5", "A4", "D4",
        "S3-table", "Z2xS3", "degenerate-extension",
    ],
)
def test_validate_irreps(grp):
    """Every group has its irreps: closed forms for the abelian groups,
    their products and the nondegenerate extensions (pauli1 is the
    repetition-game extension and pauli4 the Hamming-game extension, order
    512), a split of the regular representation for the others."""
    validate_irreps(grp)


def test_regular_irreps_are_built_once(monkeypatch):
    """The base method splits the regular representation on its first call
    and returns the same read-only arrays from the cache on the next."""
    grp = symmetric_group(4)
    first = grp.irrep_stacks()
    assert [f.shape for f in first] == [(2, 24, 1, 1), (1, 24, 2, 2), (2, 24, 3, 3)]
    monkeypatch.setattr(groups, "_split_block", None)  # any recomputation fails
    again = grp.irrep_stacks()
    assert len(again) == len(first)
    assert all(a is b for a, b in zip(again, first))
    assert not any(f.flags.writeable for f in first)


def test_degenerate_extension_takes_the_regular_split():
    ext = _degenerate_extension()
    assert [f.shape for f in ext.irrep_stacks()] == [(8, 16, 1, 1), (2, 16, 2, 2)]


def test_validate_irreps_rejects_a_family_that_breaks_the_law(monkeypatch):
    """Swapping the images of 1 and 2 in Z4 keeps the characters orthonormal
    (a column permutation of a unitary matrix) but is no automorphism."""
    grp = cyclic(4)
    stacks = grp.irrep_stacks()
    monkeypatch.setattr(grp, "irrep_stacks", lambda: [s[:, [0, 2, 1, 3]] for s in stacks])
    with pytest.raises(InvalidArgument, match="irrep fails multiplication law"):
        validate_irreps(grp)
