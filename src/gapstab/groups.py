"""Finite groups given by explicit element lists.

A group object exposes ``elements`` (a tuple of hashable labels), ``identity``,
``mul``, ``inv``, ``index`` and ``mul_index``.  The last multiplies whole
arrays of element indices; the defect, the law checks, the rounding and the
spectral gap read every product through it.  Every group returns its full set
of irreducible unitary representations as stacked image arrays from
``irrep_stacks()``, which ``validate_irreps`` checks: abelian groups, products
and the games' central extensions in closed form, any other group by splitting
its regular representation.  Every group class builds them once, checks their
images unitary once and caches them read-only on the group, next to each
irrep's multiplication-law residual once it has been asked for.  The
Gowers-Hatami rounding and the uniform defect split their operators along
these irreps, and the rounding's corner representation, a direct sum of them,
takes its unitarity and its law residual from there.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from .algebra import (
    _every_pair,
    _exact_residuals,
    _law_pairs,
    _law_residuals,
    _unitarity_residuals,
    _worst_residual,
    unitary_polar_factor,
)
from .errors import DegenerateDecomposition, InvalidArgument, InvalidRepresentation


class FiniteGroup:
    """Base class; subclasses fill in elements/identity/mul/inv/mul_index."""

    elements: tuple
    identity = None
    _irreps = None  # the irrep families, once built and checked
    _irrep_law = None  # (every pair?, family, index) -> that irrep's law residual

    def _post_init_common(self):
        self._index = {g: i for i, g in enumerate(self.elements)}

    @property
    def order(self) -> int:
        return len(self.elements)

    def index(self, g) -> int:
        try:
            return self._index[g]
        except KeyError:
            raise InvalidArgument(f"{g!r} is not an element of {self!r}")

    def __contains__(self, g):
        return g in self._index

    def __iter__(self):
        return iter(self.elements)

    def mul(self, g, h):
        raise NotImplementedError

    def inv(self, g):
        raise NotImplementedError

    def mul_index(self, i, j) -> np.ndarray:
        """Element indices of the products g_i g_j, for two equal-length
        arrays of element indices, by array arithmetic or a table lookup."""
        raise NotImplementedError

    def irrep_stacks(self) -> list[np.ndarray]:
        """The irreducible unitary representations as image stacks.

        Each array has shape (k, |G|, d, d) and holds k irreps of dimension
        d, with images in ``elements`` order; together they form a complete
        family.  Every group class builds them once, on the first call, by
        :meth:`_build_irreps` (a closed form, or the split of the regular
        representation, checked by :func:`_check_irreps`), checks every
        image unitary to ``_IRREP_UNITARY_TOL`` in operator norm and caches
        the families on the group, read-only; a family that fails raises
        :class:`InvalidRepresentation` and is not cached.
        """
        if self._irreps is None:
            families = self._build_irreps()
            _check_unitary_irreps(families)
            for fam in families:
                fam.flags.writeable = False
            self._irreps = families
        return self._irreps

    def _build_irreps(self) -> list[np.ndarray]:
        """The irrep families, by default split off the left regular
        representation (:func:`_regular_irreps`)."""
        return _regular_irreps(self)

    def _irrep(self, f, q) -> np.ndarray:
        """The (|G|, d, d) images of one irrep, ``irrep_stacks()[f][q]``."""
        return self.irrep_stacks()[f][q]

    def _trivial_irrep(self) -> tuple:
        """The (family, index) of the 1-d irrep nearest 1: the trivial one,
        which a split of the regular representation gives only to rounding."""
        families = self.irrep_stacks()
        ones = [(f, q) for f, s in enumerate(families) if s.shape[-1] == 1 for q in range(len(s))]
        return min(ones, key=lambda fq: np.abs(self._irrep(*fq) - 1).max())

    def _irrep_law_residual(self, occurring, dims) -> float:
        """The largest multiplication-law residual, in operator norm, over
        the irreps ``occurring`` ((family, index) pairs into
        :meth:`irrep_stacks`), on the pairs (g, h) that
        :func:`~gapstab.algebra._law_pairs` checks for image blocks ``dims``.

        Each irrep's residual is computed once per group and per regime of
        those pairs (every pair, or the sampled ones), by
        :func:`~gapstab.algebra._worst_residual`, and kept beside the irreps.
        Only the occurring irreps' images are read (:meth:`_irrep`).
        """
        law, every = vars(self).setdefault("_irrep_law", {}), _every_pair(self, dims)
        missing = [fq for fq in occurring if (every, *fq) not in law]
        if missing:
            pairs = _law_pairs(self, dims)
            for f, q in missing:
                irrep = self._irrep(f, q)
                law[every, f, q] = _worst_residual(
                    (irrep.shape[-1],), len(pairs[0]), _law_residuals((irrep,), pairs)
                )
        return max((law[every, f, q] for f, q in occurring), default=0.0)

    def is_subgroup(self, subset) -> bool:
        """Check that ``subset`` is closed under multiplication and inverse."""
        sub = set(subset)
        if self.identity not in sub:
            return False
        for g in sub:
            if self.inv(g) not in sub:
                return False
            for h in sub:
                if self.mul(g, h) not in sub:
                    return False
        return True


class MulTableGroup(FiniteGroup):
    """Group on labels 0..n-1 defined by an explicit multiplication table."""

    def __init__(self, table):
        table = np.asarray(table, dtype=int)
        n = table.shape[0]
        if table.shape != (n, n):
            raise InvalidArgument("multiplication table must be square")
        self.table = table
        self.elements = tuple(range(n))
        # identity: the unique e with table[e, :] == range(n)
        ident = [g for g in range(n) if np.array_equal(table[g], np.arange(n))]
        if len(ident) != 1:
            raise InvalidArgument("table has no (or several) identity rows")
        self.identity = ident[0]
        is_inverse = table == self.identity
        bad = np.flatnonzero(is_inverse.sum(axis=1) != 1)
        if bad.size:
            raise InvalidArgument(f"element {bad[0]} has no unique inverse")
        self._inv = is_inverse.argmax(axis=1)
        # associativity, table[table[a, b], c] == table[a, table[b, c]], is an
        # O(n^3) array; keep it for small n
        if n <= 64 and not np.array_equal(table[table], table[:, table]):
            raise InvalidArgument("table is not associative")
        self._post_init_common()

    def mul(self, g, h):
        return int(self.table[g, h])

    def inv(self, g):
        return int(self._inv[g])

    def mul_index(self, i, j):
        return self.table[i, j]

    def __repr__(self):
        return f"MulTableGroup(order={self.order})"


class ProductGroup(FiniteGroup):
    """Direct product of two finite groups; elements are (g, h) pairs."""

    def __init__(self, first: FiniteGroup, second: FiniteGroup):
        self.first = first
        self.second = second
        self.elements = tuple((g, h) for g in first.elements for h in second.elements)
        self.identity = (first.identity, second.identity)
        self._post_init_common()

    def mul(self, g, h):
        return (self.first.mul(g[0], h[0]), self.second.mul(g[1], h[1]))

    def inv(self, g):
        return (self.first.inv(g[0]), self.second.inv(g[1]))

    def mul_index(self, i, j):
        n2 = self.second.order
        (i1, i2), (j1, j2) = np.divmod(i, n2), np.divmod(j, n2)
        return self.first.mul_index(i1, j1) * n2 + self.second.mul_index(i2, j2)

    def _build_irreps(self):
        out = []
        for s1 in self.first.irrep_stacks():
            for s2 in self.second.irrep_stacks():
                (k1, n1, d1, _), (k2, n2, d2, _) = s1.shape, s2.shape
                kron = np.einsum("kgij,lhab->klghiajb", s1, s2)
                out.append(kron.reshape(k1 * k2, n1 * n2, d1 * d2, d1 * d2))
        return out

    def _product_irrep(self, irrep1, irrep2) -> tuple:
        """The (family, index) of rho1 (x) rho2 in :meth:`_build_irreps`'s
        order, from the factors' (family, index) pairs of rho1 and rho2."""
        (f1, q1), (f2, q2), families2 = irrep1, irrep2, self.second.irrep_stacks()
        return f1 * len(families2) + f2, q1 * len(families2[f2]) + q2

    def _irrep(self, f, q):
        """One product irrep, bit for bit as :meth:`_build_irreps` forms it,
        from the factors' irreps alone."""
        families2 = self.second.irrep_stacks()
        (f1, f2), k2 = divmod(f, len(families2)), len(families2[f % len(families2)])
        s1, s2 = self.first.irrep_stacks()[f1][q // k2], families2[f2][q % k2]
        d = s1.shape[-1] * s2.shape[-1]
        return np.einsum("gij,hab->ghiajb", s1, s2).reshape(self.order, d, d)

    def __repr__(self):
        return f"ProductGroup({self.first!r}, {self.second!r})"


class CentralExtensionGroup(FiniteGroup):
    """Central extension of A x B by {+1,-1} twisted by a bicharacter.

    Elements are triples (a, b, z) with z in {+1,-1} and multiplication

        (a, b, z) * (a', b', z') = (a a', b b', gamma(a', b) z z').

    ``gamma(a, b)`` must take values in {+1,-1} and be multiplicative in each
    argument; this is validated exhaustively at construction.  The signs are
    kept as one read-only (|A|, |B|) array, ``signs[i, j] = gamma(a_i, b_j)``
    in element order.
    """

    def __init__(self, a_group, b_group, gamma):
        self.a_group = a_group
        self.b_group = b_group
        signs = np.empty((a_group.order, b_group.order), dtype=int)
        for i, a in enumerate(a_group.elements):
            for j, b in enumerate(b_group.elements):
                v = gamma(a, b)
                if v not in (1, -1):
                    raise InvalidArgument(f"gamma({a!r},{b!r}) = {v!r} is not a sign")
                signs[i, j] = v
        # gamma(x x', y) = gamma(x, y) gamma(x', y) on every pair (x, x') at once
        for grp, table, side in ((a_group, signs, "a"), (b_group, signs.T, "b")):
            i, j = np.divmod(np.arange(grp.order**2), grp.order)
            if not np.array_equal(table[grp.mul_index(i, j)], table[i] * table[j]):
                raise InvalidArgument(f"gamma is not multiplicative in {side}")
        signs.flags.writeable = False
        self.signs = signs
        self.elements = tuple(
            (a, b, z)
            for a in a_group.elements
            for b in b_group.elements
            for z in (1, -1)
        )
        ea, eb = a_group.identity, b_group.identity
        self.identity = (ea, eb, 1)
        self.central_sign = (ea, eb, -1)
        self._post_init_common()

    def gamma(self, a, b) -> int:
        return int(self.signs[self.a_group.index(a), self.b_group.index(b)])

    def mul(self, g, h):
        a, b, z = g
        a2, b2, z2 = h
        return (
            self.a_group.mul(a, a2),
            self.b_group.mul(b, b2),
            self.gamma(a2, b) * z * z2,
        )

    def inv(self, g):
        a, b, z = g
        ai = self.a_group.inv(a)
        bi = self.b_group.inv(b)
        # (a,b,z)(ai,bi,z') = (e,e, gamma(ai,b) z z') -> z' = z * gamma(ai,b)
        return (ai, bi, z * self.gamma(ai, b))

    def mul_index(self, i, j):
        # elements run over (a, b, z) with z innermost, z index 1 for -1; the
        # product's sign bit is z xor z' xor [gamma(a', b) = -1]
        shape = (self.a_group.order, self.b_group.order, 2)
        a, b, z = np.unravel_index(i, shape)
        a2, b2, z2 = np.unravel_index(j, shape)
        sign = z ^ z2 ^ (self.signs[a2, b] < 0)
        return np.ravel_multi_index(
            (self.a_group.mul_index(a, a2), self.b_group.mul_index(b, b2), sign), shape
        )

    def embed_a(self, a):
        return (a, self.b_group.identity, 1)

    def embed_b(self, b):
        return (self.a_group.identity, b, 1)

    def _build_irreps(self):
        """All irreducibles when the twist is a nondegenerate pairing.

        The sign-blind characters of A x B lift to |A|*|B| one-dimensional
        representations.  When |B| = |A| and gamma is nondegenerate there is a
        single remaining irreducible of dimension |A|, acting on l2(A) by
        translations and gamma-modulations.  Completeness (sum of squared
        dimensions equals the order) is checked; where the closed form does
        not apply or fails, the irreps come from the split of the regular
        representation.
        """
        fa = self.a_group.irrep_stacks()
        fb = self.b_group.irrep_stacks()
        if any(f.shape[-1] != 1 for f in fa + fb):
            return _regular_irreps(self)
        ta = np.concatenate([f[:, :, 0, 0] for f in fa])
        tb = np.concatenate([f[:, :, 0, 0] for f in fb])
        chars = np.einsum("ka,lb->klab", ta, tb).reshape(len(ta) * len(tb), -1)
        # elements run (a, b, z) with z innermost; the characters ignore z
        out = [np.repeat(chars, 2, axis=1)[:, :, None, None]]
        na, nb = self.a_group.order, self.b_group.order
        if self.order == 2 * na * nb and na == nb:
            # candidate faithful block: pi(a,b,z) = z * (translation by a) *
            # diag_x gamma(x, b) on l2(A)
            ia, jx = np.divmod(np.arange(na * na), na)
            perms = np.zeros((na, na, na))
            perms[ia, self.a_group.mul_index(ia, jx), jx] = 1.0
            gam = self.signs.T
            signs = np.array([1.0, -1.0])
            images = np.einsum("aij,bj,z->abzij", perms, gam, signs)
            pi0 = images.reshape(self.order, na, na).astype(complex)
            # irreducibility via the character criterion
            tr2 = np.sum(np.abs(np.trace(pi0, axis1=1, axis2=2)) ** 2) / self.order
            if abs(tr2 - 1.0) > 1e-9:
                return _regular_irreps(self)
            out.append(pi0[None])
        if sum(len(f) * f.shape[-1] ** 2 for f in out) != self.order:
            return _regular_irreps(self)
        return out

    def __repr__(self):
        return (
            f"CentralExtensionGroup(|A|={self.a_group.order},"
            f" |B|={self.b_group.order})"
        )


class PermutationGroup(FiniteGroup):
    """Group of permutations of {0..n-1}, elements stored as image tuples.

    The elements are sorted, and the full product table (``_table[i, j]`` the
    index of g_i g_j, in the smallest unsigned type that holds |G|) is built
    once by array arithmetic; it is both the closure and the inverse check.
    """

    def __init__(self, perms):
        elements = sorted(set(tuple(p) for p in perms))
        if not elements:
            raise InvalidArgument("no permutations given")
        n = len(elements[0])
        ident = tuple(range(n))
        for p in elements:
            if sorted(p) != list(range(n)):
                raise InvalidArgument(f"{p!r} is not a permutation of 0..{n - 1}")
        if ident not in elements:
            raise InvalidArgument("identity permutation missing")
        self.degree = n
        self.elements = tuple(elements)
        self.identity = ident
        self._post_init_common()
        self._table = table = _permutation_table(elements)
        # g has its inverse in the set iff some g h is the identity; a product
        # outside the set has the index |G|
        has_inverse = (table == self._index[ident]).any(axis=1)
        closed = (table < len(elements)).all(axis=1)
        bad = np.flatnonzero(~(has_inverse & closed))
        if bad.size:
            if not has_inverse[bad[0]]:
                raise InvalidArgument("permutation set is not closed under inverse")
            raise InvalidArgument("permutation set is not closed")
        table.flags.writeable = False

    def mul(self, g, h):
        return tuple(g[h[i]] for i in range(self.degree))

    def inv(self, g):
        out = [0] * self.degree
        for i, gi in enumerate(g):
            out[gi] = i
        return tuple(out)

    def mul_index(self, i, j):
        return self._table[i, j].astype(np.intp)

    def __repr__(self):
        return f"PermutationGroup(degree={self.degree}, order={self.order})"


# Most entries one chunk of a gather through a product table holds: group order
# times degree for the permutation product table, group order times d for the
# images of a d-dimensional irrep split off the regular representation.
_TABLE_CHUNK = 1 << 20
# Largest degree n whose base-n row keys fit an int64: 15^15 < 2^63 <= 16^16.
_INT_KEY_DEGREE = 15


def _row_keys(rows: np.ndarray) -> np.ndarray:
    """Keys of permutation rows that sort like the rows themselves.

    Up to degree ``_INT_KEY_DEGREE`` the key is the int64 whose base-n digits
    are the row's entries; above it, the row's big-endian unsigned bytes as
    one void scalar, which compare like byte strings.
    """
    n = rows.shape[1]
    if n <= _INT_KEY_DEGREE:
        keys = np.zeros(len(rows), dtype=np.int64)
        for digits in rows.T:
            keys *= n
            keys += digits
        return keys
    wide = np.ascontiguousarray(rows, dtype=np.min_scalar_type(n - 1).newbyteorder(">"))
    return wide.view(np.dtype((np.void, wide.itemsize * n))).ravel()


def _permutation_table(elements) -> np.ndarray:
    """table[i, j] = index of g_i g_j in the sorted permutations ``elements``,
    or len(elements) where the product is not among them.

    Rows are composed in chunks, (g h)(x) = g(h(x)), and looked up by binary
    search of their :func:`_row_keys` among the elements' sorted keys; the
    keys are exact, so a row is found where its key matches.
    """
    k, n = len(elements), len(elements[0])
    perms = np.array(elements, dtype=np.min_scalar_type(n - 1))
    keys = _row_keys(perms)
    table = np.empty((k, k), dtype=np.min_scalar_type(k))
    step = max(1, _TABLE_CHUNK // (k * n))
    for start in range(0, k, step):
        prods = _row_keys(perms[start : start + step][:, perms].reshape(-1, n))
        idx = np.minimum(np.searchsorted(keys, prods), k - 1)
        table[start : start + step] = np.where(keys[idx] == prods, idx, k).reshape(-1, k)
    return table


def symmetric_group(n: int) -> PermutationGroup:
    if n < 1 or math.factorial(n) > 5040:
        raise InvalidArgument("symmetric_group supports 1 <= n <= 7")
    return PermutationGroup(itertools.permutations(range(n)))


# Largest entrywise residual validate_irreps accepts.
_IRREP_TOL = 1e-9
# Largest operator-norm unitarity residual of an irrep image: the tolerance at
# which a rounding's corner representation, a direct sum of irreps, is unitary.
_IRREP_UNITARY_TOL = 1e-6


def validate_irreps(group: FiniteGroup) -> None:
    """Assert that group.irrep_stacks() is a complete orthonormal family."""
    _check_irreps(group, group.irrep_stacks())


def _check_irreps(group: FiniteGroup, families) -> None:
    """Check the dimension count, unitarity of the Peter-Weyl matrix (Schur
    orthogonality of matrix coefficients) and the homomorphism law on the
    pairs of the first eight elements, each to ``_IRREP_TOL`` entrywise."""
    if sum(len(f) * f.shape[-1] ** 2 for f in families) != group.order:
        raise InvalidArgument("irreducibles do not exhaust the group order")
    n = group.order
    # The Peter-Weyl matrix: row (rho, i, j) is sqrt(d_rho / n) rho_ij(g).
    f = np.vstack(
        [
            np.sqrt(fam.shape[-1] / n) * fam.transpose(0, 2, 3, 1).reshape(-1, n)
            for fam in families
        ]
    )
    err = np.max(np.abs(f @ f.conj().T - np.eye(n)))
    if err > _IRREP_TOL:
        raise InvalidArgument(f"irreducibles fail orthogonality: residual {err:g}")
    k = min(8, n)
    left, right = np.divmod(np.arange(k * k), k)
    prod = group.mul_index(left, right)
    for fam in families:
        err = np.max(np.abs(fam[:, prod] - fam[:, left] @ fam[:, right]))
        if err > _IRREP_TOL:
            raise InvalidArgument(f"irrep fails multiplication law: residual {err:g}")


def _check_unitary_irreps(families) -> None:
    """Refuse irrep families with an image u whose ||u u* - 1|| or
    ||u* u - 1|| exceeds ``_IRREP_UNITARY_TOL``, the check of
    :class:`~gapstab.algebra.AlmostHom` on each family's images."""
    for fam in families:
        d = fam.shape[-1]
        images = fam.reshape(-1, d, d)
        unitarity = _unitarity_residuals((images,))
        _, norms, _ = _exact_residuals((d,), len(images), unitarity, _IRREP_UNITARY_TOL)
        worst = float(norms.max(initial=0.0))
        if worst > _IRREP_UNITARY_TOL:
            raise InvalidRepresentation(
                f"irrep images are not unitary (residual {worst:.3g})", residual=worst
            )


def _regular_irreps(group: FiniteGroup) -> list[np.ndarray]:
    """All irreps of a group, split off its left regular representation.

    lambda(g) moves e_y to e_(g y).  Its commutant is the right-regular
    algebra R(f)[x, y] = f(x^-1 y), self-adjoint when f(g^-1) = conj f(g), so
    two random such f, each a gather through the product table, give the
    generic pair :func:`_split_block` needs (Dixon 1970).
    Each component is one irrep rho, of multiplicity d in lambda; its first
    d columns W0 span one copy, and rho(g) = W0* lambda(g) W0 with
    (lambda(g) W0)[x] = W0[g^-1 x], a row gather.  Degenerate draws of a
    fixed generator are retried, ``_COMMUTANT_TRIES`` times in all; the
    families, by increasing d, are checked once.
    """
    n = group.order
    table = group.mul_index(*np.divmod(np.arange(n * n), n)).reshape(n, n)
    # the inverse of g_i is the column of the identity in row i
    inv = np.nonzero(table == group.index(group.identity))[1]
    rows = table[inv]  # rows[x, y] is the index of x^-1 y
    rng = np.random.default_rng(0)
    for _ in range(_COMMUTANT_TRIES):
        h = rng.standard_normal((2, n)) + 1j * rng.standard_normal((2, n))
        t_mat, s_mat = (h + h[:, inv].conj())[:, rows]
        try:
            components = _split_block(t_mat, s_mat, n, n)
            break
        except DegenerateDecomposition as exc:  # retry with fresh randomness
            last_error = exc
    else:
        raise DegenerateDecomposition(
            f"no split of the regular representation after {_COMMUTANT_TRIES} tries:"
            f" {last_error}"
        )
    by_dim = {}
    for w, _, d in components:
        w0 = w[:, :d]
        step = max(1, _TABLE_CHUNK // (n * d))
        by_dim.setdefault(d, []).append(
            np.concatenate([w0.conj().T @ w0[rows[i : i + step]] for i in range(0, n, step)])
        )
    families = [np.stack(by_dim[d]) for d in sorted(by_dim)]
    _check_irreps(group, families)
    return families


# _regular_irreps draws this many random pairs before it gives up
_COMMUTANT_TRIES = 8


def _split_block(t_mat, s_mat, n, target_dim):
    """Components ``(W, m, d)`` of a commutant on C^n from a generic pair
    (t, s) of self-adjoint elements in it."""
    vals, vecs = np.linalg.eigh(t_mat)
    clusters = []
    start = 0
    for i in range(1, n + 1):
        if i == n or vals[i] - vals[i - 1] > 1e-6:
            clusters.append(vecs[:, start:i])
            start = i
    k = len(clusters)
    # link clusters whose s-coupling is nonzero
    parent = list(range(k))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for i in range(k):
        left = clusters[i].conj().T @ s_mat
        for j in range(i + 1, k):
            if np.max(np.abs(left @ clusters[j])) > 1e-6:
                parent[find(i)] = find(j)
    groups = {}
    for i in range(k):
        groups.setdefault(find(i), []).append(i)

    comps = []
    dim_n = 0
    for idxs in groups.values():
        d = clusters[idxs[0]].shape[1]
        if any(clusters[i].shape[1] != d for i in idxs):
            raise DegenerateDecomposition("unequal eigenspace dimensions")
        m = len(idxs)
        cols = [clusters[idxs[0]]]
        for t in idxs[1:]:
            b = clusters[idxs[0]].conj().T @ s_mat @ clusters[t]
            sv = np.linalg.svd(b, compute_uv=False)
            if sv[-1] < 1e-8:
                raise DegenerateDecomposition("singular cluster coupling")
            cols.append(clusters[t] @ unitary_polar_factor(b).conj().T)
        comps.append((np.hstack(cols), m, d))
        dim_n += m * m
    if dim_n != target_dim:
        raise DegenerateDecomposition(
            f"component dimensions sum to {dim_n}, expected {target_dim}"
        )
    return comps
