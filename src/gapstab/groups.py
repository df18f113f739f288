"""Finite groups given by explicit element lists.

A group object exposes ``elements`` (a tuple of hashable labels), ``identity``,
``mul``, ``inv`` and ``index``.  Groups that know their full set of irreducible
unitary representations return them from ``irreps()``, which
``validate_irreps`` checks; groups without that knowledge return None.  The
rounding machinery does not use the irreps: it works on dense matrices.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from .errors import InvalidArgument


class Irrep:
    """A unitary irreducible representation as an explicit matrix table."""

    def __init__(self, group, images: dict, dim: int):
        self.group = group
        self.images = images
        self.dim = dim

    def __call__(self, g):
        return self.images[g]


class FiniteGroup:
    """Base class; subclasses fill in elements/identity/mul/inv."""

    elements: tuple
    identity = None

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

    def irreps(self) -> list[Irrep] | None:
        return None

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
        inv = {}
        for g in range(n):
            js = np.nonzero(table[g] == self.identity)[0]
            if len(js) != 1:
                raise InvalidArgument(f"element {g} has no unique inverse")
            inv[g] = int(js[0])
        self._inv = inv
        # associativity spot check on full table is O(n^3); keep it for small n
        if n <= 64:
            for a in range(n):
                for b in range(n):
                    for c in range(n):
                        if table[table[a, b], c] != table[a, table[b, c]]:
                            raise InvalidArgument("table is not associative")
        self._post_init_common()

    def mul(self, g, h):
        return int(self.table[g, h])

    def inv(self, g):
        return self._inv[g]

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

    def embed_first(self, g):
        return (g, self.second.identity)

    def embed_second(self, h):
        return (self.first.identity, h)

    def irreps(self):
        r1 = self.first.irreps()
        r2 = self.second.irreps()
        if r1 is None or r2 is None:
            return None
        out = []
        for s1 in r1:
            for s2 in r2:
                images = {
                    (g, h): np.kron(s1.images[g], s2.images[h])
                    for g in self.first.elements
                    for h in self.second.elements
                }
                out.append(Irrep(self, images, s1.dim * s2.dim))
        return out

    def __repr__(self):
        return f"ProductGroup({self.first!r}, {self.second!r})"


class CentralExtensionGroup(FiniteGroup):
    """Central extension of A x B by {+1,-1} twisted by a bicharacter.

    Elements are triples (a, b, z) with z in {+1,-1} and multiplication

        (a, b, z) * (a', b', z') = (a a', b b', gamma(a', b) z z').

    ``gamma(a, b)`` must take values in {+1,-1} and be multiplicative in each
    argument; this is validated exhaustively at construction.
    """

    def __init__(self, a_group, b_group, gamma):
        self.a_group = a_group
        self.b_group = b_group
        gtab = {}
        for a in a_group.elements:
            for b in b_group.elements:
                v = gamma(a, b)
                if v not in (1, -1):
                    raise InvalidArgument(
                        f"gamma({a!r},{b!r}) = {v!r} is not a sign")
                gtab[(a, b)] = int(v)
        self._gamma = gtab
        ea, eb = a_group.identity, b_group.identity
        for a in a_group.elements:
            for a2 in a_group.elements:
                for b in b_group.elements:
                    if gtab[(a_group.mul(a, a2), b)] != gtab[(a, b)] * gtab[(a2, b)]:
                        raise InvalidArgument("gamma is not multiplicative in a")
        for b in b_group.elements:
            for b2 in b_group.elements:
                for a in a_group.elements:
                    if gtab[(a, b_group.mul(b, b2))] != gtab[(a, b)] * gtab[(a, b2)]:
                        raise InvalidArgument("gamma is not multiplicative in b")
        if gtab[(ea, eb)] != 1:
            raise InvalidArgument("gamma must be 1 at the identity")
        self.elements = tuple(
            (a, b, z)
            for a in a_group.elements
            for b in b_group.elements
            for z in (1, -1)
        )
        self.identity = (ea, eb, 1)
        self.central_sign = (ea, eb, -1)
        self._post_init_common()

    def gamma(self, a, b) -> int:
        return self._gamma[(a, b)]

    def mul(self, g, h):
        a, b, z = g
        a2, b2, z2 = h
        return (
            self.a_group.mul(a, a2),
            self.b_group.mul(b, b2),
            self._gamma[(a2, b)] * z * z2,
        )

    def inv(self, g):
        a, b, z = g
        ai = self.a_group.inv(a)
        bi = self.b_group.inv(b)
        # (a,b,z)(ai,bi,z') = (e,e, gamma(ai,b) z z') -> z' = z * gamma(ai,b)
        return (ai, bi, z * self._gamma[(ai, b)])

    def embed_a(self, a):
        return (a, self.b_group.identity, 1)

    def embed_b(self, b):
        return (self.a_group.identity, b, 1)

    def irreps(self):
        """All irreducibles when the twist is a nondegenerate pairing.

        The sign-blind characters of A x B lift to |A|*|B| one-dimensional
        representations.  When |B| = |A| and gamma is nondegenerate there is a
        single remaining irreducible of dimension |A|, acting on l2(A) by
        translations and gamma-modulations.  Completeness (sum of squared
        dimensions equals the order) is checked; if it fails we return None
        and callers fall back to dense algorithms.
        """
        a_chars = self.a_group.irreps()
        b_chars = self.b_group.irreps()
        if a_chars is None or b_chars is None:
            return None
        if any(s.dim != 1 for s in a_chars) or any(s.dim != 1 for s in b_chars):
            return None
        out = []
        for sa in a_chars:
            for sb in b_chars:
                images = {
                    (a, b, z): sa.images[a] * sb.images[b]
                    for (a, b, z) in self.elements
                }
                out.append(Irrep(self, images, 1))
        na, nb = self.a_group.order, self.b_group.order
        if self.order == 2 * na * nb and na == nb:
            # candidate faithful block: pi(a,b,z) = z * (translation by a) *
            # diag_x gamma(x, b) on l2(A)
            aelems = self.a_group.elements
            aidx = {a: i for i, a in enumerate(aelems)}
            perms = {}
            for a in aelems:
                p = np.zeros((na, na), dtype=complex)
                for x in aelems:
                    p[aidx[self.a_group.mul(a, x)], aidx[x]] = 1.0
                perms[a] = p
            diags = {
                b: np.diag([float(self._gamma[(x, b)]) for x in aelems]).astype(complex)
                for b in self.b_group.elements
            }
            images = {
                (a, b, z): z * (perms[a] @ diags[b]) for (a, b, z) in self.elements
            }
            pi0 = Irrep(self, images, na)
            # irreducibility and homomorphism sanity via the character criterion
            tr2 = sum(abs(np.trace(m)) ** 2 for m in images.values()) / self.order
            if abs(tr2 - 1.0) > 1e-9:
                return None
            out.append(pi0)
        if sum(s.dim**2 for s in out) != self.order:
            return None
        return out

    def __repr__(self):
        return (
            f"CentralExtensionGroup(|A|={self.a_group.order},"
            f" |B|={self.b_group.order})"
        )


class PermutationGroup(FiniteGroup):
    """Group of permutations of {0..n-1}, elements stored as image tuples."""

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
        for g in elements:
            if self.inv(g) not in self._index:
                raise InvalidArgument("permutation set is not closed under inverse")
            for h in elements:
                if self.mul(g, h) not in self._index:
                    raise InvalidArgument("permutation set is not closed")

    def mul(self, g, h):
        return tuple(g[h[i]] for i in range(self.degree))

    def inv(self, g):
        out = [0] * self.degree
        for i, gi in enumerate(g):
            out[gi] = i
        return tuple(out)

    def __repr__(self):
        return f"PermutationGroup(degree={self.degree}, order={self.order})"


def symmetric_group(n: int) -> PermutationGroup:
    if n < 1 or math.factorial(n) > 5040:
        raise InvalidArgument("symmetric_group supports 1 <= n <= 7")
    return PermutationGroup(itertools.permutations(range(n)))


def validate_irreps(group: FiniteGroup, tol: float = 1e-9) -> None:
    """Assert that group.irreps() is a complete orthonormal family.

    Checks the homomorphism law on random pairs, unitarity, Schur
    orthogonality of matrix coefficients and the dimension count.
    """
    reps = group.irreps()
    if reps is None:
        raise InvalidArgument("group does not provide irreducibles")
    if sum(s.dim**2 for s in reps) != group.order:
        raise InvalidArgument("irreducibles do not exhaust the group order")
    n = group.order
    # Build the Peter-Weyl matrix and verify it is unitary.
    rows = []
    for s in reps:
        scale = np.sqrt(s.dim / n)
        block = np.stack([s.images[g] for g in group.elements], axis=-1)
        rows.append(scale * block.reshape(s.dim * s.dim, n))
    f = np.vstack(rows)
    err = np.max(np.abs(f @ f.conj().T - np.eye(n)))
    if err > tol:
        raise InvalidArgument(f"irreducibles fail orthogonality: residual {err:g}")
    for s in reps:
        for g in group.elements[: min(8, n)]:
            for h in group.elements[: min(8, n)]:
                err = np.max(
                    np.abs(s.images[group.mul(g, h)] - s.images[g] @ s.images[h])
                )
                if err > tol:
                    raise InvalidArgument(
                        f"irrep fails multiplication law: residual {err:g}"
                    )
