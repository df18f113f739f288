"""Finite abelian groups, their characters, and the Fourier correspondence
between unitary representations and projection valued measures."""

from __future__ import annotations

import cmath
import itertools
import math
import operator
from functools import cached_property

import numpy as np

from .algebra import PVM, TracialAlgebra, UnitaryRep, _weighted_sums
from .errors import InvalidArgument
from .groups import FiniteGroup

# phases per chunk of AbelianGroup._phase_chunks: 64 KB of int64, small next
# to the rest of a kappa computation's working set
_PHASE_ENTRIES = 1 << 13


class AbelianGroup(FiniteGroup):
    """Product of cyclic groups Z/m_1 x ... x Z/m_r, elements are tuples.

    ``elements`` (in ``itertools.product`` order, the last coordinate
    fastest) is built on first read; ``order``, membership and ``index`` are
    mixed-radix arithmetic on ``orders`` and never build it.
    """

    def __init__(self, orders):
        orders = tuple(int(m) for m in orders)
        if not orders or any(m <= 0 for m in orders):
            raise InvalidArgument(f"cyclic orders must be positive, got {orders}")
        self.orders = orders
        self.identity = (0,) * len(orders)
        self.exponent = math.lcm(*orders)

    @cached_property
    def elements(self):
        return tuple(itertools.product(*[range(m) for m in self.orders]))

    @property
    def order(self) -> int:
        return math.prod(self.orders)

    def _flat(self, g):
        """The element index of g, or None when g is not an element.

        Answers as a lookup in a dict keyed by ``elements`` would: g must be
        a tuple of the group's rank whose entries equal integers in range
        (numpy integers, and any number that compares equal, such as 1.0),
        and an unhashable g raises TypeError.
        """
        hash(g)
        if not isinstance(g, tuple) or len(g) != len(self.orders):
            return None
        flat = 0
        for a, m in zip(g, self.orders):
            if type(a) is not int:
                try:
                    a = operator.index(a)
                except TypeError:
                    try:  # another type: the integer it equals, if any
                        a = range(m).index(a)
                    except ValueError:
                        return None
            if not 0 <= a < m:
                return None
            flat = flat * m + a
        return flat

    def index(self, g) -> int:
        flat = self._flat(g)
        if flat is None:
            raise InvalidArgument(f"{g!r} is not an element of {self!r}")
        return flat

    def __contains__(self, g):
        return self._flat(g) is not None

    def mul(self, g, h):
        return tuple((a + b) % m for a, b, m in zip(g, h, self.orders))

    def inv(self, g):
        return tuple((-a) % m for a, m in zip(g, self.orders))

    def mul_index(self, i, j):
        x, y = np.unravel_index(i, self.orders), np.unravel_index(j, self.orders)
        return np.ravel_multi_index(
            tuple((a + b) % m for a, b, m in zip(x, y, self.orders)), self.orders
        )

    def dual(self) -> "AbelianGroup":
        """The character group; canonically the same product of cyclics."""
        return AbelianGroup(self.orders)

    def pairing(self, chi, a) -> complex:
        """chi(a) = exp(2 pi i sum_j chi_j a_j / m_j).

        Exact (an int, +1 or -1) when the group has exponent at most 2, so
        downstream rational arithmetic stays rational.
        """
        if len(chi) != len(self.orders) or len(a) != len(self.orders):
            raise InvalidArgument("pairing arguments do not match the group rank")
        if self.exponent <= 2:
            return -1 if sum(x * y for x, y in zip(chi, a)) % 2 else 1
        num = 0.0
        for x, y, m in zip(chi, a, self.orders):
            num += (x * y % m) / m
        return cmath.exp(2j * cmath.pi * num)

    def character_table(self) -> np.ndarray:
        """Matrix T[chi_index, a_index] = chi(a) in element order.

        Entries are exactly +-1 at exponent at most 2, and the e-th roots of
        unity exp(2 pi i k/e) looked up by integer phase otherwise.
        """
        points = np.array(self.elements, dtype=np.int64)
        if self.exponent <= 2:
            roots = np.array([1, -1], dtype=complex)
        else:
            roots = np.exp(2j * np.pi * np.arange(self.exponent) / self.exponent)
        t = np.empty((self.order, self.order), dtype=complex)
        for start, ph in self._phase_chunks(points):
            t[start : start + len(ph)] = roots[ph]
        return t

    def _phase_chunks(self, points, first: int = 0):
        """Integer character phases on ``points``, a (k, rank) integer array.

        Yields (start, ph) where ph[i, s] in [0, e) is the phase of the
        character with element index start + i at points[s], so that
        chi(a) = exp(2 pi i ph / e) with e the exponent.  Characters run in
        ``elements`` order from index ``first``, at most _PHASE_ENTRIES
        phases per chunk, so memory stays flat in |G|.
        """
        e = self.exponent
        orders = np.array(self.orders, dtype=np.int64)
        scaled = points.T * (e // orders)[:, None]
        # character coordinates by mixed radix: the last coordinate fastest
        radix = np.array([*itertools.accumulate(self.orders[:0:-1], operator.mul, initial=1)][::-1])
        rows = max(1, _PHASE_ENTRIES // len(points))
        for start in range(first, self.order, rows):
            idx = np.arange(start, min(start + rows, self.order))
            yield start, ((idx[:, None] // radix % orders) @ scaled) % e

    def _build_irreps(self):
        """The characters, one (|G|, |G|, 1, 1) stack in ``elements`` order."""
        return [self.character_table()[:, :, None, None]]

    def __repr__(self):
        return "Z" + "x".join(f"/{m}" for m in self.orders)


def cyclic(m: int) -> AbelianGroup:
    return AbelianGroup((m,))


def boolean_group(r: int) -> AbelianGroup:
    """(Z/2)^r, the setting where all character arithmetic is exact."""
    return AbelianGroup((2,) * r)


def regular_rep(group: FiniteGroup) -> UnitaryRep:
    """Left regular representation by permutation matrices."""
    n = group.order
    stack = np.zeros((n, n, n), dtype=complex)
    for i, g in enumerate(group.elements):
        for j, h in enumerate(group.elements):
            stack[i, group.index(group.mul(g, h)), j] = 1.0
    return UnitaryRep(group, TracialAlgebra.matrix(n), [stack], check="none")


def rep_from_pvm(pvm: PVM, group: AbelianGroup) -> UnitaryRep:
    """Unitary representation of an abelian group from a PVM on its dual.

    U(a) = sum_chi chi(a) P_chi, one product of the character table
    (reordered to the PVM's outcomes) with each block's projection stack.
    The PVM outcomes must be exactly the dual group elements.
    """
    if set(pvm.outcomes) != set(group.elements):
        raise InvalidArgument("PVM outcomes must enumerate the dual group")
    table = group.character_table()[[group.index(chi) for chi in pvm.outcomes]]
    return UnitaryRep(group, pvm.algebra, _weighted_sums(table.T, pvm.stacks), check="none")


def pvm_from_rep(rep: UnitaryRep) -> PVM:
    """Spectral measure of a representation of an abelian group.

    P_chi = E_a conj(chi(a)) U(a), one product of the conjugate character
    table with each block's image stack; inverse of :func:`rep_from_pvm`.
    The result is validated as a PVM, which fails if the input is not an
    honest representation.
    """
    group = rep.group
    if not isinstance(group, AbelianGroup):
        raise InvalidArgument("spectral measure requires an abelian group")
    stacks = _weighted_sums(np.conj(group.character_table()) / group.order, rep.stacks)
    return PVM(rep.algebra, list(group.elements), stacks)
