"""Finite-dimensional tracial von Neumann algebras.

An algebra here is a finite direct sum of matrix blocks M_{n_1} (+) ... (+)
M_{n_r} carrying the weighted trace

    tau(x) = sum_i  lambda_i * tr_{n_i}(x_i),      tr normalized, sum lambda_i = 1.

The 2-norm is ||x||_2 = sqrt(tau(x* x)).  An algebra built from dimensions
and trace coefficients directly (``TracialAlgebra._raw``) need not have a
unit of trace 1: the rounding's corner keeps the coefficients of the base
algebra on larger blocks, so its identity carries the trace of a projection
in the amplification M tensor M_|G|, which can exceed 1.

Maps from a finite group store their images, and PVMs their projections, as
one (k, n, n) stack per block.  The multiplication-law residuals
phi(gh) - phi(g)phi(h) of listed pairs (for operator norms), their squared
2-norms over a grid of pairs (``_law_sq``, one row-block product per chunk),
the pair defects ||U(a)V(b) - gamma(a, b) V(b)U(a)||_2^2, the weighted sums
sum_k W[j, k] X_k (the Fourier transforms between PVMs and representations)
and the trace pairings tau(P Q) are each formed on those stacks by one
kernel, as are the noise unitaries e^{i sigma H} (``_noise_unitaries``).  Validation has one exact path: ``_exact_residuals``
screens a family's residuals by Frobenius norm and computes the operator
norms of the terms that fail the screen with one batched SVD (a modulus for
1 x 1 residuals, such as a character's); the PVM, unitarity and
multiplication-law checks all go through it.  A validated PVM records a bound
on its residuals, and its conjugate by a near-unitary takes a bound derived
from that one and from the unitarity residual (``_conjugation_bound``)
instead of a second validation, unless the derived bound exceeds half the
tolerance.  Such a conjugate, and a PVM whose projections are formed exactly
(the perfect strategies of ``games``), is stored through ``PVM._trusted``
with its bound, the exact ones as real float16 stacks; every kernel promotes
them inside its own product, so no arithmetic runs in float16.
:func:`rep_residual`
takes operator norms only of the residuals whose Frobenius norm could exceed
the worst one found.  The uniform defect of
a map is read off its Fourier blocks over the group's irreps
(``_fourier_blocks``, ``_fourier_defect``), which the Gowers-Hatami rounding
forms anyway and shares.

The conditional expectation onto the commutant of a representation,
E(x) = E_g u(g) x u(g)*, has one kernel, ``_commutant_mean``, which projects
a whole stack of elements per call.  The commutant's block decomposition
(:class:`CommutantDecomposition`) is read off the group's cached irreps,
without random numbers; it compresses and lifts stacks, and since compress o
E = compress and lift o compress = E, the nearest commutant unitary and the
product stabilization take E from one compression, without a group sum.
"""

from __future__ import annotations

import math
from collections import namedtuple
from fractions import Fraction
from functools import cached_property

import numpy as np

from .errors import (
    DegenerateDecomposition,
    InvalidArgument,
    InvalidPVM,
    InvalidRepresentation,
    ResourceCap,
)

VALIDATION_TOL = 1e-9

# Largest group order the defect and the rounding take: the uniform defect
# sums |G|^2 law residuals or builds the irreps' |G|^2 image entries.
# ``stability`` reads this name at call time and bounds the rounding's stacks
# by its square; a manifest's ``dim_cap`` rebinds it for one operation.
ROUNDING_DIM_CAP = 4096


class TracialAlgebra:
    """Direct sum of matrix blocks with a weighted normalized trace."""

    def __init__(self, blocks):
        dims = []
        weights = []
        for n, lam in blocks:
            n = int(n)
            if n <= 0:
                raise InvalidArgument(f"block dimension {n} must be positive")
            lam = Fraction(lam) if not isinstance(lam, float) else lam
            if lam <= 0:
                raise InvalidArgument(f"block weight {lam} must be positive")
            dims.append(n)
            weights.append(lam)
        total = float(sum(weights))
        if abs(total - 1.0) > 1e-12:
            raise InvalidArgument(f"block weights sum to {total}, expected 1")
        self.dims = tuple(dims)
        self.coeffs = tuple(float(w) / n for w, n in zip(weights, dims))

    @classmethod
    def matrix(cls, n: int) -> "TracialAlgebra":
        """The full matrix algebra M_n with its normalized trace."""
        return cls([(n, 1)])

    @classmethod
    def _raw(cls, dims, coeffs) -> "TracialAlgebra":
        obj = cls.__new__(cls)
        obj.dims = tuple(int(n) for n in dims)
        obj.coeffs = tuple(float(c) for c in coeffs)
        return obj

    @property
    def weights(self):
        return tuple(c * n for c, n in zip(self.coeffs, self.dims))

    @property
    def total_dim(self) -> int:
        return sum(self.dims)

    @property
    def tau_one(self) -> float:
        """tau(1), the weights' sum."""
        return float(sum(self.weights))

    def compatible(self, other: "TracialAlgebra") -> bool:
        return (
            self.dims == other.dims
            and all(abs(a - b) < 1e-12 for a, b in zip(self.coeffs, other.coeffs))
        )

    # -- element constructors ------------------------------------------------

    def element(self, blocks) -> "AlgebraElement":
        if len(blocks) != len(self.dims):
            raise InvalidArgument(f"{len(blocks)} blocks, expected {len(self.dims)}")
        mats = []
        for n, b in zip(self.dims, blocks):
            b = np.array(b, dtype=complex)
            if b.shape != (n, n):
                raise InvalidArgument(f"block shape {b.shape}, expected ({n},{n})")
            mats.append(b)
        return AlgebraElement(self, mats)

    def identity(self) -> "AlgebraElement":
        """The identity, built on the first call and shared by every later
        caller (every PVM whose unit it is): its blocks are read-only, so an
        in-place write to one raises ``ValueError``."""
        return self._identity

    @cached_property
    def _identity(self) -> "AlgebraElement":
        blocks = [np.eye(n, dtype=complex) for n in self.dims]
        for b in blocks:
            b.flags.writeable = False
        return AlgebraElement(self, blocks)

    def zero(self) -> "AlgebraElement":
        return AlgebraElement(self, [np.zeros((n, n), complex) for n in self.dims])

    # -- trace and norms -----------------------------------------------------

    def tau(self, x: "AlgebraElement") -> complex:
        return sum(c * np.trace(b) for c, b in zip(self.coeffs, x.blocks))

    def norm2(self, x: "AlgebraElement") -> float:
        s = sum(
            c * np.sum(np.abs(b) ** 2) for c, b in zip(self.coeffs, x.blocks)
        )
        return float(np.sqrt(max(s, 0.0)))

    def norm_inf(self, x: "AlgebraElement") -> float:
        return max(np.linalg.norm(b, 2) if b.size else 0.0 for b in x.blocks)

    def __repr__(self):
        parts = ", ".join(
            f"M_{n}^({c * n:.4g})" for n, c in zip(self.dims, self.coeffs)
        )
        return f"TracialAlgebra[{parts}]"


class AlgebraElement:
    """An element of a TracialAlgebra; a tuple of complex matrices."""

    __slots__ = ("algebra", "blocks")
    __array_priority__ = 100  # keep numpy from hijacking scalar * element

    def __init__(self, algebra: TracialAlgebra, blocks):
        self.algebra = algebra
        self.blocks = tuple(np.asarray(b, dtype=complex) for b in blocks)

    def _check(self, other):
        if self.algebra is not other.algebra and not self.algebra.compatible(
            other.algebra
        ):
            raise InvalidArgument("elements belong to incompatible algebras")

    def __add__(self, other):
        self._check(other)
        return AlgebraElement(
            self.algebra, [a + b for a, b in zip(self.blocks, other.blocks)]
        )

    def __sub__(self, other):
        self._check(other)
        return AlgebraElement(
            self.algebra, [a - b for a, b in zip(self.blocks, other.blocks)]
        )

    def __neg__(self):
        return AlgebraElement(self.algebra, [-a for a in self.blocks])

    def __mul__(self, other):
        if isinstance(other, AlgebraElement):
            self._check(other)
            return AlgebraElement(
                self.algebra, [a @ b for a, b in zip(self.blocks, other.blocks)]
            )
        return AlgebraElement(self.algebra, [other * a for a in self.blocks])

    def __rmul__(self, other):
        return AlgebraElement(self.algebra, [other * a for a in self.blocks])

    @property
    def H(self) -> "AlgebraElement":
        return AlgebraElement(self.algebra, [a.conj().T for a in self.blocks])

    def tau(self) -> complex:
        return self.algebra.tau(self)

    def norm2(self) -> float:
        return self.algebra.norm2(self)

    def norm_inf(self) -> float:
        return self.algebra.norm_inf(self)

    def __repr__(self):
        return f"AlgebraElement({self.algebra!r})"


def haar_unitary(n: int, rng: np.random.Generator) -> np.ndarray:
    a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    q, r = np.linalg.qr(a)
    d = np.diagonal(r)
    return q * (d / np.abs(d))


def _noise_unitaries(dims, count: int, sigma: float, rng: np.random.Generator):
    """``count`` unitaries e^{i sigma H} on the blocks ``dims``, each H a
    Gaussian self-adjoint n x n matrix of operator norm 1, yielded one
    per-block tuple at a time.

    The Gaussians are drawn in the order of a loop over the count, then the
    blocks, real part then imaginary part, so the unitaries and the state of
    ``rng`` afterwards are those of drawing them one at a time.  They are
    drawn and exponentiated in chunks (of at least one draw) whose whole
    working set, about six complex temporaries of a chunk's entries, stays
    near ``_STACK_ENTRIES``: a chunk holds at most a quarter of that many
    entries.  Per block, one batched SVD takes the operator norms, one
    batched ``eigh`` diagonalizes and one batched product exponentiates;
    each works matrix by matrix, so the chunk size changes no bit.
    """
    sizes = [2 * n * n for n in dims]
    step = max(1, _STACK_ENTRIES // 4 // (sum(sizes) // 2))
    for start in range(0, count, step):
        k = min(step, count - start)
        raw = rng.standard_normal((k, sum(sizes)))
        chunk = []
        for n, part in zip(dims, np.split(raw, np.cumsum(sizes)[:-1], axis=1)):
            x = part.reshape(k, 2, n, n)
            h = x[:, 0] + 1j * x[:, 1]
            h = (h + h.conj().transpose(0, 2, 1)) / 2
            nrm = np.linalg.svd(h, compute_uv=False)[:, 0]
            h /= np.where(nrm > 0, nrm, 1.0)[:, None, None]
            vals, vecs = np.linalg.eigh(h)
            chunk.append((vecs * np.exp(1j * sigma * vals)[:, None]) @ vecs.conj().transpose(0, 2, 1))
        yield from zip(*chunk)


# -- projective valued measures and representations ---------------------------


# Validation compares operator-norm residuals with a tolerance.  The families
# are screened in stacked arrays first: a residual passes when its Frobenius
# norm, an upper bound for the operator norm, is within the tolerance shrunk by
# _SCREEN_MARGIN, which absorbs the rounding in the two computed norms.  Only
# residuals that fail the screen get an exact operator norm (an SVD), so the
# accept/reject decision is that of the exact check.
_SCREEN_MARGIN = 1.0 - 1e-6
# Most complex entries one stacked temporary holds (1 MB): a 256 x 256 block.
# On a 2 MB-L2 x86-64 core, 4 MB chunks made the law residuals of Z2^5 at
# dimension 32 about twice as slow per entry, and validation no faster.
_STACK_ENTRIES = 1 << 16


def _frobenius_sq(stack: np.ndarray) -> np.ndarray:
    """Squared Frobenius norm of each matrix in a complex (m, n, n) stack."""
    flat = stack.reshape(len(stack), -1).view(np.float64)
    return np.einsum("ij,ij->i", flat, flat)


def _chunks(dims, count: int):
    """``(block, slice)`` ranges covering ``count`` stacked terms in every
    block, each at most ``_STACK_ENTRIES`` complex entries (and one term)."""
    for b, n in enumerate(dims):
        step = max(1, _STACK_ENTRIES // max(1, n * n))
        for start in range(0, count, step):
            yield b, slice(start, min(start + step, count))


def _read_only_stacks(dims, family) -> tuple:
    """A family of operators as one read-only ``(k, n, n)`` copy per block.

    ``family`` is either a list of k elements or one array (or list of
    ``(n, n)`` matrices) per block whose last two axes are ``(n, n)``;
    leading axes are merged, so a ``(k1, k2, n, n)`` array holds k1 * k2
    operators in row-major order.  A wrong block count or block shape raises
    :class:`InvalidArgument`.
    """
    if len(family) and not isinstance(family[0], AlgebraElement):
        if len(family) != len(dims):
            raise InvalidArgument(f"{len(family)} stacks for {len(dims)} blocks")
        arrays = family
    else:
        arrays = [[x.blocks[b] for x in family] for b in range(len(dims))]
    stacks = []
    for n, a in zip(dims, arrays):
        stack = np.array(a, dtype=complex)
        if stack.size and (stack.ndim < 3 or stack.shape[-2:] != (n, n)):
            raise InvalidArgument(f"stack shape {stack.shape}, expected (..., {n}, {n})")
        stack = stack.reshape(-1, n, n)
        stack.flags.writeable = False
        stacks.append(stack)
    return tuple(stacks)


# What _exact_residuals returns when every term passes the screen; being
# empty, the shared arrays hold nothing a caller could change.
_NO_FAILURES = (np.empty(0, dtype=np.intp), np.empty(0))


def _exact_residuals(dims, count: int, residuals, tol: float) -> tuple:
    """The terms whose residual may exceed ``tol``, with their exact
    operator-norm residuals, and a bound on every term's residual, as
    ``(indices, norms, bound)``.

    ``residuals(b, sel)`` yields, for block ``b``, stacked ``(k, n, n)``
    residual arrays of the terms ``sel`` (a slice or an index array), one
    per checked identity.  A term passes when every one of its residual
    blocks passes the Frobenius screen; the others come back in increasing
    order with the largest operator norm over their blocks and identities,
    from one batched singular-value computation per residual array (the
    modulus, for 1 x 1 residuals).  A negative ``tol`` skips the screen and
    returns every term.  Terms go through in the chunks of ``_chunks``.
    ``bound`` is the largest Frobenius norm that passed the screen or exact
    norm computed, over ``_SCREEN_MARGIN`` for the rounding in either: an
    upper bound on the operator norm of every residual array as computed.
    """
    screened = 0.0
    if tol < 0:
        failed = np.arange(count)
    else:
        limit = (tol * _SCREEN_MARGIN) ** 2
        mask = None
        for b, sl in _chunks(dims, count):
            # map, so no chunk's residual outlives its norms
            for sq in map(_frobenius_sq, residuals(b, sl)):
                passed = sq <= limit
                screened = max(screened, float(sq.max(where=passed, initial=0.0)))
                if not passed.all():
                    if mask is None:
                        mask = np.zeros(count, dtype=bool)
                    mask[sl] |= ~passed
        if mask is None:
            return (*_NO_FAILURES, math.sqrt(screened) / _SCREEN_MARGIN)
        failed = np.flatnonzero(mask)
    norms = np.zeros(len(failed))
    for b, sl in _chunks(dims, len(failed)):
        for top in map(_operator_norms, residuals(b, failed[sl])):
            np.maximum(norms[sl], top, out=norms[sl])
    return failed, norms, max(math.sqrt(screened), norms.max(initial=0.0)) / _SCREEN_MARGIN


def _operator_norms(r: np.ndarray) -> np.ndarray:
    """The operator norm of each matrix of a (k, n, n) stack."""
    if r.shape[-1] == 1:
        return np.abs(r[:, 0, 0])
    return np.linalg.svd(r, compute_uv=False)[:, 0]


class PVM:
    """A projection valued measure: projections summing to a unit.

    ``outcomes`` is the list of labels; ``unit`` defaults to the algebra
    identity but may be any projection (for measures living in a corner).
    A unit of None is the algebra's one read-only identity
    (:meth:`TracialAlgebra.identity`), shared by every such PVM on that
    algebra rather than copied into each.
    ``projections`` lists one element per outcome, or gives one ``(k, n, n)``
    stack per block in ``outcomes`` order (see :func:`_read_only_stacks`).
    They are copied once into read-only complex stacks (``stacks``).  A PVM
    formed exactly (:meth:`_trusted`) may instead hold real float16 stacks;
    every kernel that reads ``stacks`` promotes them inside its own product,
    bit for bit as a complex copy would give, so no arithmetic runs in
    float16.
    ``pvm[a]`` and ``projections`` are elements built on each read and not
    kept, their blocks views into complex stacks and complex copies of real
    ones, and ``index(a)`` is the position of outcome ``a`` in them.

    Validation: every projection is self-adjoint and idempotent, the
    projections sum to ``unit`` and distinct projections multiply to zero,
    each up to an operator-norm residual of at most ``VALIDATION_TOL``.  The residuals
    are screened by their Frobenius norms on the stacks and computed exactly
    only where the screen fails; a failure raises :class:`InvalidPVM` with
    the exact operator-norm residual.  ``residual`` records an upper bound
    on every one of these operator-norm residuals, in exact arithmetic on the
    stored projections and as validation computes them: the largest screened
    or exact norm plus the rounding of :func:`_rounding_slack`, or, for a
    PVM from :meth:`_trusted`, the bound its builder derived.
    """

    def __init__(self, algebra, outcomes, projections, unit=None):
        outcomes = list(outcomes)
        stacks = _read_only_stacks(algebra.dims, list(projections))
        if any(len(s) != len(outcomes) for s in stacks):
            raise InvalidPVM("outcome/projection count mismatch")
        if len(set(outcomes)) != len(outcomes):
            raise InvalidPVM("duplicate outcome labels")
        self._store(algebra, outcomes, stacks, unit)

        def own(b, sel):
            p = stacks[b][sel]
            yield p - p.conj().transpose(0, 2, 1)
            yield p @ p - p

        def completeness(b, sel):
            yield (stacks[b].sum(axis=0) - self.unit.blocks[b])[None]

        _, own_norms, own_bound = _exact_residuals(algebra.dims, len(outcomes), own, VALIDATION_TOL)
        # the sum figure is exact whenever the message is printed
        _, sum_norms, sum_bound = _exact_residuals(
            algebra.dims, 1, completeness, -1.0 if own_norms.size else VALIDATION_TOL
        )
        worst, worst_sum = own_norms.max(initial=0.0), sum_norms.max(initial=0.0)
        if worst > VALIDATION_TOL or worst_sum > VALIDATION_TOL:
            raise InvalidPVM(
                "projection family fails validation "
                f"(projection residual {worst:.3g}, sum residual {worst_sum:.3g})",
                residual=float(max(worst, worst_sum)),
            )

        left, right = np.triu_indices(len(outcomes), 1)

        def products(b, sel):
            yield stacks[b][left[sel]] @ stacks[b][right[sel]]

        failed, norms, product_bound = _exact_residuals(
            algebra.dims, len(left), products, VALIDATION_TOL
        )
        for t, r in zip(failed, norms.tolist()):
            if r > VALIDATION_TOL:
                i, j = left[t], right[t]
                raise InvalidPVM(
                    f"projections for {outcomes[i]!r},{outcomes[j]!r} are not "
                    f"orthogonal (residual {r:.3g})",
                    residual=r,
                )
        self.residual = max(own_bound, sum_bound, product_bound) + _rounding_slack(
            max(algebra.dims), len(outcomes)
        )

    def _store(self, algebra, outcomes, stacks, unit):
        """Keep the family; a ``unit`` of None is the algebra's shared
        identity."""
        self.algebra = algebra
        self.outcomes = outcomes
        self._unit_is_one = unit is None
        self.unit = algebra.identity() if unit is None else unit
        self._index = {a: i for i, a in enumerate(outcomes)}
        self.stacks = stacks

    @property
    def projections(self) -> list:
        """One element per outcome, built on each read (see :class:`PVM`)."""
        return [AlgebraElement(self.algebra, bs) for bs in zip(*self.stacks)]

    def __getitem__(self, outcome) -> AlgebraElement:
        i = self._index[outcome]
        return AlgebraElement(self.algebra, [s[i] for s in self.stacks])

    def __len__(self):
        return len(self.outcomes)

    def index(self, outcome) -> int:
        """Position of ``outcome`` in ``outcomes`` and in the stacks."""
        return self._index[outcome]

    def conjugated(self, u: AlgebraElement) -> "PVM":
        """u . u* applied to every projection and to the unit.

        The stacks are formed per block as (u p) u*, bit for bit the products
        ``u * p * u.H``.  An identity unit moves to u u*, one product per
        block and bit for bit (u 1) u*; any other unit e to (u e) u*.  The
        residuals are not measured again: they are bounded by
        :func:`_conjugation_bound` from this PVM's ``residual``
        and the unitarity residual of u, read off the product u u* (the
        moved identity unit, or formed for the bound alone).  When
        that bound is at most ``VALIDATION_TOL / 2`` it becomes the result's
        ``residual``; the other half of the tolerance covers the rounding of
        a full check, which would therefore accept.  Otherwise (u far from
        unitary, or a family already near the tolerance) the result goes
        through the full validation of :class:`PVM`, with its decision,
        exception and residual.
        """
        stacks = [(m @ s) @ m.conj().T for m, s in zip(u.blocks, self.stacks)]
        gram = u * u.H
        unit = gram if self._unit_is_one else u * self.unit * u.H
        bound = _conjugation_bound(self.residual, gram.blocks, len(self.outcomes))
        if not bound <= VALIDATION_TOL / 2:
            return PVM(self.algebra, self.outcomes, stacks, unit=unit)
        return PVM._trusted(self.algebra, self.outcomes, stacks, bound, unit=unit)

    @classmethod
    def _trusted(cls, algebra, outcomes, stacks, residual: float, unit=None) -> "PVM":
        """An instance on projection stacks built from checked parts, such as
        the conjugate of a validated PVM (:meth:`conjugated`) or projections
        formed exactly from signed permutations (``games._exact_pvm``): one
        ``(k, n, n)`` array per block in ``outcomes`` order, complex or, for
        exact real projections, float16, made read-only in place,
        not copied and not validated again.
        ``residual`` is the caller's bound on the validation residuals."""
        obj = cls.__new__(cls)
        for s in stacks:
            s.flags.writeable = False
        obj._store(algebra, list(outcomes), tuple(stacks), unit)
        obj.residual = residual
        return obj


# Rounding in the residual bounds of PVMs, with u = 2^-53.  A computed product
# of complex n x n matrices A, B is off by at most sqrt(2) gamma_{n+2}
# ||A||_F ||B||_F (Higham, Accuracy and Stability of Numerical Algorithms,
# 2nd ed., secs. 3.5-3.6), which is below _product_rounding(n) when
# ||A||, ||B|| <= 1.5.  A bound is trusted only at or below
# VALIDATION_TOL / 2, where the projections and u have norm at most 1 + 1e-9
# and a unit of k projections at most 1.1 k, as the slack assumes.
_UNIT_ROUNDOFF = 2.0**-53


def _product_rounding(n: int) -> float:
    return 4.0 * n * (n + 2) * _UNIT_ROUNDOFF


def _rounding_slack(n: int, k: int) -> float:
    """What rounding can add to an operator-norm residual of a k-outcome PVM
    on blocks of dimension at most n: in forming the residual, and in forming
    the projections and the unit by one conjugation (u p) u*.

    A product residual (p p - p, p q) takes eight products' worth: one to form
    it and seven for the two products of each of its conjugated factors.  The
    sum residual takes two products' worth for each of its k conjugated
    projections and at most 2.2 k for the conjugated unit, plus
    gamma_{k+1} sqrt(n) (1.1 k + 1.3 k) for the summation.
    """
    e = _product_rounding(n)
    return (5 * k + 8) * e + 3 * k * (k + 1) * math.sqrt(n) * _UNIT_ROUNDOFF


def _conjugation_bound(residual: float, grams, k: int) -> float:
    """A bound on every validation residual of the k-outcome PVM u P u*,
    given a bound ``residual`` on those of P and the blocks of u u*.

    Take delta >= ||u* u - 1|| (the Frobenius norm of u u* - 1 per block, as
    computed, over ``_SCREEN_MARGIN``, plus the rounding of its product;
    for square u, u u* and u* u have the same singular values, so
    ||u u* - 1||_F = ||u* u - 1||_F exactly),
    r = ``residual``, so that ||p|| <= 1 + 2 r, and e the unit.  In exact
    arithmetic ||u (p - p*) u*|| and ||u (sum p - e) u*|| are at most
    (1 + delta) r; as u p u* u q u* = u p q u* + u p (u* u - 1) q u*, the
    idempotence and orthogonality residuals are at most
    (1 + delta)(r + delta (1 + 2 r)^2), the largest of the four.
    ``_rounding_slack`` is added for the computed stacks.
    """
    n = max(len(m) for m in grams)
    delta = max(np.linalg.norm(m - np.eye(len(m))) for m in grams)
    delta = delta / _SCREEN_MARGIN + _product_rounding(n)
    r = residual
    return (1 + delta) * (r + delta * (1 + 2 * r) ** 2) + _rounding_slack(n, k)


class AlmostHom:
    """A map from a finite group into unitaries, not assumed multiplicative.

    ``images`` maps every group element to its image, or gives one
    ``(|G|, n, n)`` stack per block in ``group.elements`` order (see
    :func:`_read_only_stacks`).  The images are copied once into read-only
    stacks (``stacks``); ``images[g]`` is an element whose blocks are views
    into those stacks, built on first read.

    Validation: every image u satisfies ||u u* - 1|| <= ``VALIDATION_TOL`` and
    ||u* u - 1|| <= ``VALIDATION_TOL`` in operator norm, screened by Frobenius norms in
    stacked arrays and computed exactly only where the screen fails; a
    failure raises :class:`InvalidRepresentation` with the exact worst
    residual.
    """

    multiplicative = False

    def __init__(self, group, algebra, images):
        elements = group.elements
        if isinstance(images, dict):
            missing = [g for g in elements if g not in images]
            if missing:
                raise InvalidArgument(f"missing images for {len(missing)} elements")
            images = [images[g] for g in elements]
        stacks = _read_only_stacks(algebra.dims, images)
        if any(len(s) != len(elements) for s in stacks):
            raise InvalidArgument(f"{len(stacks[0])} images for {len(elements)} elements")
        self._store(group, algebra, stacks)
        unitarity = _unitarity_residuals(stacks)
        _, norms, _ = _exact_residuals(algebra.dims, len(elements), unitarity, VALIDATION_TOL)
        worst = float(norms.max(initial=0.0))
        if worst > VALIDATION_TOL:
            raise InvalidRepresentation(
                f"images are not unitary (residual {worst:.3g})", residual=worst
            )

    def _store(self, group, algebra, stacks):
        self.group = group
        self.algebra = algebra
        self.stacks = tuple(s.reshape(-1, *s.shape[-2:]) for s in stacks)
        for stack in self.stacks:
            stack.flags.writeable = False

    @cached_property
    def images(self) -> dict:
        """Every group element's image, its blocks views into ``stacks``."""
        return {
            g: AlgebraElement(self.algebra, bs)
            for g, bs in zip(self.group.elements, zip(*self.stacks))
        }

    @classmethod
    def _trusted(cls, group, algebra, stacks):
        """An instance on image stacks built from checked parts, such as a
        direct sum of a group's irreps (checked once per group by
        ``irrep_stacks()``): one ``(|G|, n, n)`` array per block in
        ``group.elements`` order (leading axes merged, as in
        :func:`_read_only_stacks`), made read-only in place, not copied and
        not validated again."""
        obj = cls.__new__(cls)
        obj._store(group, algebra, stacks)
        return obj

    def __call__(self, g) -> AlgebraElement:
        return self.images[g]


def _unitarity_residuals(stacks):
    """The :func:`_exact_residuals` callback of unitarity: for block ``b``,
    u u* - 1 and u* u - 1 over the images ``sel`` of the ``(k, n, n)``
    stacks ``stacks``."""

    def residuals(b, sel):
        u = stacks[b][sel]
        uh = u.conj().transpose(0, 2, 1)
        one = np.eye(u.shape[-1])
        yield u @ uh - one
        yield uh @ u - one

    return residuals


class UnitaryRep(AlmostHom):
    """A unitary representation; the multiplication law is validated.

    Images are given and stored as in :class:`AlmostHom`.  With
    ``check="auto"`` the law is checked on the pairs of ``_law_pairs``
    (every pair when |G|^2 matrix products are affordable, else a fixed
    random sample), the same pairs :func:`rep_residual` measures; residuals
    ||u(gh) - u(g)u(h)|| are screened like the unitarity residuals of
    :class:`AlmostHom`.  ``check="none"`` skips the law, for images built
    from a representation.
    """

    multiplicative = True

    def __init__(self, group, algebra, images, check="auto"):
        if check not in ("auto", "none"):
            raise InvalidArgument(f"check must be 'auto' or 'none', got {check!r}")
        super().__init__(group, algebra, images)
        if check == "none":
            return
        pairs = _law_pairs(group, algebra.dims)
        law = _law_residuals(self.stacks, pairs)
        _, norms, _ = _exact_residuals(algebra.dims, len(pairs[0]), law, VALIDATION_TOL)
        worst = float(norms.max(initial=0.0))
        if worst > VALIDATION_TOL:
            raise InvalidRepresentation(
                f"multiplication law fails (residual {worst:.3g})", residual=worst
            )


# -- the stacked kernels -------------------------------------------------------

# The multiplication law is checked on every pair (g, h) when |G|^2 sum d^3 is
# at most _LAW_COST_LIMIT, else on _LAW_SAMPLES pairs drawn from default_rng(0).
_LAW_COST_LIMIT = 2e8
_LAW_SAMPLES = 64


def _every_pair(group, dims) -> bool:
    """Whether the law of images with blocks ``dims`` is checked on every
    pair (g, h) of ``group``, rather than on the sampled pairs (see above)."""
    return group.order**2 * sum(d**3 for d in dims) <= _LAW_COST_LIMIT


def _law_pairs(group, dims):
    """``(left, right, product)`` element-index arrays of the pairs (g, h) on
    which the multiplication law is checked (see above); the sampled pairs
    depend on the group order only."""
    n = group.order
    if _every_pair(group, dims):
        left, right = np.divmod(np.arange(n * n), n)
    else:
        rng = np.random.default_rng(0)
        left, right = np.array(
            [(rng.integers(n), rng.integers(n)) for _ in range(_LAW_SAMPLES)]
        ).T
    return left, right, group.mul_index(left, right)


def _law_residuals(stacks, pairs):
    """The :func:`_exact_residuals` callback of the multiplication law.

    ``stacks`` holds one image stack per block and ``pairs`` the ``(left,
    right, product)`` index arrays into the group's elements; the callback
    yields the residuals phi(g_t) phi(h_t) - phi(g_t h_t) of the pairs ``t``
    in ``sel``.  They are formed in place in the product, so one chunk fewer
    is alive than for a fresh difference; the sign changes no norm, bit for
    bit.
    """
    left, right, prod = pairs

    def residuals(b, sel):
        s = stacks[b]
        r = s[left[sel]] @ s[right[sel]]
        r -= s[prod[sel]]
        yield r

    return residuals


def _law_sq(phi: AlmostHom, rows, cols) -> np.ndarray:
    """||phi(g h) - phi(g) phi(h)||_2^2 over the grid of element indices g in
    ``rows`` and h in ``cols``, as a (len(rows), len(cols)) array.

    Per base block, phi(g) [phi(h)]_h for a chunk of k rows and c columns is
    one (k m x m) @ (m x c m) product, the chunks at most ``_STACK_ENTRIES``
    entries (and one product) as in :func:`_product_chunks`; the gathered
    phi(gh) is subtracted in place and the squares summed per pair.
    """
    rows, cols = np.asarray(rows, dtype=np.intp), np.asarray(cols, dtype=np.intp)
    nr, nc = len(rows), len(cols)
    prod = phi.group.mul_index(np.repeat(rows, nc), np.tile(cols, nr)).reshape(nr, nc)
    out = np.zeros((nr, nc))
    for s, coeff in zip(phi.stacks, phi.algebra.coeffs):
        m = s.shape[-1]
        c_step = max(1, min(nc, _STACK_ENTRIES // (m * m)))
        r_step = max(1, _STACK_ENTRIES // (c_step * m * m))
        for c0 in range(0, nc, c_step):
            sc = slice(c0, c0 + c_step)
            right = s[cols[sc]].transpose(1, 0, 2).reshape(m, -1)
            kc = right.shape[1] // m
            for r0 in range(0, nr, r_step):
                sr = slice(r0, r0 + r_step)
                left = s[rows[sr]]
                kr = len(left)
                res = (left.reshape(kr * m, m) @ right).reshape(kr, m, kc, m)
                res -= s[prod[sr, sc]].transpose(0, 2, 1, 3)
                sq = res.view(np.float64)
                np.square(sq, out=sq)
                out[sr, sc] += coeff * sq.sum(axis=(1, 3))
    return out


# Spare chunk buffers of the pair kernels by dtype, kept between calls: fresh
# 1 MB buffers on every call are faulted in afresh whenever the allocator has
# handed the last ones back to the system, which depends on the heap that
# earlier work left behind (about 2,000 minor faults per N = 4 twisted
# amplification check in one such heap).  A spare's contents are never read
# before they are written.
_SPARE_BUFFERS = {}


def _take_buffer(size: int, dtype) -> np.ndarray:
    """A 1-D buffer of at least ``size`` entries of ``dtype``: the last spare
    of that dtype if it is large enough, else a new one of ``size``
    entries.  It is the caller's alone until :func:`_keep_buffer` gives it
    back."""
    spares = _SPARE_BUFFERS.setdefault(np.dtype(dtype), [])
    buf = spares.pop() if spares else None
    if buf is None or buf.size < size:
        buf = np.empty(size, dtype)
    return buf


def _keep_buffer(buf: np.ndarray):
    """Give a buffer from :func:`_take_buffer` back as a spare, unless it is
    larger than a complex ``_STACK_ENTRIES`` buffer."""
    if buf.nbytes <= 16 * _STACK_ENTRIES:
        _SPARE_BUFFERS.setdefault(buf.dtype, []).append(buf)


def _product_chunks(us: np.ndarray, vs: np.ndarray, dtype=None):
    """U(a)V(b) and V(b)U(a) for every pair of images of two ``(k, n, n)``
    stacks, as ``(sa, sb, uv, vu)`` chunks with ``uv[i, :, j, :]`` the product
    of the i-th a in slice ``sa`` and the j-th b in ``sb``.  Each side of a
    chunk is one concatenated product (ka n x n) @ (n x kb n) of at most
    ``_STACK_ENTRIES`` entries (the first chunk is the largest), written
    into one pair of buffers of ``dtype`` (by default the stacks' type) that
    every chunk reuses: a chunk is valid only until the next one is drawn,
    and the caller may overwrite it.  The buffers are spares
    (:func:`_take_buffer`), kept again at the end."""
    (na, n, _), nb = us.shape, len(vs)
    b_step = max(1, min(nb, _STACK_ENTRIES // (n * n)))
    a_step = max(1, _STACK_ENTRIES // (b_step * n * n))
    size = min(na, a_step) * b_step * n * n
    dtype = np.result_type(us, vs) if dtype is None else dtype
    uv_buf, vu_buf = _take_buffer(size, dtype), _take_buffer(size, dtype)
    try:
        for a0 in range(0, na, a_step):
            ua = us[a0 : a0 + a_step]
            ka = len(ua)
            ua_cols = ua.transpose(1, 0, 2).reshape(n, ka * n)
            for b0 in range(0, nb, b_step):
                vb = vs[b0 : b0 + b_step]
                kb = len(vb)
                size = ka * kb * n * n
                uv = np.matmul(
                    ua.reshape(ka * n, n),
                    vb.transpose(1, 0, 2).reshape(n, kb * n),
                    out=uv_buf[:size].reshape(ka * n, kb * n),
                )
                vu = np.matmul(
                    vb.reshape(kb * n, n), ua_cols, out=vu_buf[:size].reshape(kb * n, ka * n)
                )
                yield (
                    slice(a0, a0 + ka),
                    slice(b0, b0 + kb),
                    uv.reshape(ka, n, kb, n),
                    vu.reshape(kb, n, ka, n).transpose(2, 1, 0, 3),
                )
    finally:
        _keep_buffer(uv_buf)
        _keep_buffer(vu_buf)


def _sq_moduli_sums(z: np.ndarray) -> np.ndarray:
    """(z.real**2 + z.imag**2).sum(axis=(1, 3)) of a chunk, bit for bit.  A
    complex z holds its squares in its own parts, so it is overwritten; a
    real one has no imaginary part to hold them and takes the expression."""
    if not np.iscomplexobj(z):
        return (z.real**2 + z.imag**2).sum(axis=(1, 3))
    re, im = z.real, z.imag
    np.square(re, out=re)
    re += np.square(im, out=im)
    return re.sum(axis=(1, 3))


def _pair_defects(u: AlmostHom, v: AlmostHom, gamma) -> np.ndarray:
    """D[a, b] = ||U(a)V(b) - gamma[a, b] V(b)U(a)||_2^2 as an (|A|, |B|) array.

    Rows and columns follow the element orders of the two groups; ``gamma``
    is all ones for commutators.  The products come from ``_product_chunks``
    in a type that holds ``gamma`` too, and the difference and its squared
    moduli are formed in their buffers, operation for operation as the
    fresh expressions, so a complex chunk allocates nothing.
    """
    if not u.algebra.compatible(v.algebra):
        raise InvalidArgument("the two representations live on different algebras")
    gamma = np.asarray(gamma)
    out = np.zeros((u.group.order, v.group.order))
    for us, vs, c in zip(u.stacks, v.stacks, u.algebra.coeffs):
        for sa, sb, uv, vu in _product_chunks(us, vs, np.result_type(us, vs, gamma)):
            d = np.subtract(uv, np.multiply(gamma[sa, None, sb, None], vu, out=vu), out=uv)
            out[sa, sb] += c * _sq_moduli_sums(d)
    return out


def _pair_traces(us: np.ndarray, vs: np.ndarray) -> tuple:
    """tr X*X, tr Z*Z and tr X*Z for X = U(a)V(b), Z = V(b)U(a), as three
    (|A|, |B|) arrays over two ``(k, n, n)`` image stacks.  X*Z goes into
    one spare buffer (:func:`_take_buffer`) and the squared moduli into the
    chunk's own buffers, so a complex chunk allocates nothing."""
    shape = (len(us), len(vs))
    xx, zz, xz = np.empty(shape), np.empty(shape), np.empty(shape, dtype=complex)
    buf = None
    for sa, sb, uv, vu in _product_chunks(us, vs):
        if buf is None:  # the first chunk is the largest
            buf = _take_buffer(uv.size, uv.dtype)
        t = np.conjugate(uv, out=buf[: uv.size].reshape(uv.shape))
        xz[sa, sb] = np.multiply(t, vu, out=t).sum(axis=(1, 3))
        xx[sa, sb] = _sq_moduli_sums(uv)
        zz[sa, sb] = _sq_moduli_sums(vu)
    if buf is not None:
        _keep_buffer(buf)
    return xx, zz, xz


def _weighted_sums(weights, stacks) -> tuple:
    """Per block, the stack of sums sum_k W[j, k] X_k, one for each row j.

    ``stacks`` holds one ``(k, n, n)`` stack per block (a PVM's projections
    or a representation's images); one product W @ X per block.  With
    complex weights the product promotes a real stack itself, bit for bit as
    from its complex copy; real weights are float64 and meet real stacks
    only as the +-1 signs of the value and the bound checks, whose sums of
    exact projections are exact.  A float16 stack is promoted to the
    weights' type, so no sum is formed in float16.
    """
    return tuple(
        (weights @ s.reshape(len(s), -1)).reshape(-1, *s.shape[1:]) for s in stacks
    )


def _trace_pairing(algebra, left, right, i, j) -> float:
    """sum_t Re tau(L_{i_t} R_{j_t}) for two per-block stacks ``left``, ``right``.

    Each trace is the Hadamard-product sum tr(L R) = sum_{kl} L[k, l] R[l, k],
    O(n^2) per term instead of a full product, weighted by the block
    coefficients; terms go through in the chunks of ``_chunks``.  A real
    stack's chunk is promoted to complex first: einsum sums mixed or real
    operands in another order than complex ones.
    """
    i, j = np.asarray(i, dtype=np.intp), np.asarray(j, dtype=np.intp)
    total = 0.0
    for b, sl in _chunks(algebra.dims, len(i)):
        lc, rc = (np.asarray(s, dtype=complex) for s in (left[b][i[sl]], right[b][j[sl]]))
        tr = np.einsum("kij,kji->k", lc, rc)
        total += algebra.coeffs[b] * float(tr.real.sum())
    return total


def rep_residual(phi: AlmostHom) -> float:
    """Worst multiplication-law residual in operator norm.

    Measured on the pairs the law check of :class:`UnitaryRep` uses (all of
    them when affordable, else the same 64 sampled pairs) by
    :func:`_worst_residual`.
    """
    dims = phi.algebra.dims
    pairs = _law_pairs(phi.group, dims)
    return _worst_residual(dims, len(pairs[0]), _law_residuals(phi.stacks, pairs))


def _worst_residual(dims, count: int, residuals) -> float:
    """The largest operator norm over the residuals of ``count`` terms.

    ``residuals(b, sel)`` yields one stacked ``(k, n, n)`` residual array of
    the terms ``sel`` in block ``b``.  A residual's Frobenius norm bounds its
    operator norm from above, and over sqrt(n) from below, so operator norms
    are taken in descending Frobenius order until no Frobenius norm left
    exceeds the largest operator norm found (shrunk by ``_SCREEN_MARGIN`` for
    the rounding in both).  Only the c terms above the top term's lower
    bound can beat it: the first batch takes the top sqrt(c) of them, and
    each later batch every term still above the largest norm found, at most
    ``_STACK_ENTRIES`` entries a batch.  So, below that cap, a block takes
    at most two batches whether few of its terms need an operator norm or
    all of them.  The result is the maximum over every term, bit for bit.
    """
    worst = 0.0
    for b, n in enumerate(dims):
        sq = np.empty(count)
        for _, sl in _chunks((n,), count):
            sq[sl] = _frobenius_sq(next(residuals(b, sl)))
        order = np.argsort(-sq, kind="stable")
        cap = max(1, _STACK_ENTRIES // (n * n))
        above = int(np.count_nonzero(sq > sq.max(initial=0.0) / n))
        start, step = 0, min(cap, max(1, math.isqrt(above)))
        while start < count:
            sel = order[start : start + step]
            sel = sel[sq[sel] > (worst * _SCREEN_MARGIN) ** 2]
            if not sel.size:
                break
            worst = max(worst, float(_operator_norms(next(residuals(b, sel))).max()))
            start += step
            step = min(cap, int(np.count_nonzero(sq[order[start:]] > (worst * _SCREEN_MARGIN) ** 2)))
    return worst


# -- defect, conditional expectation, commutator gap ---------------------------


def _measure_weights(group, mu):
    """Element indices and float weights of a measure; uniform for None."""
    if mu is None:
        return np.arange(group.order), np.full(group.order, 1.0 / group.order)
    items = list(mu.items_nonzero())
    return (
        np.array([group.index(g) for g, _ in items], dtype=np.intp),
        np.array([float(w) for _, w in items]),
    )


def defect(phi: AlmostHom, mu=None, nu=None) -> float:
    """Mean squared 2-norm multiplication defect of phi.

    Averages ||phi(gh) - phi(g)phi(h)||_2^2 with g ~ mu and h ~ nu; both
    default to the uniform distribution on the group.

    Two paths give the same number.  With uniform weights, the Fourier
    blocks F_rho = n^-1 sum_v phi(v) (x) conj(rho(v)) over the group's
    irreps (``irrep_stacks()``) and Schur orthogonality give
    the defect exactly, without assuming phi unitary, as

        E_g ||phi(g)||_2^2 + tau(A B) - 2 Re sum_rho d_rho (tau (x) Tr)(F_rho^2 F_rho*)

    with A = E_g phi(g)* phi(g) and B = E_h phi(h) phi(h)* (see
    :func:`_fourier_defect`): one product per irrep family instead of |G|^2
    law residuals.  Its terms cancel to an absolute error of about
    5e-15 tau(1), so it is returned only at or above
    ``_FOURIER_DEFECT_FLOOR`` tau(1).  Below that floor and for weighted
    measures the defect is the pairwise sum of the law residuals over the
    grid supp(mu) x supp(nu), from the grid kernel ``_law_sq``: per chunk
    of rows and columns, phi(g) [phi(h)]_h is one (k m x m) @ (m x c m)
    product, from which the gathered phi(gh) is subtracted.

    Raises :class:`ResourceCap` before any work when the supports hold more
    than ``ROUNDING_DIM_CAP`` squared pairs, so uniformly on a group of order
    above ``ROUNDING_DIM_CAP``.
    """
    if mu is None and nu is None:
        _check_defect_pairs(phi.group.order, phi.group.order)
        families = phi.group.irrep_stacks()
        cubes = [sum(_fourier_blocks(fam, s)[2] for fam in families) for s in phi.stacks]
        eps = _fourier_defect(phi, cubes)
        if eps is not None:
            return eps
    return _pairwise_defect(phi, mu, nu)


# The uniform defect read off the Fourier blocks is used only at or above this
# multiple of tau(1).  Its three terms cancel to an absolute error of about
# 5e-15 tau(1), so the values it keeps are good to a relative 5e-11; smaller
# defects (exact inputs give about 1e-29 pairwise) take the pairwise sum.
_FOURIER_DEFECT_FLOOR = 1e-4


def _fourier_blocks(fam: np.ndarray, stack: np.ndarray) -> tuple:
    """The Fourier blocks of one base block at one family of irreps.

    ``fam`` holds k irreps rho of dimension d as a (k, n, d, d) stack and
    ``stack`` the (n, m, m) images of phi.  Returns the (k, m d, m d) stack
    of F_rho = n^-1 sum_v phi(v) (x) conj(rho(v)) in row-major (Kronecker)
    coordinates, its Gram stack F_rho F_rho*, and the family's share
    sum_rho d Tr(F_rho^2 F_rho*) = d sum_rho Tr(F_rho (F_rho F_rho*)) of the
    defect's cross term, read off the Gram stack without another product.
    """
    k, n, d, _ = fam.shape
    m = stack.shape[-1]
    fhat = np.conj(fam).transpose(0, 2, 3, 1).reshape(k * d * d, n) @ stack.reshape(n, m * m)
    fhat = fhat.reshape(k, d, d, m, m).transpose(0, 3, 1, 4, 2)
    fhat = fhat.reshape(k, m * d, m * d) / n
    gram = fhat @ fhat.conj().transpose(0, 2, 1)
    return fhat, gram, d * complex(np.einsum("kxy,kyx->", fhat, gram))


def _fourier_defect(phi: AlmostHom, cubes) -> float | None:
    """The uniform defect of phi by the three-term identity of :func:`defect`,
    or None when it falls below ``_FOURIER_DEFECT_FLOOR`` tau(1).

    ``cubes[b]`` is sum_rho d_rho Tr(F_rho^2 F_rho*) over every irrep, for
    base block b (the third value of :func:`_fourier_blocks`, summed over the
    families).  Schur orthogonality turns it into
    E_{g,h} tr(phi(gh)* phi(g) phi(h)); the first two terms are
    E_g ||phi(g)||_2^2 and E_{g,h} ||phi(g) phi(h)||_2^2 = tau(A B).
    """
    total = 0.0
    for c, s, cube in zip(phi.algebra.coeffs, phi.stacks, cubes):
        n, m, _ = s.shape
        rows = s.reshape(n * m, m)
        a = rows.conj().T @ rows  # n A
        cols = s.transpose(1, 0, 2).reshape(m, n * m)
        b = cols @ cols.conj().T  # n B
        norms = np.vdot(s, s).real / n
        total += c * (norms + np.einsum("ij,ji->", a, b).real / (n * n) - 2.0 * cube.real)
    return float(total) if total >= _FOURIER_DEFECT_FLOOR * phi.algebra.tau_one else None


def _check_defect_pairs(left: int, right: int):
    """Refuse a defect over more than ``ROUNDING_DIM_CAP`` squared pairs
    (g, h) before any irrep or law residual is formed."""
    if left * right > ROUNDING_DIM_CAP**2:
        raise ResourceCap(
            f"defect over {left} x {right} pairs exceeds the cap {ROUNDING_DIM_CAP} squared"
        )


def _pairwise_defect(phi: AlmostHom, mu=None, nu=None) -> float:
    """:func:`defect` as the (mu x nu)-weighted sum of the law residuals of
    every pair in the supports."""
    gi, gw = _measure_weights(phi.group, mu)
    hi, hw = _measure_weights(phi.group, nu)
    _check_defect_pairs(len(gi), len(hi))
    return float(np.outer(gw, hw).ravel() @ _law_sq(phi, gi, hi).ravel())


def _commutant_mean(stacks, xs) -> tuple:
    """E(x) = E_g u(g) x u(g)* for every x of one ``(k, n, n)`` stack per block.

    ``stacks`` holds the representation's image stacks.  Per block, the
    products (u(g) x) u(g)* of a chunk of group elements and every x are one
    broadcast ``matmul``, each temporary at most ``_STACK_ENTRIES`` entries
    (and one group element); they are added in group order to a running sum,
    which is scaled by 1/|G| at the end.
    """
    out = []
    for u, x in zip(stacks, xs):
        count = len(u)
        step = max(1, _STACK_ENTRIES // max(1, x.size))
        # slot 0 holds the running sum, so one reduction adds a chunk in order
        acc = np.zeros((min(step, count) + 1, *x.shape), dtype=complex)
        for start in range(0, count, step):
            ug = u[start : start + step]
            prods = acc[1 : len(ug) + 1]
            np.matmul(ug[:, None] @ x[None], ug.conj().transpose(0, 2, 1)[:, None], out=prods)
            acc[0] = acc[: len(ug) + 1].sum(axis=0)
        out.append(acc[0] * (1.0 / count))
    return tuple(out)


def conditional_expectation_commutant(
    u: UnitaryRep, v: AlgebraElement
) -> AlgebraElement:
    """Average of u(g) v u(g)*: the trace-preserving projection onto the
    commutant of the representation."""
    ev = _commutant_mean(u.stacks, [b[None] for b in v.blocks])
    return AlgebraElement(u.algebra, [s[0] for s in ev])


GapCheck = namedtuple("GapCheck", ["lhs", "rhs_half", "rhs_full", "uniform_average"])


def commutator_gap_check(u: UnitaryRep, mu, v: AlgebraElement) -> GapCheck:
    """Distance to the commutant against the measured commutators.

    Returns (lhs, rhs_half, rhs_full, uniform_average) where

        lhs             = ||v - E(v)||_2^2            (E onto the commutant)
        rhs_half        = (kappa(mu)/2) * integral ||[u(g), v]||_2^2 dmu(g)
        rhs_full        = kappa(mu)   * the same integral
        uniform_average = E_g ||[u(g), v]||_2^2 over the whole group.

    Callers assert lhs <= rhs_half and uniform_average <= rhs_full; the
    identity uniform_average = 2 * lhs is exact.
    """
    from . import spectral  # deferred to avoid an import cycle

    alg = u.algebra
    ev = conditional_expectation_commutant(u, v)
    lhs = alg.norm2(v - ev) ** 2
    report = spectral.kappa(u.group, mu)
    kap = float(report.kappa)
    comm_sq = sum(
        c * _frobenius_sq(s @ b - b @ s) for c, s, b in zip(alg.coeffs, u.stacks, v.blocks)
    )
    idx, weights = _measure_weights(u.group, mu)
    integral = float(weights @ comm_sq[idx])
    return GapCheck(lhs, kap / 2.0 * integral, kap * integral, float(comm_sq.mean()))


# -- the commutant's block structure -------------------------------------------


def unitary_polar_factor(b: np.ndarray) -> np.ndarray:
    """Nearest unitary matrix: U Vh from the SVD (defined for any square b,
    and matrix by matrix for a stack of them)."""
    u, _, vh = np.linalg.svd(b)
    return u @ vh


class CommutantDecomposition:
    """Block structure of N = M  intersect  {u(g)}' for a representation u.

    ``components`` holds one ``(block, W, m, d)`` per irrep rho occurring m
    times in a block, W an isometry with u(g) W = W (1_m (x) rho(g)) on whose
    range N acts as M_m (x) 1_d, and ``irreps`` each rho as a ``(family,
    index)`` pair into ``group.irrep_stacks()``.  ``algebra_n`` is N as a
    tracial algebra, with ``compress``/``lift`` moving stacks of elements
    between the two pictures.
    """

    def __init__(self, ambient: TracialAlgebra, components, irreps):
        self.ambient = ambient
        self.components = components  # list of (block_index, W, m, d)
        self.irreps = irreps  # list of (family, index), one per component
        dims = [m for (_, _, m, _) in components]
        coeffs = [ambient.coeffs[bi] * d for (bi, _, _, d) in components]
        self.algebra_n = TracialAlgebra._raw(dims, coeffs)

    def compress(self, xs) -> tuple:
        """Coordinates in the commutant: one ``(k, m, m)`` stack per
        component from one ``(k, n, n)`` stack per ambient block.  The partial
        trace over 1_d is a trace over the two d axes of W* x W read as
        ``(k, m, d, m, d)``.  Any x is accepted: because the components'
        columns fill each block (sum m d = n, checked when built),
        compress(x) = compress(E(x)) for E the conditional expectation onto
        N, and lift(compress(x)) = E(x)."""
        out = []
        for bi, w, m, d in self.components:
            b = w.conj().T @ xs[bi] @ w
            out.append(np.trace(b.reshape(-1, m, d, m, d), axis1=2, axis2=4) / d)
        return tuple(out)

    def lift(self, ys) -> tuple:
        """The inverse of :meth:`compress`: one ``(k, n, n)`` stack per
        ambient block from one ``(k, m, m)`` stack per component."""
        k = len(ys[0])
        mats = [np.zeros((k, n, n), complex) for n in self.ambient.dims]
        for (bi, w, m, d), a in zip(self.components, ys):
            mats[bi] += w @ np.kron(a, np.eye(d)) @ w.conj().T
        return tuple(mats)


# commutant_blocks accepts a basis whose isometry and intertwining residuals
# are at most this in operator norm
_COMMUTANT_TOL = 1e-8


def commutant_blocks(rep: UnitaryRep) -> CommutantDecomposition:
    """Diagonalize the commutant of a representation into matrix blocks,
    read off the group's irreps (``irrep_stacks()``) without random numbers.

    For an irrep rho of dimension d, E_ij = (d/|G|) sum_g conj(rho(g)_ij) u(g)
    are matrix units on each block: rho occurs m = round(tr E_11) times, and
    with V_1 the top m eigenvectors of E_11 and V_i = E_i1 V_1 (one product
    per family and block), W = [V_1 ... V_d] in (copy, irrep index) column
    order has u(g) W = W (1_m (x) rho(g)).  Each block must have sum m d = n,
    and ||W* W - 1|| and every ||u(g) W - W D(g)||, D(g) the direct sum of
    the 1_m (x) rho(g), at most ``_COMMUTANT_TOL`` in operator norm, or
    :class:`DegenerateDecomposition` is raised; by Schur's lemma compress and
    lift are then inverse on the commutant.  A group above
    ``ROUNDING_DIM_CAP`` raises :class:`ResourceCap` before any irrep is built.
    """
    group, alg = rep.group, rep.algebra
    order, dims = group.order, list(alg.dims)
    if order > ROUNDING_DIM_CAP:
        raise ResourceCap(f"group order {order} exceeds the cap {ROUNDING_DIM_CAP}")
    families = group.irrep_stacks()
    components, irreps = [], []
    for bi, (n, stack) in enumerate(zip(dims, rep.stacks)):
        for f, fam in enumerate(families):
            d = fam.shape[-1]
            # E_i1 of the family's irreps as one (k, d, n, n) array
            col = fam[:, :, :, 0].conj().transpose(0, 2, 1).reshape(-1, order)
            pieces = (col @ stack.reshape(order, n * n)).reshape(len(fam), d, n, n) * (d / order)
            for q, e in enumerate(pieces):
                m = round(float(np.trace(e[0]).real))
                if m > 0:
                    v1 = np.linalg.eigh(e[0])[1][:, n - m :]
                    components.append((bi, (e @ v1).transpose(1, 2, 0).reshape(n, m * d), m, d))
                    irreps.append((f, q))
    filled = [sum(m * d for b, _, m, d in components if b == bi) for bi in range(len(dims))]
    if filled != dims:
        raise DegenerateDecomposition(f"irrep multiplicities fill {filled} of the blocks {dims}")
    bases = [np.hstack([w for b, w, _, _ in components if b == bi]) for bi in range(len(dims))]

    def intertwining(b, sel):
        """u(g) W_b - W_b D(g) for the elements ``sel``; W_b D(g) is one
        slab of m d columns per component, W (1_m (x) rho(g))."""
        us = rep.stacks[b][sel]
        slabs = [
            np.einsum("xci,gij->gxcj", w.reshape(-1, m, d), families[f][q][sel])
            for (bi, w, m, d), (f, q) in zip(components, irreps)
            if bi == b
        ]
        yield us @ bases[b] - np.concatenate([x.reshape(*us.shape[:2], -1) for x in slabs], axis=2)

    _, norms, _ = _exact_residuals(dims, order, intertwining, _COMMUTANT_TOL)
    isometry = [np.linalg.norm(w.conj().T @ w - np.eye(len(w)), 2) for w in bases]
    worst = max(isometry + [float(norms.max(initial=0.0))])
    if worst > _COMMUTANT_TOL:
        raise DegenerateDecomposition(
            f"commutant basis residual {worst:.3g} above {_COMMUTANT_TOL:g}"
        )
    return CommutantDecomposition(alg, components, irreps)


def nearest_unitary_in_commutant(rep: UnitaryRep, v: AlgebraElement) -> AlgebraElement:
    """The unitary in the commutant closest to v in the 2-norm.

    Lifts back the polar factors of v compressed into the blocks of
    :func:`commutant_blocks` (read off the group's irreps), which is E(v)
    compressed: E, the conditional expectation, is not formed.  The output
    satisfies ||v - out||_2 <= sqrt(2) * ||v - E(v)||_2, and sqrt(2) cannot
    be improved.
    """
    decomposition = commutant_blocks(rep)
    u = [unitary_polar_factor(y) for y in decomposition.compress([b[None] for b in v.blocks])]
    return AlgebraElement(rep.algebra, [s[0] for s in decomposition.lift(u)])
