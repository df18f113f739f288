"""Finite-dimensional tracial von Neumann algebras.

An algebra here is a finite direct sum of matrix blocks M_{n_1} (+) ... (+)
M_{n_r} carrying the weighted trace

    tau(x) = sum_i  lambda_i * tr_{n_i}(x_i),      tr normalized, sum lambda_i = 1.

The 2-norm is ||x||_2 = sqrt(tau(x* x)).  Amplified copies (x -> x tensor e_11
inside M tensor M_k) keep the same trace functional on the image of the unit,
so the trace of the ambient identity grows to k; this is deliberate and lets
projections carry trace larger than 1.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction

import numpy as np

from .errors import (
    DegenerateDecomposition,
    InvalidArgument,
    InvalidPVM,
    InvalidRepresentation,
)

VALIDATION_TOL = 1e-9
KERNEL_TOL = 1e-12


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
    def nblocks(self) -> int:
        return len(self.dims)

    @property
    def weights(self):
        return tuple(c * n for c, n in zip(self.coeffs, self.dims))

    @property
    def total_dim(self) -> int:
        return sum(self.dims)

    def compatible(self, other: "TracialAlgebra") -> bool:
        return (
            self.dims == other.dims
            and all(abs(a - b) < 1e-12 for a, b in zip(self.coeffs, other.coeffs))
        )

    # -- element constructors ------------------------------------------------

    def element(self, blocks) -> "AlgebraElement":
        mats = []
        for n, b in zip(self.dims, blocks, strict=True):
            b = np.array(b, dtype=complex)
            if b.shape != (n, n):
                raise InvalidArgument(f"block shape {b.shape}, expected ({n},{n})")
            mats.append(b)
        return AlgebraElement(self, mats)

    def identity(self) -> "AlgebraElement":
        return AlgebraElement(self, [np.eye(n, dtype=complex) for n in self.dims])

    def zero(self) -> "AlgebraElement":
        return AlgebraElement(self, [np.zeros((n, n), complex) for n in self.dims])

    def diagonal(self, entries) -> "AlgebraElement":
        """Block-diagonal element from a flat list of diagonal entries."""
        entries = np.asarray(entries, dtype=complex)
        if entries.shape != (self.total_dim,):
            raise InvalidArgument("diagonal length does not match the algebra")
        mats, k = [], 0
        for n in self.dims:
            mats.append(np.diag(entries[k : k + n]))
            k += n
        return AlgebraElement(self, mats)

    def random_selfadjoint(self, rng: np.random.Generator) -> "AlgebraElement":
        mats = []
        for n in self.dims:
            a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            mats.append((a + a.conj().T) / 2)
        return AlgebraElement(self, mats)

    def random_unitary(self, rng: np.random.Generator) -> "AlgebraElement":
        return AlgebraElement(self, [haar_unitary(n, rng) for n in self.dims])

    # -- trace and norms -----------------------------------------------------

    def tau(self, x: "AlgebraElement") -> complex:
        return sum(c * np.trace(b) for c, b in zip(self.coeffs, x.blocks))

    def inner(self, x: "AlgebraElement", y: "AlgebraElement") -> complex:
        """tau(x* y)."""
        return sum(
            c * np.sum(bx.conj() * by)
            for c, bx, by in zip(self.coeffs, x.blocks, y.blocks)
        )

    def norm2(self, x: "AlgebraElement") -> float:
        s = sum(
            c * np.sum(np.abs(b) ** 2) for c, b in zip(self.coeffs, x.blocks)
        )
        return float(np.sqrt(max(s, 0.0)))

    def norm_inf(self, x: "AlgebraElement") -> float:
        return max(np.linalg.norm(b, 2) if b.size else 0.0 for b in x.blocks)

    def norm1(self, x: "AlgebraElement") -> float:
        return float(
            sum(
                c * np.sum(np.linalg.svd(b, compute_uv=False))
                for c, b in zip(self.coeffs, x.blocks)
            )
        )

    def norm(self, x: "AlgebraElement", q) -> float:
        if q == 2:
            return self.norm2(x)
        if q == 1:
            return self.norm1(x)
        if q in ("inf", np.inf):
            return self.norm_inf(x)
        raise InvalidArgument(f"unsupported norm index {q!r}; use 1, 2 or 'inf'")

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

    def is_close_to(self, other, tol=1e-9) -> bool:
        self._check(other)
        return all(
            np.max(np.abs(a - b)) <= tol if a.size else True
            for a, b in zip(self.blocks, other.blocks)
        )

    def __repr__(self):
        return f"AlgebraElement({self.algebra!r})"


def haar_unitary(n: int, rng: np.random.Generator) -> np.ndarray:
    a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    q, r = np.linalg.qr(a)
    d = np.diagonal(r)
    return q * (d / np.abs(d))


# -- projective valued measures and representations ---------------------------


# Validation compares operator-norm residuals with a tolerance.  The families
# are screened in stacked arrays first: a residual passes when its Frobenius
# norm, an upper bound for the operator norm, is within the tolerance shrunk by
# _SCREEN_MARGIN, which absorbs the rounding in the two computed norms.  Only
# residuals that fail the screen get an exact operator norm (an SVD), so the
# accept/reject decision is that of the exact check.
_SCREEN_MARGIN = 1.0 - 1e-6
# Most complex entries one stacked temporary holds (4 MB): a 512 x 512 block.
_STACK_ENTRIES = 1 << 18


def _frobenius_sq(stack: np.ndarray) -> np.ndarray:
    """Squared Frobenius norm of each matrix in a complex (m, n, n) stack."""
    flat = stack.reshape(len(stack), -1).view(np.float64)
    return np.einsum("ij,ij->i", flat, flat)


def _screen_failures(dims, count: int, residuals, tol: float) -> np.ndarray:
    """Indices of the terms whose residual may exceed ``tol`` in operator norm.

    ``residuals(b, start, stop)`` yields, for block ``b``, stacked
    ``(stop - start, n, n)`` residual arrays of the terms ``start..stop-1``
    (one array per checked identity).  A term passes when every one of its
    residual blocks passes the Frobenius screen; the indices of the others
    come back in increasing order and need the exact check.  Terms go
    through in chunks of at most ``_STACK_ENTRIES`` entries per stacked array.
    """
    limit = (tol * _SCREEN_MARGIN) ** 2 if tol >= 0 else -1.0
    failed = np.zeros(count, dtype=bool)
    for b, n in enumerate(dims):
        step = max(1, _STACK_ENTRIES // max(1, n * n))
        for start in range(0, count, step):
            stop = min(start + step, count)
            for r in residuals(b, start, stop):
                failed[start:stop] |= ~(_frobenius_sq(r) <= limit)
    return np.flatnonzero(failed)


class PVM:
    """A projection valued measure: projections summing to a unit.

    ``outcomes`` is the list of labels; ``unit`` defaults to the algebra
    identity but may be any projection (for measures living in a corner).

    Validation: every projection is self-adjoint and idempotent, the
    projections sum to ``unit`` and distinct projections multiply to zero,
    each up to an operator-norm residual of at most ``tol``.  The residuals
    are screened by their Frobenius norms in stacked arrays and computed
    exactly only where the screen fails; a failure raises :class:`InvalidPVM`
    with the exact operator-norm residual.
    """

    def __init__(self, algebra, outcomes, projections, unit=None, tol=VALIDATION_TOL):
        outcomes = list(outcomes)
        projections = list(projections)
        if len(outcomes) != len(projections):
            raise InvalidPVM("outcome/projection count mismatch")
        if len(set(outcomes)) != len(outcomes):
            raise InvalidPVM("duplicate outcome labels")
        self.algebra = algebra
        self.outcomes = outcomes
        self.projections = projections
        self.unit = unit if unit is not None else algebra.identity()
        self._by_outcome = dict(zip(outcomes, projections))
        blocks = [[p.blocks[b] for p in projections] for b in range(algebra.nblocks)]

        def own(b, start, stop):
            p = np.stack(blocks[b][start:stop])
            yield p - p.conj().transpose(0, 2, 1)
            yield p @ p - p

        def completeness(b, start, stop):
            yield (sum(blocks[b]) - self.unit.blocks[b])[None]

        if (
            _screen_failures(algebra.dims, len(projections), own, tol).size
            or _screen_failures(algebra.dims, 1, completeness, tol).size
        ):
            worst = 0.0
            for p in projections:
                worst = max(worst, algebra.norm_inf(p - p.H))
                worst = max(worst, algebra.norm_inf(p * p - p))
            total = algebra.zero()
            for p in projections:
                total = total + p
            worst_sum = algebra.norm_inf(total - self.unit)
            if worst > tol or worst_sum > tol:
                raise InvalidPVM(
                    "projection family fails validation "
                    f"(projection residual {worst:.3g}, sum residual {worst_sum:.3g})",
                    residual=max(worst, worst_sum),
                )

        left, right = np.triu_indices(len(projections), 1)

        def products(b, start, stop):
            yield np.stack([blocks[b][i] for i in left[start:stop]]) @ np.stack(
                [blocks[b][j] for j in right[start:stop]]
            )

        for t in _screen_failures(algebra.dims, len(left), products, tol):
            i, j = left[t], right[t]
            r = algebra.norm_inf(projections[i] * projections[j])
            if r > tol:
                raise InvalidPVM(
                    f"projections for {outcomes[i]!r},{outcomes[j]!r} are not "
                    f"orthogonal (residual {r:.3g})",
                    residual=r,
                )

    def __getitem__(self, outcome) -> AlgebraElement:
        return self._by_outcome[outcome]

    def __len__(self):
        return len(self.outcomes)

    def conjugated(self, u: AlgebraElement) -> "PVM":
        """u . u* applied to every projection (u unitary)."""
        return PVM(
            self.algebra,
            self.outcomes,
            [u * p * u.H for p in self.projections],
            unit=u * self.unit * u.H,
        )


class AlmostHom:
    """A map from a finite group into unitaries, not assumed multiplicative.

    Validation: every image u satisfies ||u u* - 1|| <= tol and
    ||u* u - 1|| <= tol in operator norm, screened by Frobenius norms in
    stacked arrays and computed exactly only where the screen fails; a
    failure raises :class:`InvalidRepresentation` with the exact worst
    residual.
    """

    multiplicative = False

    def __init__(self, group, algebra, images: dict, tol=VALIDATION_TOL):
        self.group = group
        self.algebra = algebra
        self.images = dict(images)
        missing = [g for g in group.elements if g not in self.images]
        if missing:
            raise InvalidArgument(f"missing images for {len(missing)} elements")
        ident = algebra.identity()
        terms = list(self.images.values())

        def unitarity(b, start, stop):
            u = np.stack([x.blocks[b] for x in terms[start:stop]])
            uh = u.conj().transpose(0, 2, 1)
            yield u @ uh - ident.blocks[b]
            yield uh @ u - ident.blocks[b]

        worst = 0.0
        for t in _screen_failures(algebra.dims, len(terms), unitarity, tol):
            u = terms[t]
            worst = max(worst, algebra.norm_inf(u * u.H - ident))
            worst = max(worst, algebra.norm_inf(u.H * u - ident))
        if worst > tol:
            raise InvalidRepresentation(
                f"images are not unitary (residual {worst:.3g})", residual=worst
            )

    def __call__(self, g) -> AlgebraElement:
        return self.images[g]


class UnitaryRep(AlmostHom):
    """A unitary representation; the multiplication law is validated.

    The check is exhaustive when |G|^2 matrix products are affordable and a
    random spot check otherwise.  Residuals ||u(gh) - u(g)u(h)|| are screened
    like the unitarity residuals of :class:`AlmostHom`.
    """

    multiplicative = True

    def __init__(self, group, algebra, images, tol=VALIDATION_TOL, check="auto"):
        super().__init__(group, algebra, images, tol=tol)
        if check == "none":
            return
        n = group.order
        cost = n * n * sum(d**3 for d in algebra.dims)
        if check == "full" or (check == "auto" and cost <= 2e8):
            pairs = [(g, h) for g in group.elements for h in group.elements]
        else:
            rng = np.random.default_rng(0)
            pairs = [
                (
                    group.elements[rng.integers(n)],
                    group.elements[rng.integers(n)],
                )
                for _ in range(64)
            ]
        products = [group.mul(g, h) for g, h in pairs]
        images = self.images

        def law(b, start, stop):
            chunk = range(start, stop)
            left = np.stack([images[pairs[t][0]].blocks[b] for t in chunk])
            right = np.stack([images[pairs[t][1]].blocks[b] for t in chunk])
            yield np.stack([images[products[t]].blocks[b] for t in chunk]) - left @ right

        worst = 0.0
        for t in _screen_failures(algebra.dims, len(pairs), law, tol):
            g, h = pairs[t]
            r = algebra.norm_inf(images[products[t]] - images[g] * images[h])
            worst = max(worst, r)
        if worst > tol:
            raise InvalidRepresentation(
                f"multiplication law fails (residual {worst:.3g})", residual=worst
            )


def rep_residual(phi: AlmostHom) -> float:
    """Worst-case multiplication-law residual in operator norm."""
    g_elems = phi.group.elements
    worst = 0.0
    for g in g_elems:
        for h in g_elems:
            worst = max(
                worst,
                phi.algebra.norm_inf(
                    phi.images[phi.group.mul(g, h)] - phi.images[g] * phi.images[h]
                ),
            )
    return worst


# -- amplification ------------------------------------------------------------


class Amplification:
    """M tensor M_k with the auxiliary factor first in each block.

    The trace coefficients are inherited from the base, so the embedded copy
    of M (x -> e_00 tensor x) is trace preserving and the ambient identity has
    trace k.
    """

    def __init__(self, base: TracialAlgebra, k: int):
        if k <= 0:
            raise InvalidArgument("amplification factor must be positive")
        self.base = base
        self.k = k
        self.algebra = TracialAlgebra._raw(
            [n * k for n in base.dims], base.coeffs
        )

    def embed(self, x: AlgebraElement, slot: int = 0) -> AlgebraElement:
        if not self.base.compatible(x.algebra):
            raise InvalidArgument("element does not belong to the base algebra")
        mats = []
        for n, b in zip(self.base.dims, x.blocks):
            m = np.zeros((n * self.k, n * self.k), dtype=complex)
            m[slot * n : (slot + 1) * n, slot * n : (slot + 1) * n] = b
            mats.append(m)
        return AlgebraElement(self.algebra, mats)

    def unit(self, slot: int = 0) -> AlgebraElement:
        return self.embed(self.base.identity(), slot=slot)


def amplify(base: TracialAlgebra, k: int) -> Amplification:
    return Amplification(base, k)


# -- corner compression --------------------------------------------------------


class CornerCompression:
    """Unital compression onto the corner p M p of a projection p.

    Stores one isometry per block (columns: an orthonormal basis of the range
    of p) and produces a TracialAlgebra for the corner that keeps the ambient
    trace coefficients, so tau is preserved by ``lift``.
    """

    def __init__(self, ambient: TracialAlgebra, p: AlgebraElement, tol=1e-9):
        self.ambient = ambient
        isoms = []
        dims = []
        for n, b in zip(ambient.dims, p.blocks):
            if np.max(np.abs(b - b.conj().T)) > tol:
                raise InvalidArgument("corner projection is not self-adjoint")
            vals, vecs = np.linalg.eigh(b)
            if np.any((vals > tol) & (vals < 1 - tol)):
                raise InvalidArgument("corner element is not a projection")
            cols = vecs[:, vals > 0.5]
            isoms.append(cols)
            dims.append(cols.shape[1])
        if any(d == 0 for d in dims):
            raise InvalidArgument("corner projection vanishes on some block")
        self.isometries = isoms
        self.algebra = TracialAlgebra._raw(dims, ambient.coeffs)

    def compress(self, x: AlgebraElement) -> AlgebraElement:
        return AlgebraElement(
            self.algebra,
            [z.conj().T @ b @ z for z, b in zip(self.isometries, x.blocks)],
        )

    def lift(self, y: AlgebraElement) -> AlgebraElement:
        return AlgebraElement(
            self.ambient,
            [z @ b @ z.conj().T for z, b in zip(self.isometries, y.blocks)],
        )


# -- defect, conditional expectation, commutator gap ---------------------------


def defect(phi: AlmostHom, mu=None, nu=None) -> float:
    """Mean squared 2-norm multiplication defect of phi.

    Averages ||phi(gh) - phi(g)phi(h)||_2^2 with g ~ mu and h ~ nu; both
    default to the uniform distribution on the group.
    """
    group, alg = phi.group, phi.algebra

    def pairs():
        if mu is None:
            gs = [(g, 1.0 / group.order) for g in group.elements]
        else:
            gs = [(g, float(w)) for g, w in mu.items_nonzero()]
        if nu is None:
            hs = [(h, 1.0 / group.order) for h in group.elements]
        else:
            hs = [(h, float(w)) for h, w in nu.items_nonzero()]
        for g, wg in gs:
            for h, wh in hs:
                yield g, h, wg * wh

    total = 0.0
    for g, h, w in pairs():
        d = phi.images[group.mul(g, h)] - phi.images[g] * phi.images[h]
        total += w * alg.norm2(d) ** 2
    return total


def conditional_expectation_commutant(
    u: UnitaryRep, v: AlgebraElement
) -> AlgebraElement:
    """Average of u(g) v u(g)*: the trace-preserving projection onto the
    commutant of the representation."""
    alg = u.algebra
    acc = alg.zero()
    for g in u.group.elements:
        acc = acc + u.images[g] * v * u.images[g].H
    return (1.0 / u.group.order) * acc

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
    integral = 0.0
    for g, w in mu.items_nonzero():
        c = u.images[g] * v - v * u.images[g]
        integral += float(w) * alg.norm2(c) ** 2
    uniform = 0.0
    for g in u.group.elements:
        c = u.images[g] * v - v * u.images[g]
        uniform += alg.norm2(c) ** 2
    uniform /= u.group.order
    return GapCheck(lhs, kap / 2.0 * integral, kap * integral, uniform)


# -- polar decomposition and the commutant's block structure -------------------


def polar(x: AlgebraElement, kernel_tol: float = KERNEL_TOL):
    """x = w |x| with w the partial isometry vanishing on the kernel.

    Singular values at or below ``kernel_tol`` are treated as zero, so w* w is
    the support projection of |x| = (x* x)^(1/2).
    """
    ws, abss = [], []
    for b in x.blocks:
        u, s, vh = np.linalg.svd(b)
        keep = s > kernel_tol
        ws.append(u[:, keep] @ vh[keep, :])
        abss.append((vh.conj().T * s) @ vh)
    return (
        AlgebraElement(x.algebra, ws),
        AlgebraElement(x.algebra, abss),
    )


def unitary_polar_factor(b: np.ndarray) -> np.ndarray:
    """Nearest unitary matrix: U Vh from the SVD (defined for any square b)."""
    u, _, vh = np.linalg.svd(b)
    return u @ vh


class CommutantDecomposition:
    """Block structure of N = M  intersect  {u(g)}' for a representation u.

    Every block of M splits into components; on each component the commutant
    acts as M_m tensor 1_d after the stored basis change (an isometry with
    m*d columns, grouped d at a time).  ``algebra_n`` is the commutant as a
    tracial algebra in its own right, with ``compress``/``lift`` moving
    elements between the two pictures.
    """

    def __init__(self, rep: UnitaryRep, components, tol=1e-8):
        self.rep = rep
        self.ambient = rep.algebra
        self.components = components  # list of (block_index, W, m, d)
        dims = [m for (_, _, m, _) in components]
        coeffs = [
            self.ambient.coeffs[bi] * d for (bi, _, _, d) in components
        ]
        self.algebra_n = TracialAlgebra._raw(dims, coeffs)
        self.tol = tol

    def compress(self, x: AlgebraElement) -> AlgebraElement:
        """Coordinates of an element of the commutant (x must lie in N)."""
        out = []
        for bi, w, m, d in self.components:
            b = w.conj().T @ x.blocks[bi] @ w
            a = np.empty((m, m), dtype=complex)
            for s in range(m):
                for t in range(m):
                    a[s, t] = np.trace(b[s * d : (s + 1) * d, t * d : (t + 1) * d]) / d
            out.append(a)
        return AlgebraElement(self.algebra_n, out)

    def lift(self, y: AlgebraElement) -> AlgebraElement:
        mats = [np.zeros((n, n), complex) for n in self.ambient.dims]
        for (bi, w, m, d), a in zip(self.components, y.blocks):
            mats[bi] += w @ np.kron(a, np.eye(d)) @ w.conj().T
        return AlgebraElement(self.ambient, mats)

    def scalar_block_residual(self, x: AlgebraElement) -> float:
        """How far x is from having the m x m (scalar tensor identity) form."""
        return self.ambient.norm_inf(self.lift(self.compress(x)) - x)


def commutant_blocks(
    rep: UnitaryRep, rng=None, max_tries: int = 8, tol: float = 1e-8
) -> CommutantDecomposition:
    """Diagonalize the commutant of a representation into matrix blocks.

    Uses a generic self-adjoint element of the commutant (a conditional
    expectation of a random self-adjoint); eigenvalue clusters give the
    columns, a second random element links clusters belonging to the same
    component and aligns their bases.  Degenerate random draws are retried
    with fresh randomness.
    """
    if rng is None:
        rng = np.random.default_rng(7)
    alg = rep.algebra
    # target commutant dimension per block from the character formula
    targets = []
    for bi in range(alg.nblocks):
        s = 0.0
        for g in rep.group.elements:
            s += abs(np.trace(rep.images[g].blocks[bi])) ** 2
        targets.append(round(s / rep.group.order))

    last_error = None
    for _ in range(max_tries):
        try:
            components = []
            t_el = conditional_expectation_commutant(
                rep, alg.random_selfadjoint(rng)
            )
            s_el = conditional_expectation_commutant(
                rep, alg.random_selfadjoint(rng)
            )
            for bi, n in enumerate(alg.dims):
                comps = _split_block(
                    t_el.blocks[bi], s_el.blocks[bi], n, targets[bi]
                )
                for w, m, d in comps:
                    components.append((bi, w, m, d))
            dec = CommutantDecomposition(rep, components, tol=tol)
            # validation: random commutant elements must be block-scalar
            for _ in range(3):
                x = conditional_expectation_commutant(
                    rep, alg.random_selfadjoint(rng)
                )
                r = dec.scalar_block_residual(x)
                if r > tol:
                    raise DegenerateDecomposition(
                        f"block-scalar residual {r:.3g} above {tol:g}"
                    )
            return dec
        except DegenerateDecomposition as exc:  # retry with fresh randomness
            last_error = exc
    raise DegenerateDecomposition(
        f"no valid decomposition after {max_tries} tries: {last_error}"
    )


def _split_block(t_mat, s_mat, n, target_dim):
    """Components of one ambient block from a generic pair (t, s) in N."""
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
        for j in range(i + 1, k):
            coupling = clusters[i].conj().T @ s_mat @ clusters[j]
            if np.max(np.abs(coupling)) > 1e-6:
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


def nearest_unitary_in_commutant(
    rep: UnitaryRep,
    v: AlgebraElement,
    decomposition: CommutantDecomposition | None = None,
    rng=None,
) -> AlgebraElement:
    """The unitary in the commutant closest to v in the 2-norm.

    Computes the conditional expectation onto the commutant and completes its
    polar partial isometry to a unitary inside each commutant block.  The
    output satisfies ||v - out||_2 <= sqrt(2) * ||v - E(v)||_2, and sqrt(2)
    cannot be improved.
    """
    if decomposition is None:
        decomposition = commutant_blocks(rep, rng=rng)
    ev = conditional_expectation_commutant(rep, v)
    y = decomposition.compress(ev)
    u = AlgebraElement(
        decomposition.algebra_n, [unitary_polar_factor(b) for b in y.blocks]
    )
    return decomposition.lift(u)


def norm_conditional_duality_check(u: UnitaryRep, xi: AlgebraElement):
    """The distance to the commutant equals a supremum of trace pairings.

    Returns (lhs, sup_found) where lhs = ||xi - E(xi)||_2 and sup_found is
    tau(xi * eta) for the maximizing eta (mean-zero under E, unit 2-norm).
    When xi lies in the commutant both values are 0 and no maximizer exists.
    """
    alg = u.algebra
    diff = xi - conditional_expectation_commutant(u, xi)
    lhs = alg.norm2(diff)
    if lhs < 1e-14:
        return lhs, 0.0
    eta = (1.0 / lhs) * diff.H
    return lhs, float(np.real(alg.tau(xi * eta)))
