"""Spectral gap constants for probability measures on finite groups.

kappa(mu) = 1/(1 - lambda_2), with lambda_2 the top eigenvalue of the
symmetrized averaging operator away from constants.  For abelian groups this
is a Fourier computation over characters; in general the regular
representation contains every irreducible, so its gap is the universal one.

Exactness: a ``ProbMeasure`` holds its weights as integer numerators over
one common denominator; the weights sum to 1 exactly when the numerators
sum to the denominator.  A measure given by ``Fraction`` weights is
validated once, when it is built.  A code's measure is built from the
integer counts of its support rows (``ProbMeasure._trusted``), whose
points are in range by construction, and its ``Fraction`` weights are
derived only when read.  On an abelian group of exponent at most 2 (every
Z2^r, so the measures of codes over F_2 and F_4) every character value is
+-1, and kappa and lambda_2 are exact ``Fraction``s computed from the
stored integers.  For any other exponent they are floats.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

import numpy as np

from .abelian import AbelianGroup
from .algebra import _measure_weights
from .errors import (
    InvalidArgument,
    NonGeneratingSupport,
    ResourceCap,
    SamplingFailure,
)
from .groups import FiniteGroup

GROUP_ORDER_CAP = 5040
_SAMPLE_TRIES = 32


class ProbMeasure:
    """Probability measure with exact rational weights.

    ``numerators`` holds the weights as integers over the common
    ``denominator`` (the lcm of the weights' denominators), in ``support``
    order; ``weights`` maps each support element to its positive
    ``Fraction``, in the same order.  ``ProbMeasure(group, weights)``
    validates its input and fixes all of them at once.  A measure built from
    counts (:meth:`_trusted`) stores the integers and its point array
    and builds ``support`` and ``weights`` on first read.
    """

    def __init__(self, group: FiniteGroup, weights: dict):
        self.group = group
        w = {}
        for g, p in weights.items():
            if g not in group:
                raise InvalidArgument(f"{g!r} is not an element of the group")
            if not isinstance(p, Fraction):
                p = Fraction(p)
            if p.numerator < 0:
                raise InvalidArgument(f"negative weight {p} at {g!r}")
            if p.numerator:
                w[g] = p
        denom = math.lcm(*(p.denominator for p in w.values()))
        nums = tuple(p.numerator * (denom // p.denominator) for p in w.values())
        if sum(nums) != denom:
            raise InvalidArgument(f"weights sum to {Fraction(sum(nums), denom)}, expected 1")
        self.weights = w
        self.support = tuple(w)
        self.denominator = denom
        self.numerators = nums

    @classmethod
    def _trusted(cls, group: AbelianGroup, points: np.ndarray, counts) -> "ProbMeasure":
        """The measure weighing each row of ``points`` by its count over the
        counts' total, for builders whose points are in range by construction.

        ``points`` is a distinct ``(s, rank)`` int64 array of elements of
        ``group`` and ``counts`` are s positive ints in the same order; neither
        is validated again.  ``support`` and ``weights`` are built from them
        on first read, in this order.
        """
        mu = cls.__new__(cls)
        mu.group = group
        mu._points = points
        g = math.gcd(*counts)
        mu.numerators = tuple(c // g for c in counts)
        mu.denominator = sum(counts) // g
        return mu

    @cached_property
    def support(self):
        return tuple(map(tuple, self._points.tolist()))

    @cached_property
    def weights(self):
        d = self.denominator
        return {g: Fraction(n, d) for g, n in zip(self.support, self.numerators)}

    @cached_property
    def _points(self) -> np.ndarray:
        """The support as an ``(s, rank)`` int64 array, for an abelian group's
        character phases."""
        return np.array(self.support, dtype=np.int64)

    @classmethod
    def uniform(cls, group: FiniteGroup) -> "ProbMeasure":
        p = Fraction(1, group.order)
        return cls(group, {g: p for g in group.elements})

    @classmethod
    def uniform_on(cls, group: FiniteGroup, support) -> "ProbMeasure":
        """Uniform on a multiset: each element weighs its multiplicity over
        the multiset's size."""
        counts = Counter(support)
        size = sum(counts.values())
        return cls(group, {g: Fraction(c, size) for g, c in counts.items()})

    @classmethod
    def delta(cls, group: FiniteGroup, g) -> "ProbMeasure":
        return cls(group, {g: Fraction(1)})

    def __call__(self, g) -> Fraction:
        return self.weights.get(g, Fraction(0))

    def items_nonzero(self):
        return self.weights.items()

    def symmetrized(self) -> "ProbMeasure":
        w = {}
        half = Fraction(1, 2)
        for g, p in self.weights.items():
            w[g] = w.get(g, 0) + half * p
            gi = self.group.inv(g)
            w[gi] = w.get(gi, 0) + half * p
        return ProbMeasure(self.group, w)

    def convolve(self, other: "ProbMeasure") -> "ProbMeasure":
        """Distribution of gh with g ~ self and h ~ other, exact weights."""
        if other.group is not self.group and other.group.elements != self.group.elements:
            raise InvalidArgument("convolution needs measures on the same group")
        w = {}
        for g, p in self.weights.items():
            for h, q in other.weights.items():
                gh = self.group.mul(g, h)
                w[gh] = w.get(gh, 0) + p * q
        return ProbMeasure(self.group, w)

    def generates(self) -> bool:
        """Whether the support generates the group.

        On an abelian group this is the annihilator test: by duality the
        support generates G exactly when no nontrivial character is 1 on all
        of it, decided exactly on integer character phases.  On any other
        group it is a breadth-first saturation of the support (plus
        inverses).
        """
        if isinstance(self.group, AbelianGroup):
            chunks = self.group._phase_chunks(self._points, 1)
            return all(ph.any(axis=1).all() for _, ph in chunks)
        seen = {self.group.identity}
        frontier = list(seen)
        gens = set(self.support) | {self.group.inv(g) for g in self.support}
        while frontier:
            nxt = []
            for h in frontier:
                for g in gens:
                    gh = self.group.mul(g, h)
                    if gh not in seen:
                        seen.add(gh)
                        nxt.append(gh)
            frontier = nxt
        return len(seen) == self.group.order

    def fourier(self, chi) -> complex:
        """mu-hat(chi) = sum_g mu(g) chi(g) for an abelian group's character."""
        group = self.group
        if not isinstance(group, AbelianGroup):
            raise InvalidArgument("Fourier transform needs an abelian group")
        if group.exponent <= 2:
            return sum(p * group.pairing(chi, g) for g, p in self.weights.items())
        return complex(
            sum(p * group.pairing(chi, g) for g, p in self.weights.items())
        )

    def to_jsonable(self) -> dict:
        return {" ".join(map(str, g)) if isinstance(g, tuple) else str(g): str(p)
                for g, p in self.weights.items()}

    def __repr__(self):
        return f"ProbMeasure(|supp|={len(self.weights)} on {self.group!r})"


@dataclass
class GapReport:
    kappa: object  # Fraction when exact, float otherwise, math.inf allowed
    second_eigenvalue: object
    method: str

    def __post_init__(self):
        if self.kappa < 0:
            raise InvalidArgument("kappa must be nonnegative")


_NON_GENERATING = "support does not generate the group; kappa is not defined"


def _require_generating(mu: ProbMeasure):
    if not mu.generates():
        raise NonGeneratingSupport(_NON_GENERATING)


def kappa_abelian(group: AbelianGroup, mu: ProbMeasure) -> GapReport:
    """Gap constant via characters: kappa = max_{chi != 1} 1/(1 - Re mu-hat).

    One pass over integer character phases (``AbelianGroup._phase_chunks``)
    both checks generation (the annihilator test: no nontrivial character
    may be 1 on the whole support) and takes the maximum.  At exponent at
    most 2, mu-hat(chi) = (L - 2 ph @ n) / L with the measure's integer
    ``numerators`` n over its common ``denominator`` L, so kappa and
    lambda_2 are exact ``Fraction``s (int64 while L < 2^63, Python ints
    beyond).  For other exponents Re mu-hat = cos(2 pi ph / e) @ w in
    floating point, with w = n / L.  The phases are taken on the measure's
    stored point array; its ``Fraction`` weights are not read.
    """
    if not isinstance(group, AbelianGroup):
        raise InvalidArgument("kappa_abelian requires an AbelianGroup")
    if mu.group is not group and mu.group.elements != group.elements:
        raise InvalidArgument("measure lives on a different group")
    exact = group.exponent <= 2
    denom = mu.denominator
    if exact:
        coef = np.array(mu.numerators, dtype=np.int64 if denom < 2**63 else object)
    else:
        e = group.exponent
        # n / L is correctly rounded, so bit for bit float(Fraction(n, L))
        coef = np.array([n / denom for n in mu.numerators])
        cosines = np.cos(2 * np.pi * np.arange(e) / e)
    best = None
    for _, ph in group._phase_chunks(mu._points, 1):
        if not ph.any(axis=1).all():
            raise NonGeneratingSupport(_NON_GENERATING)
        if exact:
            val = denom - 2 * int((ph @ coef).min())  # numerator of max mu-hat
        else:
            val = (cosines[ph] @ coef).max()
        if best is None or val > best:
            best = val
    if group.order == 1:
        return GapReport(Fraction(0), -math.inf, "abelian-Fourier")
    if exact:  # lambda_2 = best / L, so kappa = L / (L - best)
        kappa, best = Fraction(denom, denom - best), Fraction(best, denom)
    else:
        best = float(best)
        kappa = 1.0 / (1.0 - best)
    return GapReport(kappa, best, "abelian-Fourier")


def kappa_general(group: FiniteGroup, mu: ProbMeasure) -> GapReport:
    """Gap constant from the regular representation of the symmetrized measure."""
    n = group.order
    if n > GROUP_ORDER_CAP:
        raise ResourceCap(f"group order {n} exceeds the cap {GROUP_ORDER_CAP}")
    if mu.group is not group and mu.group.elements != group.elements:
        raise InvalidArgument("measure lives on a different group")
    _require_generating(mu)
    if n == 1:
        return GapReport(Fraction(0), -math.inf, "regular-rep")
    nu = mu.symmetrized()
    a = np.zeros((n, n))
    cols = np.arange(n)
    for g, p in nu.items_nonzero():
        a[group.mul_index(np.full(n, group.index(g)), cols), cols] += float(p)
    vals = np.linalg.eigvalsh(a)
    lam2 = float(vals[-2])  # top eigenvalue 1 is simple: support generates
    return GapReport(1.0 / (1.0 - lam2), lam2, "regular-rep")


def kappa(group: FiniteGroup, mu: ProbMeasure) -> GapReport:
    """Dispatch to the Fourier path for abelian groups, regular rep otherwise
    (up to ``GROUP_ORDER_CAP``)."""
    if isinstance(group, AbelianGroup):
        return kappa_abelian(group, mu)
    return kappa_general(group, mu)


def poincare_residual(rep, mu: ProbMeasure, xi) -> tuple[float, float]:
    """Both sides of the Poincare inequality for a vector.

    lhs = ||xi - P xi||^2 with P the projection onto invariant vectors,
    rhs = (kappa/2) * sum_g mu(g) ||rep(g) xi - xi||^2.  Plain Euclidean
    norms; xi is a vector of length equal to the representation space
    (blocks concatenated).
    """
    alg = rep.algebra
    xi = np.asarray(xi, dtype=complex)
    if xi.shape != (alg.total_dim,):
        raise InvalidArgument(
            f"vector length {xi.shape} does not match dimension {alg.total_dim}"
        )
    _require_generating(mu)
    report = kappa(rep.group, mu)

    # acted[g] = rep(g) xi, one batched product per block
    parts = np.split(xi, np.cumsum(alg.dims)[:-1])
    acted = np.hstack([s @ x for s, x in zip(rep.stacks, parts)])
    lhs = float(np.sum(np.abs(xi - acted.mean(axis=0)) ** 2))
    idx, weights = _measure_weights(rep.group, mu)
    total = float(weights @ np.sum(np.abs(acted[idx] - xi) ** 2, axis=1))
    rhs = float(report.kappa) / 2.0 * total
    return lhs, rhs


def alon_roichman_sample(group: FiniteGroup, target_kappa: float = 2.0, rng=None) -> ProbMeasure:
    """Uniform measure on a random multiset with certified kappa.

    Draws ceil(c * ln|G|) elements uniformly, c = 6 at first, verifies
    kappa, and retries with a doubled c every 8 failures, ``_SAMPLE_TRIES``
    draws at most.  The returned measure is certified by the verification
    call, never by the probabilistic guarantee alone.  Raises
    SamplingFailure with the best kappa found when the budget runs out.
    """
    if group.order > GROUP_ORDER_CAP:
        raise ResourceCap(f"group order {group.order} exceeds the cap {GROUP_ORDER_CAP}")
    if rng is None:
        rng = np.random.default_rng(0)
    best = None
    cc = 6.0
    for attempt in range(_SAMPLE_TRIES):
        if attempt and attempt % 8 == 0:
            cc *= 2.0
        size = max(1, math.ceil(cc * math.log(max(group.order, 2))))
        size = min(size, 4 * group.order)  # no point sampling far past |G|
        draws = [group.elements[int(i)] for i in rng.integers(group.order, size=size)]
        mu = ProbMeasure.uniform_on(group, draws)
        if not mu.generates():
            continue
        report = kappa(group, mu)
        if best is None or float(report.kappa) < float(best[1].kappa):
            best = (mu, report)
        if float(report.kappa) <= target_kappa:
            return mu
    raise SamplingFailure(
        f"no sampled support reached kappa <= {target_kappa} in {_SAMPLE_TRIES} tries",
        best=None if best is None else best[1],
    )
