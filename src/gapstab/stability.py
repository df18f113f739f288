"""Rounding almost-homomorphisms to genuine corner representations.

The core construction dilates an almost-homomorphism of a finite group G
into the amplification M tensor M_|G|, averages the dilation's range
projection over left translations, cuts the spectrum of the average at 1/2
and completes the polar part of the compressed dilation to an isometry.
The result is a certificate: a true representation on a corner, an isometry
w conjugating it back into the base algebra, and measured closeness numbers
next to their guaranteed bounds.  An isometry (or partial isometry) from a
base algebra into a corner is held as a tuple of per-block matrices, block b
of shape (corner dim b, base dim b), and pulls a corner element y back to
w* y w block by block.

The remaining operations specialize the rounding to commuting pairs,
twisted (projective) pairs and Pauli-type pairs, verify the spectral-gap
amplification inequalities, and run the two-stage stabilization of an
almost-homomorphism of a direct product.
"""

from __future__ import annotations

import math
from collections import namedtuple
from dataclasses import dataclass, field

import numpy as np

from . import algebra
from .abelian import AbelianGroup, regular_rep
from .algebra import (
    AlgebraElement,
    AlmostHom,
    TracialAlgebra,
    UnitaryRep,
    _check_defect_pairs,
    _fourier_blocks,
    _fourier_defect,
    _frobenius_sq,
    _law_sq,
    _measure_weights,
    _pair_defects,
    _pair_traces,
    _pairwise_defect,
    commutant_blocks,
    defect,
    unitary_polar_factor,
)
from .errors import (
    DegenerateDecomposition,
    GapstabError,
    InvalidArgument,
    PreconditionViolation,
    ResourceCap,
)
from .groups import CentralExtensionGroup, FiniteGroup, ProductGroup
from .spectral import ProbMeasure, kappa

# Squared-form closeness constants carried by every certificate.
DISTANCE_CONSTANT = 169.0
PROJECTION_CONSTANT = 16.0
CONTRACTION_CONSTANT = 25.0
SUBGROUP_CONSTANT = 38.0
PAIR_CONSTANT = 1444.0
TWISTED_CONSTANT = 30000.0

# algebra.ROUNDING_DIM_CAP, read at call time, is the largest group order the
# rounding (and the defect) takes, and the square root of the largest |G| m^2:
# the entries of the input stack phi and of the blocks F_rho, whose families
# hold |G| m^2 entries in all.  Since d_rho^2 <= |G|, it also bounds the
# largest Hermitian block factorised, m d_rho <= sqrt(|G| m^2).  A manifest's
# ``dim_cap`` rebinds that one name, so it moves both caps together.

# Eigenvalues this close to the 1/2 cut are kept and flagged.
THRESHOLD_TIE_TOL = 1e-9

# Singular values below this are treated as kernel in polar completions.
_KERNEL_CUT = 1e-8

_BOUND_SLACK = 1e-9


def _check_bound(value: float, bound: float, label: str):
    if value > bound * (1 + 1e-12) + _BOUND_SLACK:
        raise GapstabError(
            f"{label} = {value:.6g} exceeds its guaranteed bound {bound:.6g}"
        )


def _ratio(value: float, bound: float):
    return value / bound if bound > 1e-300 else None


def _check_rounding_dim(group: FiniteGroup, dims):
    """Refuse a rounding over ``algebra.ROUNDING_DIM_CAP`` before any work is
    done, the group's irreps included.

    Bounds the group order (the irrep stacks hold |G|^2 entries, and the
    pairwise defect below the Fourier floor sums |G|^2 law residuals) and,
    by the cap squared, |G| m^2: the entries of the input stack phi and of
    the Fourier blocks F_rho, m^2 d_rho^2 each and so |G| m^2 over all the
    families.  The largest Hermitian block the rounding factorises, m d_rho,
    is at most sqrt(|G| m^2), because d_rho^2 <= |G|.
    """
    cap, n, m = algebra.ROUNDING_DIM_CAP, group.order, max(dims)
    if n > cap:
        raise ResourceCap(f"group order {n} exceeds the cap {cap}")
    if n * m * m > cap * cap:
        raise ResourceCap(
            f"rounding stack of {n * m * m} entries exceeds the cap {cap} squared"
        )


def _distance_sq(coeffs, a_stacks, b_stacks) -> np.ndarray:
    """||A_k - B_k||_2^2 for each k over two aligned per-block stacks, the
    blocks weighted by ``coeffs``."""
    out = np.zeros(len(a_stacks[0]))
    # map, so no block's difference (or pulled-back stack) outlives its norms
    for c, sq in zip(coeffs, map(_frobenius_sq, map(np.subtract, a_stacks, b_stacks))):
        out += c * sq
    return out


def _pullback_sq(mats, coeffs, a_stacks, b_stacks) -> np.ndarray:
    """||A_k - m* B_k m||_2^2 for each k, over two aligned per-block stacks
    and one matrix m per block (an isometry's or the compressed dilations);
    ``coeffs`` weight the blocks of the A side."""
    pulled = (m.conj().T @ b @ m for m, b in zip(mats, b_stacks))
    return _distance_sq(coeffs, a_stacks, pulled)


def _gram_defect(mats, coeffs) -> float:
    """sum_b c_b ||1 - M_b* M_b||_F^2 over one matrix M_b per block; 0 when
    every M_b is an isometry."""
    return float(sum(
        c * np.linalg.norm(np.eye(m.shape[1]) - m.conj().T @ m) ** 2
        for c, m in zip(coeffs, mats)
    ))


@dataclass(eq=False)
class RoundingCertificate:
    """Everything the rounding produces, next to its guaranteed bounds.

    Attributes
    ----------
    pi : UnitaryRep on the corner algebra (one block per base block).
    w : the isometry from the base algebra into the corner, one
        (corner_b x base_b) matrix per block.
    distance : mean squared 2-norm closeness E_g ||phi(g) - w* pi(g) w||_2^2.
    trace_excess : trace of the corner projection minus the base trace of 1.
    input_defect : the mean squared multiplication defect of the input.
    projection_defect : ||P - w w*||_2^2 in the amplified trace.
    per_element : dict g -> squared closeness at g.
    intermediates : contraction-stage numbers and numerical health figures.
    spectral_ranks : per block, the rank R of the spectral projection and
        the dimension t of its completion; the corner has dimension R + t.
    irreps : per block, the ``(family, index)`` into ``group.irrep_stacks()``
        of each irrep copy on pi's first R coordinates, in their order.

    The corner projection P lives in the amplified algebra M tensor M_|G|
    and is not materialised: pi is stored in corner coordinates, where P is
    the identity, and every number above is computed there.
    """

    group: FiniteGroup
    base: TracialAlgebra
    corner: TracialAlgebra
    pi: UnitaryRep
    w: tuple
    distance: float
    trace_excess: float
    input_defect: float
    projection_defect: float
    per_element: dict
    intermediates: dict
    threshold_ties: bool
    tie_count: int
    spectral_ranks: list
    irreps: list

    def pullback(self, g) -> AlgebraElement:
        """w* pi(g) w in the base algebra."""
        return AlgebraElement(
            self.base, [m.conj().T @ b @ m for m, b in zip(self.w, self.pi.images[g].blocks)]
        )

    def report(self) -> dict:
        eps = self.input_defect
        out = {
            "input_defect": eps,
            "distance": self.distance,
            "distance_constant": DISTANCE_CONSTANT,
            "distance_bound": DISTANCE_CONSTANT * eps,
            "distance_ratio": _ratio(self.distance, DISTANCE_CONSTANT * eps),
            "projection_defect": self.projection_defect,
            "projection_bound": PROJECTION_CONSTANT * eps,
            "projection_ratio": _ratio(
                self.projection_defect, PROJECTION_CONSTANT * eps
            ),
            "trace_excess": self.trace_excess,
            "trace_bound": PROJECTION_CONSTANT * eps,
            "threshold_ties": self.threshold_ties,
            "tie_count": self.tie_count,
            "corner_dims": list(self.corner.dims),
        }
        out.update(self.intermediates)
        return out

    def __repr__(self):
        return (
            f"RoundingCertificate(|G|={self.group.order}, "
            f"distance={self.distance:.3g}, defect={self.input_defect:.3g})"
        )


def _polar_part(x):
    """The polar part of x from its singular values above ``_KERNEL_CUT``,
    and the kept rows of the SVD's right factor."""
    u_svd, s, vh = np.linalg.svd(x, full_matrices=False)
    big = s > _KERNEL_CUT
    return u_svd[:, big] @ vh[big], vh[big]


def _polar_completion(x_mat, room: int):
    """The polar part w0 of the compressed dilation X (R x m), completed by
    a basis of its kernel to the isometry w; returns (w0, w, t) with t the
    kernel dimension, which ``room`` low eigenvectors must be able to hold."""
    m = x_mat.shape[1]
    w0, rows = _polar_part(x_mat)
    t_dim = m - len(rows)
    if t_dim == 0:
        return w0, w0, 0
    ker_proj = np.eye(m) - rows.conj().T @ rows
    kvals, kvecs = np.linalg.eigh(ker_proj)
    k_basis = kvecs[:, kvals > 0.5]
    if k_basis.shape[1] != t_dim:
        raise DegenerateDecomposition(
            "kernel of the compressed dilation is numerically ambiguous"
        )
    if room < t_dim:
        raise DegenerateDecomposition(
            "no room orthogonal to the spectral projection to complete "
            "the polar part to an isometry"
        )
    return w0, np.vstack([w0, k_basis.conj().T]), t_dim


def _cut(vals):
    """Keep mask, tie count and margin of the cut at 1/2 of a spectrum."""
    gap = np.abs(vals - 0.5)
    keep = vals >= 0.5 - THRESHOLD_TIE_TOL
    ties = int(np.count_nonzero(gap <= THRESHOLD_TIE_TOL))
    return keep, ties, float(gap.min(initial=math.inf))


def _fourier_round_block(n, m, families, phi_stack):
    """Round one base block through the group Fourier transform.

    For an irrep rho of dimension d, the averaged operator A leaves
    invariant the d spaces {x[h] = Y rho(h)* c} (Y an m x d matrix, c fixed)
    and acts on each as Y -> sum_k B(k) Y rho(k), the Gram block F F* with
    F = (1/n) sum_v phi(v) (x) conj(rho(v)) in row-major coordinates.  A
    unit eigenvector Y of that block and a column j give the unit vector
    x[h] = sqrt(d/n) Y rho(h)* e_j of A, with the same eigenvalue; the rows
    of X = Z* V are sqrt(d) (y* F) at column j, and lambda(g) moves x_j to
    sum_i rho(g)[i, j] x_i, so the compressed translation is rho(g) on each
    kept eigenvector.  Neither these eigenvectors of A nor the completion
    columns are formed: the rounding's numbers need only X and the irreps.

    Returns the rank R of the spectral projection, the completion dimension
    t, X, the polar part w0 and completed isometry w (corner coordinates),
    the stack of compressed translations (a direct sum of irreps), threshold
    diagnostics, the largest block factorised, the (family, irrep) pairs
    that occur in the corner and, as ``cube``, the block's
    sum_rho d_rho Tr(F_rho^2 F_rho*) for :func:`_fourier_defect`.
    """
    kept_irreps, x_rows = [], []
    ties, margin, cube = 0, math.inf, 0
    for f, fam in enumerate(families):
        d = fam.shape[-1]
        fhat, gram, fam_cube = _fourier_blocks(fam, phi_stack)
        cube += fam_cube
        vals, vecs = np.linalg.eigh(gram)
        del gram  # as large as F; not kept while the next family is formed
        keep, fam_ties, fam_margin = _cut(vals)
        ties += d * fam_ties
        margin = min(margin, fam_margin)
        qs, es = np.nonzero(keep)
        y = vecs[qs, :, es]
        rows = np.einsum("ka,kab->kb", y.conj(), fhat[qs]) * math.sqrt(d)
        x_rows.append(rows.reshape(-1, m, d).transpose(0, 2, 1).reshape(-1, m))
        kept_irreps += [(f, int(q)) for q in qs]

    x_mat = np.vstack(x_rows)
    r_dim = x_mat.shape[0]
    w0, w_mat, t_dim = _polar_completion(x_mat, n * m - r_dim)

    core = np.zeros((n, r_dim, r_dim), dtype=complex)
    off = 0
    for f, q in kept_irreps:
        d = families[f].shape[-1]
        core[:, off : off + d, off : off + d] = families[f][q]
        off += d

    return {
        "R": r_dim,
        "t": t_dim,
        "X": x_mat,
        "w": w_mat,
        "w0": w0,
        "core": core,
        "ties": ties,
        "margin": margin,
        "largest": max(m * fam.shape[-1] for fam in families),
        "irreps": kept_irreps,
        "cube": cube,
    }


def gowers_hatami_round(phi: AlmostHom) -> RoundingCertificate:
    """Round an almost-homomorphism to a representation on a corner.

    Implements the dilation construction in the Hilbert-space case p = 2:
    V stacks phi(g^{-1}) row blocks, A averages the range projection of V
    over left translations, P is the spectral projection of A above 1/2, pi
    is the left translation action compressed to P (extended by the
    identity on the completion part), X = PV, and w completes the polar
    part of X to an isometry.  P is defined but not materialised: every
    number is computed in the corner's coordinates, from X, w and the
    compressed translations.  The certificate records

        distance        <= 169 * defect        (squared form)
        ||P - w w*||_2^2 <= 16 * defect
        trace excess     <= 16 * defect

    together with the contraction-stage intermediates, whose contraction
    distance (mean of ||phi(g) - X* pi(g) X||_2^2) is checked against
    25 * defect: a larger value raises :class:`GapstabError`.  Eigenvalues
    within 1e-9 of the 1/2 cut are kept in the projection and flagged.

    A is a group convolution, A[h1, h2] = B(h2^{-1} h1) with
    B(k) = n^-2 sum_v phi(v) phi(kv)*.  The Fourier transform over the
    group's irreps (``irrep_stacks()``) splits A into one Hermitian block of
    size m d_rho per irrep rho, each of multiplicity d_rho, and pi is a
    direct sum of copies of the irreps (see :func:`_fourier_round_block`).

    pi is built as a trusted :class:`UnitaryRep`, not validated again: it
    is a direct sum of the group's irreps, whose images ``irrep_stacks()``
    checks unitary once per group, and an identity block.  Its law residual
    ``pi_residual`` is the largest over the irreps that occur, each computed
    once per group and per law-pair regime and kept beside the irreps
    (``FiniteGroup._irrep_law_residual``): ``rep_residual(pi)`` up to
    rounding.

    The certificate's defect is :func:`~gapstab.algebra.defect` with
    uniform weights, the same number bit for bit.  It is read off the
    blocks F_rho the rounding forms anyway, by the three-term identity
    E_g ||phi(g)||_2^2 + tau(A B) - 2 Re sum_rho d_rho (tau (x) Tr)(F_rho^2 F_rho*)
    with A = E_g phi(g)* phi(g) and B = E_h phi(h) phi(h)*, which assumes no
    unitarity.  Below ``_FOURIER_DEFECT_FLOOR`` tau(1), where the identity's
    cancellation error would show, the defect is the pairwise sum of the
    |G|^2 law residuals.  ``intermediates`` names the defect path
    (``"fourier"`` or ``"pairwise"``) and the largest block factorised.
    """
    group, base = phi.group, phi.algebra
    n = group.order
    _check_rounding_dim(group, base.dims)
    families = group.irrep_stacks()
    elements = group.elements
    blocks = [
        _fourier_round_block(n, m, families, stack)
        for m, stack in zip(base.dims, phi.stacks)
    ]
    eps = _fourier_defect(phi, [blk["cube"] for blk in blocks])
    defect_path = "pairwise" if eps is None else "fourier"
    if eps is None:
        eps = _pairwise_defect(phi)

    coeffs = base.coeffs
    corner = TracialAlgebra._raw(
        [blk["R"] + blk["t"] for blk in blocks], coeffs
    )

    base_trace = base.tau_one
    tau_spectral = sum(c * blk["R"] for c, blk in zip(coeffs, blocks))
    tau_corner = sum(c * (blk["R"] + blk["t"]) for c, blk in zip(coeffs, blocks))
    trace_excess = tau_corner - base_trace

    x_mats = [blk["X"] for blk in blocks]
    projection_defect = _gram_defect([blk["w0"].conj().T for blk in blocks], coeffs)
    one_minus_xsx = math.sqrt(_gram_defect(x_mats, coeffs))
    p_minus_xxs = math.sqrt(_gram_defect([x.conj().T for x in x_mats], coeffs))
    w = tuple(blk["w"] for blk in blocks)

    # corner images, with the identity on the completion part
    pi_stacks = []
    for blk in blocks:
        r_dim, t_dim = blk["R"], blk["t"]
        pi_b = np.zeros((n, r_dim + t_dim, r_dim + t_dim), dtype=complex)
        pi_b[:, :r_dim, :r_dim] = blk["core"]
        pi_b[:, r_dim:, r_dim:] = np.eye(t_dim)
        pi_stacks.append(pi_b)
    per_sq = _pullback_sq(w, coeffs, phi.stacks, pi_stacks)
    per_element = dict(zip(elements, per_sq.tolist()))
    distance = sum(per_element.values()) / n
    contraction = float(
        _pullback_sq(x_mats, coeffs, phi.stacks, [blk["core"] for blk in blocks]).mean()
    )
    _check_bound(contraction, CONTRACTION_CONSTANT * eps, "contraction distance")

    # pi is a direct sum of the group's checked irreps and an identity block:
    # it is unitary, and its law residual is the worst over the irreps that occur
    pi = UnitaryRep._trusted(group, corner, pi_stacks)
    irreps = [blk["irreps"] for blk in blocks]
    pi_residual = group._irrep_law_residual({fq for b in irreps for fq in b}, corner.dims)
    intermediates = {
        "contraction_distance": contraction,
        "contraction_bound": CONTRACTION_CONSTANT * eps,
        "one_minus_xstarx": one_minus_xsx,
        "p_minus_xxstar": p_minus_xxs,
        "sqrt_defect_bound": 4.0 * math.sqrt(eps),
        "pi_residual": pi_residual,
        "isometry_residual": _gram_defect(w, coeffs),
        "threshold_margin": min(blk["margin"] for blk in blocks),
        "tau_corner": tau_corner,
        "tau_spectral_projection": tau_spectral,
        "base_trace": base_trace,
        "defect_path": defect_path,
        "largest_block": max(blk["largest"] for blk in blocks),
    }

    return RoundingCertificate(
        group=group,
        base=base,
        corner=corner,
        pi=pi,
        w=w,
        distance=distance,
        trace_excess=trace_excess,
        input_defect=eps,
        projection_defect=projection_defect,
        per_element=per_element,
        intermediates=intermediates,
        threshold_ties=any(blk["ties"] for blk in blocks),
        tie_count=sum(blk["ties"] for blk in blocks),
        spectral_ranks=[(blk["R"], blk["t"]) for blk in blocks],
        irreps=irreps,
    )


# -- subgroup closeness ---------------------------------------------------------

SubgroupCloseness = namedtuple("SubgroupCloseness", ["lhs", "bound"])

_EQUIVARIANCE_TOL = 1e-8


def equivariance_residual(phi: AlmostHom, subgroup) -> float:
    """Worst 2-norm failure of phi(hg) = phi(h)phi(g), h in the subgroup, g in G."""
    group = phi.group
    sub = np.array([group.index(h) for h in subgroup], dtype=np.intp)
    grid = _law_sq(phi, sub, np.arange(group.order))
    return float(np.sqrt(grid.max(initial=0.0)))


def subgroup_closeness_check(
    phi: AlmostHom, subgroup, cert: RoundingCertificate
) -> SubgroupCloseness:
    """Closeness of phi to the rounded representation along a subgroup.

    For a subgroup H on which phi is left-equivariant (phi(hg) =
    phi(h)phi(g) for h in H and every g), returns

        lhs   = (E_{h in H} ||phi(h) - w* pi(h) w||_2^2)^(1/2)
        bound = 38 * sqrt(defect)

    and the caller asserts lhs < bound.  When the equivariance residual
    exceeds ``_EQUIVARIANCE_TOL`` a precondition violation carrying the
    residual is raised.
    """
    sub = tuple(subgroup)
    if not phi.group.is_subgroup(sub):
        raise InvalidArgument("the given subset is not a subgroup")
    residual = equivariance_residual(phi, sub)
    if residual > _EQUIVARIANCE_TOL:
        raise PreconditionViolation(
            f"phi is not left-equivariant on the subgroup (residual {residual:.3g})",
            residual=residual,
        )
    lhs = math.sqrt(sum(cert.per_element[h] for h in sub) / len(sub))
    bound = SUBGROUP_CONSTANT * math.sqrt(cert.input_defect)
    return SubgroupCloseness(lhs, bound)


# -- commuting and twisted pairs ------------------------------------------------


@dataclass
class PairRoundingResult:
    """Rounded commuting pair: representations with commuting ranges."""

    certificate: RoundingCertificate
    u_tilde: UnitaryRep
    v_tilde: UnitaryRep
    epsilon: float
    distance_u: float
    distance_v: float
    bound: float
    commuting_residual: float

    def report(self) -> dict:
        return {
            "epsilon": self.epsilon,
            "distance_u": self.distance_u,
            "distance_v": self.distance_v,
            "bound_constant": PAIR_CONSTANT,
            "bound": self.bound,
            "ratio_u": _ratio(self.distance_u, self.bound),
            "ratio_v": _ratio(self.distance_v, self.bound),
            "commuting_residual": self.commuting_residual,
            "trace_excess": self.certificate.trace_excess,
        }


def _pair_products(u_rep: UnitaryRep, v_rep: UnitaryRep) -> list:
    """U(a)V(b) as one (|A|, |B|, n, n) stack per block, one broadcast product
    of the two image stacks each."""
    return [us[:, None] @ vs[None] for us, vs in zip(u_rep.stacks, v_rep.stacks)]


def round_commuting_pair(u_rep: UnitaryRep, v_rep: UnitaryRep) -> PairRoundingResult:
    """Round a pair of representations that almost commute.

    Builds phi(a, b) = U(a)V(b) on the product group, rounds it, and splits
    the corner representation into U~(a) = pi(a, 1) and V~(b) = pi(1, b),
    which commute exactly.  Both distances are below 1444 * epsilon where
    epsilon is the mean squared commutator norm.
    """
    a_grp, b_grp = u_rep.group, v_rep.group
    alg = u_rep.algebra
    ones = np.ones((a_grp.order, b_grp.order))
    eps = float(_pair_defects(u_rep, v_rep, ones).mean())
    group = ProductGroup(a_grp, b_grp)
    # products of two validated representations: trusted
    phi = AlmostHom._trusted(group, alg, _pair_products(u_rep, v_rep))
    cert = gowers_hatami_round(phi)
    if abs(cert.input_defect - eps) > 1e-6 * max(1.0, eps):
        raise GapstabError(
            "product-form defect identity failed; the inputs are not "
            "homomorphisms"
        )

    ea, eb = a_grp.identity, b_grp.identity
    rows_u = [group.index((a, eb)) for a in a_grp.elements]
    rows_v = [group.index((ea, b)) for b in b_grp.elements]
    # row selections of the trusted pi
    u_tilde = UnitaryRep._trusted(a_grp, cert.corner, [s[rows_u] for s in cert.pi.stacks])
    v_tilde = UnitaryRep._trusted(b_grp, cert.corner, [s[rows_v] for s in cert.pi.stacks])
    distance_u = sum(cert.per_element[(a, eb)] for a in a_grp.elements) / a_grp.order
    distance_v = sum(cert.per_element[(ea, b)] for b in b_grp.elements) / b_grp.order
    bound = PAIR_CONSTANT * eps
    _check_bound(distance_u, bound, "commuting-pair distance (first factor)")
    _check_bound(distance_v, bound, "commuting-pair distance (second factor)")

    commuting_residual = math.sqrt(_pair_defects(u_tilde, v_tilde, ones).max())

    return PairRoundingResult(
        certificate=cert,
        u_tilde=u_tilde,
        v_tilde=v_tilde,
        epsilon=eps,
        distance_u=distance_u,
        distance_v=distance_v,
        bound=bound,
        commuting_residual=commuting_residual,
    )


@dataclass
class TwistedRoundingResult:
    """Rounded twisted pair with its exact commutation relation.

    ``u_tilde`` and ``v_tilde`` live on the minus-one eigenspace corner of
    the rounded central sign (the corner coordinates where it is -1) and
    satisfy U~(a)V~(b) = gamma(a, b)V~(b)U~(a) up to machine precision;
    ``w`` is the re-polared partial isometry from
    the base algebra into that corner, one (corner_b x base_b) matrix per
    block.
    """

    certificate: RoundingCertificate
    u_tilde: UnitaryRep
    v_tilde: UnitaryRep
    w: tuple
    epsilon: float
    distance_u: float
    distance_v: float
    bound: float
    relation_residual: float
    isometry_defect: float
    isometry_bound: float
    p_minus_q: float
    p_minus_q_bound: float
    trace_q: float

    def report(self) -> dict:
        return {
            "epsilon": self.epsilon,
            "distance_u": self.distance_u,
            "distance_v": self.distance_v,
            "bound_constant": TWISTED_CONSTANT,
            "bound": self.bound,
            "ratio_u": _ratio(self.distance_u, self.bound),
            "ratio_v": _ratio(self.distance_v, self.bound),
            "relation_residual": self.relation_residual,
            "isometry_defect": self.isometry_defect,
            "isometry_bound": self.isometry_bound,
            "p_minus_q": self.p_minus_q,
            "p_minus_q_bound": self.p_minus_q_bound,
            "trace_q": self.trace_q,
            "trace_excess": self.certificate.trace_excess,
        }


def round_twisted_pair(
    u_rep: UnitaryRep, v_rep: UnitaryRep, gamma
) -> TwistedRoundingResult:
    """Round a pair satisfying a commutation relation twisted by a sign.

    ``gamma`` is a callable bicharacter A x B -> {+1, -1}.  The
    pair is packed into phi(a, b, z) = z U(a)V(b) on the central extension
    of A x B by the sign, rounded, and corrected so the output satisfies
    U~(a)V~(b) = gamma(a, b) V~(b)U~(a) exactly: the rounded central sign Z
    is written as P - 2Q, the corner is cut to Q, and w is re-polared.
    Distances stay below 30000 * epsilon.
    """
    ext = CentralExtensionGroup(u_rep.group, v_rep.group, gamma)
    _check_rounding_dim(ext, u_rep.algebra.dims)
    signs = ext.signs.astype(float)
    eps = float(_pair_defects(u_rep, v_rep, signs).mean())
    return _round_twisted(u_rep, v_rep, ext, signs, eps)


def _round_twisted(u_rep, v_rep, ext, signs, eps: float) -> TwistedRoundingResult:
    """:func:`round_twisted_pair` on ``ext`` once the cap is checked: ``signs[a, b]``
    is the twist and ``eps`` the mean of the pair defects it defines.

    pi is a direct sum of the extension's irreps and an identity block, so
    the central sign's image Z is +-1 on the diagonal and 0 elsewhere (else,
    to 1e-6 in Frobenius norm, :class:`DegenerateDecomposition`): Q keeps
    the -1 coordinates, U~ and V~ are trusted cuts of pi's rows there, and w
    is re-polared from the kept rows of the certificate's isometry."""
    a_grp, b_grp = u_rep.group, v_rep.group
    alg = u_rep.algebra
    # phi(a, b, z) = z U(a)V(b), z innermost as in ext.elements: trusted
    pairs = _pair_products(u_rep, v_rep)
    phi = AlmostHom._trusted(ext, alg, [np.stack([p, -p], axis=2) for p in pairs])
    cert = gowers_hatami_round(phi)
    if abs(cert.input_defect - eps) > 1e-6 * max(1.0, eps):
        raise GapstabError(
            "twisted defect identity failed; the inputs are not homomorphisms"
        )

    # the central sign's image: Q keeps its -1 coordinates
    coeffs = cert.corner.coeffs
    kept, p_minus_q_sq = [], 0.0
    for c, s in zip(coeffs, cert.pi.stacks):
        zb = s[ext.index(ext.central_sign)]
        diag = np.where(zb.diagonal().real < 0, -1.0, 1.0)
        if np.linalg.norm(zb - np.diag(diag)) > 1e-6:
            raise DegenerateDecomposition(
                "rounded central sign is not a diagonal involution on the corner"
            )
        kept.append(np.flatnonzero(diag < 0))
        p_minus_q_sq += c * np.linalg.norm((np.eye(len(zb)) + zb) / 2.0) ** 2
    if any(not k.size for k in kept):
        raise DegenerateDecomposition(
            "the minus-one eigenspace of the central sign vanishes on a "
            "block; the inputs are far outside the rounding regime"
        )
    p_minus_q = math.sqrt(p_minus_q_sq)
    p_minus_q_bound = (19.0 * math.sqrt(2.0) + 4.0) * math.sqrt(eps)

    q_corner = TracialAlgebra._raw([len(k) for k in kept], coeffs)
    trace_q = sum(c * len(k) for c, k in zip(coeffs, kept))

    def cut(grp, embed) -> UnitaryRep:
        # the rows of the trusted pi at grp's embedded elements, kept coordinates
        rows = [ext.index(embed(g)) for g in grp.elements]
        stacks = [s[np.ix_(rows, k, k)] for k, s in zip(kept, cert.pi.stacks)]
        return UnitaryRep._trusted(grp, q_corner, stacks)

    u_tilde, v_tilde = cut(a_grp, ext.embed_a), cut(b_grp, ext.embed_b)

    relation_residual = math.sqrt(_pair_defects(u_tilde, v_tilde, signs).max())

    # re-polar Qw to a partial isometry
    w_prime = tuple(_polar_part(wm[k])[0] for k, wm in zip(kept, cert.w))
    isometry_defect = _gram_defect(w_prime, alg.coeffs)
    isometry_bound = p_minus_q_bound**2

    distance_u = float(_pullback_sq(w_prime, alg.coeffs, u_rep.stacks, u_tilde.stacks).mean())
    distance_v = float(_pullback_sq(w_prime, alg.coeffs, v_rep.stacks, v_tilde.stacks).mean())
    bound = TWISTED_CONSTANT * eps
    _check_bound(distance_u, bound, "twisted-pair distance (first factor)")
    _check_bound(distance_v, bound, "twisted-pair distance (second factor)")

    return TwistedRoundingResult(
        certificate=cert,
        u_tilde=u_tilde,
        v_tilde=v_tilde,
        w=w_prime,
        epsilon=eps,
        distance_u=distance_u,
        distance_v=distance_v,
        bound=bound,
        relation_residual=relation_residual,
        isometry_defect=isometry_defect,
        isometry_bound=isometry_bound,
        p_minus_q=p_minus_q,
        p_minus_q_bound=p_minus_q_bound,
        trace_q=trace_q,
    )


# -- spectral-gap amplification --------------------------------------------------

AmplificationCheck = namedtuple("AmplificationCheck", ["lhs", "rhs"])


def _amplification(defects, mu, nu, k_mu_nu: float) -> AmplificationCheck:
    """The uniform mean of a pair-defect matrix against kappa(mu) kappa(nu)
    times its (mu x nu)-integral."""
    mu_w = np.array([float(mu(a)) for a in mu.group.elements])
    nu_w = np.array([float(nu(b)) for b in nu.group.elements])
    return AmplificationCheck(float(defects.mean()), k_mu_nu * float(mu_w @ defects @ nu_w))


def commutator_amplification_check(
    u_rep: UnitaryRep, v_rep: UnitaryRep, mu: ProbMeasure, nu: ProbMeasure
) -> AmplificationCheck:
    """Uniform mean squared commutator against its gap-weighted integral.

    lhs = E_{a, b} ||[U(a), V(b)]||_2^2 over the full groups,
    rhs = kappa(mu) kappa(nu) * integral of the same quantity d(mu x nu);
    the inequality lhs <= rhs holds whenever the supports generate.
    """
    k = float(kappa(u_rep.group, mu).kappa) * float(kappa(v_rep.group, nu).kappa)
    ones = np.ones((u_rep.group.order, v_rep.group.order))
    return _amplification(_pair_defects(u_rep, v_rep, ones), mu, nu, k)


# A representation U of an abelian group A and V of its dual, with what the
# amplification and the Pauli rounding share, each computed once: the gap
# constants of mu and nu, gamma[a, chi] = chi(a), the pair defects
# ||U(a)V(chi) - chi(a)V(chi)U(a)||_2^2 and, for a rounding, the central
# extension of A x A^ by the pairing.
_PauliPair = namedtuple("_PauliPair", "u v mu nu k_mu k_nu gamma defects ext")


def _pauli_extension(a_grp, d_grp, dims=None):
    """Check the groups of a Pauli pair; for a rounding on blocks of sizes
    ``dims``, also the exponent, and return the central extension of A x A^
    by the pairing once the rounding cap is checked on it.  Needs no PVM."""
    if not isinstance(a_grp, AbelianGroup) or not isinstance(d_grp, AbelianGroup):
        raise InvalidArgument("twisted pairs need abelian groups")
    if dims is not None and a_grp.exponent > 2:
        raise InvalidArgument("the first group must be abelian of exponent 2")
    if a_grp.orders != d_grp.orders:
        raise InvalidArgument("the second group must be the dual of the first")
    if dims is None:
        return None
    ext = CentralExtensionGroup(a_grp, d_grp, lambda a, chi: int(a_grp.pairing(chi, a)))
    _check_rounding_dim(ext, dims)
    return ext


def _pauli_pair(u_rep, v_rep, mu, nu, ext=None) -> _PauliPair:
    """Build the pair on a rounding's extension ``ext`` from
    :func:`_pauli_extension`, or without one once the groups are checked."""
    a_grp, d_grp = u_rep.group, v_rep.group
    if ext is None:
        _pauli_extension(a_grp, d_grp)
    gamma = a_grp.character_table().T
    defects = _pair_defects(u_rep, v_rep, gamma)
    k_mu, k_nu = float(kappa(a_grp, mu).kappa), float(kappa(d_grp, nu).kappa)
    return _PauliPair(u_rep, v_rep, mu, nu, k_mu, k_nu, gamma, defects, ext)


def _tensor_defects(u_rep: UnitaryRep, v_rep: UnitaryRep, gamma) -> np.ndarray:
    """Commutator defects of the tensor reduction U(a) (x) lambda(a),
    V(chi) (x) M(chi), without forming a tensor product.

    With X = U(a)V(chi), Z = V(chi)U(a), Y = lambda(a)M(chi) and
    W = M(chi)lambda(a), the Kronecker trace identity
    tr((X (x) Y)*(Z (x) W)) = tr(X*Z) tr(Y*W) gives, per block of weight
    coefficient c, ||X (x) Y - Z (x) W||_2^2 = (c/|A|) (tr X*X tr Y*Y +
    tr Z*Z tr W*W - 2 Re tr X*Z tr Y*W).  lambda is the regular
    representation and M(chi) = diag(chi(x)) is read off ``gamma[x, chi]``
    = chi(x), so the twist of the direct value enters only through the
    commutation of lambda and M.
    """
    a_grp = u_rep.group
    lam = regular_rep(a_grp).stacks[0].real  # permutation matrices
    mod = gamma.T[:, :, None] * np.eye(a_grp.order)  # mod[chi] = diag(gamma[:, chi])
    yy, ww, yw = _pair_traces(lam, mod)
    out = np.zeros(yy.shape)
    for us, vs, c in zip(u_rep.stacks, v_rep.stacks, u_rep.algebra.coeffs):
        xx, zz, xz = _pair_traces(us, vs)
        out += (c / a_grp.order) * (xx * yy + zz * ww - 2.0 * (xz * yw).real)
    return out


def _twisted_amplification(pair: _PauliPair) -> AmplificationCheck:
    """The pair's amplification inequality, its direct value cross-checked
    against the tensor reduction."""
    k = pair.k_mu * pair.k_nu
    lhs, rhs = _amplification(pair.defects, pair.mu, pair.nu, k)
    tensor = _amplification(_tensor_defects(pair.u, pair.v, pair.gamma), pair.mu, pair.nu, k)
    if any(abs(t - d) > 1e-8 * max(1.0, d) for t, d in zip(tensor, (lhs, rhs))):
        raise GapstabError("tensor reduction cross-check failed")
    return AmplificationCheck(lhs, rhs)


def twisted_amplification_check(
    u_rep: UnitaryRep,
    v_rep: UnitaryRep,
    mu: ProbMeasure,
    nu: ProbMeasure,
    tensor_cap: int = 1024,
) -> AmplificationCheck:
    """Gap amplification for the character-twisted commutation defect.

    For U on an abelian group A and V on its dual, compares the uniform
    mean of ||U(a)V(chi) - chi(a)V(chi)U(a)||_2^2 with kappa(mu) kappa(nu)
    times its (mu x nu)-integral.  Every call cross-checks the direct value
    against the tensor reduction U(a) -> U(a) (x) lambda(a),
    V(chi) -> V(chi) (x) M(chi), which turns the twisted defect into an
    honest commutator; the reduction is evaluated through the Kronecker
    trace identity, so it runs at every size.  ``tensor_cap`` is accepted
    and ignored.
    """
    return _twisted_amplification(_pauli_pair(u_rep, v_rep, mu, nu))


@dataclass
class PauliRoundingResult:
    """Twisted rounding driven by spectral-gap amplification."""

    amplification: AmplificationCheck
    rounding: TwistedRoundingResult
    kappa_mu: float
    kappa_nu: float
    integral: float
    composed_constant: float
    composed_bound: float

    def report(self) -> dict:
        out = self.rounding.report()
        out.update(
            {
                "amplified_defect": self.amplification.lhs,
                "amplified_bound": self.amplification.rhs,
                "kappa_mu": self.kappa_mu,
                "kappa_nu": self.kappa_nu,
                "integral": self.integral,
                "composed_constant": self.composed_constant,
                "composed_bound": self.composed_bound,
            }
        )
        return out


def round_pauli_pair(
    u_rep: UnitaryRep, v_rep: UnitaryRep, mu: ProbMeasure, nu: ProbMeasure
) -> PauliRoundingResult:
    """Round a Pauli-type pair measured only along mu and nu.

    For an exponent-2 abelian group A and its dual, chains the twisted
    amplification inequality with the twisted rounding at gamma(a, chi) =
    chi(a).  The certificate's distances are below 30000 * kappa(mu) *
    kappa(nu) * integral, and the composed constant is reported explicitly.
    The output w is a partial isometry with ||1 - w* w||_2^2 recorded.
    """
    ext = _pauli_extension(u_rep.group, v_rep.group, u_rep.algebra.dims)
    return _round_pauli(_pauli_pair(u_rep, v_rep, mu, nu, ext))


def _round_pauli(pair: _PauliPair) -> PauliRoundingResult:
    """:func:`round_pauli_pair` on a pair built for a rounding."""
    amp = _twisted_amplification(pair)
    k_mu, k_nu = pair.k_mu, pair.k_nu
    integral = amp.rhs / (k_mu * k_nu) if k_mu * k_nu > 0 else 0.0

    # the rounding's epsilon is the amplified defect, the mean of the pair defects
    rounding = _round_twisted(pair.u, pair.v, pair.ext, pair.gamma.real, amp.lhs)
    composed_constant = TWISTED_CONSTANT * k_mu * k_nu
    composed_bound = composed_constant * integral
    _check_bound(rounding.distance_u, composed_bound, "composed Pauli distance (U)")
    _check_bound(rounding.distance_v, composed_bound, "composed Pauli distance (V)")
    return PauliRoundingResult(
        amplification=amp,
        rounding=rounding,
        kappa_mu=k_mu,
        kappa_nu=k_nu,
        integral=integral,
        composed_constant=composed_constant,
        composed_bound=composed_bound,
    )


# -- direct-product stabilization -------------------------------------------------


@dataclass
class StabilizationReport:
    """Every intermediate quantity of the two-stage stabilization; ``stage1``
    and ``stage2`` are the reports of the two roundings' certificates."""

    epsilon: float
    epsilon_split: dict
    split_identity_residual: float
    kappa1: float
    stage1: dict
    d1_base: float
    d1_corner: float
    eta: dict = field(repr=False)
    eta_sq_mu2: float
    eta_bound_triangle: float
    eta_bound_gap_form: float
    v_to_phi: dict = field(repr=False)
    v_defect_uniform: float
    v_defect_mu2: float
    v_defect_bound: float
    stage2: dict
    distance_uniform: float
    distance_mu1: float
    distance_mu2: float
    distance_mixture: float
    trace_total: float
    trace_excess: float
    assembly_residual: float
    pi_residual: float


def stabilize_product(
    phi: AlmostHom, mu1: ProbMeasure, mu2: ProbMeasure
) -> tuple[UnitaryRep, StabilizationReport]:
    """Stabilize an almost-homomorphism of a direct product in two stages.

    (i) round the restriction to the first factor; (ii) conjugate the
    second-factor values into the corner and project them onto the
    commutant N of the rounded representation; (iii) replace each by the
    nearest unitary of N; (iv) round that almost-homomorphism inside N;
    (v) assemble a genuine representation of G1 x G2 on the doubly-rounded
    corner together with a composed isometry.  Each stage is one
    :func:`gowers_hatami_round`, which refuses a stage over its cap.

    Defect accounting uses the mixture measure mu(x, y) = (mu1(x)1_{y=e} +
    mu2(y)1_{x=e}) / 2; its defect and the four-way split are five
    weightings of one grid of law residuals over supp(mu)^2 (``_law_sq``),
    whose pairs hold every split's.  The report carries the split, the
    commutant-distance figures eta with both forms of their gap bound, the
    stage defects and every closeness number of the assembly.  The mu2 mean
    of eta^2 is checked against both bounds and the stage-two mu2 defect
    against its bound; a violation raises GapstabError.

    Stages (ii) and (iii) run on stacks: the images enter the corner as
    x -> w1 x w1* + (1 - w1 w1*), one stack per block for the first factor
    and one for the second; the second is compressed into N once
    (:func:`~gapstab.algebra.commutant_blocks`), its lift is its projection
    onto N, and its polar factors are stage two's map.  d1_corner, eta,
    v_to_phi and the mu2 and mu2 * mu2 sums of eta^2 are weighted squared
    2-norms of those stacks.  The assembled pi(g, h) is the direct sum over
    the components j of pi2(h)_j (x) u_j(g), u_j the recorded irrep: up to
    a permutation, of product irreps u_j (x) rho2, rho2 over stage two's
    irreps on j (and the trivial one on its completion).  Maps built from
    checked parts are trusted, not validated again; ``pi_residual`` is the
    kept law residual of those product irreps (``rep_residual(pi)`` up to
    rounding), each formed alone, so the product's (|G1| |G2|)^2 irrep
    entries are never built.
    """
    group = phi.group
    if not isinstance(group, ProductGroup):
        raise InvalidArgument("stabilize_product needs a two-factor product group")
    g1, g2 = group.first, group.second
    base = phi.algebra
    e1, e2 = group.identity

    # mu1 and mu2 on the two factors' copies in G1 x G2
    mu1_emb = ProbMeasure(group, {(g, e2): p for g, p in mu1.items_nonzero()})
    mu2_emb = ProbMeasure(group, {(e1, h): p for h, p in mu2.items_nonzero()})
    mix = ProbMeasure(
        group,
        {
            g: (mu1_emb(g) + mu2_emb(g)) / 2
            for g in set(mu1_emb.support) | set(mu2_emb.support)
        },
    )
    # one law grid over supp(mix)^2 in mix's order, weighted five ways: eps
    # is bit for bit defect(phi, mix, mix), and each split term weighs the
    # same grid, its weights zero off its own supports
    mix_idx, mix_w = _measure_weights(group, mix)
    _check_defect_pairs(len(mix_idx), len(mix_idx))
    law = _law_sq(phi, mix_idx, mix_idx).ravel()
    on_mix = {
        k: np.array([float(m(g)) for g in mix.support]) for k, m in ((1, mu1_emb), (2, mu2_emb))
    }

    def weighted(left, right) -> float:
        return float(np.outer(left, right).ravel() @ law)

    eps = weighted(mix_w, mix_w)
    eps_split = {(a, b): weighted(on_mix[a], on_mix[b]) for a in (1, 2) for b in (1, 2)}
    split_residual = abs(sum(eps_split.values()) - 4.0 * eps)

    kappa1 = float(kappa(g1, mu1).kappa)

    # stage one: the first factor, rows of the validated phi (trusted)
    rows1 = [group.index((g, e2)) for g in g1.elements]
    phi1 = AlmostHom._trusted(g1, base, [s[rows1] for s in phi.stacks])
    cert1 = gowers_hatami_round(phi1)
    corner1, pi1, w1 = cert1.corner, cert1.pi, cert1.w

    mu1_idx, mu1_w = _measure_weights(g1, mu1)
    d1_base = float(mu1_w @ np.array([cert1.per_element[g1.elements[i]] for i in mu1_idx]))

    # images move into the corner as x -> w1 x w1* + (1 - w1 w1*), per stack
    complement = [np.eye(len(m)) - m @ m.conj().T for m in w1]

    def into_corner(stacks) -> list:
        return [(m @ s) @ m.conj().T + c for m, s, c in zip(w1, stacks, complement)]

    first = into_corner([s[mu1_idx] for s in phi1.stacks])
    d1_corner = float(
        mu1_w @ _distance_sq(corner1.coeffs, first, [s[mu1_idx] for s in pi1.stacks])
    )

    # stage two: second-factor values moved into the corner, compressed into N
    rows2 = [group.index((e1, h)) for h in g2.elements]
    second = into_corner([s[rows2] for s in phi.stacks])
    decomp = commutant_blocks(pi1)
    compressed = decomp.compress(second)
    eta_sq = _distance_sq(corner1.coeffs, second, decomp.lift(compressed))
    v_hom = AlmostHom._trusted(g2, decomp.algebra_n, list(map(unitary_polar_factor, compressed)))
    v_sq = _distance_sq(corner1.coeffs, second, decomp.lift(v_hom.stacks))
    eta = dict(zip(g2.elements, np.sqrt(eta_sq).tolist()))
    v_to_phi = dict(zip(g2.elements, np.sqrt(v_sq).tolist()))

    mu2_idx, mu2_w = _measure_weights(g2, mu2)
    eta_sq_mu2 = float(mu2_w @ eta_sq[mu2_idx])
    eta_bound_triangle = (
        1.5 * kappa1 * (4.0 * d1_corner + eps_split[(1, 2)] + eps_split[(2, 1)])
    )
    eta_bound_gap_form = 12.0 * kappa1 * max(d1_corner, eps)

    v_defect_mu2 = defect(v_hom, mu2, mu2)
    conv_idx, conv_w = _measure_weights(g2, mu2.convolve(mu2))
    eta_conv = math.sqrt(float(conv_w @ eta_sq[conv_idx]))
    v_defect_bound = (
        math.sqrt(eps_split[(2, 2)])
        + 2.0 * math.sqrt(2.0) * math.sqrt(eta_sq_mu2)
        + math.sqrt(2.0) * eta_conv
    ) ** 2
    _check_bound(eta_sq_mu2, eta_bound_triangle, "commutant distance (triangle form)")
    _check_bound(eta_sq_mu2, eta_bound_gap_form, "commutant distance (gap form)")
    _check_bound(v_defect_mu2, v_defect_bound, "stage-two defect")

    cert2 = gowers_hatami_round(v_hom)

    # assembly: pi(g, h) is block diagonal over the commutant components j
    # of each base block, pi2(h)_j (x) u_j(g) on component j with u_j its
    # irrep; the Kronecker product of the stacks (1, |G2|, ...) and
    # (|G1|, 1, ...) runs g outermost, as group.elements.  pi2 and the
    # irreps are trusted, and so is this direct sum of their products
    families = g1.irrep_stacks()
    w_total, final_stacks = [], []
    for i, w1_block in enumerate(w1):
        rows, kron_blocks = [], []
        for j, ((bi, w_iso, _, d), (f, q)) in enumerate(zip(decomp.components, decomp.irreps)):
            if bi == i:
                rows.append(np.kron(cert2.w[j], np.eye(d)) @ w_iso.conj().T @ w1_block)
                kron_blocks.append(np.kron(cert2.pi.stacks[j][None], families[f][q][:, None]))
        w_total.append(np.vstack(rows))
        n_final = len(w_total[-1])
        stack = np.zeros((g1.order, g2.order, n_final, n_final), dtype=complex)
        off = 0
        for blk in kron_blocks:
            size = blk.shape[-1]
            stack[:, :, off : off + size, off : off + size] = blk
            off += size
        final_stacks.append(stack.reshape(group.order, n_final, n_final))
    final_alg = TracialAlgebra._raw([len(w) for w in w_total], base.coeffs)
    pi_final = UnitaryRep._trusted(group, final_alg, final_stacks)

    # the product irreps u_j (x) rho2 that occur, rho2 trivial on a completion
    trivial2 = g2._trivial_irrep()
    occurring = {
        group._product_irrep(irrep1, irrep2)
        for irrep1, irreps2, (_, t) in zip(decomp.irreps, cert2.irreps, cert2.spectral_ranks)
        for irrep2 in irreps2 + [trivial2] * (t > 0)
    }

    per_sq = _pullback_sq(w_total, base.coeffs, phi.stacks, pi_final.stacks)
    distance_mu1 = float(mu1_w @ per_sq[rows1][mu1_idx])
    distance_mu2 = float(mu2_w @ per_sq[rows2][mu2_idx])

    # w_total* pi(g, e) w_total against w1* pi1(g) w1 along the first factor
    pulled1 = [m.conj().T @ s @ m for m, s in zip(w1, pi1.stacks)]
    assembly_sq = _pullback_sq(
        w_total, base.coeffs, pulled1, [s[rows1] for s in pi_final.stacks]
    )
    assembly_residual = math.sqrt(assembly_sq.max())

    report = StabilizationReport(
        epsilon=eps,
        epsilon_split=eps_split,
        split_identity_residual=split_residual,
        kappa1=kappa1,
        stage1=cert1.report(),
        d1_base=d1_base,
        d1_corner=d1_corner,
        eta=eta,
        eta_sq_mu2=eta_sq_mu2,
        eta_bound_triangle=eta_bound_triangle,
        eta_bound_gap_form=eta_bound_gap_form,
        v_to_phi=v_to_phi,
        v_defect_uniform=cert2.input_defect,
        v_defect_mu2=v_defect_mu2,
        v_defect_bound=v_defect_bound,
        stage2=cert2.report(),
        distance_uniform=float(per_sq.mean()),
        distance_mu1=distance_mu1,
        distance_mu2=distance_mu2,
        distance_mixture=(distance_mu1 + distance_mu2) / 2.0,
        trace_total=final_alg.tau_one,
        trace_excess=final_alg.tau_one - base.tau_one,
        assembly_residual=assembly_residual,
        pi_residual=group._irrep_law_residual(occurring, final_alg.dims),
    )
    return pi_final, report
