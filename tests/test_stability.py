import dataclasses
import itertools
import math
import time
from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest

from gapstab import algebra, groups, stability, suites
from gapstab.abelian import (
    AbelianGroup,
    boolean_group,
    cyclic,
    regular_rep,
    rep_from_pvm,
)
from gapstab.algebra import (
    AlgebraElement,
    AlmostHom,
    TracialAlgebra,
    UnitaryRep,
    commutant_blocks,
    defect,
    haar_unitary,
    nearest_unitary_in_commutant,
    rep_residual,
)
from gapstab.errors import (
    DegenerateDecomposition,
    GapstabError,
    InvalidArgument,
    InvalidRepresentation,
    PreconditionViolation,
    ResourceCap,
)
from gapstab.games import (
    honest_strategy,
    pauli_pvms,
    pauli_rigidity_report,
    perturb_strategy,
)
from gapstab.groups import (
    CentralExtensionGroup,
    PermutationGroup,
    ProductGroup,
    symmetric_group,
)
from gapstab.spectral import ProbMeasure
from gapstab.stability import (
    DISTANCE_CONSTANT,
    PAIR_CONSTANT,
    PROJECTION_CONSTANT,
    SUBGROUP_CONSTANT,
    TWISTED_CONSTANT,
    commutator_amplification_check,
    equivariance_residual,
    gowers_hatami_round,
    round_commuting_pair,
    round_pauli_pair,
    round_twisted_pair,
    stabilize_product,
    subgroup_closeness_check,
    twisted_amplification_check,
)
from gapstab.suites import named_game

# module constants are the contract; everything below asserts against them
assert (DISTANCE_CONSTANT, PROJECTION_CONSTANT) == (169.0, 16.0)
assert (SUBGROUP_CONSTANT, PAIR_CONSTANT, TWISTED_CONSTANT) == (38.0, 1444.0, 30000.0)


def _noisy_images(rep, sigma, rng, fixed_identity=True):
    alg = rep.algebra
    out = {}
    for g in rep.group.elements:
        blocks = []
        for b in rep.images[g].blocks:
            d = b.shape[0]
            if sigma == 0.0 or (fixed_identity and g == rep.group.identity):
                blocks.append(b.copy())
                continue
            h = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
            h = (h + h.conj().T) / 2
            h /= max(np.linalg.norm(h, 2), 1e-300)
            vals, vecs = np.linalg.eigh(h)
            blocks.append(((vecs * np.exp(1j * sigma * vals)) @ vecs.conj().T) @ b)
        out[g] = AlgebraElement(alg, blocks)
    return out


def test_round_exact_rep():
    rep = regular_rep(boolean_group(2))
    phi = AlmostHom(rep.group, rep.algebra, rep.images)
    cert = gowers_hatami_round(phi)
    assert cert.distance < 1e-12
    assert cert.trace_excess < 1e-9
    assert cert.intermediates["isometry_residual"] < 1e-9
    r = cert.report()
    assert r["distance_bound"] == DISTANCE_CONSTANT * r["input_defect"]


def test_round_noisy_rep_bounds():
    rep = regular_rep(cyclic(5))
    rng = np.random.default_rng(0)
    phi = AlmostHom(rep.group, rep.algebra, _noisy_images(rep, 0.2, rng))
    eps = defect(phi)
    assert eps > 1e-6
    cert = gowers_hatami_round(phi)  # raises if any internal bound fails
    r = cert.report()
    assert cert.distance <= DISTANCE_CONSTANT * eps
    assert cert.trace_excess <= PROJECTION_CONSTANT * eps
    assert cert.projection_defect <= PROJECTION_CONSTANT * eps
    # the isometry-defect chain bound on X = PV
    assert r["contraction_distance"] <= r["contraction_bound"] * (1 + 1e-9) + 1e-12


def test_round_enforces_the_contraction_bound(monkeypatch):
    """The 25 eps contraction bound is checked, not only reported: with the
    constant forced far below the measured ratio the rounding raises."""
    rep = regular_rep(cyclic(5))
    phi = AlmostHom(rep.group, rep.algebra, _noisy_images(rep, 0.2, np.random.default_rng(0)))
    r = gowers_hatami_round(phi).report()
    assert r["contraction_distance"] > 1e-6
    monkeypatch.setattr(stability, "CONTRACTION_CONSTANT", 1e-6)
    with pytest.raises(GapstabError, match="contraction distance"):
        gowers_hatami_round(phi)


def test_round_pullback():
    rep = regular_rep(cyclic(3))
    rng = np.random.default_rng(1)
    phi = AlmostHom(rep.group, rep.algebra, _noisy_images(rep, 0.05, rng))
    cert = gowers_hatami_round(phi)
    alg = rep.algebra
    total = 0.0
    for g in rep.group.elements:
        total += alg.norm2(phi.images[g] - cert.pullback(g)) ** 2
    assert abs(total / rep.group.order - cert.distance) < 1e-9


def test_per_element_matches_distance():
    rep = regular_rep(cyclic(4))
    rng = np.random.default_rng(2)
    phi = AlmostHom(rep.group, rep.algebra, _noisy_images(rep, 0.1, rng))
    cert = gowers_hatami_round(phi)
    mean = sum(cert.per_element.values()) / rep.group.order
    assert abs(mean - cert.distance) < 1e-12


def test_rounding_dim_cap(monkeypatch):
    monkeypatch.setattr(algebra, "ROUNDING_DIM_CAP", 4)
    rep = regular_rep(boolean_group(2))
    phi = AlmostHom(rep.group, rep.algebra, rep.images)
    with pytest.raises(ResourceCap):
        gowers_hatami_round(phi)


def test_rounding_cap_admits_the_fourier_block(monkeypatch):
    """The cap bounds |G| m^2 by its square, and so the largest Hermitian
    block m d_rho: S3 regular (m = 6, an irrep of dimension 2) rounds under
    a cap of 15 through blocks of 6 * 2 = 12, below the 36 of the dense
    operator, and a cap of 14 refuses its 216 stack entries before any irrep
    is built."""
    rep = regular_rep(symmetric_group(3))
    monkeypatch.setattr(algebra, "ROUNDING_DIM_CAP", 15)
    report = gowers_hatami_round(AlmostHom(rep.group, rep.algebra, rep.images)).report()
    assert report["largest_block"] == 12

    group = symmetric_group(3)
    rep = regular_rep(group)
    monkeypatch.setattr(algebra, "ROUNDING_DIM_CAP", 14)
    monkeypatch.setattr(group, "irrep_stacks", None)  # any irrep call fails
    with pytest.raises(ResourceCap, match="rounding stack of 216 entries"):
        gowers_hatami_round(AlmostHom(group, rep.algebra, rep.images))


def test_rounding_s5_beyond_the_old_dense_cap():
    """The S5 permutation representation tensored up to m = 35 has
    |G| m = 4200, over the cap of 4096 for a dense (|G| m)^2 operator; its
    largest Fourier block is 35 * 6 = 210, and the rounding meets its
    bounds."""
    base = _permutation_rep(symmetric_group(5))
    alg = TracialAlgebra.matrix(35)
    rep = UnitaryRep(base.group, alg, [np.kron(base.stacks[0], np.eye(7))], check="none")
    assert base.group.order * 35 > algebra.ROUNDING_DIM_CAP
    phi = suites._noisy_hom(rep, 0.05, np.random.default_rng(6))
    cert = gowers_hatami_round(phi)
    r = cert.report()
    assert r["largest_block"] == 210
    assert r["input_defect"] > 1e-4
    assert cert.distance <= DISTANCE_CONSTANT * cert.input_defect
    assert cert.trace_excess <= PROJECTION_CONSTANT * cert.input_defect
    assert cert.projection_defect <= PROJECTION_CONSTANT * cert.input_defect


# -- the rounding against the dense oracle --------------------------------------


def _round_block(n, m, mul_idx, inv_idx, phi_stack):
    """Round one base block with the dense averaged operator: the oracle.

    Returns the rank R of the spectral projection, the completion dimension
    t, the compressed dilation X = Z* V (Z the spectral isometry, used here
    and not returned), the polar part w0 and completed isometry w (corner
    coordinates), the stack of compressions Z* lambda(g) Z, and threshold
    diagnostics.
    """
    v_rect = (phi_stack[inv_idx] / math.sqrt(n)).reshape(n * m, m)

    # The averaged operator is block-Toeplitz: A[h1, h2] = B(h2^{-1} h1)
    # with B(k) = (1/n^2) sum_v phi(v) phi(kv)*.
    bmat = np.empty((n, m, m), dtype=complex)
    for k in range(n):
        bmat[k] = np.einsum(
            "vab,vcb->ac", phi_stack, phi_stack[mul_idx[k]].conj()
        ) / (n * n)
    a_op = np.empty((n * m, n * m), dtype=complex)
    for h1 in range(n):
        krow = mul_idx[inv_idx, h1]
        a_op[h1 * m : (h1 + 1) * m] = (
            bmat[krow].transpose(1, 0, 2).reshape(m, n * m)
        )
    a_op = (a_op + a_op.conj().T) / 2.0

    vals, vecs = np.linalg.eigh(a_op)
    keep, ties, margin = stability._cut(vals)
    z_iso = vecs[:, keep]
    r_dim = z_iso.shape[1]

    x_mat = z_iso.conj().T @ v_rect
    w0, w_mat, t_dim = stability._polar_completion(x_mat, n * m - r_dim)
    z_blocks = z_iso.reshape(n, m, r_dim)
    core = np.stack(
        [
            z_iso.conj().T @ z_blocks[mul_idx[inv_idx[gi]]].reshape(n * m, r_dim)
            for gi in range(n)
        ]
    )
    return {
        "R": r_dim,
        "t": t_dim,
        "X": x_mat,
        "w": w_mat,
        "w0": w0,
        "core": core,
        "ties": ties,
        "margin": margin,
    }


def _dense_rounding(phi):
    """The rounding's numbers, spectral ranks, corner image stacks and
    isometry from the dense oracle, one (|G| m)^2 eigendecomposition per
    base block."""
    group, base = phi.group, phi.algebra
    n, coeffs = group.order, base.coeffs
    mul_idx = group.mul_index(*np.divmod(np.arange(n * n), n)).reshape(n, n)
    # the inverse of g_i is the column of the identity in row i
    inv_idx = np.nonzero(mul_idx == group.index(group.identity))[1]
    blocks = [
        _round_block(n, m, mul_idx, inv_idx, stack) for m, stack in zip(base.dims, phi.stacks)
    ]
    pi_stacks = []
    for blk in blocks:
        r_dim, t_dim = blk["R"], blk["t"]
        pi_b = np.zeros((n, r_dim + t_dim, r_dim + t_dim), dtype=complex)
        pi_b[:, :r_dim, :r_dim] = blk["core"]
        pi_b[:, r_dim:, r_dim:] = np.eye(t_dim)
        pi_stacks.append(pi_b)
    w = [blk["w"] for blk in blocks]
    x_mats = [blk["X"] for blk in blocks]
    pullback_sq = stability._pullback_sq
    report = {
        "distance": float(pullback_sq(w, coeffs, phi.stacks, pi_stacks).mean()),
        "trace_excess": sum(c * (b["R"] + b["t"]) for c, b in zip(coeffs, blocks))
        - base.tau_one,
        "contraction_distance": float(
            pullback_sq(x_mats, coeffs, phi.stacks, [b["core"] for b in blocks]).mean()
        ),
        "one_minus_xstarx": math.sqrt(stability._gram_defect(x_mats, coeffs)),
        "p_minus_xxstar": math.sqrt(
            stability._gram_defect([x.conj().T for x in x_mats], coeffs)
        ),
        "threshold_margin": min(b["margin"] for b in blocks),
        "tie_count": sum(b["ties"] for b in blocks),
        "corner_dims": [b["R"] + b["t"] for b in blocks],
    }
    return report, [(b["R"], b["t"]) for b in blocks], pi_stacks, w



def _pauli_extension(r):
    grp = boolean_group(r)
    dual = grp.dual()
    return CentralExtensionGroup(grp, dual, lambda a, chi: int(grp.pairing(chi, a)))


def _permutation_rep(group):
    """The defining representation of a permutation group."""
    alg = TracialAlgebra.matrix(group.degree)
    eye = np.eye(group.degree)
    images = {g: AlgebraElement(alg, [eye[:, list(g)]]) for g in group.elements}
    return UnitaryRep(group, alg, images)


def _dihedral4():
    """D4 as the symmetries of a square, on its four corners."""
    return PermutationGroup(
        [tuple((i + k) % 4 for i in range(4)) for k in range(4)]
        + [tuple((k - i) % 4 for i in range(4)) for k in range(4)]
    )


def _alternating4():
    """A4, the even permutations of four points."""
    return PermutationGroup(
        p
        for p in itertools.permutations(range(4))
        if sum(a > b for a, b in itertools.combinations(p, 2)) % 2 == 0
    )


def _two_block_rep(group):
    """The regular representation (weight 1/5) next to a nontrivial
    character (weight 4/5) of an abelian group."""
    reg = regular_rep(group)
    alg = TracialAlgebra([(group.order, Fraction(1, 5)), (1, Fraction(4, 5))])
    chi = group.character_table()[1]
    images = {
        g: AlgebraElement(alg, [reg.images[g].blocks[0], np.array([[chi[i]]])])
        for i, g in enumerate(group.elements)
    }
    return UnitaryRep(group, alg, images)


# (representation, sigma, seed); "completion" needs t > 0 completion columns
_ORACLE_CASES = {
    "cyclic5": (lambda: regular_rep(cyclic(5)), 0.2, 1),
    "boolean3": (lambda: regular_rep(boolean_group(3)), 0.3, 1),
    "z3xz3": (lambda: regular_rep(AbelianGroup((3, 3))), 0.2, 1),
    "z2xz4": (lambda: regular_rep(AbelianGroup((2, 4))), 0.25, 1),
    "product": (
        lambda: regular_rep(ProductGroup(cyclic(2), AbelianGroup((2, 2)))), 0.2, 2
    ),
    "repetition-extension": (lambda: regular_rep(_pauli_extension(1)), 0.2, 3),
    "two-block": (lambda: _two_block_rep(AbelianGroup((2, 3))), 0.3, 4),
    "completion": (lambda: regular_rep(boolean_group(2)), 1.6, 0),
    "s3-permutation": (lambda: _permutation_rep(symmetric_group(3)), 0.2, 5),
    "s4-permutation": (lambda: _permutation_rep(symmetric_group(4)), 0.1, 6),
    "a4-permutation": (lambda: _permutation_rep(_alternating4()), 0.2, 7),
    "d4-regular": (lambda: regular_rep(_dihedral4()), 0.2, 8),
    "c2xs3": (lambda: suites._permutation_rep(3, flip=True), 0.2, 9),
}


@pytest.mark.parametrize("case", sorted(_ORACLE_CASES))
def test_fourier_rounding_matches_dense(case):
    make, sigma, seed = _ORACLE_CASES[case]
    rep = make()
    phi = suites._noisy_hom(rep, sigma, np.random.default_rng(seed))
    fourier = gowers_hatami_round(phi)
    rd, dense_ranks, dense_pi, dense_w = _dense_rounding(phi)
    rf = fourier.report()
    for key in (
        "distance",
        "trace_excess",
        "contraction_distance",
        "one_minus_xstarx",
        "p_minus_xxstar",
        "threshold_margin",
    ):
        assert rf[key] == pytest.approx(rd[key], rel=1e-9, abs=1e-300), key
    assert fourier.spectral_ranks == dense_ranks
    assert (rf["tie_count"], rf["corner_dims"]) == (rd["tie_count"], rd["corner_dims"])
    if case == "completion":
        assert fourier.spectral_ranks[0][1] > 0
    # w* pi(g) w does not depend on the basis either side picks in the corner
    for gi, g in enumerate(phi.group.elements):
        for bf, m, s in zip(fourier.pullback(g).blocks, dense_w, dense_pi):
            assert np.abs(bf - m.conj().T @ s[gi] @ m).max() <= 1e-12, g
    # pi is a direct sum of irreps: its residual is read off the irreps
    assert abs(rf["pi_residual"] - rep_residual(fourier.pi)) <= 1e-14


@pytest.mark.parametrize("case", sorted(_ORACLE_CASES))
def test_certificate_irreps_rebuild_pi(case):
    """cert.irreps lists pi's irrep copies in its coordinate order: they
    fill the first R coordinates of each block, the identity the t
    completion coordinates, and that rebuilds pi's stacks exactly."""
    make, sigma, seed = _ORACLE_CASES[case]
    cert = gowers_hatami_round(suites._noisy_hom(make(), sigma, np.random.default_rng(seed)))
    families = cert.group.irrep_stacks()
    for (r_dim, t_dim), irreps, stack in zip(cert.spectral_ranks, cert.irreps, cert.pi.stacks):
        rebuilt = np.zeros_like(stack)
        off = 0
        for f, q in irreps:
            d = families[f].shape[-1]
            rebuilt[:, off : off + d, off : off + d] = families[f][q]
            off += d
        assert off == r_dim
        rebuilt[:, r_dim:, r_dim:] = np.eye(t_dim)
        assert np.array_equal(rebuilt, stack)
    if case == "completion":
        assert cert.spectral_ranks[0][1] > 0


@pytest.mark.parametrize("sampled", [False, True], ids=["every-pair", "sampled"])
@pytest.mark.parametrize(
    "case", ["boolean3", "two-block", "repetition-extension", "s4-permutation", "c2xs3"]
)
def test_pi_residual_is_a_fresh_worst_residual_over_the_occurring_irreps(
    monkeypatch, case, sampled
):
    """pi_residual, read from the residuals kept beside the group's irreps,
    equals bit for bit one fresh _worst_residual over the irreps that occur
    in the corner, on every pair and on the sampled pairs."""
    if sampled:
        monkeypatch.setattr(algebra, "_LAW_COST_LIMIT", 0)
    make, sigma, seed = _ORACLE_CASES[case]
    phi = suites._noisy_hom(make(), sigma, np.random.default_rng(seed))
    cert = gowers_hatami_round(phi)
    group = phi.group
    families = group.irrep_stacks()
    occurring = sorted({
        fq
        for m, s in zip(phi.algebra.dims, phi.stacks)
        for fq in stability._fourier_round_block(group.order, m, families, s)["irreps"]
    })
    irreps = [families[f][q] for f, q in occurring]
    pairs = algebra._law_pairs(group, cert.corner.dims)
    assert len(pairs[0]) == (64 if sampled else group.order**2)
    fresh = algebra._worst_residual(
        [s.shape[-1] for s in irreps], len(pairs[0]), algebra._law_residuals(irreps, pairs)
    )
    assert cert.intermediates["pi_residual"] == fresh


def test_irrep_law_residuals_are_computed_once_per_group(monkeypatch):
    """Rounding two maps of one group computes each irrep's law residual
    once: the first rounding takes one _worst_residual per irrep (every one
    of S3's three occurs near its regular representation), the second none;
    the sampled-pair regime keeps its own residuals."""
    group = symmetric_group(3)
    rep = regular_rep(group)
    calls = []
    worst = groups._worst_residual
    monkeypatch.setattr(groups, "_worst_residual", lambda *a: calls.append(a[0]) or worst(*a))
    rng = np.random.default_rng(4)
    first = gowers_hatami_round(suites._noisy_hom(rep, 0.05, rng))
    assert sorted(calls) == [(1,), (1,), (2,)]
    second = gowers_hatami_round(suites._noisy_hom(rep, 0.1, rng))
    assert len(calls) == 3
    assert first.intermediates["pi_residual"] == second.intermediates["pi_residual"]
    monkeypatch.setattr(algebra, "_LAW_COST_LIMIT", 0)
    gowers_hatami_round(suites._noisy_hom(rep, 0.05, rng))
    gowers_hatami_round(suites._noisy_hom(rep, 0.05, rng))
    assert len(calls) == 6


def test_a_corrupted_irrep_family_is_refused_at_its_first_use(monkeypatch):
    """The irreps are checked unitary once, where the group builds them: a
    character family with one image off by 1e-3 is refused, with its
    residual, by the first rounding and by the defect, and nothing is
    cached.  The sound family is built and checked on the next call; later
    roundings validate neither the irreps nor the corner representation."""
    group = cyclic(4)
    phi = suites._noisy_hom(regular_rep(group), 0.05, np.random.default_rng(2))
    build = AbelianGroup._build_irreps

    def corrupted(self):
        fam = build(self)[0].copy()
        fam[1, 2] *= 1.001
        return [fam]

    with monkeypatch.context() as m:
        m.setattr(AbelianGroup, "_build_irreps", corrupted)
        with pytest.raises(InvalidRepresentation, match="irrep images are not unitary") as err:
            gowers_hatami_round(phi)
        assert err.value.residual == pytest.approx(1.001**2 - 1, rel=1e-6)
        with pytest.raises(InvalidRepresentation):
            defect(phi)
        assert group._irreps is None
    gowers_hatami_round(phi)  # builds and checks the sound family
    checks = []
    for module in (algebra, groups):
        exact = module._exact_residuals
        monkeypatch.setattr(
            module, "_exact_residuals", lambda *a, f=exact: checks.append(1) or f(*a)
        )
    cert = gowers_hatami_round(phi)
    assert cert.intermediates["pi_residual"] < 1e-12
    assert not checks  # neither the irreps nor pi are validated again


def test_rep_residual_of_a_rounded_map_takes_few_operator_norms(monkeypatch):
    """The law residuals of the S4 representation rounded by the dense
    oracle are rounding noise.  Taken in descending Frobenius order, few of
    the 576 need an SVD, and the worst is the maximum over all of them, bit
    for bit."""
    phi = suites._noisy_hom(_permutation_rep(symmetric_group(4)), 0.05, np.random.default_rng(1))
    report, _, pi_stacks, _ = _dense_rounding(phi)
    corner = TracialAlgebra._raw(report["corner_dims"], phi.algebra.coeffs)
    pi = UnitaryRep(phi.group, corner, pi_stacks, check="none")
    pairs = algebra._law_pairs(pi.group, pi.algebra.dims)
    norms = algebra._operator_norms
    every = norms(next(algebra._law_residuals(pi.stacks, pairs)(0, slice(None))))
    rows = []
    monkeypatch.setattr(algebra, "_operator_norms", lambda r: rows.append(len(r)) or norms(r))
    assert rep_residual(pi) == every.max() > 0
    assert 0 < sum(rows) < len(every) // 4


def test_defect_and_rounding_make_no_label_products(monkeypatch):
    """defect and gowers_hatami_round read every product through mul_index,
    with no label-level mul call on an abelian group or an extension."""
    reps = [regular_rep(boolean_group(3)), regular_rep(_pauli_extension(1))]
    calls = []
    for cls in (AbelianGroup, CentralExtensionGroup):
        mul = cls.mul
        monkeypatch.setattr(
            cls, "mul", lambda self, g, h, mul=mul: calls.append((g, h)) or mul(self, g, h)
        )
    for seed, rep in enumerate(reps):
        phi = suites._noisy_hom(rep, 0.1, np.random.default_rng(seed))
        defect(phi)
        gowers_hatami_round(phi)
    assert calls == []


def test_rounding_largest_block():
    """Z2^5 at m = 32 rounds through 32 one-dimensional blocks of size 32;
    S4 (m = 4) through blocks of at most 4 * 3 = 12, not the dense |G| m = 96."""
    rng = np.random.default_rng(5)
    for rep, block in (
        (regular_rep(boolean_group(5)), 32),
        (_permutation_rep(symmetric_group(4)), 12),
    ):
        report = gowers_hatami_round(suites._noisy_hom(rep, 0.05, rng)).report()
        assert "path" not in report
        assert report["largest_block"] == block


def test_rounding_defect_comes_from_its_fourier_blocks(monkeypatch):
    """Above the floor the certificate's defect is read off the blocks the
    rounding factorises, one transform per irrep family and no pairwise
    residual, on abelian, extension and permutation groups alike, and equals
    defect(phi) bit for bit; below the floor it is the pairwise sum."""
    rng = np.random.default_rng(12)
    transforms = []
    blocks = algebra._fourier_blocks
    for module in (algebra, stability):
        monkeypatch.setattr(
            module, "_fourier_blocks", lambda *args: transforms.append(1) or blocks(*args)
        )
    for rep, sigma, path in (
        (regular_rep(boolean_group(3)), 0.1, "fourier"),
        (_two_block_rep(AbelianGroup((2, 3))), 0.1, "fourier"),
        (regular_rep(_pauli_extension(1)), 0.1, "fourier"),
        (regular_rep(boolean_group(3)), 1e-3, "pairwise"),
        (_permutation_rep(symmetric_group(3)), 0.1, "fourier"),
    ):
        phi = suites._noisy_hom(rep, sigma, rng)
        families = rep.group.irrep_stacks()
        transforms.clear()
        with monkeypatch.context() as m:
            if path == "fourier":
                m.setattr(algebra, "_law_sq", None)  # any pairwise call fails
            cert = gowers_hatami_round(phi)
        assert cert.intermediates["defect_path"] == path
        assert len(transforms) == len(families) * len(phi.stacks)
        assert cert.input_defect == defect(phi)


def test_twisted_defect_identity_is_checked(monkeypatch):
    """The rounding's Fourier defect and the mean of the pair defects are
    independent formulae for one number: they agree on a noisy Pauli pair,
    and a pair-defect mean off by 1% fails the identity check."""
    rng = np.random.default_rng(21)
    u, v = _pauli_reps(2)
    alg = u.algebra
    noise = AlgebraElement(alg, [next(algebra._noise_unitaries((4,), 1, 0.2, rng))[0]])
    v = UnitaryRep(v.group, alg, {b: noise * v(b) * noise.H for b in v.group.elements})
    grp = u.group

    def gamma(a, chi):
        return int(grp.pairing(chi, a))

    res = round_twisted_pair(u, v, gamma)
    assert res.certificate.intermediates["defect_path"] == "fourier"
    assert res.epsilon > 1e-3
    assert res.certificate.input_defect == pytest.approx(res.epsilon, rel=1e-10)
    pair_defects = stability._pair_defects
    monkeypatch.setattr(stability, "_pair_defects", lambda *args: 1.01 * pair_defects(*args))
    with pytest.raises(GapstabError, match="twisted defect identity failed"):
        round_twisted_pair(u, v, gamma)


def test_round_twisted_pair_hamming():
    """The Hamming pair (extension of order 512, m = 32) rounds through its
    512-dimensional faithful block, not the 16384-dimensional dense operator."""
    game = named_game("hamming")
    strat = perturb_strategy(honest_strategy(game), 0.05, np.random.default_rng(3))
    group = game.h_group
    u = rep_from_pvm(strat["PX"], group)
    v = rep_from_pvm(strat["PZ"], group.dual())
    start = time.perf_counter()
    res = round_twisted_pair(u, v, lambda a, chi: int(group.pairing(chi, a)))
    elapsed = time.perf_counter() - start
    assert res.epsilon > 1e-4
    assert max(res.distance_u, res.distance_v) <= TWISTED_CONSTANT * res.epsilon
    assert res.relation_residual <= 1e-9
    report = res.certificate.report()
    assert report["largest_block"] == 512
    assert elapsed <= 15.0


def _product_form_phi(a_grp, b_grp, sigma, rng):
    """A map exactly multiplicative on the first factor, noisy on the second."""
    grp = ProductGroup(a_grp, b_grp)
    ra = regular_rep(a_grp)
    rb = regular_rep(b_grp)
    alg = TracialAlgebra.matrix(a_grp.order * b_grp.order)
    noisy_b = _noisy_images(rb, sigma, rng)  # identity stays exact
    images = {}
    for a in a_grp.elements:
        for b in b_grp.elements:
            m = np.kron(ra.images[a].blocks[0], noisy_b[b].blocks[0])
            images[(a, b)] = AlgebraElement(alg, [m])
    return grp, AlmostHom(grp, alg, images)


def test_subgroup_closeness():
    """Exact equivariance along a subgroup tightens the distance to 38 sqrt(eps)."""
    rng = np.random.default_rng(3)
    a_grp, b_grp = cyclic(3), cyclic(2)
    grp, phi = _product_form_phi(a_grp, b_grp, 0.15, rng)
    sub = [(a, b_grp.identity) for a in a_grp.elements]
    assert equivariance_residual(phi, sub) < 1e-12
    cert = gowers_hatami_round(phi)
    close = subgroup_closeness_check(phi, sub, cert)
    assert close.lhs <= close.bound
    assert close.bound == SUBGROUP_CONSTANT * math.sqrt(cert.input_defect)
    # squared form: lhs^2 <= 38^2 * eps
    assert close.lhs**2 <= SUBGROUP_CONSTANT**2 * cert.input_defect


def test_subgroup_closeness_preconditions():
    rng = np.random.default_rng(4)
    rep = regular_rep(cyclic(4))
    phi = AlmostHom(rep.group, rep.algebra, _noisy_images(rep, 0.2, rng))
    cert = gowers_hatami_round(phi)
    sub = [(0,), (2,)]
    with pytest.raises(PreconditionViolation):
        subgroup_closeness_check(phi, sub, cert)
    with pytest.raises(InvalidArgument):
        subgroup_closeness_check(phi, [(0,), (1,)], cert)  # not closed


def _tensor_pair(a_grp, b_grp):
    """u = R_A tensor 1, v = 1 tensor R_B: exactly commuting ranges."""
    ra, rb = regular_rep(a_grp), regular_rep(b_grp)
    alg = TracialAlgebra.matrix(a_grp.order * b_grp.order)
    ib = np.eye(b_grp.order)
    ia = np.eye(a_grp.order)
    u = UnitaryRep(
        a_grp,
        alg,
        {
            a: AlgebraElement(alg, [np.kron(ra.images[a].blocks[0], ib)])
            for a in a_grp.elements
        },
        check="none",
    )
    v = UnitaryRep(
        b_grp,
        alg,
        {
            b: AlgebraElement(alg, [np.kron(ia, rb.images[b].blocks[0])])
            for b in b_grp.elements
        },
        check="none",
    )
    return u, v


def test_round_commuting_pair_exact():
    u, v = _tensor_pair(cyclic(2), cyclic(3))
    res = round_commuting_pair(u, v)
    assert res.epsilon < 1e-24
    assert res.distance_u < 1e-10 and res.distance_v < 1e-10
    assert res.commuting_residual < 1e-9
    assert res.bound == PAIR_CONSTANT * res.epsilon


def test_round_commuting_pair_perturbed():
    u, v = _tensor_pair(cyclic(2), cyclic(2))
    alg = u.algebra
    c = AlgebraElement(alg, [haar_unitary(4, np.random.default_rng(5))])
    # conjugate only the second rep: ranges nearly commute but not exactly
    h = c.blocks[0] * 0.12
    ce = AlgebraElement(alg, [np.asarray(_expm_skew((h - h.conj().T) / 2))])
    v2 = UnitaryRep(
        v.group,
        alg,
        {b: ce * v.images[b] * ce.H for b in v.group.elements},
        check="none",
    )
    res = round_commuting_pair(u, v2)  # internal checks assert the 1444 eps bound
    assert res.distance_u <= res.bound * (1 + 1e-9) + 1e-12
    assert res.distance_v <= res.bound * (1 + 1e-9) + 1e-12
    assert res.commuting_residual < 1e-9


def _expm_skew(g):
    vals, vecs = np.linalg.eig(g)
    return (vecs * np.exp(vals)) @ np.linalg.inv(vecs)


def _pauli_reps(n, conjugate=None):
    tau_x, tau_z = pauli_pvms(n)
    grp = boolean_group(n)
    if conjugate is not None:
        tau_x = tau_x.conjugated(conjugate)
        tau_z = tau_z.conjugated(conjugate)
    return rep_from_pvm(tau_x, grp), rep_from_pvm(tau_z, grp.dual())


def test_round_twisted_pair_exact():
    u, v = _pauli_reps(1)
    grp = u.group
    res = round_twisted_pair(u, v, lambda a, chi: int(grp.pairing(chi, a)))
    assert res.epsilon < 1e-24
    assert res.distance_u < 1e-10 and res.distance_v < 1e-10
    assert res.relation_residual < 1e-9
    assert res.trace_q > 0


def test_twisted_cut_matches_per_element_oracle():
    """U~(a) and V~(b) are y* pi(g) y at the embedded g = (a, 1, +1) and
    (1, b, +1), y the isometry onto the minus-one eigenspace of the rounded
    central sign, as computed one element at a time."""
    rng = np.random.default_rng(21)
    u, v = _pauli_reps(2)
    alg = u.algebra
    noise = AlgebraElement(alg, [next(algebra._noise_unitaries((4,), 1, 0.05, rng))[0]])
    v = UnitaryRep(v.group, alg, {b: noise * v(b) * noise.H for b in v.group.elements})
    grp = u.group
    res = round_twisted_pair(u, v, lambda a, chi: int(grp.pairing(chi, a)))
    cert = res.certificate
    ext = cert.group
    ys = []
    for zb in cert.pi(ext.central_sign).blocks:
        qvals, qvecs = np.linalg.eigh((np.eye(len(zb)) - (zb + zb.conj().T) / 2.0) / 2.0)
        ys.append(qvecs[:, qvals > 0.5])
    assert res.epsilon > 1e-6
    for tilde, embed in ((res.u_tilde, ext.embed_a), (res.v_tilde, ext.embed_b)):
        for g in tilde.group.elements:
            for y, got, blk in zip(ys, tilde(g).blocks, cert.pi(embed(g)).blocks):
                assert np.abs(got - y.conj().T @ blk @ y).max() <= 1e-14


def _block_sum(a, b):
    """Per element, the direct sum of two image stacks."""
    k, p, _ = a.shape
    out = np.zeros((k, p + b.shape[-1], p + b.shape[-1]), dtype=complex)
    out[:, :p, :p], out[:, p:, p:] = a, b
    return out


def _half_twisted_pair():
    """On C^4 (+) C^4, the two-qubit Pauli pair next to the X part with a
    trivial V: the second half commutes where the twist asks for a sign."""
    u, v = _pauli_reps(2)
    alg = TracialAlgebra.matrix(8)
    trivial = np.broadcast_to(np.eye(4), v.stacks[0].shape)
    return (
        UnitaryRep(u.group, alg, [_block_sum(u.stacks[0], u.stacks[0])]),
        UnitaryRep(v.group, alg, [_block_sum(v.stacks[0], trivial)]),
        lambda a, chi: int(u.group.pairing(chi, a)),
    )


def _degenerate_twisted_pair():
    """X (x) X on Z2^2 against Z (x) 1 on Z2^2, twisted by the degenerate
    (-1)^(a_0 b_0): the extension's irreps come from the regular split."""
    grp = boolean_group(2)
    x, z = np.array([[0.0, 1.0], [1.0, 0.0]]), np.diag([1.0, -1.0])
    alg = TracialAlgebra.matrix(4)
    power = np.linalg.matrix_power
    u = np.array([np.kron(power(x, a[0]), power(x, a[1])) for a in grp.elements])
    v = np.array([np.kron(power(z, b[0]), np.eye(2)) for b in grp.elements])
    return (
        UnitaryRep(grp, alg, [u]),
        UnitaryRep(grp, alg, [v]),
        lambda a, b: (-1) ** (a[0] * b[0]),
    )


@pytest.mark.parametrize(
    "make, ranks, trace_q, p_minus_q",
    [
        (_half_twisted_pair, [(4, 4)], 0.5, math.sqrt(0.5)),
        (_degenerate_twisted_pair, [(4, 0)], 1.0, 0.0),
    ],
    ids=["completion", "degenerate"],
)
def test_twisted_cut_keeps_the_minus_one_coordinates(make, ranks, trace_q, p_minus_q):
    """The rounded central sign is +-1 on the diagonal: with a completion
    block (t > 0) its +1 coordinates are cut away, and on a degenerate twist
    its image carries the rounding of the regular split.  U~ and V~ are the
    kept coordinates of pi's rows at (a, 1, +1) and (1, b, +1), byte for
    byte."""
    u, v, gamma = make()
    res = round_twisted_pair(u, v, gamma)
    cert = res.certificate
    ext = cert.group
    assert cert.spectral_ranks == ranks
    z = cert.pi(ext.central_sign).blocks[0]
    assert np.abs(z - np.diag(np.sign(z.diagonal().real))).max() <= 1e-12
    kept = np.flatnonzero(z.diagonal().real < 0)
    for tilde, embed in ((res.u_tilde, ext.embed_a), (res.v_tilde, ext.embed_b)):
        rows = [ext.index(embed(g)) for g in tilde.group.elements]
        assert tilde.stacks[0].tobytes() == cert.pi.stacks[0][np.ix_(rows, kept, kept)].tobytes()
    assert res.trace_q == pytest.approx(trace_q, rel=1e-15)
    assert res.p_minus_q == pytest.approx(p_minus_q, rel=1e-12, abs=1e-12)
    assert res.relation_residual <= 1e-12


def test_twisted_cut_refuses_an_off_diagonal_central_sign(monkeypatch):
    """A central sign that is an involution but mixes a -1 with a +1
    coordinate is no direct sum of irreps and an identity block."""
    u, v, gamma = _half_twisted_pair()
    round_map = stability.gowers_hatami_round

    def rotated(phi):
        cert = round_map(phi)
        c, s = math.cos(0.1), math.sin(0.1)
        rot = np.eye(cert.corner.dims[0], dtype=complex)
        rot[np.ix_([0, 4], [0, 4])] = [[c, -s], [s, c]]
        stacks = [rot @ cert.pi.stacks[0] @ rot.conj().T]
        pi = UnitaryRep._trusted(cert.group, cert.corner, stacks)
        return dataclasses.replace(cert, pi=pi)

    monkeypatch.setattr(stability, "gowers_hatami_round", rotated)
    with pytest.raises(DegenerateDecomposition, match="diagonal involution"):
        round_twisted_pair(u, v, gamma)


def test_amplification_checks():
    u, v = _pauli_reps(2, conjugate=None)
    mu = ProbMeasure.uniform(u.group)
    nu = ProbMeasure.uniform(v.group)
    plain = commutator_amplification_check(u, v, mu, nu)
    twisted = twisted_amplification_check(u, v, mu, nu)
    # uniform measures give kappa = 1 and equality of both sides
    assert abs(plain.lhs - plain.rhs) < 1e-10 * max(1.0, plain.rhs)
    assert abs(twisted.lhs - twisted.rhs) < 1e-10 * max(1.0, twisted.rhs)


def test_amplification_with_gap():
    u, v = _pauli_reps(2)
    grp = u.group
    mu = ProbMeasure.uniform_on(grp, [(1, 0), (0, 1)])
    nu = ProbMeasure.uniform_on(v.group, [(1, 0), (0, 1), (1, 1)])
    chk = twisted_amplification_check(u, v, mu, nu)
    assert chk.lhs <= chk.rhs * (1 + 1e-9) + 1e-12


def _kron_defects(u, v):
    """The materialised tensor reduction: ||[U(a) (x) lambda(a), V(chi) (x)
    M(chi)]||_2^2 pair by pair, in the algebra amplified by M_|A|."""
    grp = u.group
    lam = regular_rep(grp)
    big = TracialAlgebra([(d * grp.order, w) for d, w in zip(u.algebra.dims, u.algebra.weights)])
    out = np.zeros((grp.order, v.group.order))
    for i, a in enumerate(grp.elements):
        ut = big.element([np.kron(b, lam.images[a].blocks[0]) for b in u.images[a].blocks])
        for j, chi in enumerate(v.group.elements):
            mod = np.diag([complex(grp.pairing(chi, x)) for x in grp.elements])
            vt = big.element([np.kron(b, mod) for b in v.images[chi].blocks])
            out[i, j] = big.norm2(ut * vt - vt * ut) ** 2
    return out


def _two_block_pair():
    """Haar-random images of Z2 x Z2 and its dual on M_2 (+) M_3."""
    grp = boolean_group(2)
    alg = TracialAlgebra([(2, Fraction(1, 3)), (3, Fraction(2, 3))])
    rng = np.random.default_rng(12)

    def images(g):
        return {x: alg.element([haar_unitary(d, rng) for d in alg.dims]) for x in g.elements}

    return AlmostHom(grp, alg, images(grp)), AlmostHom(grp.dual(), alg, images(grp.dual()))


@pytest.mark.parametrize("case", [1, 2, 3, "two-block"])
def test_tensor_trace_identity_matches_kronecker(case):
    """The Kronecker trace identity gives the materialised tensor reduction's
    defects, and the direct twisted defects, pair by pair."""
    if case == "two-block":
        u, v = _two_block_pair()
    else:
        u, v = suites._conjugated_pauli_reps(case, np.random.default_rng(case))
    got = stability._tensor_defects(u, v, u.group.character_table().T)
    want = _kron_defects(u, v)
    assert want.max() > 1e-3
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)
    direct = algebra._pair_defects(u, v, u.group.character_table().T)
    np.testing.assert_allclose(got, direct, rtol=0, atol=1e-12)


def _flip_one_character(monkeypatch):
    """Make character_table() return one wrong sign.  The direct twisted
    defect takes the wrong sign; the tensor reduction reads the same table,
    but its M(chi) is then no character's diagonal, so lambda and M no longer
    commute up to that sign and the two values part."""
    table = AbelianGroup.character_table

    def flipped(self):
        t = table(self).copy()
        t[1, 1] *= -1
        return t

    monkeypatch.setattr(AbelianGroup, "character_table", flipped)


@pytest.mark.parametrize("n, factor, tensor_cap", [(5, 2, 1024), (2, 1, 0)])
def test_tensor_cross_check_runs_at_every_size(monkeypatch, n, factor, tensor_cap):
    """A wrong twist in the direct value is caught above the old cap of
    m |A| = 1024 (here 64 * 32) and with the cross-check once disabled by
    ``tensor_cap=0``: the keyword no longer selects anything."""
    u, v = _pauli_reps(n)
    if factor > 1:
        big = TracialAlgebra.matrix(u.algebra.dims[0] * factor)

        def widen(rep):
            eye = np.eye(factor)
            return UnitaryRep(
                rep.group,
                big,
                {g: big.element([np.kron(rep.images[g].blocks[0], eye)]) for g in rep.group.elements},
                check="none",
            )

        u, v = widen(u), widen(v)
    assert max(u.algebra.dims) * u.group.order == (2048 if factor > 1 else 16)
    mu, nu = ProbMeasure.uniform(u.group), ProbMeasure.uniform(v.group)
    assert twisted_amplification_check(u, v, mu, nu, tensor_cap=tensor_cap).lhs < 1e-20
    _flip_one_character(monkeypatch)
    with pytest.raises(GapstabError, match="tensor reduction cross-check failed"):
        twisted_amplification_check(u, v, mu, nu, tensor_cap=tensor_cap)


def test_round_pauli_pair():
    u, v = _pauli_reps(1)
    mu = ProbMeasure.uniform_on(u.group, [(1,), (1,), (1,)])  # repetition law
    nu = ProbMeasure.uniform_on(v.group, [(1,), (1,), (1,)])
    res = round_pauli_pair(u, v, mu, nu)
    assert res.kappa_mu == 0.5 and res.kappa_nu == 0.5
    assert res.composed_constant == TWISTED_CONSTANT * 0.25
    assert res.rounding.distance_u < 1e-10
    assert res.rounding.relation_residual < 1e-9


def test_round_pauli_pair_group_validation():
    u, v = _pauli_reps(1)
    mu = ProbMeasure.uniform(u.group)
    bad = regular_rep(cyclic(3))
    with pytest.raises(InvalidArgument):
        round_pauli_pair(bad, v, ProbMeasure.uniform(bad.group), mu)


def test_stabilize_product_exact():
    grp_a, grp_b = cyclic(2), cyclic(2)
    grp, phi = _product_form_phi(grp_a, grp_b, 0.0, np.random.default_rng(0))
    mu1 = ProbMeasure.uniform(grp_a)
    mu2 = ProbMeasure.uniform(grp_b)
    pi, rep = stabilize_product(phi, mu1, mu2)
    # both stages go through the rounding, whose certificates see exact maps
    assert rep.stage1["input_defect"] < 1e-20 and rep.stage2["input_defect"] < 1e-20
    assert rep.distance_uniform < 1e-20
    assert rep.pi_residual < 1e-9
    assert rep.trace_excess < 1e-9


def test_stabilize_product_noisy():
    grp_a, grp_b = cyclic(2), cyclic(3)
    grp, phi = _product_form_phi(grp_a, grp_b, 0.08, np.random.default_rng(6))
    mu1 = ProbMeasure.uniform(grp_a)
    mu2 = ProbMeasure.uniform(grp_b)
    pi, rep = stabilize_product(phi, mu1, mu2)
    assert rep.epsilon > 0
    assert rep.pi_residual < 1e-8  # read off the product irreps that occur
    assert rep_residual(pi) < 1e-8  # the assembled map is a genuine representation
    assert rep.assembly_residual < 1e-10  # and on G1 it pulls back to stage one
    assert rep.split_identity_residual < 1e-12
    assert rep.distance_mixture >= 0
    assert rep.trace_total >= 1.0 - 1e-9


def _skewed(grp, rng):
    """A measure on grp with every element in its support, unequal weights."""
    raw = rng.integers(1, 9, size=grp.order)
    return ProbMeasure(grp, {g: Fraction(int(r), int(raw.sum())) for g, r in zip(grp.elements, raw)})


@pytest.mark.parametrize(
    "case, sigma, weighted",
    [("z2xz3", 0.08, False), ("z2xz3", 0.0, False), ("s3xz3", 0.05, False), ("s3xz3", 0.05, True)],
)
def test_stabilize_product_defects_from_one_law_grid(monkeypatch, case, sigma, weighted):
    """The product's defect and its four-way split are weightings of one
    grid of phi's law residuals: eps is defect(phi, mix, mix) bit for bit,
    and each split term is the five-call formula's defect(phi, mu_a, mu_b)
    within 1e-12 relative (1e-15 absolute at rounding level)."""
    rng = np.random.default_rng(3)
    if case == "z2xz3":
        grp, phi = _product_form_phi(cyclic(2), cyclic(3), sigma, rng)
    else:
        grp = ProductGroup(symmetric_group(3), cyclic(3))
        phi = _independently_noisy_product(grp.first, grp.second, sigma, rng)
    g1, g2 = grp.first, grp.second
    if weighted:
        mu1, mu2 = _skewed(g1, rng), _skewed(g2, rng)
    else:
        mu1, mu2 = ProbMeasure.uniform(g1), ProbMeasure.uniform(g2)
    grids = []

    def law_sq(f, rows, cols):
        grids.append(f is phi)
        return algebra._law_sq(f, rows, cols)

    monkeypatch.setattr(stability, "_law_sq", law_sq)
    _, rep = stabilize_product(phi, mu1, mu2)
    assert grids.count(True) == 1  # phi's law residuals are formed once
    # the five-call oracle
    e1, e2 = grp.identity
    emb = {
        1: ProbMeasure(grp, {(g, e2): p for g, p in mu1.items_nonzero()}),
        2: ProbMeasure(grp, {(e1, h): p for h, p in mu2.items_nonzero()}),
    }
    support = set(emb[1].support) | set(emb[2].support)
    mix = ProbMeasure(grp, {g: (emb[1](g) + emb[2](g)) / 2 for g in support})
    assert rep.epsilon == defect(phi, mix, mix)
    assert list(rep.epsilon_split) == [(1, 1), (1, 2), (2, 1), (2, 2)]
    for (a, b), got in rep.epsilon_split.items():
        want = defect(phi, emb[a], emb[b])
        assert abs(got - want) <= max(1e-12 * abs(want), 1e-15), (a, b)
    if sigma > 0:
        assert rep.epsilon > 1e-6


def _independently_noisy_product(g1, g2, sigma, rng):
    """The regular representation of G1 x G2, every image but the identity's
    multiplied by its own noise unitary."""
    ra, rb = regular_rep(g1), regular_rep(g2)
    grp, alg = ProductGroup(g1, g2), TracialAlgebra.matrix(g1.order * g2.order)
    exact = UnitaryRep(
        grp, alg, [np.kron(ra.stacks[0][:, None], rb.stacks[0][None])], check="none"
    )
    return AlmostHom(grp, alg, _noisy_images(exact, sigma, rng))


def test_stabilize_product_nonabelian_first_factor():
    """S3 (regular) x Z3 with independent noise on every image but the
    identity: stage one rounds through S3's irreps (largest block
    18 * 2 = 36), the commutant of its representation has a component with
    d = 2, and every eta[h] and v_to_phi[h] matches a recomputation from
    that h alone, with the conditional expectation as the literal group
    sum."""
    g1, g2 = symmetric_group(3), cyclic(3)
    phi = _independently_noisy_product(g1, g2, 0.05, np.random.default_rng(4))
    alg = phi.algebra
    pi, rep = stabilize_product(phi, ProbMeasure.uniform(g1), ProbMeasure.uniform(g2))
    assert rep.stage1["largest_block"] == 36
    # stage two rounds inside N, whose blocks are S3's irreps' multiplicities
    # 3, 3 and 6 in stage one's representation
    assert rep.stage2["largest_block"] == 6
    assert rep.pi_residual < 1e-8
    assert rep.assembly_residual < 1e-10

    # stage one again, then each h on its own, element by element
    cert1 = gowers_hatami_round(
        AlmostHom(g1, alg, {a: phi((a, g2.identity)) for a in g1.elements})
    )
    pi1, corner, w = cert1.pi, cert1.corner, cert1.w[0]
    assert max(d for (_, _, _, d) in commutant_blocks(pi1).components) == 2
    complement = np.eye(len(w)) - w @ w.conj().T
    for h in g2.elements:
        x = corner.element([w @ phi((g1.identity, h)).blocks[0] @ w.conj().T + complement])
        mean = corner.zero()
        for g in g1.elements:
            mean = mean + pi1(g) * x * pi1(g).H
        mean = (1.0 / g1.order) * mean
        assert abs(rep.eta[h] - corner.norm2(x - mean)) <= 1e-12
        near = nearest_unitary_in_commutant(pi1, x)
        assert abs(rep.v_to_phi[h] - corner.norm2(x - near)) <= 1e-12
    assert min(rep.eta[h] for h in g2.elements if h != g2.identity) > 1e-3


@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("sigma", [0.02, 0.05, 0.1])
@pytest.mark.parametrize(
    "g1, g2",
    [
        (cyclic(2), cyclic(3)),
        (boolean_group(2), cyclic(4)),
        (symmetric_group(3), cyclic(3)),
    ],
    ids=["Z2xZ3", "Z2^2xZ4", "S3xZ3"],
)
def test_stabilize_product_away_from_the_commutant(g1, g2, sigma, seed):
    """Independent noise on every image but the identity of an exact product
    representation: the second-factor images no longer commute with stage
    one's representation, so every eta[h] (h != e) is well above rounding
    noise, and the stabilization still meets its three stage-two bounds."""
    phi = _independently_noisy_product(g1, g2, sigma, np.random.default_rng(seed))
    pi, rep = stabilize_product(phi, ProbMeasure.uniform(g1), ProbMeasure.uniform(g2))
    # stage one's dimension is |G1| |G2|, times 2 for S3's largest irrep
    assert rep.stage1["largest_block"] == {2: 6, 4: 16, 6: 36}[g1.order]
    assert min(rep.eta[h] for h in g2.elements if h != g2.identity) > 1e-3
    assert rep.eta_sq_mu2 <= rep.eta_bound_triangle
    assert rep.eta_sq_mu2 <= rep.eta_bound_gap_form
    assert rep.v_defect_mu2 <= rep.v_defect_bound
    assert rep.pi_residual < 1e-8


def test_stabilize_product_checks_its_stage_two_bounds(monkeypatch):
    """eta's two bounds and the stage-two defect's bound are hard checks: each
    goes through _check_bound with the reported numbers, as does each
    rounding's contraction distance, and with kappa(mu1) forced to 0 the eta
    bounds are 0 and the stabilization raises."""
    g1, g2 = cyclic(2), cyclic(3)
    phi = _independently_noisy_product(g1, g2, 0.05, np.random.default_rng(0))
    mu1, mu2 = ProbMeasure.uniform(g1), ProbMeasure.uniform(g2)
    checked, check = {}, stability._check_bound

    def recorded(value, bound, label):
        checked.setdefault(label, []).append((value, bound))
        check(value, bound, label)

    monkeypatch.setattr(stability, "_check_bound", recorded)
    pi, rep = stabilize_product(phi, mu1, mu2)
    assert checked == {
        "contraction distance": [
            (r["contraction_distance"], r["contraction_bound"]) for r in (rep.stage1, rep.stage2)
        ],
        "commutant distance (triangle form)": [(rep.eta_sq_mu2, rep.eta_bound_triangle)],
        "commutant distance (gap form)": [(rep.eta_sq_mu2, rep.eta_bound_gap_form)],
        "stage-two defect": [(rep.v_defect_mu2, rep.v_defect_bound)],
    }
    monkeypatch.setattr(stability, "kappa", lambda group, mu: SimpleNamespace(kappa=0))
    with pytest.raises(GapstabError, match=r"commutant distance \(triangle form\)"):
        stabilize_product(phi, mu1, mu2)


_PRODUCTS = {
    "S3xZ3": (symmetric_group(3), cyclic(3)),
    "Z2^2xZ4": (boolean_group(2), cyclic(4)),
    "S4xZ2": (symmetric_group(4), cyclic(2)),
    "Z3xS3": (cyclic(3), symmetric_group(3)),
}


def _stabilized_irreps(monkeypatch, g1, g2, sigma, seed):
    """Stabilize the independently noisy product; return the assembled pi,
    the report and the product irreps whose law residuals pi_residual read."""
    phi = _independently_noisy_product(g1, g2, sigma, np.random.default_rng(seed))
    group, read = phi.group, []
    law = group._irrep_law_residual
    monkeypatch.setattr(group, "_irrep_law_residual", lambda occ, dims: read.append(occ) or law(occ, dims))
    pi, rep = stabilize_product(phi, ProbMeasure.uniform(g1), ProbMeasure.uniform(g2))
    (occurring,) = read
    return pi, rep, occurring


def _irreps_by_character(rep: UnitaryRep) -> set:
    """The (family, index) of every irrep with a positive multiplicity in
    rep, from its character: (1/|G|) sum_g conj(chi(g)) tr rep(g)."""
    trace = sum(np.trace(s, axis1=1, axis2=2) for s in rep.stacks)
    return {
        (f, q)
        for f, fam in enumerate(rep.group.irrep_stacks())
        for q, chi in enumerate(np.trace(fam, axis1=2, axis2=3))
        if (chi.conj() @ trace).real / rep.group.order > 0.5
    }


@pytest.mark.parametrize("sigma", [0.0, 0.05])
@pytest.mark.parametrize("name", sorted(_PRODUCTS))
def test_stabilize_product_reads_pi_residual_off_the_product_irreps(monkeypatch, name, sigma):
    """The assembled representation is a direct sum of product irreps
    u_j (x) rho2: pi_residual is read off exactly those that occur in pi,
    by its character, and equals the measured rep_residual(pi)."""
    pi, rep, occurring = _stabilized_irreps(monkeypatch, *_PRODUCTS[name], sigma, 0)
    assert pi.group._irreps is None  # the product's families were never built
    assert occurring == _irreps_by_character(pi)
    assert abs(rep.pi_residual - rep_residual(pi)) <= 1e-14


@pytest.mark.parametrize(
    "g1, g2, sigma, seed, completion",
    [
        (cyclic(2), cyclic(3), 3.0, 2, 1 / 6),
        (cyclic(3), symmetric_group(3), 2.0, 1, 1 / 9),
        (cyclic(3), symmetric_group(3), 3.0, 0, 8 / 9),
    ],
    ids=["Z2xZ3", "Z3xS3-small", "Z3xS3-large"],
)
def test_stabilize_product_pi_residual_with_a_stage_two_completion(
    monkeypatch, g1, g2, sigma, seed, completion
):
    """Far outside the rounding regime stage two completes its spectral
    projection; the completion carries G2's trivial irrep, matched among
    S3's irreps split off its regular representation too."""
    pi, rep, occurring = _stabilized_irreps(monkeypatch, g1, g2, sigma, seed)
    extra = rep.stage2["tau_corner"] - rep.stage2["tau_spectral_projection"]
    assert extra == pytest.approx(completion, abs=1e-12)
    assert occurring == _irreps_by_character(pi)
    assert abs(rep.pi_residual - rep_residual(pi)) <= 1e-14


@pytest.mark.parametrize("name", sorted(_PRODUCTS))
def test_product_irreps_are_formed_one_at_a_time(name):
    """Each product irrep rho1 (x) rho2, located by _product_irrep and formed
    by _irrep from the two factors' irreps, is bit for bit the image stack
    that irrep_stacks() builds, and _trivial_irrep finds the trivial irrep of
    each factor and of the product."""
    g1, g2 = _PRODUCTS[name]
    group = ProductGroup(g1, g2)
    located = [
        group._product_irrep(irrep1, irrep2)
        for irrep1 in _irrep_indices(g1)
        for irrep2 in _irrep_indices(g2)
    ]
    formed = {fq: group._irrep(*fq) for fq in located}
    assert group._irreps is None
    assert sorted(formed) == _irrep_indices(group)
    families = group.irrep_stacks()
    for (f, q), stack in formed.items():
        assert np.array_equal(stack, families[f][q])
    for grp in (g1, g2, group):
        f, q = grp._trivial_irrep()
        assert np.abs(grp.irrep_stacks()[f][q] - 1).max() < 1e-12
    assert group._trivial_irrep() == group._product_irrep(g1._trivial_irrep(), g2._trivial_irrep())


def _irrep_indices(group) -> list:
    return [(f, q) for f, fam in enumerate(group.irrep_stacks()) for q in range(len(fam))]


def test_roundings_of_checked_parts_validate_no_map(monkeypatch):
    """The pair roundings and the stabilization build every map from checked
    parts and trust it: with validation refused, each still runs on inputs
    built beforehand."""
    u, v = _tensor_pair(cyclic(2), cyclic(3))
    pu, pv = _pauli_reps(1)
    grp = pu.group
    g1, g2 = symmetric_group(3), cyclic(3)
    phi = _independently_noisy_product(g1, g2, 0.05, np.random.default_rng(4))

    def refused(self, *args, **kwargs):
        raise AssertionError("a map built from checked parts was validated again")

    monkeypatch.setattr(AlmostHom, "__init__", refused)
    assert round_commuting_pair(u, v).commuting_residual < 1e-9
    assert round_twisted_pair(pu, pv, lambda a, chi: int(grp.pairing(chi, a))).relation_residual < 1e-9
    pi, rep = stabilize_product(phi, ProbMeasure.uniform(g1), ProbMeasure.uniform(g2))
    assert rep.pi_residual < 1e-8


def test_equivariance_residual_matches_pair_loop():
    rng = np.random.default_rng(10)
    rep = regular_rep(cyclic(6))
    phi = AlmostHom(rep.group, rep.algebra, _noisy_images(rep, 0.1, rng))
    grp, alg = phi.group, phi.algebra
    sub = [(0,), (2,), (4,)]
    worst = 0.0
    for h in sub:
        for g in grp.elements:
            d = phi.images[grp.mul(h, g)] - phi.images[h] * phi.images[g]
            worst = max(worst, alg.norm2(d))
    assert worst > 1e-3
    assert equivariance_residual(phi, sub) == pytest.approx(worst, rel=1e-12)


def test_report_twisted_defect_is_one_quantity():
    """The report's prop_lhs, the amplification lhs and the rounding epsilon
    are the same twisted defect, the mean of one pair-defect matrix."""
    game = named_game("repetition")
    strat = perturb_strategy(honest_strategy(game), 0.1, np.random.default_rng(11))
    rep = pauli_rigidity_report(game, strat)
    group = game.h_group
    u = rep_from_pvm(strat["PX"], group)
    v = rep_from_pvm(strat["PZ"], group.dual())
    res = round_pauli_pair(u, v, game.alpha_law, game.beta_law)
    assert rep["prop_lhs"] > 1e-4
    assert res.amplification.lhs == rep["prop_lhs"]
    assert res.rounding.epsilon == rep["prop_lhs"]
    assert rep["rounding_epsilon"] == rep["prop_lhs"]
    assert float(algebra._pair_defects(u, v, group.character_table().T).mean()) == rep["prop_lhs"]


def test_report_builds_the_pair_once(monkeypatch):
    """One report computes the input pair's defect matrix once, calls kappa
    twice and builds the two corner PVMs."""
    import gapstab.games as games

    game = named_game("repetition")
    strat = perturb_strategy(honest_strategy(game), 0.1, np.random.default_rng(11))
    calls = {"defects": 0, "kappa": 0, "pvm_from_rep": 0}
    inputs = []

    def counted(name, fn, counts=lambda *args: True):
        def wrapper(*args, **kwargs):
            calls[name] += counts(*args)
            return fn(*args, **kwargs)

        return wrapper

    def tracked(pvm, group):
        inputs.append(rep_from_pvm(pvm, group))
        return inputs[-1]

    def on_input(u, v, gamma):
        return any(u is r for r in inputs)

    monkeypatch.setattr(games, "rep_from_pvm", tracked)
    monkeypatch.setattr(
        stability, "_pair_defects", counted("defects", stability._pair_defects, on_input)
    )
    monkeypatch.setattr(stability, "kappa", counted("kappa", stability.kappa))
    monkeypatch.setattr(games, "pvm_from_rep", counted("pvm_from_rep", games.pvm_from_rep))
    rep = pauli_rigidity_report(game, strat)
    assert rep["bridge_residual"] <= 1e-12
    assert len(inputs) == 2
    assert calls == {"defects": 1, "kappa": 2, "pvm_from_rep": 2}


@pytest.mark.parametrize("case", ["d4-regular", "c2xs3", "s4-permutation"])
def test_rep_residual_of_a_rounded_map_is_one_batched_svd(case, monkeypatch):
    """On rounded maps where most or all law residuals need an operator norm,
    the screened maximum equals the maximum of one batched SVD over every
    term, bit for bit, and each block takes at most two batches."""
    make, sigma, seed = _ORACLE_CASES[case]
    pi = gowers_hatami_round(suites._noisy_hom(make(), sigma, np.random.default_rng(seed))).pi
    pairs = algebra._law_pairs(pi.group, pi.algebra.dims)
    residuals = algebra._law_residuals(pi.stacks, pairs)
    norms = algebra._operator_norms
    every = [norms(next(residuals(b, slice(None)))) for b in range(len(pi.stacks))]
    batches = []
    monkeypatch.setattr(algebra, "_operator_norms", lambda r: batches.append(len(r)) or norms(r))
    assert rep_residual(pi) == max(e.max() for e in every) > 0
    assert len(batches) <= 2 * len(pi.stacks)
    assert sum(batches) > sum(map(len, every)) // 2  # most terms needed a norm
