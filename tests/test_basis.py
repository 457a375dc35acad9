import numpy as np
import pytest

from artigen import basis
from artigen.basis import (
    BasisSet,
    DeformOperator,
    FitConfig,
    _merged_rows,
    _penalties,
    _solve_bases_matched,
    basis_objective_and_grad,
    chamfer_distance,
    fit_bases,
    fit_coefficient,
    fit_gmm,
    sample_gmm,
)
from artigen.cage import Cage, build_cage, weight_matrix
from artigen.mesh import TriMesh
from artigen.pipeline import _random_bases
from fixtures import grid_box
from oracle import (
    _solve_matched,
    basis_objective_two_pass,
    fit_coefficient_rebuilding,
    lsq_coefficient,
    matching_loss_and_grad,
    orthogonality,
    solve_bases_two_block,
)
from oracle import regularizers as regularizers_oracle

OCTA = TriMesh(
    np.array([[1, 0, 0], [-1, 0, 0], [0, 1, 0], [0, -1, 0], [0, 0, 1],
              [0, 0, -1]], dtype=np.float64),
    np.array([[0, 2, 4], [2, 1, 4], [1, 3, 4], [3, 0, 4], [2, 0, 5],
              [1, 2, 5], [3, 1, 5], [0, 3, 5]]),
)


def small_cage():
    """Octahedral 6-vertex cage around a shrunken copy of itself."""
    cage_mesh = TriMesh(OCTA.vertices * 1.2, OCTA.faces)
    src = TriMesh(OCTA.vertices * 0.5, OCTA.faces)
    return Cage(mesh=cage_mesh, phi=weight_matrix(src.vertices, cage_mesh)), src


def brute_chamfer(p, q):
    d = np.linalg.norm(p[:, None] - q[None], axis=2)
    return d.min(axis=1).__pow__(2).mean() + d.min(axis=0).__pow__(2).mean()


def test_chamfer_matches_brute_force(rng):
    p, q = rng.normal(size=(40, 3)), rng.normal(size=(25, 3))
    assert chamfer_distance(p, q) == pytest.approx(brute_chamfer(p, q), abs=1e-12)
    assert chamfer_distance(p, p) == 0.0
    for empty in ((np.zeros((0, 3)), q), (p, np.zeros((0, 3)))):
        with pytest.raises(ValueError, match="empty point set"):
            chamfer_distance(*empty)


def test_deform_operator_affine(rng):
    box = grid_box(3)
    cage = build_cage(box)
    op = DeformOperator(cage, box, 128, seed=1)
    bases = BasisSet(rng.normal(scale=0.1, size=(3, 42, 3)))
    z1, z2 = rng.normal(size=3), rng.normal(size=3)
    lhs = op.points(bases, z1 + z2) - op.p0
    rhs = (op.points(bases, z1) - op.p0) + (op.points(bases, z2) - op.p0)
    np.testing.assert_allclose(lhs, rhs, atol=1e-12)
    np.testing.assert_array_equal(op.points(bases, np.zeros(3)), op.p0)


def test_deform_operator_rejects_degenerate_cage():
    # an all-zero interpolation matrix would pin every sample to its rest place
    cage, src = small_cage()
    flat = Cage(mesh=cage.mesh, phi=np.zeros_like(cage.phi))
    with pytest.raises(ValueError, match="degenerate cage: zero interpolation matrix"):
        DeformOperator(flat, src, 16)


def test_lsq_coefficient_recovers(rng):
    bases = BasisSet(rng.normal(size=(4, 6, 3)))
    z = rng.normal(size=4)
    z2 = lsq_coefficient(bases, bases.cage_offsets(z))
    np.testing.assert_allclose(z2, z, atol=1e-10)


def test_fit_coefficient_monotone(rng):
    cage, src = small_cage()
    bases = BasisSet(rng.normal(scale=0.2, size=(3, 6, 3)))
    op = DeformOperator(cage, src, 128, seed=0)
    target = op.points(bases, np.array([0.5, -0.8, 0.2]))
    fit = fit_coefficient(bases, op, target)
    # accepted steps only: history never increases
    assert all(b <= a + 1e-15 for a, b in zip(fit.cd_history, fit.cd_history[1:]))
    assert fit.cd < 1e-10


def test_fit_coefficient_rejects_empty_targets(rng):
    cage, src = small_cage()
    bases = BasisSet(rng.normal(scale=0.2, size=(3, 6, 3)))
    op = DeformOperator(cage, src, 128, seed=0)
    with pytest.raises(ValueError, match="empty point set"):
        fit_coefficient(bases, op, np.zeros((0, 3)))


def _coefficient_case(name, rng):
    """(bases, op, targets, z0) for one oracle case."""
    if name in ("octa_exact", "octa_noisy"):
        cage, src = small_cage()
        bases = BasisSet(rng.normal(scale=0.2, size=(3, 6, 3)))
        op = DeformOperator(cage, src, 128, seed=0)
        target = op.points(bases, np.array([0.5, -0.8, 0.2]))
        if name == "octa_noisy":
            target = target + rng.normal(scale=0.05, size=target.shape)
        return bases, op, target, None
    box = grid_box(3)
    cage = build_cage(box)
    k = 2 if name == "box_two_bases" else 16
    bases = BasisSet(rng.normal(scale=0.08 if k == 2 else 0.03, size=(k, 42, 3)))
    op = DeformOperator(cage, box, 512, seed=0)
    # the targets are another sample of a deformed box, so no z matches exactly
    target = DeformOperator(cage, box, 512, seed=1).points(bases, rng.normal(size=k))
    return bases, op, target, 0.5 * rng.normal(size=k) if name == "desk_z0" else None


@pytest.mark.parametrize("name", ["octa_exact", "octa_noisy", "box_two_bases",
                                  "desk", "desk_z0"])
def test_fit_coefficient_matches_rebuilding_oracle(rng, name):
    # a fit cut short at 1 or 3 rounds ends on an accepted step whose matches
    # differ from the matches at its result, so correspondences are checked
    # to be the ones that produced z. The oracle solves the two-block system
    # and fit_coefficient the merged one: same minimizer, different rounding,
    # so the trajectory must be identical and the numbers equal to 1e-12.
    # Chamfer values are bounded relative to the first one, since octa_exact
    # ends near 1e-32.
    bases, op, target, z0 = _coefficient_case(name, rng)
    for max_rounds in (1, 3, 50):
        got = fit_coefficient(bases, op, target, max_rounds=max_rounds, z0=z0)
        want = fit_coefficient_rebuilding(bases, op, target, max_rounds=max_rounds,
                                          z0=z0)
        assert np.linalg.norm(got.z - want.z) <= 1e-12 * np.linalg.norm(want.z)
        tol = 1e-12 * want.cd_history[0]
        assert abs(got.cd - want.cd) <= tol
        assert len(got.cd_history) == len(want.cd_history)
        np.testing.assert_allclose(got.cd_history, want.cd_history, rtol=0, atol=tol)
        assert got.converged == want.converged
        for a, b in zip(got.correspondences, want.correspondences, strict=True):
            assert np.array_equal(a, b)
    if name == "desk":
        short = fit_coefficient(bases, op, target, max_rounds=3)
        assert len(short.cd_history) == 4 and not short.converged


def _matched_case(rng, n_src, n_tgt, k=3):
    """(bases, op, targets, fwd, back) on the octahedral cage; samples 0 and 1
    have no backward match and sample 5 has at least three."""
    cage, src = small_cage()
    bases = BasisSet(rng.normal(scale=0.2, size=(k, 6, 3)))
    op = DeformOperator(cage, src, n_src, seed=0)
    targets = rng.normal(scale=0.5, size=(n_tgt, 3))
    fwd = rng.integers(n_tgt, size=n_src)
    back = rng.integers(2, n_src, size=n_tgt)
    back[:3] = 5
    counts = np.bincount(back, minlength=n_src)
    assert counts[0] == counts[1] == 0 and counts[5] >= 3
    return bases, op, targets, fwd, back


@pytest.mark.parametrize("n_src,n_tgt", [(96, 64), (48, 80)])
def test_merged_rows_solve_matches_two_block_oracle(rng, n_src, n_tgt):
    bases, op, targets, fwd, back = _matched_case(rng, n_src, n_tgt)
    w, c = _merged_rows(op, targets, fwd, back)
    sw = np.sqrt(w)[:, None]
    e = op.basis_point_offsets(bases).transpose(1, 2, 0)
    z, *_ = np.linalg.lstsq((e * sw[:, :, None]).reshape(-1, bases.k),
                            (c * sw).ravel(), rcond=None)
    want = _solve_matched(op, bases, targets, fwd, back)
    assert np.linalg.norm(z - want) <= 1e-12 * np.linalg.norm(want)


@pytest.mark.parametrize("n_src,n_tgt", [(96, 64), (48, 80)])
def test_merged_objective_differs_by_a_constant(rng, n_src, n_tgt):
    bases, op, targets, fwd, back = _matched_case(rng, n_src, n_tgt)
    w, c = _merged_rows(op, targets, fwd, back)
    gaps, scale = [], 0.0
    for z in rng.normal(size=(3, bases.k)):
        two_block, _ = matching_loss_and_grad(bases.bases, [op], [targets], [z],
                                              [(fwd, back)])
        merged = (w[:, None] * (op.points(bases, z) - op.p0 - c) ** 2).sum()
        gaps.append(two_block - merged)
        scale = max(scale, two_block)
    assert np.ptp(gaps) <= 1e-12 * scale


def test_solve_bases_matched_equals_two_block_oracle(rng):
    cases = [_matched_case(rng, n_src, n_tgt) for n_src, n_tgt in
             [(96, 64), (48, 80), (64, 64)]]
    ops = [case[1] for case in cases]
    targets = [case[2] for case in cases]
    corrs = [case[3:] for case in cases]
    coeffs = [rng.normal(size=3) for _ in cases]
    got = _solve_bases_matched(ops, targets, coeffs, corrs, 3, 6)
    want = solve_bases_two_block(ops, targets, coeffs, corrs, 3, 6)
    assert np.linalg.norm(got - want) <= 1e-10 * np.linalg.norm(want)


def test_synthesize_and_recover_two_bases(rng, monkeypatch):
    box = grid_box(3)
    cage = build_cage(box)
    true_b = BasisSet(rng.normal(scale=0.08, size=(2, 42, 3)))
    zs = [np.array([1.0, 0.3]), np.array([-0.5, 0.8]), np.array([0.2, -0.9])]
    monkeypatch.setattr(basis, "_LAMBDA_ORTH", 0.0)
    monkeypatch.setattr(basis, "_LAMBDA_SP", 0.0)
    cfg = FitConfig(chamfer_samples=512)
    ops = [DeformOperator(cage, box, cfg.chamfer_samples, seed=i)
           for i in range(len(zs))]
    targets = [op.points(true_b, z) for op, z in zip(ops, zs)]
    init = _random_bases(0, np.ptp(box.vertices, axis=0).max(), 2, cage)
    fit = fit_bases(ops, targets, init, outer_iters=30)
    assert fit.loss_history[-1] < 1e-6
    # fitted model reproduces each target's point cloud
    for op, t, z in zip(ops, targets, fit.coeffs):
        assert chamfer_distance(op.points(fit.bases, z), t) < 1e-6


def test_basis_gradient_matches_finite_differences(rng):
    cage, src = small_cage()
    ops = [DeformOperator(cage, src, 64, seed=i) for i in range(2)]
    targets = [op.p0 + rng.normal(scale=0.1, size=op.p0.shape) for op in ops]
    b = rng.normal(scale=0.1, size=(2, 6, 3))
    fits = [fit_coefficient(BasisSet(b), op, t) for op, t in zip(ops, targets)]
    coeffs = [f.z for f in fits]
    corrs = [f.correspondences for f in fits]
    _, grad = basis_objective_and_grad(b, ops, targets, coeffs, corrs)
    h = 1e-5
    fd = np.zeros_like(b)
    for idx in np.ndindex(b.shape):
        bp, bm = b.copy(), b.copy()
        bp[idx] += h
        bm[idx] -= h
        op_, _ = basis_objective_and_grad(bp, ops, targets, coeffs, corrs)
        om_, _ = basis_objective_and_grad(bm, ops, targets, coeffs, corrs)
        fd[idx] = (op_ - om_) / (2 * h)
    rel = np.abs(grad - fd).max() / np.abs(fd).max()
    assert rel < 1e-4


@pytest.mark.parametrize("lambdas", [(0.0, 0.0), (1e-4, 1e-4), (1e3, 0.0)])
@pytest.mark.parametrize("case", ["k1", "k2", "k16", "zero_basis", "collapsed"])
def test_basis_objective_matches_two_pass_oracle(rng, case, lambdas, monkeypatch):
    # one pass over the basis pairs gives the same bytes as the separate
    # matching, penalty and penalty-gradient passes
    box = grid_box(3)
    cage = build_cage(box)
    k = {"k1": 1, "k2": 2}.get(case, 16)
    b = rng.normal(scale=0.05, size=(k, 42, 3))
    if case == "zero_basis":
        b[3] = 0.0
    elif case == "collapsed":
        b *= 1e-28 / np.abs(b).max()
    ops = [DeformOperator(cage, box, 64, seed=i) for i in range(3)]
    targets = [rng.normal(size=(48, 3)) for _ in ops]
    coeffs = [rng.normal(size=k) for _ in ops]
    corrs = [(rng.integers(48, size=64), rng.integers(64, size=48)) for _ in ops]
    monkeypatch.setattr(basis, "_LAMBDA_ORTH", lambdas[0])
    monkeypatch.setattr(basis, "_LAMBDA_SP", lambdas[1])
    loss, grad = basis_objective_and_grad(b, ops, targets, coeffs, corrs)
    want_loss, want_grad = basis_objective_two_pass(b, ops, targets, coeffs, corrs,
                                                    *lambdas)
    assert np.float64(loss).tobytes() == np.float64(want_loss).tobytes()
    assert grad.tobytes() == want_grad.tobytes()
    assert _penalties(b, 0.0, 0.0)[:2] == regularizers_oracle(BasisSet(b))


def test_basis_objective_rejects_non_finite_bases(rng):
    cage, src = small_cage()
    b = rng.normal(size=(2, 6, 3))
    b[1, 2, 0] = np.nan
    op = DeformOperator(cage, src, 16, seed=0)
    corr = (np.zeros(16, dtype=int), np.zeros(4, dtype=int))
    with pytest.raises(ValueError, match="non-finite"):
        basis_objective_and_grad(b, [op], [op.p0[:4]], [np.ones(2)], [corr])


def test_orthogonality_pressure(rng, monkeypatch):
    # strong orthogonality weight keeps fitted bases nearly orthogonal
    box = grid_box(3)
    cage = build_cage(box)
    true_b = BasisSet(rng.normal(scale=0.08, size=(3, 42, 3)))
    zs = [rng.normal(size=3) for _ in range(4)]
    monkeypatch.setattr(basis, "_LAMBDA_ORTH", 1e3)
    monkeypatch.setattr(basis, "_LAMBDA_SP", 0.0)
    cfg = FitConfig(chamfer_samples=256)
    ops = [DeformOperator(cage, box, cfg.chamfer_samples, seed=1 + i)
           for i in range(len(zs))]
    targets = [op.points(true_b, z) for op, z in zip(ops, zs)]
    init = _random_bases(1, np.ptp(box.vertices, axis=0).max(), 3, cage)
    fit = fit_bases(ops, targets, init, outer_iters=8)
    assert orthogonality(fit.bases).max() < 0.1


def test_regularizers_zero_for_orthogonal():
    b = np.zeros((2, 2, 3))
    b[0, 0, 0] = 1.0
    b[1, 1, 1] = 1.0
    l_orth, l_sp = _penalties(b, 0.0, 0.0)[:2]
    assert l_orth == 0.0
    assert l_sp == pytest.approx(2.0 / (2 * 6))


def test_gmm_fit_and_sample(rng):
    centers = np.array([[0.0, 0.0], [5.0, 5.0]])
    x = np.concatenate([rng.normal(loc=c, scale=0.3, size=(60, 2))
                        for c in centers])
    gmm = fit_gmm(x, n_components=2, seed=0)
    assert gmm.n_components == 2
    got = gmm.means[np.argsort(gmm.means[:, 0])]
    np.testing.assert_allclose(got, centers, atol=0.2)
    s1 = sample_gmm(gmm, seed=3, n=10)
    s2 = sample_gmm(gmm, seed=3, n=10)
    np.testing.assert_array_equal(s1, s2)
    assert s1.shape == (10, 2)


def test_gmm_component_clamping(rng):
    x = rng.normal(size=(3, 4))
    gmm = fit_gmm(x, n_components=8, seed=0)
    assert gmm.n_components == 3
    assert gmm.variances.min() >= 1e-6
    rec = gmm.to_dict()
    from artigen.basis import GaussianMixture

    gmm2 = GaussianMixture.from_dict(rec)
    np.testing.assert_array_equal(gmm.means, gmm2.means)
