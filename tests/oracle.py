"""Dense reference implementations that the tests compare the package against.

None of these is called by ``artigen`` itself: the package computes the same
quantities sparsely or inline, and the tests check it against these.
"""

from __future__ import annotations

import numpy as np

from scipy.spatial import cKDTree

from artigen import physics
from artigen.basis import (
    BasisSet,
    CoeffFit,
    DeformOperator,
    chamfer_distance,
    kd_trees,
)
from artigen.cage import Cage
from artigen.mesh import Joint, TriMesh, merge_meshes
from artigen.metrics import pairwise_chamfer
from artigen.physics import (
    _BARY_TOL,
    CollisionReport,
    DeformableObject,
    DeformablePart,
    ProjConfig,
    SimConfig,
    _articulated_ref_mesh,
    _face_frames,
    _in_faces_sparse,
    _sample_ref_states,
    _step_transforms,
    face_normals,
    single_simulation,
)
from artigen.sync import sync_objective

_NORM_EPS = 1e-12


# ---------------------------------------------------------------------------
# Physics


def vertex_face_distance(points: np.ndarray, ref: TriMesh,
                         normals: np.ndarray | None = None) -> np.ndarray:
    """Signed distance from each point to every reference face plane."""
    points = np.asarray(points, dtype=np.float64).reshape(-1, 3)
    if normals is None:
        normals = face_normals(ref)
    plane_d = np.einsum("fa,fa->f", ref.vertices[ref.faces[:, 0]], normals)
    return points @ normals.T - plane_d


def vertices_in_faces(points: np.ndarray, ref: TriMesh) -> np.ndarray:
    """True where the plane projection of a point falls inside the triangle."""
    points = np.asarray(points, dtype=np.float64)
    single = points.ndim == 2
    pts = points[None] if single else points  # (t, nv, 3)
    out = _in_faces_batch(pts, ref)
    return out[0] if single else out


def _in_faces_batch(pts: np.ndarray, ref: TriMesh) -> np.ndarray:
    a, e1, e2, d11, d12, d22, den = _face_frames(ref)
    w1 = np.einsum("tva,fa->tvf", pts, e1) - np.einsum("fa,fa->f", a, e1)
    w2 = np.einsum("tva,fa->tvf", pts, e2) - np.einsum("fa,fa->f", a, e2)
    u = (d22 * w1 - d12 * w2) / den
    v = (d11 * w2 - d12 * w1) / den
    return (u >= -_BARY_TOL) & (v >= -_BARY_TOL) & (u + v <= 1.0 + _BARY_TOL)


def dense_sweep_crossings(v_all: np.ndarray, ref: TriMesh, normals: np.ndarray):
    """``physics._sweep_crossings`` without the broadphase.

    Computes every vertex's depth against every face plane at every step, in
    blocks of steps whose float64 depths fit ``physics._SWEEP_BYTES``, with
    the depths taken by a matrix product. Returns the ``(t, v, f)`` triples
    in (t, v, f) order and their step-``t + 1`` depths.
    """
    nv, nf = v_all.shape[1], len(normals)
    plane_d = np.einsum("fa,fa->f", ref.vertices[ref.faces[:, 0]], normals)
    frames = _face_frames(ref)
    n_block = min(max(1, physics._SWEEP_BYTES // (nv * nf * 8)), len(v_all) - 1)
    n_slice = max(1, physics._SWEEP_BYTES // (4 * 128))
    d_buf = np.empty((n_block, nv, nf))
    pos = np.empty(d_buf.shape, dtype=bool)
    neg = np.empty(d_buf.shape, dtype=bool)
    s8 = np.empty((n_block + 1, nv, nf), dtype=np.int8)

    def signs(lo, hi, row):
        k = hi - lo
        d = d_buf[:k]
        np.matmul(v_all[lo:hi].reshape(-1, 3), normals.T, out=d.reshape(-1, nf))
        d -= plane_d
        np.greater(d, 0, out=pos[:k])
        np.less(d, 0, out=neg[:k])
        np.subtract(pos[:k].view(np.int8), neg[:k].view(np.int8),
                    out=s8[row:row + k])
        return d

    signs(0, 1, 0)
    no_idx = np.zeros(0, dtype=np.intp)
    found = [(no_idx, no_idx, no_idx, np.zeros(0))]
    for lo in range(1, len(v_all), n_block):
        hi = min(lo + n_block, len(v_all))
        k = hi - lo
        d = signs(lo, hi, 1)
        flips = np.not_equal(s8[1:k + 1], s8[:k], out=pos[:k])
        s8[0] = s8[k]
        flat = np.flatnonzero(flips)
        for at in range(0, flat.size, n_slice):
            j, vi, fi = np.unravel_index(flat[at:at + n_slice], d.shape)
            inside = _in_faces_sparse(v_all[lo + j, vi], frames, fi)
            j, vi, fi = j[inside], vi[inside], fi[inside]
            found.append((j + (lo - 1), vi, fi, d[j, vi, fi]))
    return tuple(np.concatenate(col) for col in zip(*found))


def frozen_proj_loss(v_rest: np.ndarray, ref: TriMesh, joint: Joint,
                     n_steps: int, crossings) -> float:
    """Projection loss evaluated with fixed crossing triples.

    ``crossings`` is the ``(t, v, f)`` triple of a reference run. Displacements
    and depths are recomputed from ``v_rest``; only the crossings are held at
    the reference run's value, which makes the loss differentiable.
    """
    v_rest = np.asarray(v_rest, dtype=np.float64)
    normals = face_normals(ref)
    rots, trans = _step_transforms(joint, n_steps)
    v_all = np.einsum("tab,vb->tva", rots[1:], v_rest) + trans[1:, None, :]
    v_all = np.concatenate([v_rest[None], v_all], axis=0)
    plane_d = np.einsum("fa,fa->f", ref.vertices[ref.faces[:, 0]], normals)
    d_all = np.einsum("tva,fa->tvf", v_all, normals) - plane_d
    nv, nf = v_rest.shape[0], ref.n_faces
    mask = np.zeros((n_steps, nv, nf), dtype=bool)
    mask[crossings] = True
    dv = v_all[1:] - v_all[:-1]
    w = mask * d_all[1:]
    per_vertex = np.einsum("tvf,fa->tva", w, normals)
    return float(np.einsum("tva,tva->", dv, per_vertex) / (n_steps * nv * nf))


def run_losses_every_detection(parts, part_meshes, cfg: SimConfig,
                               want_grad: bool = False):
    """``physics._run_losses`` without deduplication.

    Builds one reference per detection process, identical or not, and sweeps
    the stack of all ``n_det`` of them, each counted once.
    """
    n = len(parts) * cfg.n_det
    breakdown, penes, projs = [], [], []
    proj_grads, phy_grads = [], []
    for i, (part, mesh) in enumerate(zip(parts, part_meshes)):
        if len(parts) == 1 or part.joint.is_fixed:
            det_pene = det_proj = np.zeros(cfg.n_det)
            g_proj = g_phy = np.zeros((mesh.n_vertices, 3))
        else:
            refs = []
            for det in range(cfg.n_det):
                rng = np.random.default_rng([cfg.seed, i, det])
                states = _sample_ref_states(parts, i, rng)
                refs.append(_articulated_ref_mesh(part_meshes, parts, i, states))
            res = single_simulation(mesh, merge_meshes(refs), part.joint,
                                    cfg.n_steps, want_grad=want_grad,
                                    group_counts=np.ones(cfg.n_det, dtype=np.intp))
            det_pene, det_proj = res.group_pene, res.group_proj
            g_proj, g_phy = res.proj_grad_v, res.phy_grad_v
        penes.extend(det_pene)
        projs.extend(det_proj)
        for det in range(cfg.n_det):
            breakdown.append((part.name, det, float(det_pene[det]),
                              float(det_proj[det])))
        if want_grad:
            proj_grads.append(g_proj * cfg.n_det / n)
            phy_grads.append(g_phy * cfg.n_det / n)
    report = CollisionReport(float(np.mean(penes)), float(np.mean(projs)), breakdown)
    return report, proj_grads, phy_grads


def correct_shape_every_step(dobj: DeformableObject, z: np.ndarray,
                             proj_cfg: ProjConfig, sim_cfg: SimConfig):
    """``physics.correct_shape`` without the fixed-point exit.

    Runs all ``proj_cfg.iters`` steps and a last loss pass at the final z,
    so it makes ``iters + 1`` ``_run_losses`` passes whether or not z moves.
    """
    z = np.array(z, dtype=np.float64)
    before = None
    for _ in range(proj_cfg.iters):
        report, grad = physics.grad_proj_wrt_z(dobj, z, sim_cfg)
        if before is None:
            before = report          # the gradient pass already evaluates at z
        if not np.isfinite(grad).all():
            raise FloatingPointError("non-finite projection gradient")
        z = z - proj_cfg.eps_proj * grad
    after, _, _ = physics._run_losses(dobj.parts,
                                      [p.mesh_at(z) for p in dobj.parts], sim_cfg)
    return z, after if before is None else before, after


def rigid_part(name: str, mesh: TriMesh, joint: Joint, k: int,
               ref_states=()) -> DeformablePart:
    """A part that ignores z (zero Jacobian)."""
    return DeformablePart(
        name=name, v0=np.array(mesh.vertices), jac=np.zeros((mesh.n_vertices, 3, k)),
        faces=np.array(mesh.faces), joint=joint, ref_states=tuple(ref_states),
        convex_slices=[(0, mesh.n_vertices)],
    )


# ---------------------------------------------------------------------------
# Cages and bases


def mvc_per_point(p, cage_mesh: TriMesh, tol: float = 1e-12) -> np.ndarray:
    """``cage.weight_matrix`` for one point, one face array at a time.

    Coincidence with a cage vertex yields the indicator vector; a point on a
    face falls back to the 2D barycentric weights of that face.
    """
    p = np.asarray(p, dtype=np.float64).reshape(3)
    V = cage_mesh.vertices
    F = cage_mesh.faces
    diff = V - p
    d = np.linalg.norm(diff, axis=1)
    hit = np.nonzero(d < tol)[0]
    if hit.size:
        w = np.zeros(len(V))
        w[hit[0]] = 1.0
        return w
    u = diff / d[:, None]

    tu = u[F]  # (m, 3, 3) unit directions per face corner
    td = d[F]
    # edge lengths on the unit sphere, opposite corner i
    l = np.linalg.norm(tu[:, [1, 2, 0]] - tu[:, [2, 0, 1]], axis=2)
    theta = 2.0 * np.arcsin(np.clip(l / 2.0, 0.0, 1.0))
    h = theta.sum(axis=1) / 2.0

    onface = np.pi - h < 1e-8
    if onface.any():
        fi = int(np.nonzero(onface)[0][0])
        wf = np.sin(theta[fi]) * td[fi][[2, 0, 1]] * td[fi][[1, 2, 0]]
        w = np.zeros(len(V))
        w[F[fi]] = wf / wf.sum()
        return w

    sin_t = np.sin(theta)
    c = (2.0 * np.sin(h)[:, None] * np.sin(h[:, None] - theta)) / (
        sin_t[:, [1, 2, 0]] * sin_t[:, [2, 0, 1]]
    ) - 1.0
    det = np.linalg.det(tu)
    s = np.sign(det)[:, None] * np.sqrt(np.clip(1.0 - c * c, 0.0, None))
    # faces whose plane contains p but p projects outside them contribute 0
    valid = (np.abs(s) > tol).all(axis=1)

    wf = np.zeros_like(theta)
    if valid.any():
        cv, sv, tv, dv = c[valid], s[valid], theta[valid], td[valid]
        wf_v = (tv - cv[:, [1, 2, 0]] * tv[:, [2, 0, 1]] - cv[:, [2, 0, 1]] * tv[:, [1, 2, 0]]) / (
            dv * np.sin(tv[:, [1, 2, 0]]) * sv[:, [2, 0, 1]]
        )
        wf[valid] = wf_v

    w = np.zeros(len(V))
    np.add.at(w, F.ravel(), wf.ravel())
    total = w.sum()
    if abs(total) < tol:
        raise ValueError("mean value coordinates degenerate at this point")
    return w / total


def weight_matrix_per_point(points: np.ndarray, cage_mesh: TriMesh) -> np.ndarray:
    """Stack ``mvc_per_point`` rows for an (n,3) point array."""
    points = np.asarray(points, dtype=np.float64).reshape(-1, 3)
    return np.array([mvc_per_point(p, cage_mesh) for p in points])


def apply_cage_deform(cage: Cage, cage_offsets: np.ndarray) -> np.ndarray:
    """Convex vertex offsets induced by cage vertex offsets (a matrix product)."""
    offsets = np.asarray(cage_offsets, dtype=np.float64)
    if offsets.shape != (cage.phi.shape[1], 3):
        raise ValueError(
            f"cage offsets must be {(cage.phi.shape[1], 3)}, got {offsets.shape}"
        )
    return cage.phi @ offsets


def lsq_coefficient(bases: BasisSet, cage_offsets: np.ndarray) -> np.ndarray:
    """Minimum-norm least squares of sum_k z_k b_k = cage_offsets."""
    a = bases.bases.reshape(bases.k, -1).T  # (3N_t, K)
    rhs = np.asarray(cage_offsets, dtype=np.float64).ravel()
    z, *_ = np.linalg.lstsq(a, rhs, rcond=None)
    return z


def _match(points: np.ndarray, targets: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Nearest-target index per point, nearest-point index per target."""
    _, fwd = cKDTree(targets).query(points)
    _, back = cKDTree(points).query(targets)
    return fwd, back


def _solve_matched(op: DeformOperator, bases: BasisSet, targets: np.ndarray,
                   fwd: np.ndarray, back: np.ndarray) -> np.ndarray:
    """Closed-form z for the fixed-correspondence point-matching objective."""
    e = op.basis_point_offsets(bases)  # (K, n, 3)
    n_src = op.p0.shape[0]
    n_tgt = targets.shape[0]
    a_fwd = e.reshape(bases.k, -1).T / np.sqrt(n_src)  # (3n, K)
    r_fwd = (targets[fwd] - op.p0).ravel() / np.sqrt(n_src)
    e_back = e[:, back, :].reshape(bases.k, -1).T / np.sqrt(n_tgt)
    r_back = (targets - op.p0[back]).ravel() / np.sqrt(n_tgt)
    a = np.vstack([a_fwd, e_back])
    r = np.concatenate([r_fwd, r_back])
    z, *_ = np.linalg.lstsq(a, r, rcond=None)
    return z


def solve_bases_two_block(ops, targets, coeffs, corrs, k: int, n_t: int,
                          ridge: float = 1e-9) -> np.ndarray:
    """``basis._solve_bases_matched`` with separate forward and backward terms."""
    dim = k * n_t
    m = np.zeros((dim, dim))
    rhs = np.zeros((dim, 3))
    for op, tgt, z, (fwd, back) in zip(ops, targets, coeffs, corrs):
        n_src, n_tgt = op.p0.shape[0], tgt.shape[0]
        g = op.g
        gb = g[back]
        gram = g.T @ g / n_src + gb.T @ gb / n_tgt
        m += np.kron(np.outer(z, z), gram)
        r_f = tgt[fwd] - op.p0
        r_b = tgt - op.p0[back]
        gr = g.T @ r_f / n_src + gb.T @ r_b / n_tgt  # (N_t, 3)
        rhs += np.kron(z[:, None], gr)
    m += ridge * np.trace(m) / dim * np.eye(dim) + ridge * np.eye(dim)
    return np.linalg.solve(m, rhs).reshape(k, n_t, 3)


def fit_coefficient_rebuilding(bases: BasisSet, op: DeformOperator,
                               target_points: np.ndarray, tol: float = 1e-8,
                               max_rounds: int = 50,
                               z0: np.ndarray | None = None) -> CoeffFit:
    """``basis.fit_coefficient`` rebuilding everything every round.

    Each round recomputes the per-basis sample offsets and the whole
    two-block least-squares system of ``_solve_matched`` (a row per source
    sample and a row per target), matches the points at the best z with two
    fresh KD-trees, and measures the candidate with ``chamfer_distance``.
    """
    targets = np.asarray(target_points, dtype=np.float64).reshape(-1, 3)
    z = np.zeros(bases.k) if z0 is None else np.array(z0, dtype=np.float64)
    pts = op.points(bases, z)
    best_cd = chamfer_distance(pts, targets)
    best_z = z
    best_corr = _match(pts, targets)
    history = [best_cd]
    converged = False
    for _ in range(max_rounds):
        fwd, back = _match(op.points(bases, best_z), targets)
        z_new = _solve_matched(op, bases, targets, fwd, back)
        cd_new = chamfer_distance(op.points(bases, z_new), targets)
        if cd_new < best_cd:
            improvement = best_cd - cd_new
            best_cd, best_z, best_corr = cd_new, z_new, (fwd, back)
            history.append(best_cd)
            if improvement < tol:
                converged = True
                break
        else:
            converged = True
            break
    return CoeffFit(z=best_z, cd=best_cd, converged=converged,
                    cd_history=history, correspondences=best_corr)


def orthogonality(bases: BasisSet) -> np.ndarray:
    """Pairwise |normalized dot products| of a basis set."""
    flat = bases.bases.reshape(bases.k, -1)
    norms = np.linalg.norm(flat, axis=1)
    g = flat @ flat.T / (np.outer(norms, norms) + _NORM_EPS)
    np.fill_diagonal(g, 0.0)
    return np.abs(g)


def regularizers(bases: BasisSet) -> tuple[float, float]:
    """(orthogonality penalty, l1 sparsity penalty)."""
    flat = bases.bases.reshape(bases.k, -1)
    norms = np.linalg.norm(flat, axis=1)
    l_orth = 0.0
    for i in range(bases.k):
        for j in range(i + 1, bases.k):
            r = flat[i] @ flat[j] / (norms[i] * norms[j] + _NORM_EPS)
            l_orth += r * r
    l_sp = np.abs(flat).sum() / flat.size
    return float(l_orth), float(l_sp)


def _regularizer_grad(b: np.ndarray, lambda_orth: float, lambda_sp: float) -> np.ndarray:
    k = b.shape[0]
    flat = b.reshape(k, -1)
    norms = np.linalg.norm(flat, axis=1)
    grad = np.zeros_like(flat)
    for i in range(k):
        for j in range(i + 1, k):
            d = norms[i] * norms[j] + _NORM_EPS
            s = flat[i] @ flat[j]
            r = s / d
            gi = flat[j] / d - (r / d) * norms[j] * flat[i] / max(norms[i], _NORM_EPS)
            gj = flat[i] / d - (r / d) * norms[i] * flat[j] / max(norms[j], _NORM_EPS)
            grad[i] += lambda_orth * 2.0 * r * gi
            grad[j] += lambda_orth * 2.0 * r * gj
    grad += lambda_sp * np.sign(flat) / flat.size
    return grad.reshape(b.shape)


def matching_loss_and_grad(b: np.ndarray, ops: list[DeformOperator],
                           targets: list[np.ndarray], coeffs: list[np.ndarray],
                           corrs: list[tuple[np.ndarray, np.ndarray]]):
    """Mean fixed-correspondence point-matching loss over pairs and its basis gradient."""
    k = b.shape[0]
    loss = 0.0
    grad = np.zeros_like(b)
    n_pairs = len(ops)
    for op, tgt, z, (fwd, back) in zip(ops, targets, coeffs, corrs):
        w = op.g  # (n, N_t)
        offsets = np.einsum("kna,k->na", b, z)  # cage offsets
        pts = op.p0 + w @ offsets
        r_f = pts - tgt[fwd]
        r_b = pts[back] - tgt
        n_src, n_tgt = len(pts), len(tgt)
        loss += ((r_f**2).sum() / n_src + (r_b**2).sum() / n_tgt) / n_pairs
        # d loss / d offsets, then chain to bases via the outer product with z
        g_off = 2.0 * (w.T @ r_f) / n_src
        g_off += 2.0 * (w[back].T @ r_b) / n_tgt
        grad += np.einsum("na,k->kna", g_off, z) / n_pairs
    return loss, grad


def basis_objective_two_pass(b: np.ndarray, ops, targets, coeffs, corrs,
                             lambda_orth: float, lambda_sp: float):
    """``basis.basis_objective_and_grad`` as three separate passes.

    The matching term, the penalty values and the penalty gradient are each
    computed on their own, so the basis pairs are walked twice.
    """
    loss, grad = matching_loss_and_grad(b, ops, targets, coeffs, corrs)
    l_orth, l_sp = regularizers(BasisSet(b))
    loss += lambda_orth * l_orth + lambda_sp * l_sp
    grad = grad + _regularizer_grad(b, lambda_orth, lambda_sp)
    return loss, grad


# ---------------------------------------------------------------------------
# Synchronization


_SV_CUTOFF = 1e-10


def _svd_signed(a: np.ndarray):
    """SVD with a deterministic sign convention.

    The first entry of each left singular vector whose magnitude exceeds a
    relative threshold is made positive; the matching rows of V^T are flipped.
    """
    u, s, vt = np.linalg.svd(a, full_matrices=False)
    for j in range(u.shape[1]):
        col = u[:, j]
        nz = np.nonzero(np.abs(col) > 1e-12)[0]
        if nz.size and col[nz[0]] < 0:
            u[:, j] = -col
            vt[j, :] = -vt[j, :]
    return u, s, vt


def _pinv_sigma(s: np.ndarray) -> np.ndarray:
    if s.size == 0:
        return s
    cutoff = _SV_CUTOFF * s.max()
    inv = np.zeros_like(s)
    keep = s > cutoff
    inv[keep] = 1.0 / s[keep]
    return inv


def svd_pinv(a: np.ndarray) -> np.ndarray:
    u, s, vt = _svd_signed(a)
    return vt.T @ np.diag(_pinv_sigma(s)) @ u.T


def optimize_sync_matrix(z_stack: np.ndarray, y_stack: np.ndarray) -> np.ndarray:
    """S_m = Y_m Z^+ via the SVDs of both stacks, (K, |A|) with targets as columns."""
    z_stack = np.asarray(z_stack, dtype=np.float64)
    y_stack = np.asarray(y_stack, dtype=np.float64)
    u, s, vt = _svd_signed(z_stack)
    um, sm, vmt = _svd_signed(y_stack)
    return um @ np.diag(sm) @ vmt @ vt.T @ np.diag(_pinv_sigma(s)) @ u.T


def synchronize_per_target(bases: list[BasisSet], y: np.ndarray,
                           iters: int = 100):
    """Synchronization by ``iters`` steps of alternating S and z updates.

    Returns ``(s_matrices, global_coeffs, objective_history)`` of the last
    step. z starts at the cross-convex mean of ``y`` and one S update runs
    before the loop; every S matrix comes from two signed SVDs per convex and
    every global coefficient update runs ``svd_pinv`` on all M S matrices
    once per target.
    """
    y = np.asarray(y, dtype=np.float64)
    m_count, n_targets, k = y.shape
    z = y.mean(axis=0)
    history = [sync_objective(bases, [np.eye(k)] * m_count, z, y)]
    s_matrices = [optimize_sync_matrix(z.T, y[m].T) for m in range(m_count)]
    history.append(sync_objective(bases, s_matrices, z, y))
    for _ in range(iters):
        z = np.array([np.mean([svd_pinv(s) @ y_m
                               for s, y_m in zip(s_matrices, y[:, i, :])], axis=0)
                      for i in range(n_targets)])
        s_matrices = [optimize_sync_matrix(z.T, y[m].T) for m in range(m_count)]
        history.append(sync_objective(bases, s_matrices, z, y))
    return s_matrices, z, history


# ---------------------------------------------------------------------------
# Metrics


def apd(reports) -> float:
    """Average penetration depth: mean of per-sample collision l_phy values."""
    vals = [r.l_phy if hasattr(r, "l_phy") else float(r) for r in reports]
    if not vals:
        raise ValueError("apd needs at least one report")
    return float(np.mean(vals))


def self_chamfer(clouds) -> np.ndarray:
    """``pairwise_chamfer(clouds, clouds)`` from its upper triangle.

    Symmetric Chamfer adds the same two means in either order, so the mirror
    is exact; the diagonal is CD(x, x) = 0.
    """
    trees = kd_trees(clouds)
    d = np.zeros((len(clouds), len(clouds)))
    for i, j in zip(*np.triu_indices(len(clouds), 1)):
        d[i, j] = d[j, i] = chamfer_distance(trees[i], trees[j])
    return d


def one_nna_full_table(gen, ref, d: np.ndarray | None = None) -> float:
    """1-NNA as the argmin of every row of the pooled Chamfer table."""
    if d is None:
        d = pairwise_chamfer(gen, ref)
    # symmetric Chamfer: the ref-gen block is the gen-ref block transposed
    full = np.block([[self_chamfer(gen), d], [d.T, self_chamfer(ref)]])
    labels = np.array([0] * len(gen) + [1] * len(ref))
    np.fill_diagonal(full, np.inf)
    nearest = full.argmin(axis=1)  # argmin takes the lowest index on ties
    correct = labels[nearest] == labels
    return float(correct.mean())
