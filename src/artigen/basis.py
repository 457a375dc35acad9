"""Deformation bases, coefficient fitting and the coefficient mixture model."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.spatial import cKDTree

from .cage import Cage
from .mesh import TriMesh, _surface_draw

_NORM_EPS = 1e-12
_ICP_TOL = 1e-8
# gradient steps on the regularized objective per outer iteration, and the
# first step size; each step grows it by 1.2 when taken, halves it otherwise
_REG_STEPS = 25
_REG_LR = 0.05
# weights of the orthogonality and l1 sparsity penalties in that objective
_LAMBDA_ORTH = _LAMBDA_SP = 1e-4


@dataclass
class FitConfig:
    chamfer_samples: int = 4096

    def __post_init__(self):
        if self.chamfer_samples < 1:
            raise ValueError("chamfer_samples must be >= 1")


@dataclass(frozen=True)
class BasisSet:
    """K cage-offset patterns, stored as a (K, N_t, 3) array."""

    bases: np.ndarray

    def __post_init__(self):
        b = np.ascontiguousarray(np.asarray(self.bases, dtype=np.float64))
        if b.ndim != 3 or b.shape[2] != 3:
            raise ValueError(f"bases must be (K, N_t, 3), got {b.shape}")
        if not np.isfinite(b).all():
            raise ValueError("non-finite basis entries")
        b.setflags(write=False)
        object.__setattr__(self, "bases", b)

    @property
    def k(self) -> int:
        return self.bases.shape[0]

    def cage_offsets(self, z: np.ndarray) -> np.ndarray:
        """Linear combination of bases: (N_t, 3) cage offsets for a K-vector."""
        return np.einsum("kna,k->na", self.bases, np.asarray(z, dtype=np.float64))


# ---------------------------------------------------------------------------
# Chamfer distance


def chamfer_distance(p: np.ndarray | cKDTree, q: np.ndarray | cKDTree) -> float:
    """Symmetric squared-distance Chamfer: mean sq NN both ways, summed.

    Either cloud may be passed as a ``cKDTree`` built on it, so a caller that
    compares one cloud with many builds its tree once.
    """
    return _chamfer_and_match(*kd_trees((p, q)))[0]


def kd_trees(clouds) -> list[cKDTree]:
    """A KD-tree per cloud; clouds passed as trees are kept as they are."""
    return [c if isinstance(c, cKDTree)
            else cKDTree(np.asarray(c, dtype=np.float64).reshape(-1, 3))
            for c in clouds]


def _chamfer_and_match(tp: cKDTree, tq: cKDTree):
    """Chamfer distance between two trees' points and the matches both ways.

    One query in each direction gives the value and ``(fwd, back)``: per
    point of ``tp`` the index of its nearest point of ``tq``, and per point
    of ``tq`` the index of its nearest point of ``tp``.
    """
    if tp.n == 0 or tq.n == 0:
        raise ValueError("chamfer distance of an empty point set")
    d_pq, fwd = tq.query(tp.data)
    d_qp, back = tp.query(tq.data)
    return float(np.mean(d_pq**2) + np.mean(d_qp**2)), (fwd, back)


# ---------------------------------------------------------------------------
# Deformation operator on sampled surface points


class DeformOperator:
    """Sampled source points as an affine function of the coefficient vector.

    Surface samples are barycentric combinations of vertices, and vertex
    offsets are linear in the cage offsets, so each sample moves affinely
    with z: points(z) = P0 + G @ (sum_k z_k b_k).
    """

    def __init__(self, cage: Cage, source: TriMesh, n_samples: int, seed: int = 0):
        if np.abs(cage.phi).max() == 0:
            raise ValueError("degenerate cage: zero interpolation matrix")
        fidx, bary = _surface_draw(source, n_samples, seed)
        corners = source.faces[fidx]  # (n, 3)
        self.p0 = np.einsum("nc,nca->na", bary, source.vertices[corners])
        # weight of each sample w.r.t. cage vertices
        self.g = np.einsum("nc,ncj->nj", bary, cage.phi[corners])

    def points(self, bases: BasisSet, z: np.ndarray) -> np.ndarray:
        return self.p0 + self.g @ bases.cage_offsets(z)

    def basis_point_offsets(self, bases: BasisSet) -> np.ndarray:
        """Per-basis sample offsets, shape (K, n, 3)."""
        return np.matmul(self.g, bases.bases)


# ---------------------------------------------------------------------------
# Coefficient fitting


@dataclass
class CoeffFit:
    z: np.ndarray
    cd: float
    converged: bool
    cd_history: list[float] = field(default_factory=list)
    correspondences: tuple[np.ndarray, np.ndarray] | None = None


def _merged_rows(op: DeformOperator, targets: np.ndarray, fwd: np.ndarray,
                 back: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-sample weights w and targets c of the matched objective.

    Sample i's forward term and the backward terms of the targets matched to
    it share the linear part e_i z, so together they are
    w_i ||e_i z - c_i||^2 plus a constant, with w_i = 1/n_src +
    |back^-1(i)|/n_tgt and c_i the weighted mean of those targets minus
    p0_i. Every w_i is positive.
    """
    n_src, n_tgt = op.p0.shape[0], targets.shape[0]
    w = 1.0 / n_src + np.bincount(back, minlength=n_src) / n_tgt
    # each forward and backward row adds its weighted target to its sample
    total = targets[fwd] / n_src
    np.add.at(total, back, targets / n_tgt)
    return w, total / w[:, None] - op.p0


def fit_coefficient(bases: BasisSet, op: DeformOperator, target_points: np.ndarray,
                    max_rounds: int = 50, z0: np.ndarray | None = None) -> CoeffFit:
    """Fit z minimizing Chamfer distance to the target samples.

    Alternates nearest-neighbour correspondence freezing with the closed-form
    least squares on the matched objective; only improving steps are kept, so
    the recorded CD history is non-increasing. ``correspondences`` are the
    matches whose least squares produced the returned z (the matches at z0
    when no step improved).

    The matched objective has one row per source sample and axis, weighted
    by ``_merged_rows``. The target tree and the per-basis sample offsets
    depend only on the fixed bases and targets, so they are built once per
    fit, and each round rescales the offsets into one buffer. Each round
    builds one tree over the candidate points; its two queries give both the
    candidate's Chamfer value and the matches the next round solves with.
    """
    targets = np.asarray(target_points, dtype=np.float64).reshape(-1, 3)
    target_tree = cKDTree(targets)
    # e[i, axis] is the row of sample i's coordinate: one column per basis
    e = np.ascontiguousarray(op.basis_point_offsets(bases).transpose(1, 2, 0))
    a = np.empty(e.shape)

    z = np.zeros(bases.k) if z0 is None else np.array(z0, dtype=np.float64)
    best_cd, matches = _chamfer_and_match(cKDTree(op.points(bases, z)),
                                         target_tree)
    best_z, best_corr = z, matches
    history = [best_cd]
    converged = False
    for _ in range(max_rounds):
        fwd, back = matches
        w, c = _merged_rows(op, targets, fwd, back)
        sw = np.sqrt(w)[:, None]
        np.multiply(e, sw[:, :, None], out=a)
        z_new, *_ = np.linalg.lstsq(a.reshape(-1, bases.k), (c * sw).ravel(),
                                    rcond=None)
        cd_new, matches = _chamfer_and_match(cKDTree(op.points(bases, z_new)),
                                             target_tree)
        if cd_new < best_cd:
            improvement = best_cd - cd_new
            best_cd, best_z, best_corr = cd_new, z_new, (fwd, back)
            history.append(best_cd)
            if improvement < _ICP_TOL:
                converged = True
                break
        else:
            converged = True
            break
    return CoeffFit(z=best_z, cd=best_cd, converged=converged,
                    cd_history=history, correspondences=best_corr)


# ---------------------------------------------------------------------------
# Regularizers and the basis objective


def _penalties(b: np.ndarray, lambda_orth: float, lambda_sp: float):
    """(l_orth, l_sp, gradient of lambda_orth * l_orth + lambda_sp * l_sp).

    One pass over the basis pairs: each pair's cosine r feeds both the r² sum
    and the gradient.
    """
    k = b.shape[0]
    flat = b.reshape(k, -1)
    norms = np.linalg.norm(flat, axis=1)
    grad = np.zeros_like(flat)
    l_orth = 0.0
    for i in range(k):
        for j in range(i + 1, k):
            d = norms[i] * norms[j] + _NORM_EPS
            r = flat[i] @ flat[j] / d
            l_orth += r * r
            gi = flat[j] / d - (r / d) * norms[j] * flat[i] / max(norms[i], _NORM_EPS)
            gj = flat[i] / d - (r / d) * norms[i] * flat[j] / max(norms[j], _NORM_EPS)
            grad[i] += lambda_orth * 2.0 * r * gi
            grad[j] += lambda_orth * 2.0 * r * gj
    grad += lambda_sp * np.sign(flat) / flat.size
    return float(l_orth), float(np.abs(flat).sum() / flat.size), grad.reshape(b.shape)


def basis_objective_and_grad(b: np.ndarray, ops, targets, coeffs, corrs):
    """Regularized matching objective and its analytic gradient w.r.t. bases.

    The matching term is the mean fixed-correspondence point-matching loss
    over the pairs.
    """
    BasisSet(b)  # rejects non-finite bases
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
    l_orth, l_sp, reg_grad = _penalties(b, _LAMBDA_ORTH, _LAMBDA_SP)
    loss += _LAMBDA_ORTH * l_orth + _LAMBDA_SP * l_sp
    return loss, grad + reg_grad


def _solve_bases_matched(ops, targets, coeffs, corrs, k: int, n_t: int,
                         ridge: float = 1e-9) -> np.ndarray:
    """Closed-form least squares for B with coefficients and matches fixed.

    Coordinate axes decouple; the normal matrix is shared across axes:
    sum_pairs (z z^T) kron (G^T diag(w) G), with each pair's matched
    objective in the per-sample form of ``_merged_rows``.
    """
    dim = k * n_t
    m = np.zeros((dim, dim))
    rhs = np.zeros((dim, 3))
    for op, tgt, z, (fwd, back) in zip(ops, targets, coeffs, corrs):
        w, c = _merged_rows(op, tgt, fwd, back)
        gw = op.g * w[:, None]
        m += np.kron(np.outer(z, z), gw.T @ op.g)
        rhs += np.kron(z[:, None], gw.T @ c)  # (N_t, 3) per basis
    m += ridge * np.trace(m) / dim * np.eye(dim) + ridge * np.eye(dim)
    sol = np.linalg.solve(m, rhs)  # (K*N_t, 3)
    return sol.reshape(k, n_t, 3)


def stalled(history: list[float]) -> bool:
    """Whether the last mean Chamfer value fell by less than 1e-6 relative."""
    return (len(history) > 1 and history[-2] > 0
            and (history[-2] - history[-1]) / history[-2] < 1e-6)


@dataclass
class BasisFit:
    bases: BasisSet
    coeffs: list[np.ndarray]
    loss_history: list[float]
    converged: bool


def fit_bases(ops: list[DeformOperator], targets: list[np.ndarray], init: BasisSet,
              outer_iters: int,
              extra_basis_grad: np.ndarray | None = None) -> BasisFit:
    """Alternating fit of K deformation bases and per-target coefficients.

    ``ops[i]`` samples the source convex through its cage and ``targets[i]``
    holds target i's (n, 3) surface samples; all operators share the source
    and cage. The fit starts from the bases ``init``, which also give K.
    Each of up to ``outer_iters`` outer iterations fits coefficients by
    ICP-style Chamfer minimization, solves the matched objective for the
    bases in closed form, then takes gradient steps on the regularized
    objective. ``extra_basis_grad``, a (K, N_t, 3) array when given, is added
    to the objective's gradient at every step (the frozen physics penalty at
    fine-tuning time).
    """
    if not ops:
        raise ValueError("at least one target required")
    b = np.array(init.bases)
    k, n_t = b.shape[:2]
    extra = 0.0 if extra_basis_grad is None else extra_basis_grad

    coeffs = [np.zeros(k) for _ in ops]
    history: list[float] = []
    converged = False
    for _ in range(outer_iters):
        fits = [fit_coefficient(BasisSet(b), op, tgt, z0=z)
                for op, tgt, z in zip(ops, targets, coeffs)]
        coeffs = [f.z for f in fits]
        corrs = [f.correspondences for f in fits]
        l_c = float(np.mean([f.cd for f in fits]))
        history.append(l_c)
        if stalled(history):
            converged = True
            break
        b_new = _solve_bases_matched(ops, targets, coeffs, corrs, k, n_t)
        # keep the closed-form step only if the regularized objective agrees
        obj, grad = basis_objective_and_grad(b, ops, targets, coeffs, corrs)
        obj_new, grad_new = basis_objective_and_grad(b_new, ops, targets, coeffs,
                                                     corrs)
        if obj_new <= obj:
            b, obj, grad = b_new, obj_new, grad_new
        # gradient descent on the full regularized objective
        lr = _REG_LR
        grad = grad + extra
        for _ in range(_REG_STEPS):
            b_try = b - lr * grad
            obj_try, grad_try = basis_objective_and_grad(
                b_try, ops, targets, coeffs, corrs)
            if obj_try < obj:
                b, obj, grad = b_try, obj_try, grad_try + extra
                lr *= 1.2
            else:
                lr *= 0.5

    bases = BasisSet(b)
    fits = [fit_coefficient(bases, op, tgt, z0=z)
            for op, tgt, z in zip(ops, targets, coeffs)]
    coeffs = [f.z for f in fits]
    history.append(float(np.mean([f.cd for f in fits])))
    return BasisFit(bases=bases, coeffs=coeffs, loss_history=history,
                    converged=converged)


# ---------------------------------------------------------------------------
# Gaussian mixture over coefficients


@dataclass(frozen=True)
class GaussianMixture:
    """Diagonal-covariance mixture; weights sum to 1, variances floored."""

    means: np.ndarray      # (C, K)
    variances: np.ndarray  # (C, K)
    weights: np.ndarray    # (C,)

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=np.float64)
        if (w < 0).any() or abs(w.sum() - 1.0) > 1e-9:
            raise ValueError("mixture weights must be non-negative and sum to 1")
        if (np.asarray(self.variances) <= 0).any():
            raise ValueError("variances must be strictly positive")

    @property
    def n_components(self) -> int:
        return len(self.weights)

    def mean(self) -> np.ndarray:
        return self.weights @ self.means

    def to_dict(self) -> dict:
        return {
            "means": np.asarray(self.means).tolist(),
            "variances": np.asarray(self.variances).tolist(),
            "weights": np.asarray(self.weights).tolist(),
        }

    @classmethod
    def from_dict(cls, rec: dict) -> "GaussianMixture":
        return cls(np.array(rec["means"]), np.array(rec["variances"]),
                   np.array(rec["weights"]))


_VAR_FLOOR = 1e-6
_EM_ITERS = 100
_EM_TOL = 1e-8


def _kmeans(x: np.ndarray, n: int, rng: np.random.Generator, iters: int = 25):
    centers = x[rng.choice(len(x), size=n, replace=False)]
    for _ in range(iters):
        d = ((x[:, None, :] - centers[None]) ** 2).sum(axis=2)
        labels = d.argmin(axis=1)
        new = np.array([x[labels == c].mean(axis=0) if (labels == c).any() else centers[c]
                        for c in range(n)])
        if np.allclose(new, centers):
            break
        centers = new
    return centers, labels


def fit_gmm(coeffs: np.ndarray, n_components: int = 3, seed: int = 0) -> GaussianMixture:
    """EM fit of a diagonal Gaussian mixture, k-means initialized."""
    x = np.asarray(coeffs, dtype=np.float64)
    if x.ndim != 2 or len(x) == 0:
        raise ValueError("coefficient set must be a non-empty (n, K) array")
    n, k = x.shape
    c = min(n_components, n)
    rng = np.random.default_rng(seed)
    centers, labels = _kmeans(x, c, rng)
    means = centers
    variances = np.empty((c, k))
    weights = np.empty(c)
    for j in range(c):
        mask = labels == j
        weights[j] = max(mask.sum(), 1) / n
        variances[j] = x[mask].var(axis=0) if mask.any() else np.ones(k)
    weights /= weights.sum()
    variances = np.maximum(variances, _VAR_FLOOR)

    prev_ll = -np.inf
    for _ in range(_EM_ITERS):
        # E step in log space
        log_p = (
            -0.5 * (((x[:, None, :] - means[None]) ** 2) / variances[None]).sum(axis=2)
            - 0.5 * np.log(2 * np.pi * variances).sum(axis=1)[None]
            + np.log(weights)[None]
        )
        m = log_p.max(axis=1, keepdims=True)
        ll = float((m.squeeze(1) + np.log(np.exp(log_p - m).sum(axis=1))).sum())
        resp = np.exp(log_p - m)
        resp /= resp.sum(axis=1, keepdims=True)
        # M step
        nk = resp.sum(axis=0) + 1e-300
        means = (resp.T @ x) / nk[:, None]
        variances = (resp.T @ (x**2)) / nk[:, None] - means**2
        variances = np.maximum(variances, _VAR_FLOOR)
        weights = nk / nk.sum()
        if abs(ll - prev_ll) < _EM_TOL:
            break
        prev_ll = ll
    return GaussianMixture(means=means, variances=variances, weights=weights)


def sample_gmm(gmm: GaussianMixture, seed=0, n: int = 1) -> np.ndarray:
    """Draw n coefficient vectors as an (n, K) array; deterministic per seed."""
    rng = np.random.default_rng(seed)
    comp = rng.choice(gmm.n_components, size=n, p=gmm.weights)
    return gmm.means[comp] + rng.standard_normal((n, gmm.means.shape[1])) * np.sqrt(
        gmm.variances[comp]
    )
