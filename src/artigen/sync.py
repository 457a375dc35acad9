"""Cross-convex deformation synchronization by alternating SVD/least-squares."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .basis import BasisSet

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


@dataclass
class SyncState:
    """Per-convex synchronization matrices plus shared global coefficients."""

    s_matrices: list[np.ndarray]          # M matrices, each (K, K)
    global_coeffs: np.ndarray             # (|A|, K)
    objective_history: list[float] = field(default_factory=list)

    def to_dict(self) -> dict:
        return {
            "s_matrices": [s.tolist() for s in self.s_matrices],
            "global_coeffs": self.global_coeffs.tolist(),
            "objective_history": list(self.objective_history),
        }

    @classmethod
    def from_dict(cls, rec: dict) -> "SyncState":
        return cls(
            s_matrices=[np.array(s) for s in rec["s_matrices"]],
            global_coeffs=np.array(rec["global_coeffs"]),
            objective_history=list(rec.get("objective_history", [])),
        )


def sync_objective(bases: list[BasisSet], s_matrices: list[np.ndarray],
                   global_coeffs: np.ndarray, y: np.ndarray) -> float:
    """Sum over targets and convexes of ||B_m^T (S_m z^i - y_m^i)||_2.

    ``y`` has shape (M, |A|, K): the per-convex per-target coefficients.
    """
    y = np.asarray(y, dtype=np.float64)
    z = np.asarray(global_coeffs, dtype=np.float64)
    m_count, n_targets, k = y.shape
    if len(bases) != m_count or len(s_matrices) != m_count:
        raise ValueError("one basis set and one S matrix per convex required")
    if z.shape != (n_targets, k):
        raise ValueError(f"global coefficients must be {(n_targets, k)}, got {z.shape}")
    total = 0.0
    for m in range(m_count):
        flat = bases[m].bases.reshape(k, -1)  # (K, 3N_t)
        for i in range(n_targets):
            diff = (s_matrices[m] @ z[i] - y[m, i]) @ flat
            total += float(np.linalg.norm(diff))
    return total


def optimize_sync_matrix(z_stack: np.ndarray, y_stack: np.ndarray) -> np.ndarray:
    """Per-convex transformation update: S_m = Y_m Z^+ via the two SVDs.

    ``z_stack`` and ``y_stack`` are (K, |A|) with coefficient vectors as
    columns.
    """
    z_stack = np.asarray(z_stack, dtype=np.float64)
    y_stack = np.asarray(y_stack, dtype=np.float64)
    u, s, vt = _svd_signed(z_stack)
    um, sm, vmt = _svd_signed(y_stack)
    return um @ np.diag(sm) @ vmt @ vt.T @ np.diag(_pinv_sigma(s)) @ u.T


def optimize_global_coeff(s_matrices: list[np.ndarray], y: np.ndarray) -> np.ndarray:
    """Per target i, the mean over convexes of the min-norm solution of S_m z = y_m^i.

    ``y`` is (M, |A|, K): the coefficient of each convex for each target mesh.
    Returns the (|A|, K) global coefficients; each S matrix is pseudo-inverted
    once for all targets.
    """
    y = np.asarray(y, dtype=np.float64)
    if len(s_matrices) != y.shape[0] or len(s_matrices) == 0:
        raise ValueError("one S matrix per convex required")
    sols = np.array([[pinv @ y_mi for y_mi in y_m]
                     for pinv, y_m in zip(map(svd_pinv, s_matrices), y)])
    return np.mean(sols, axis=0)


def synchronize(bases: list[BasisSet], y: np.ndarray, iters: int = 100) -> SyncState:
    """Alternating optimization of the S matrices and the global coefficients.

    ``y`` is (M, |A|, K). Global coefficients start from the cross-convex mean
    of the per-convex coefficients; one S update always runs first so that
    iters=0 still returns a defined state. Each loop re-optimizes z then S and
    records the objective (descent is not guaranteed by the approximate
    alternation and is recorded, not asserted).
    """
    y = np.asarray(y, dtype=np.float64)
    m_count, _, k = y.shape
    z = y.mean(axis=0)  # (|A|, K)
    # initial objective measured at identity transformations
    history = [sync_objective(bases, [np.eye(k)] * m_count, z, y)]
    s_matrices = [optimize_sync_matrix(z.T, y[m].T) for m in range(m_count)]
    history.append(sync_objective(bases, s_matrices, z, y))
    for _ in range(iters):
        z = optimize_global_coeff(s_matrices, y)
        s_matrices = [optimize_sync_matrix(z.T, y[m].T) for m in range(m_count)]
        history.append(sync_objective(bases, s_matrices, z, y))
    return SyncState(s_matrices=s_matrices, global_coeffs=z,
                     objective_history=history)


def synced_bases(bases: BasisSet, s_matrix: np.ndarray) -> np.ndarray:
    """Composed operator: basis j of the result is sum_k S[k, j] b_k.

    Applying the result to z equals applying the original bases to S z.
    """
    s_matrix = np.asarray(s_matrix, dtype=np.float64)
    if s_matrix.shape != (bases.k, bases.k):
        raise ValueError(f"S must be {(bases.k, bases.k)}, got {s_matrix.shape}")
    return np.einsum("kj,kna->jna", s_matrix, bases.bases)
