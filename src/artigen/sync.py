"""Cross-convex deformation synchronization: S_m z^i ~ y_m^i for every convex m."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .basis import BasisSet

# singular values at or below this fraction of the largest count as zero
_RCOND = 1e-10
# alternation steps run when the closed form cannot interpolate (rank Z < |A|)
_FALLBACK_ITERS = 100


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


def optimize_sync_matrices(global_coeffs: np.ndarray, y: np.ndarray) -> list[np.ndarray]:
    """Per-convex transformation update S_m = Y_m Z^+, one Z^+ for all convexes.

    ``global_coeffs`` is (|A|, K) and ``y`` is (M, |A|, K); Z and Y_m hold
    the coefficient vectors of the targets as columns.
    """
    z_pinv = np.linalg.pinv(np.asarray(global_coeffs, dtype=np.float64).T,
                            rcond=_RCOND)
    return [y_m.T @ z_pinv for y_m in np.asarray(y, dtype=np.float64)]


def optimize_global_coeff(s_matrices: list[np.ndarray], y: np.ndarray) -> np.ndarray:
    """Per target i, the mean over convexes of the min-norm solution of S_m z = y_m^i.

    ``y`` is (M, |A|, K): the coefficient of each convex for each target mesh.
    Returns the (|A|, K) global coefficients; each S matrix is pseudo-inverted
    once for all targets.
    """
    y = np.asarray(y, dtype=np.float64)
    if len(s_matrices) != y.shape[0] or len(s_matrices) == 0:
        raise ValueError("one S matrix per convex required")
    return np.mean([y_m @ np.linalg.pinv(s, rcond=_RCOND).T
                    for s, y_m in zip(s_matrices, y)], axis=0)


def synchronize(bases: list[BasisSet], y: np.ndarray) -> SyncState:
    """Global coefficients and S matrices that map them onto every convex.

    ``y`` is (M, |A|, K). The global coefficients are the cross-convex mean
    of ``y`` and S_m = Y_m Z^+, which solves S_m Z = Y_m exactly whenever Z
    has rank |A|. Otherwise (for generic data, |A| > K) the S and z updates
    alternate for ``_FALLBACK_ITERS`` steps, and the state with the lowest
    objective is returned. The history holds the objective at identity S,
    after the closed form, and after each alternation step.
    """
    y = np.asarray(y, dtype=np.float64)
    m_count, n_targets, k = y.shape
    z = y.mean(axis=0)  # (|A|, K)
    history = [sync_objective(bases, [np.eye(k)] * m_count, z, y)]
    s_matrices = optimize_sync_matrices(z, y)
    history.append(sync_objective(bases, s_matrices, z, y))
    sv = np.linalg.svd(z, compute_uv=False)
    if np.count_nonzero(sv > _RCOND * sv.max(initial=0.0)) < n_targets:
        best = (history[-1], s_matrices, z)
        for _ in range(_FALLBACK_ITERS):
            z = optimize_global_coeff(s_matrices, y)
            s_matrices = optimize_sync_matrices(z, y)
            history.append(sync_objective(bases, s_matrices, z, y))
            if history[-1] < best[0]:
                best = (history[-1], s_matrices, z)
        _, s_matrices, z = best
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
