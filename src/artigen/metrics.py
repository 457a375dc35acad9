"""Set-level evaluation of generated point clouds against references."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.spatial import cKDTree

from .basis import chamfer_distance


def _trees(clouds: list[np.ndarray | cKDTree]) -> list[cKDTree]:
    """A KD-tree per cloud; clouds passed as trees are kept as they are."""
    return [c if isinstance(c, cKDTree)
            else cKDTree(np.asarray(c, dtype=np.float64).reshape(-1, 3))
            for c in clouds]


def pairwise_chamfer(gen: list[np.ndarray | cKDTree],
                     ref: list[np.ndarray | cKDTree]) -> np.ndarray:
    """Matrix D[i, j] = CD(gen[i], ref[j]), squared symmetric Chamfer.

    Clouds may be passed as KD-trees built on them, as ``evaluate`` does so
    that ``one_nna`` reuses the same trees.
    """
    ref_trees = _trees(ref)
    d = np.empty((len(gen), len(ref)))
    for i, g in enumerate(_trees(gen)):
        for j, r in enumerate(ref_trees):
            d[i, j] = chamfer_distance(g, r)
    return d


# Box lower bounds are scaled down by this factor so that rounding cannot lift
# one above the Chamfer distance it bounds: the KD-tree squares a square-rooted
# distance and sums the axes in its own order.
_LB_SHRINK = 1.0 - 2.0 ** -30


def _box_lower_bounds(trees: list[cKDTree]) -> np.ndarray:
    """Matrix lb[i, j] <= CD(clouds i, j) from the clouds' bounding boxes.

    No point of cloud j is closer to p than cloud j's box, so the mean squared
    distance from cloud i's points to box j bounds the i-to-j Chamfer term
    from below. Temporaries hold one cloud's points against every box.
    """
    lo = np.array([t.mins for t in trees])
    hi = np.array([t.maxes for t in trees])
    one_way = np.empty((len(trees), len(trees)))
    for i, t in enumerate(trees):
        sq = np.zeros((len(trees), t.n))
        for ax in range(3):
            x = t.data[:, ax]
            gap = np.maximum(lo[:, ax, None] - x, x - hi[:, ax, None])
            np.maximum(gap, 0.0, out=gap)
            sq += gap * gap
        # a mean over points, like chamfer_distance's, of per-point sums
        one_way[i] = sq.mean(axis=1)
    return (one_way + one_way.T) * _LB_SHRINK


def _has_closer_own(trees: list[cKDTree], other: np.ndarray,
                    ties_win: bool) -> np.ndarray:
    """Whether each cloud has another cloud of its own set closer than other[i].

    With ``ties_win`` a cloud at exactly other[i] counts too. Candidates are
    visited by ascending box lower bound; the search stops at the first hit or
    once the bound exceeds other[i]. Each pair's Chamfer distance is computed
    at most once.
    """
    lb = _box_lower_bounds(trees)
    cache: dict[tuple[int, int], float] = {}
    found = np.zeros(len(trees), dtype=bool)
    for i, bound in enumerate(other):
        for j in np.argsort(lb[i], kind="stable"):
            if j == i:
                continue
            if lb[i, j] > bound:
                break
            key = (min(i, j), max(i, j))
            if key not in cache:
                cache[key] = chamfer_distance(trees[key[0]], trees[key[1]])
            if cache[key] < bound or (ties_win and cache[key] == bound):
                found[i] = True
                break
    return found


def mmd(gen: list[np.ndarray], ref: list[np.ndarray],
        d: np.ndarray | None = None) -> float:
    """Mean over references of the distance to the closest generated cloud."""
    if not gen or not ref:
        raise ValueError("mmd needs non-empty sets")
    if d is None:
        d = pairwise_chamfer(gen, ref)
    return float(d.min(axis=0).mean())


def cov(gen: list[np.ndarray], ref: list[np.ndarray],
        d: np.ndarray | None = None) -> float:
    """Fraction of references matched as nearest neighbor of some generation."""
    if not gen or not ref:
        raise ValueError("cov needs non-empty sets")
    if d is None:
        d = pairwise_chamfer(gen, ref)
    matched = np.unique(d.argmin(axis=1))
    return float(matched.size / len(ref))


def one_nna(gen: list[np.ndarray | cKDTree], ref: list[np.ndarray | cKDTree],
            d: np.ndarray | None = None) -> float:
    """Leave-one-out 1-NN two-sample accuracy over the pooled set.

    Ties are broken toward the lowest pooled index (generations first).
    0.5 means the two sets are indistinguishable to the classifier. Clouds
    may be passed as KD-trees built on them. Only the Chamfer pairs that
    decide a neighbour's label are computed; the result is the one the full
    pooled distance table gives.
    """
    if not gen or not ref:
        raise ValueError("one_nna needs non-empty sets")
    gen_trees, ref_trees = _trees(gen), _trees(ref)
    if d is None:
        d = pairwise_chamfer(gen_trees, ref_trees)
    # d holds each cloud's nearest cloud of the other set, so a cloud is
    # classified correctly iff a cloud of its own set is nearer; on a tie a
    # generation wins, having the lower pooled index
    correct = np.concatenate([_has_closer_own(gen_trees, d.min(axis=1), True),
                              _has_closer_own(ref_trees, d.min(axis=0), False)])
    return float(correct.mean())


_JSD_RESOLUTION = 28  # voxels per axis of the JSD occupancy grid


def _voxel_histogram(points_list: list[np.ndarray], lo: np.ndarray, hi: np.ndarray,
                     res: int) -> np.ndarray:
    """Occupancy frequency per voxel, averaged over the set's clouds."""
    occ = np.zeros(res ** 3)
    extent = np.maximum(hi - lo, 1e-12)
    for pts in points_list:
        idx = np.floor((pts - lo) / extent * res).astype(np.int64)
        idx = np.clip(idx, 0, res - 1)
        flat = np.unique(idx[:, 0] * res * res + idx[:, 1] * res + idx[:, 2])
        occ[flat] += 1.0
    occ /= len(points_list)
    total = occ.sum()
    return occ / total if total > 0 else occ


def jsd(gen: list[np.ndarray], ref: list[np.ndarray]) -> float:
    """Jensen-Shannon divergence (base 2) between voxel occupancy histograms.

    The voxel grid spans the joint axis-aligned bounding cube of both sets.
    """
    if not gen or not ref:
        raise ValueError("jsd needs non-empty sets")
    allpts = np.concatenate([np.concatenate(gen), np.concatenate(ref)])
    lo, hi = allpts.min(axis=0), allpts.max(axis=0)
    center = (lo + hi) / 2
    half = (hi - lo).max() / 2
    lo = center - half
    hi = center + half
    p = _voxel_histogram(gen, lo, hi, _JSD_RESOLUTION)
    q = _voxel_histogram(ref, lo, hi, _JSD_RESOLUTION)
    m = (p + q) / 2

    def _kl(a, b):
        mask = a > 0
        return float((a[mask] * np.log2(a[mask] / b[mask])).sum())

    return 0.5 * _kl(p, m) + 0.5 * _kl(q, m)


@dataclass
class EvalResult:
    mmd: float
    cov: float
    one_nna: float
    jsd: float
    apd: float | None = None

    def to_dict(self) -> dict:
        return {"mmd": self.mmd, "cov": self.cov, "one_nna": self.one_nna,
                "jsd": self.jsd, "apd": self.apd}

    def table(self) -> str:
        """Fixed-width report; MMD scaled by 10^3, APD by 10^2."""
        rows = [("MMD (x1e3)", f"{self.mmd * 1e3:.4f}"),
                ("COV (%)", f"{self.cov * 100:.2f}"),
                ("1-NNA (%)", f"{self.one_nna * 100:.2f}"),
                ("JSD", f"{self.jsd:.4f}")]
        if self.apd is not None:
            rows.append(("APD (x1e2)", f"{self.apd * 1e2:.4f}"))
        width = max(len(k) for k, _ in rows)
        return "\n".join(f"{k:<{width}}  {v}" for k, v in rows)


def evaluate(gen: list[np.ndarray], ref: list[np.ndarray],
             apd_value: float | None = None) -> EvalResult:
    # JSD first, so its voxel temporaries are gone before the trees are built
    div = jsd(gen, ref)
    # one KD-tree per cloud serves both the gen x ref block and 1-NNA
    gen_trees, ref_trees = _trees(gen), _trees(ref)
    d = pairwise_chamfer(gen_trees, ref_trees)
    return EvalResult(
        mmd=mmd(gen, ref, d), cov=cov(gen, ref, d),
        one_nna=one_nna(gen_trees, ref_trees, d), jsd=div, apd=apd_value,
    )
