"""Reference computations the output checks compare the program against.

Nothing here calls the program's own nearest-neighbour, metric or fitting
code: distances are exhaustive, and surface samples come from this file's
own sampler unless a check says otherwise.
"""

from __future__ import annotations

import numpy as np

_CHUNK = 1024


def chamfer(p: np.ndarray, q: np.ndarray) -> float:
    """Symmetric squared Chamfer distance over all point pairs, no search structure.

    Mean squared nearest-neighbour distance from p to q plus from q to p,
    taken as row and column minima of the full squared-distance matrix.
    """
    p = np.asarray(p, dtype=np.float64).reshape(-1, 3)
    q = np.asarray(q, dtype=np.float64).reshape(-1, 3)
    qq = np.einsum("qa,qa->q", q, q)
    row = np.empty(len(p))
    col = np.full(len(q), np.inf)
    for a in range(0, len(p), _CHUNK):
        pa = p[a:a + _CHUNK]
        d2 = np.einsum("pa,pa->p", pa, pa)[:, None] + qq[None, :] - 2.0 * pa @ q.T
        np.maximum(d2, 0.0, out=d2)
        row[a:a + _CHUNK] = d2.min(axis=1)
        np.minimum(col, d2.min(axis=0), out=col)
    return float(row.mean() + col.mean())


def point_mesh_sq(points: np.ndarray, verts: np.ndarray, faces: np.ndarray) -> np.ndarray:
    """Squared distance from each point to the nearest triangle, over all triangles.

    Each point-triangle pair is classified by the Voronoi region of its
    closest point (Ericson, Real-Time Collision Detection, 5.1.5): a vertex,
    an edge or the face interior, whose squared distance has a closed form.
    """
    a, b, c = (verts[faces[:, i]] for i in range(3))            # (F, 3)
    ab, ac, bc = b - a, c - a, c - b
    n = np.cross(ab, ac)
    dot = lambda u, v: np.einsum("fa,fa->f", u, v)  # noqa: E731
    out = np.empty(len(points))
    for s in range(0, len(points), _CHUNK):
        p = points[s:s + _CHUNK]
        pp = np.einsum("pa,pa->p", p, p)[:, None]
        ap2, bp2, cp2 = (pp - 2.0 * p @ x.T + dot(x, x) for x in (a, b, c))
        p_ab, p_ac = p @ ab.T, p @ ac.T
        d1, d2 = p_ab - dot(a, ab), p_ac - dot(a, ac)
        d3, d4 = p_ab - dot(b, ab), p_ac - dot(b, ac)
        d5, d6 = p_ab - dot(c, ab), p_ac - dot(c, ac)
        va, vb, vc = d3 * d6 - d5 * d4, d5 * d2 - d1 * d6, d1 * d4 - d3 * d2
        with np.errstate(divide="ignore", invalid="ignore"):
            # regions in order of increasing precedence; later ones win
            regions = [
                (True, (p @ n.T - dot(a, n)) ** 2 / dot(n, n)),
                ((va <= 0) & (d4 >= d3) & (d5 >= d6), bp2 - (d4 - d3) ** 2 / dot(bc, bc)),
                ((vb <= 0) & (d2 >= 0) & (d6 <= 0), ap2 - d2 ** 2 / dot(ac, ac)),
                ((d6 >= 0) & (d5 <= d6), cp2),
                ((vc <= 0) & (d1 >= 0) & (d3 <= 0), ap2 - d1 ** 2 / dot(ab, ab)),
                ((d3 >= 0) & (d4 <= d3), bp2),
                ((d1 <= 0) & (d2 <= 0), ap2),
            ]
        d2_all = np.select([m for m, _ in reversed(regions)],
                           [v for _, v in reversed(regions)])
        out[s:s + _CHUNK] = np.maximum(d2_all, 0.0).min(axis=1)
    return out


def surface_chamfer(pa: np.ndarray, mesh_a, pb: np.ndarray, mesh_b) -> float:
    """Chamfer between two meshes: points sampled on each against the other's surface.

    Exact point-to-surface distances, so the only error is Monte Carlo noise
    of the samples ``pa`` (on ``mesh_a``) and ``pb`` (on ``mesh_b``).
    """
    return float(point_mesh_sq(pa, *mesh_b).mean() + point_mesh_sq(pb, *mesh_a).mean())


def sample_surface(verts: np.ndarray, faces: np.ndarray, n: int,
                   rng: np.random.Generator) -> np.ndarray:
    """Area-weighted uniform surface samples (the benchmark's own sampler)."""
    tri = verts[faces]
    area = 0.5 * np.linalg.norm(np.cross(tri[:, 1] - tri[:, 0], tri[:, 2] - tri[:, 0]),
                                axis=1)
    fidx = rng.choice(len(faces), size=n, p=area / area.sum())
    bary = rng.dirichlet(np.ones(3), size=n)
    return np.einsum("nc,nca->na", bary, tri[fidx])


def closed(faces: np.ndarray) -> bool:
    """Every undirected edge is shared by exactly two faces."""
    edges = np.sort(np.concatenate([faces[:, [0, 1]], faces[:, [1, 2]],
                                    faces[:, [2, 0]]]), axis=1)
    _, counts = np.unique(edges, axis=0, return_counts=True)
    return bool((counts == 2).all())


def set_metrics(gen: list[np.ndarray], ref: list[np.ndarray]) -> dict:
    """MMD, COV and 1-NNA from an exhaustive pooled distance matrix.

    Conventions follow the program's documentation: MMD averages, over
    references, the distance to the closest generation; COV is the share of
    references that are some generation's nearest reference; 1-NNA is the
    leave-one-out 1-NN accuracy over the pooled set, ties going to the lower
    pooled index (generations first).
    """
    pool = list(gen) + list(ref)
    n, ng = len(pool), len(gen)
    full = np.zeros((n, n))
    for i in range(n):
        for j in range(i + 1, n):
            full[i, j] = full[j, i] = chamfer(pool[i], pool[j])
    d = full[:ng, ng:]
    np.fill_diagonal(full, np.inf)
    labels = np.arange(n) >= ng
    correct = labels[full.argmin(axis=1)] == labels
    return {"mmd": float(d.min(axis=0).mean()),
            "cov": len(np.unique(d.argmin(axis=1))) / len(ref),
            "one_nna": float(correct.mean()),
            "pairs": n * (n - 1) // 2}
