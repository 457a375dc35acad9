"""Cage construction, mean value coordinates and cage-driven deformation."""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np
from scipy.optimize import linear_sum_assignment

from .mesh import TriMesh

_EPS = 1e-10


def cage_template() -> TriMesh:
    """Unit icosphere with 42 vertices and 80 faces (once-subdivided icosahedron)."""
    phi = (1.0 + np.sqrt(5.0)) / 2.0
    verts = np.array(
        [
            [-1, phi, 0], [1, phi, 0], [-1, -phi, 0], [1, -phi, 0],
            [0, -1, phi], [0, 1, phi], [0, -1, -phi], [0, 1, -phi],
            [phi, 0, -1], [phi, 0, 1], [-phi, 0, -1], [-phi, 0, 1],
        ],
        dtype=np.float64,
    )
    verts /= np.linalg.norm(verts, axis=1, keepdims=True)
    faces = [
        (0, 11, 5), (0, 5, 1), (0, 1, 7), (0, 7, 10), (0, 10, 11),
        (1, 5, 9), (5, 11, 4), (11, 10, 2), (10, 7, 6), (7, 1, 8),
        (3, 9, 4), (3, 4, 2), (3, 2, 6), (3, 6, 8), (3, 8, 9),
        (4, 9, 5), (2, 4, 11), (6, 2, 10), (8, 6, 7), (9, 8, 1),
    ]
    # one loop subdivision pass: 12 -> 42 vertices, 20 -> 80 faces
    vlist = [tuple(v) for v in verts]
    midpoint: dict[tuple[int, int], int] = {}

    def mid(i, j):
        key = (min(i, j), max(i, j))
        if key not in midpoint:
            m = np.array(vlist[i]) + np.array(vlist[j])
            m /= np.linalg.norm(m)
            midpoint[key] = len(vlist)
            vlist.append(tuple(m))
        return midpoint[key]

    new_faces = []
    for a, b, c in faces:
        ab, bc, ca = mid(a, b), mid(b, c), mid(c, a)
        new_faces += [(a, ab, ca), (b, bc, ab), (c, ca, bc), (ab, bc, ca)]
    return TriMesh(np.array(vlist), np.array(new_faces))


@dataclass(frozen=True)
class Cage:
    """Control mesh for one convex plus its interpolation weight matrix."""

    mesh: TriMesh
    phi: np.ndarray  # (N_convex, N_cage)

    def __post_init__(self):
        phi = np.ascontiguousarray(np.asarray(self.phi, dtype=np.float64))
        phi.setflags(write=False)
        object.__setattr__(self, "phi", phi)


# ---------------------------------------------------------------------------
# Mean value coordinates (closed triangle mesh construction of Ju et al.)


def mean_value_coordinates(p, cage_mesh: TriMesh, tol: float = 1e-12) -> np.ndarray:
    """Weights w with sum(w)=1 and sum(w_j v_j)=p for p inside cage_mesh.

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


def weight_matrix(points: np.ndarray, cage_mesh: TriMesh) -> np.ndarray:
    """Stack mean value coordinate rows for an (n,3) point array."""
    points = np.asarray(points, dtype=np.float64).reshape(-1, 3)
    return np.array([mean_value_coordinates(p, cage_mesh) for p in points])


# ---------------------------------------------------------------------------
# Cage construction


def build_cage(convex: TriMesh, template: TriMesh | None = None,
               epsilon: float = 0.05) -> Cage:
    """Fit the template sphere around a convex and compute its weight matrix.

    The template is scaled to 1.05x the convex bounding-sphere radius and
    centered on the convex centroid; each template vertex is then matched to a
    distinct convex vertex by minimum-cost assignment and retracted towards it
    by a factor (1 - epsilon).
    """
    if template is None:
        template = cage_template()
    if convex.n_vertices == 0:
        raise ValueError("empty convex")
    centroid = convex.vertices.mean(axis=0)
    radius = np.linalg.norm(convex.vertices - centroid, axis=1).max()
    if radius <= 0:
        radius = 1.0
    tverts = template.vertices * (1.05 * radius) + centroid

    targets = convex.vertices
    if convex.n_vertices < template.n_vertices:
        warnings.warn(
            f"convex has {convex.n_vertices} vertices < template "
            f"{template.n_vertices}; padding assignment targets by duplication"
        )
        reps = int(np.ceil(template.n_vertices / convex.n_vertices))
        targets = np.vstack([targets] * reps)

    cost = np.linalg.norm(tverts[:, None, :] - targets[None, :, :], axis=2)
    rows, cols = linear_sum_assignment(cost)
    matched = targets[cols[np.argsort(rows)]]
    cverts = tverts + (1.0 - epsilon) * (matched - tverts)
    cage_mesh = TriMesh(cverts, template.faces)
    phi = weight_matrix(convex.vertices, cage_mesh)
    return Cage(mesh=cage_mesh, phi=phi)


# ---------------------------------------------------------------------------
# Smooth layer: blend interpolation weights across a part's cages


def smooth_weights(cages: list[Cage], convexes: list[TriMesh],
                   blend_radius: float) -> list[list[np.ndarray]]:
    """Cross-cage weight blending for one part.

    Returns W[m][k], an (N_m, N_t) matrix giving convex m's interpolation
    weights with respect to cage k; the deformation of convex m is
    sum_k W[m][k] @ cage_offsets_k. Vertices farther than blend_radius from
    every other convex keep their original single-cage row, so each row block
    still sums to 1 overall.
    """
    M = len(cages)
    if M != len(convexes):
        raise ValueError("one cage per convex required")
    out: list[list[np.ndarray]] = []
    for m, (cage, convex) in enumerate(zip(cages, convexes)):
        n_m = convex.n_vertices
        rows = [np.zeros((n_m, c.phi.shape[1])) for c in cages]
        rows[m] = np.array(cage.phi)
        if M > 1 and blend_radius > 0:
            # distance from each vertex of convex m to every other convex
            dists = np.full((n_m, M), np.inf)
            dists[:, m] = 0.0
            for k in range(M):
                if k == m:
                    continue
                d = np.linalg.norm(
                    convex.vertices[:, None, :] - convexes[k].vertices[None, :, :],
                    axis=2,
                ).min(axis=1)
                dists[:, k] = d
            alpha = np.clip(1.0 - dists / blend_radius, 0.0, None)
            alpha[:, m] = 1.0
            near = (alpha[:, np.arange(M) != m] > 0).any(axis=1)
            if near.any():
                alpha = alpha / alpha.sum(axis=1, keepdims=True)
                idx = np.nonzero(near)[0]
                for k in range(M):
                    if k == m:
                        rows[k][idx] = alpha[idx, k, None] * cage.phi[idx]
                        continue
                    wk = weight_matrix(convex.vertices[idx], cages[k].mesh)
                    rows[k][idx] = alpha[idx, k, None] * wk
        out.append(rows)
    return out

