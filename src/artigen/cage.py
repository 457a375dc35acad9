"""Cage construction, mean value coordinates and cage-driven deformation."""

from __future__ import annotations

import functools
import warnings
from dataclasses import dataclass

import numpy as np
from scipy.optimize import linear_sum_assignment

from .mesh import TriMesh

_TOL = 1e-12
# bytes of mean value coordinate temporaries one block of points may hold
_MVC_BYTES = 2 << 20
# those temporaries per point and cage face at their peak: 37 float64 (23 KiB
# per point on the 80-face template)
_MVC_FACE_BYTES = 37 * 8


@functools.cache
def cage_template() -> TriMesh:
    """Unit icosphere with 42 vertices and 80 faces (once-subdivided icosahedron).

    Built once per process; every call returns the same read-only mesh.
    """
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


def mean_value_coordinates(p, cage_mesh: TriMesh) -> np.ndarray:
    """Weights w with sum(w)=1 and sum(w_j v_j)=p for p inside cage_mesh.

    Coincidence with a cage vertex yields the indicator vector; a point on a
    face falls back to the 2D barycentric weights of that face.
    """
    return weight_matrix(p, cage_mesh)[0]


def weight_matrix(points: np.ndarray, cage_mesh: TriMesh) -> np.ndarray:
    """Mean value coordinate rows (n, N_t) for an (n,3) point array.

    A row is the indicator of the first cage vertex within ``_TOL`` of the
    point, else the barycentric weights of the first face the point lies
    on, else the normalized per-face sums; a point whose sum is below
    ``_TOL`` raises ``ValueError``. Rows are computed in blocks whose
    temporaries fit ``_MVC_BYTES``.
    """
    points = np.asarray(points, dtype=np.float64).reshape(-1, 3)
    out = np.empty((len(points), cage_mesh.n_vertices))
    step = max(1, _MVC_BYTES // (_MVC_FACE_BYTES * max(cage_mesh.n_faces, 1)))
    for a in range(0, len(points), step):
        out[a:a + step] = _mvc_rows(points[a:a + step], cage_mesh)
    return out


def _mvc_rows(points: np.ndarray, cage_mesh: TriMesh) -> np.ndarray:
    """One block of ``weight_matrix``.

    A row goes through the same elementwise operations and per-row
    reductions as a one-point computation would, so its bits do not depend
    on the block it is in.
    """
    V = cage_mesh.vertices
    F = cage_mesh.faces
    w = np.zeros((len(points), len(V)))
    diff = V - points[:, None]
    d = np.linalg.norm(diff, axis=2)
    hit = d < _TOL
    has_hit = hit.any(axis=1)
    w[has_hit, hit[has_hit].argmax(axis=1)] = 1.0
    rows = np.nonzero(~has_hit)[0]
    if rows.size == 0:
        return w
    u = diff[rows] / d[rows, :, None]

    nxt, prv = [1, 2, 0], [2, 0, 1]
    # orientation of the unit directions to each face's corners, (n, m)
    sign = np.sign(np.linalg.det(np.take(u, F, axis=1)))
    td = np.take(d[rows], F, axis=1)
    # edge lengths on the unit sphere, opposite corner i
    l = np.linalg.norm(np.take(u, F[:, nxt], axis=1) - np.take(u, F[:, prv], axis=1),
                       axis=3)
    theta = 2.0 * np.arcsin(np.clip(l / 2.0, 0.0, 1.0))
    h = theta.sum(axis=2) / 2.0

    onface = np.pi - h < 1e-8
    on = onface.any(axis=1)
    if on.any():
        fi = onface[on].argmax(axis=1)
        tf, df = theta[on, fi], td[on, fi]
        wf = np.sin(tf) * df[:, prv] * df[:, nxt]
        w[rows[on][:, None], F[fi]] = wf / wf.sum(axis=1, keepdims=True)
        rows, sign, td, theta, h = (x[~on] for x in (rows, sign, td, theta, h))
        if rows.size == 0:
            return w

    sin_t = np.sin(theta)
    sin_n = np.take(sin_t, nxt, axis=2)
    with np.errstate(divide="ignore", invalid="ignore"):
        c = (2.0 * np.sin(h)[:, :, None] * np.sin(h[:, :, None] - theta)) / (
            sin_n * np.take(sin_t, prv, axis=2)
        ) - 1.0
        s = sign[:, :, None] * np.sqrt(np.clip(1.0 - c * c, 0.0, None))
        # faces whose plane contains p but p projects outside them contribute 0
        valid = (np.abs(s) > _TOL).all(axis=2)
        wf = (theta - np.take(c, nxt, axis=2) * np.take(theta, prv, axis=2)
              - np.take(c, prv, axis=2) * np.take(theta, nxt, axis=2)) / (
            td * sin_n * np.take(s, prv, axis=2)
        )
    wf[~valid] = 0.0

    # per row, the corner weights accumulate onto the cage vertices in face
    # order, as ``np.add.at`` would for one point
    nr, nt = len(rows), len(V)
    at = (np.arange(nr)[:, None] * nt + F.ravel()).ravel()
    acc = np.bincount(at, wf.ravel(), nr * nt).reshape(nr, nt)
    total = acc.sum(axis=1)
    if (np.abs(total) < _TOL).any():
        raise ValueError("mean value coordinates degenerate at this point")
    w[rows] = acc / total[:, None]
    return w


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

