"""Cage construction, mean value coordinates and cage-driven deformation."""

from __future__ import annotations

import functools
import warnings
from dataclasses import dataclass

import numpy as np

from .mesh import TriMesh

_TOL = 1e-12
# |triple product| above which its sign is that of the LU determinant
_DET_TOL = 1e-12
# bytes of mean value coordinate temporaries one block of points may hold
_MVC_BYTES = 2 << 20
# those temporaries per point and cage face at their peak: 33 float64 (21 KiB
# per point on the 80-face template; tracemalloc of a 1,000-point block)
_MVC_FACE_BYTES = 33 * 8
CAGE_EPSILON = 0.05


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
    edges = _corner_edges(cage_mesh.faces)
    for a in range(0, len(points), step):
        out[a:a + step] = _mvc_rows(points[a:a + step], cage_mesh, edges)
    return out


def _corner_edges(F: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The undirected edges of faces F as two end arrays (e,), and for each
    corner of each face the edge opposite it, (3, m)."""
    n = int(F.max(initial=-1)) + 1
    a, b = F[:, [1, 2, 0]], F[:, [2, 0, 1]]
    key = np.minimum(a, b) * n + np.maximum(a, b)
    uniq, opposite = np.unique(key, return_inverse=True)
    ea, eb = np.divmod(uniq, n)
    return ea, eb, opposite.reshape(F.shape).T


def _norm3(x, y, z):
    """Euclidean norm of the vectors (x, y, z), summed in the order
    ``np.linalg.norm`` sums a row of three."""
    return np.sqrt(x * x + y * y + z * z)


def _face_signs(x, y, z, F: np.ndarray) -> np.ndarray:
    """Sign of det [u0; u1; u2] for the unit directions (x, y, z) of shape
    (vertex, point) to the corners of each face, (m, n).

    It is the sign of the triple product t where |t| exceeds ``_DET_TOL``,
    and of LAPACK's LU determinant, as ``np.linalg.det`` takes it, nearer 0.
    Where |t| exceeds it, both have the sign of the exact determinant of the
    rounded directions: t is within about 2e-15 of it, and for unit rows the
    LU determinant within about 4e-14 (growth factor at most 4 under partial
    pivoting).
    """
    (x0, x1, x2), (y0, y1, y2), (z0, z1, z2) = ([c[f] for f in F.T] for c in (x, y, z))
    t = x0 * (y1 * z2 - z1 * y2) + y0 * (z1 * x2 - x1 * z2) + z0 * (x1 * y2 - y1 * x2)
    sign = np.sign(t)
    near = np.abs(t) <= _DET_TOL
    if near.any():
        fi, pi = np.nonzero(near)
        u = np.stack([c[F[fi], pi[:, None]] for c in (x, y, z)], axis=2)
        sign[near] = np.sign(np.linalg.det(u))
    return sign


def _mvc_rows(points: np.ndarray, cage_mesh: TriMesh,
              edges: tuple[np.ndarray, np.ndarray, np.ndarray]) -> np.ndarray:
    """One block of ``weight_matrix``; ``edges`` is ``_corner_edges`` of the
    cage faces.

    A row goes through the same elementwise operations and per-row
    reductions as a one-point computation would, so its bits do not depend
    on the block it is in. Per-vertex, per-edge and per-face arrays keep the
    point last, and per-corner ones are lists of three (face, point) planes,
    so the next and previous corner of corner i are planes i - 2 and i - 1.
    """
    V = cage_mesh.vertices
    F = cage_mesh.faces
    w = np.zeros((len(points), len(V)))
    diff = V.T[:, :, None] - points.T[:, None]
    d = _norm3(*diff)
    hit = d < _TOL
    has_hit = hit.any(axis=0)
    rows = np.arange(len(points))
    if has_hit.any():
        w[has_hit, hit[:, has_hit].argmax(axis=0)] = 1.0
        rows = rows[~has_hit]
        if rows.size == 0:
            return w
        diff, d = diff[:, :, rows], d[:, rows]
    x, y, z = diff / d

    sign = _face_signs(x, y, z, F)

    # spherical edge length, angle and sine once per cage edge: the two
    # faces of an edge see exactly negated differences
    ea, eb, opposite = edges
    theta_e = 2.0 * np.arcsin(np.clip(
        _norm3(x[ea] - x[eb], y[ea] - y[eb], z[ea] - z[eb]) / 2.0, 0.0, 1.0))
    sin_e = np.sin(theta_e)
    theta = [theta_e[o] for o in opposite]
    sin_t = [sin_e[o] for o in opposite]
    td = [d[f] for f in F.T]
    h = (theta[0] + theta[1] + theta[2]) / 2.0

    onface = np.pi - h < 1e-8
    on = onface.any(axis=0)
    if on.any():
        fi = onface[:, on].argmax(axis=0)
        sf, df = (np.stack([p[fi, on] for p in q], axis=1) for q in (sin_t, td))
        wf = sf * df[:, [2, 0, 1]] * df[:, [1, 2, 0]]
        w[rows[on][:, None], F[fi]] = wf / wf.sum(axis=1, keepdims=True)
        keep = ~on
        rows, sign, h = rows[keep], sign[:, keep], h[:, keep]
        theta, sin_t, td = ([p[:, keep] for p in q] for q in (theta, sin_t, td))
        if rows.size == 0:
            return w

    with np.errstate(divide="ignore", invalid="ignore"):
        sin_h2 = 2.0 * np.sin(h)
        c = [sin_h2 * np.sin(h - theta[i]) / (sin_t[i - 2] * sin_t[i - 1]) - 1.0
             for i in range(3)]
        s = [sign * np.sqrt(np.clip(1.0 - ci * ci, 0.0, None)) for ci in c]
        # faces whose plane contains p but p projects outside them contribute 0
        valid = (np.abs(s[0]) > _TOL) & (np.abs(s[1]) > _TOL) & (np.abs(s[2]) > _TOL)
        # (face, corner, point)
        wf = np.empty((len(F), 3, len(rows)))
        for i in range(3):
            np.divide(theta[i] - c[i - 2] * theta[i - 1] - c[i - 1] * theta[i - 2],
                      td[i] * sin_t[i - 2] * s[i - 1], out=wf[:, i])
    wf.transpose(0, 2, 1)[~valid] = 0.0

    # the corner weights accumulate onto the cage vertices in face order, as
    # ``np.add.at`` would for one point
    nr, nt = len(rows), len(V)
    at = (F[:, :, None] + np.arange(nr) * nt).ravel()
    acc = np.bincount(at, wf.ravel(), nr * nt).reshape(nr, nt)
    total = acc.sum(axis=1)
    if (np.abs(total) < _TOL).any():
        raise ValueError("mean value coordinates degenerate at this point")
    w[rows] = acc / total[:, None]
    return w


# ---------------------------------------------------------------------------
# Cage construction


def build_cage(convex: TriMesh) -> Cage:
    """Fit the template sphere around a convex and compute its weight matrix.

    The template is scaled to 1.05x the convex bounding-sphere radius and
    centered on the convex centroid; each template vertex is then matched to a
    distinct convex vertex by minimum-cost assignment and retracted towards it
    by a factor (1 - CAGE_EPSILON).
    """
    # imported here: scipy.optimize costs about 11 MiB, and only the stages
    # that build cages need it
    from scipy.optimize import linear_sum_assignment

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
    cverts = tverts + (1.0 - CAGE_EPSILON) * (matched - tverts)
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

