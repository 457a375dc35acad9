"""Articulation-range simulation, penetration losses and collision correction."""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from .mesh import (
    PRISMATIC,
    ArticulatedObject,
    Joint,
    TriMesh,
    articulate,
    merge_meshes,
)

_BARY_TOL = 1e-9
# bytes the collision sweep's blocks of steps x vertex-face pairs hold at once
_SWEEP_BYTES = 2 << 20
# relative rounding slack of the sweep's broadphase (see ``_sweep_crossings``)
_ROUND_SLACK = 2.0 ** -40


@dataclass
class SimConfig:
    n_steps: int = 100
    n_det: int = 100
    seed: int = 0

    def __post_init__(self):
        if self.n_steps < 1 or self.n_det < 1:
            raise ValueError("n_steps and n_det must be >= 1")


@dataclass
class ProjConfig:
    iters: int = 10
    eps_proj: float = 1e-5

    def __post_init__(self):
        if self.iters < 0 or self.eps_proj <= 0:
            raise ValueError("iters must be >= 0 and eps_proj > 0")


TRAIN_PROJ = ProjConfig(iters=5, eps_proj=1e-4)
TEST_PROJ = ProjConfig(iters=10, eps_proj=1e-5)


@dataclass
class CollisionReport:
    l_phy: float
    l_proj: float
    breakdown: list[tuple[str, int, float, float]] = field(default_factory=list)

    def to_dict(self) -> dict:
        return {
            "l_phy": self.l_phy,
            "l_proj": self.l_proj,
            "breakdown": [
                {"part": p, "state_index": i, "pene_d": pd, "proj_d": pj}
                for p, i, pd, pj in self.breakdown
            ],
        }


def face_normals(mesh: TriMesh, names: np.ndarray | None = None) -> np.ndarray:
    """Unit face normals; a zero-area face raises, named by its row or ``names[row]``."""
    tri = mesh.vertices[mesh.faces]
    cross = np.cross(tri[:, 1] - tri[:, 0], tri[:, 2] - tri[:, 0])
    norms = np.linalg.norm(cross, axis=1)
    bad = np.nonzero(norms < 1e-15)[0]
    if bad.size:
        name = bad[0] if names is None else names[bad[0]]
        raise ValueError(f"degenerate face {int(name)}: zero area")
    return cross / norms[:, None]


def _face_frames(ref: TriMesh):
    tri = ref.vertices[ref.faces]
    a = tri[:, 0]
    e1 = tri[:, 1] - a
    e2 = tri[:, 2] - a
    d11 = np.einsum("fa,fa->f", e1, e1)
    d12 = np.einsum("fa,fa->f", e1, e2)
    d22 = np.einsum("fa,fa->f", e2, e2)
    den = d11 * d22 - d12 * d12
    den = np.where(np.abs(den) < 1e-300, 1.0, den)
    return a, e1, e2, d11, d12, d22, den


def _in_faces_sparse(pts: np.ndarray, frames, fidx: np.ndarray) -> np.ndarray:
    """In-face test for paired (point, face index) rows, given ``_face_frames``."""
    a, e1, e2, d11, d12, d22, den = frames
    w = pts - a[fidx]
    w1 = np.einsum("na,na->n", w, e1[fidx])
    w2 = np.einsum("na,na->n", w, e2[fidx])
    u = (d22[fidx] * w1 - d12[fidx] * w2) / den[fidx]
    v = (d11[fidx] * w2 - d12[fidx] * w1) / den[fidx]
    return (u >= -_BARY_TOL) & (v >= -_BARY_TOL) & (u + v <= 1.0 + _BARY_TOL)


def _step_transforms(joint: Joint, n_steps: int):
    """Rotations and translations for states s_t = l + (u-l) t/N_s, t=0..N_s."""
    lo, hi = joint.range
    states = lo + (hi - lo) * np.arange(n_steps + 1) / n_steps
    if joint.kind == PRISMATIC:
        rots = np.broadcast_to(np.eye(3), (n_steps + 1, 3, 3)).copy()
        trans = states[:, None] * joint.axis
    else:
        k = joint.axis / np.linalg.norm(joint.axis)
        kx = np.array([[0, -k[2], k[1]], [k[2], 0, -k[0]], [-k[1], k[0], 0]])
        c, s = np.cos(states), np.sin(states)
        rots = (c[:, None, None] * np.eye(3) + s[:, None, None] * kx
                + (1 - c)[:, None, None] * np.outer(k, k))
        trans = joint.pivot - np.einsum("tab,b->ta", rots, joint.pivot)
    return rots, trans


def _swept_vertices(vertices: np.ndarray, joint: Joint, n_steps: int):
    """Step rotations and the (N_s+1, nv, 3) positions: rest pose, steps 1..N_s."""
    rots, trans = _step_transforms(joint, n_steps)
    # v^0 is the rest pose, not the lower-range pose
    v_all = vertices @ rots[1:].transpose(0, 2, 1) + trans[1:, None, :]
    return rots, np.concatenate([vertices[None], v_all], axis=0)


def _face_boxes(ref: TriMesh, frames, scale: float):
    """Per-face AABB corners grown by the in-face tolerance and rounding.

    ``scale`` bounds every coordinate of the sweep. See ``_sweep_crossings``.
    """
    _, _, _, d11, d12, d22, _ = frames
    a, b, c = (ref.vertices[ref.faces[:, i]] for i in range(3))
    # conditioning of the barycentric solve; degenerate faces are never culled
    gram = d11 * d22
    det = gram - d12 * d12
    kappa = np.divide(gram, det, out=np.full(len(det), np.inf), where=det > 0)
    grow = (4 * _BARY_TOL * (np.sqrt(d11) + np.sqrt(d22))
            + _ROUND_SLACK * kappa * scale)[:, None]
    return (np.minimum(np.minimum(a, b), c) - grow,
            np.maximum(np.maximum(a, b), c) + grow)


def _candidate_pairs(vlo, vhi, flo, fhi, cap: int):
    """``(v, f)`` index arrays of the vertex and face boxes that meet.

    Faces that miss the box around every vertex box are dropped first. The
    pair test runs on blocks of vertex rows of about ``cap`` cells, and the
    pairs come out in (v, f) order, in batches of ``cap`` to ``2 * cap``
    pairs (fewer in the last, more where one vertex has more candidates).
    """
    keep = np.flatnonzero((flo <= vhi.max(axis=0)).all(axis=1)
                          & (fhi >= vlo.min(axis=0)).all(axis=1))
    if keep.size == 0:
        return
    flo, fhi = flo[keep].T.copy(), fhi[keep].T.copy()       # (3, faces kept)
    rows = max(1, cap // keep.size)
    hit = np.empty((rows, keep.size), dtype=bool)
    cmp = np.empty_like(hit)
    pend, n = [], 0
    for r0 in range(0, len(vlo), rows):
        r1 = min(r0 + rows, len(vlo))
        h, c = hit[:r1 - r0], cmp[:r1 - r0]
        np.less_equal(vlo[r0:r1, 0, None], fhi[0], out=h)
        h &= np.greater_equal(vhi[r0:r1, 0, None], flo[0], out=c)
        for a in (1, 2):
            h &= np.less_equal(vlo[r0:r1, a, None], fhi[a], out=c)
            h &= np.greater_equal(vhi[r0:r1, a, None], flo[a], out=c)
        vi, fj = np.nonzero(h)
        pend.append((vi + r0, keep[fj]))
        n += vi.size
        if n >= cap or (n and r1 == len(vlo)):
            # rebinding drops this block's own index arrays while the batch
            # is swept
            vi, fj = (np.concatenate(col) for col in zip(*pend))
            pend, n = [], 0
            yield vi, fj


def _sweep_crossings(v_all: np.ndarray, ref: TriMesh, normals: np.ndarray):
    """Counted crossings ``(t, v, f)`` of a stepped sweep and their depths.

    A vertex crosses a face between steps ``t`` and ``t + 1`` when its signed
    plane depth ``x*nx + y*ny + z*nz - plane_d`` changes sign and its
    step-``t + 1`` position projects inside the face; the depth returned is
    the one at step ``t + 1``. The triples come out in (t, v, f) order.

    Only vertex-face pairs whose boxes meet are swept (a broadphase, after
    Ericson, *Real-Time Collision Detection*, ch. 4 and 6), and the cull
    drops no crossing. Where the sign flips, ``|d_{t+1}| <= |d_{t+1} - d_t|
    <= |p_{t+1} - p_t|`` for a unit normal, and the in-face test accepts
    barycentric coordinates down to ``-_BARY_TOL``, which keeps the
    projection within ``2 * _BARY_TOL * (|e1| + |e2|)`` of the triangle. So
    ``p_{t+1}`` lies in the face's AABB grown by the step length plus that
    tolerance; the faces are grown by twice the tolerance. Rounding in the
    depths and in the barycentric solve moves a position by less than a
    hundred ulps of ``kappa * scale``, where ``kappa = |e1|^2 |e2|^2 /
    |e1 x e2|^2`` is the face's conditioning and ``scale`` bounds every
    coordinate; ``_ROUND_SLACK`` adds 4096 ulps of it, and a face whose
    solve is singular is never culled.

    Transition 0 jumps from the rest pose to the first state of the range,
    often far longer than the later steps, so it has its own candidates:
    the step-1 position grown by that jump. Transitions 1..N_s-1 use the box
    around steps 2..N_s grown by the vertex's longest later step.

    Memory is bounded by ``_SWEEP_BYTES``: the pair test runs on blocks of
    vertex rows, pairs are swept in batches of at most ``_SWEEP_BYTES / 64``
    pairs (or one vertex's pairs), and each batch sweeps blocks of
    consecutive steps whose float64 depths and gather scratch together fit
    half the budget, carrying the sign row from block to block. The in-face
    test runs on slices of a block's sign flips that fit a quarter of the
    budget.
    """
    n_steps = len(v_all) - 1
    plane_d = np.einsum("fa,fa->f", ref.vertices[ref.faces[:, 0]], normals)
    frames = _face_frames(ref)
    scale = max(np.abs(v_all).max(), np.abs(ref.vertices).max())
    flo, fhi = _face_boxes(ref, frames, scale)
    step = np.linalg.norm(np.diff(v_all, axis=0), axis=2)          # (N_s, nv)
    # (first transition, end, vertex box corners) of each candidate set
    reach0 = step[0][:, None]
    sets = [(0, 1, v_all[1] - reach0, v_all[1] + reach0)]
    if n_steps > 1:
        reach = step[1:].max(axis=0)[:, None]
        sets.append((1, n_steps, v_all[2:].min(axis=0) - reach,
                     v_all[2:].max(axis=0) + reach))

    # float64 depths plus gather scratch fill half the budget
    cells = max(1, _SWEEP_BYTES // 32)
    # a batch keeps 48 bytes per pair (indices, normal and plane offset) and
    # holds up to 2 * cap pairs
    cap = max(1, _SWEEP_BYTES // 128)
    # the in-face test keeps about 128 bytes alive per flip it tests
    n_slice = max(1, _SWEEP_BYTES // (4 * 128))
    coords = np.ascontiguousarray(v_all.transpose(2, 0, 1))   # (3, N_s+1, nv)
    no_idx = np.zeros(0, dtype=np.intp)
    found = [(no_idx, no_idx, no_idx, np.zeros(0))]
    for first, end, vlo, vhi in sets:
        for vi, fi in _candidate_pairs(vlo, vhi, flo, fhi, cap):
            found += _sweep_pairs(coords, v_all, first, end, vi, fi, normals[fi],
                                  plane_d[fi], frames, cells, n_slice)
    ti, vi, fi, d = (np.concatenate(col) for col in zip(*found))
    # batches are in (v, f) order, each in (t, v, f) order within itself
    order = np.argsort(ti, kind="stable")
    return ti[order], vi[order], fi[order], d[order]


def _sweep_pairs(coords, v_all, first, end, vi, fi, nrm, pd, frames, cells,
                 n_slice):
    """Crossings of the pairs ``(vi, fi)`` at transitions ``first..end-1``.

    ``nrm`` and ``pd`` are the pairs' face normals and plane offsets; the
    other arguments are as in ``_sweep_crossings``.
    """
    n_pairs = len(vi)
    n_block = min(max(1, cells // n_pairs), end - first)
    d_buf = np.empty((n_block, n_pairs))
    g_buf = np.empty_like(d_buf)
    pos = np.empty(d_buf.shape, dtype=bool)
    neg = np.empty(d_buf.shape, dtype=bool)
    # row 0 carries the signs of the step before the block
    s8 = np.empty((n_block + 1, n_pairs), dtype=np.int8)

    def signs(lo, hi, row):
        k = hi - lo
        d, g = d_buf[:k], g_buf[:k]
        np.take(coords[0, lo:hi], vi, axis=1, out=d, mode="clip")
        d *= nrm[:, 0]
        for a in (1, 2):
            np.take(coords[a, lo:hi], vi, axis=1, out=g, mode="clip")
            g *= nrm[:, a]
            d += g
        d -= pd
        np.greater(d, 0, out=pos[:k])
        np.less(d, 0, out=neg[:k])
        np.subtract(pos[:k].view(np.int8), neg[:k].view(np.int8),
                    out=s8[row:row + k])
        return d

    signs(first, first + 1, 0)
    found = []
    for lo in range(first + 1, end + 1, n_block):
        hi = min(lo + n_block, end + 1)
        k = hi - lo
        d = signs(lo, hi, 1)
        flips = np.not_equal(s8[1:k + 1], s8[:k], out=pos[:k])
        s8[0] = s8[k]
        flat = np.flatnonzero(flips)
        for at in range(0, flat.size, n_slice):
            j, p = np.divmod(flat[at:at + n_slice], n_pairs)
            inside = _in_faces_sparse(v_all[lo + j, vi[p]], frames, fi[p])
            j, p = j[inside], p[inside]
            found.append((j + (lo - 1), vi[p], fi[p], d[j, p]))
    return found


def _face_copies(ref: TriMesh, n_groups: int) -> np.ndarray:
    """``(n_groups, faces per group)`` mask of the faces that repeat group 0.

    A face is a copy when its three corners equal those of the same face of
    group 0 bit for bit; group 0's own row is all False. Bits, not float
    equality, so a corner at -0.0 does not copy one at 0.0.
    """
    corners = ref.vertices[ref.faces].view(np.uint64).reshape(n_groups, -1, 9)
    copies = np.zeros(corners.shape[:2], dtype=bool)
    copies[1:] = (corners[1:] == corners[0]).all(axis=2)
    return copies


def _sweep_shared(v_all: np.ndarray, ref: TriMesh, copies: np.ndarray):
    """``_sweep_crossings`` and the face normals, sweeping no copy twice.

    ``copies`` is ``_face_copies(ref, n_groups)``. Only group 0 and the
    faces that differ from it are swept. A copy has its group-0 face's
    normal, plane offset, frame and depths, so each crossing of a group-0
    face is given to every copy of it, and one sort restores the (t, v, f)
    order: the triples, depths and normals are bitwise the full sweep's.
    With no copy (one group, say) every face is swept and the sort keeps the
    order as it is.
    """
    gsize = copies.shape[1]
    kept = np.flatnonzero(~copies)
    sub = TriMesh(ref.vertices, ref.faces[kept])
    normals = face_normals(sub, kept)
    ti, vi, fi, d = _sweep_crossings(v_all, sub, normals)
    fi = kept[fi]
    on0 = np.flatnonzero(fi < gsize)
    g, c = np.nonzero(copies[:, fi[on0]])
    src = np.concatenate([np.arange(ti.size), on0[c]])
    fi = np.concatenate([fi, fi[on0[c]] + g * gsize])
    order = np.lexsort((fi, vi[src], ti[src]))
    src = src[order]
    # group 0 leads the kept faces, so a copy of face l reads row l
    row = np.tile(np.arange(gsize), len(copies))
    row[kept] = np.arange(kept.size)
    return ti[src], vi[src], fi[order], d[src], normals[row]


@dataclass
class SimResult:
    pene: float
    proj: float
    # rest-frame per-vertex gradients computed with the crossings frozen
    proj_grad_v: np.ndarray | None = None
    phy_grad_v: np.ndarray | None = None
    # (t, v, f) index arrays of the counted crossings; step t runs 0..N_s-1
    crossings: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None
    # per-face-group losses, each as if its group were simulated alone
    group_pene: np.ndarray | None = None
    group_proj: np.ndarray | None = None


def single_simulation(mov: TriMesh, ref: TriMesh, joint: Joint, n_steps: int,
                      want_grad: bool = False,
                      group_counts: np.ndarray | None = None) -> SimResult:
    """Sweep the moving part over its joint range against a static reference.

    Implements the stepped signed-depth accumulation: a vertex-face pair
    contributes at the step where the vertex crosses the face plane while
    projecting inside the face. Fixed joints contribute (0, 0). Depth terms
    are clamped at 0 from below so exits never contribute negative depth.

    ``group_counts`` splits the reference faces into ``len(group_counts)``
    equal contiguous groups and reports each group's own loss (as if
    simulated alone), which lets one call stand in for several
    equal-topology references. Group ``g`` stands for ``group_counts[g]``
    identical references: the totals and gradients weight its crossings by
    that count, as if the reference held every copy. Without it the whole
    reference is one group of count 1. A face whose corners repeat those of
    the same face of group 0 bit for bit (a fixed part posed alike in every
    group) is swept once: group 0's crossings are given to each copy, so the
    result is bitwise that of sweeping every face.

    Only vertex-face pairs that can cross are swept. A pair is kept when
    the box around the vertex's swept positions, grown by its step length,
    meets the face's bounding box, grown by the in-face tolerance and a
    rounding margin. A vertex whose sign flips is at most one step from the
    face's plane, so the cull drops no crossing (``_sweep_crossings`` gives
    the bound). The jump from the rest pose to the first state has its own
    candidate pairs, grown by that jump alone.

    Memory is bounded by ``_SWEEP_BYTES``, not by N_s * nv * nf: the pair
    test runs on blocks of vertex rows, the kept pairs are swept in
    batches, and each batch sweeps blocks of steps whose float64 depths and
    gather scratch fit half the budget. A batch holds at least one vertex's
    pairs, so only a vertex with more candidate faces than the budget holds
    sets a larger peak.
    """
    counts = (np.ones(1, dtype=np.intp) if group_counts is None
              else np.asarray(group_counts))
    n_groups = len(counts)
    no_idx = np.zeros(0, dtype=np.intp)
    zeros = np.zeros((mov.n_vertices, 3)) if want_grad else None
    zero = SimResult(0.0, 0.0, proj_grad_v=zeros, phy_grad_v=zeros,
                     crossings=(no_idx, no_idx, no_idx),
                     group_pene=np.zeros(n_groups), group_proj=np.zeros(n_groups))
    if joint.is_fixed:
        return zero
    if ref.n_faces == 0 or ref.n_vertices == 0:
        warnings.warn("empty reference mesh: penetration losses are 0")
        return zero
    if ref.n_faces % n_groups:
        raise ValueError("reference faces do not split into equal groups")
    # the int8 signs below read NaN as 0, so non-finite input must not reach them
    if not (np.isfinite(mov.vertices).all() and np.isfinite(ref.vertices).all()):
        raise ValueError("non-finite mover or reference vertices")

    rots, v_all = _swept_vertices(mov.vertices, joint, n_steps)
    nv, nf = mov.n_vertices, ref.n_faces
    gsize = nf // n_groups
    n_total = int(counts.sum())
    # the loss is normalized by the face count of the reference with every copy
    scale = 1.0 / (n_steps * nv * (gsize * n_total))

    ti, vi, fi, d, normals = _sweep_shared(v_all, ref, _face_copies(ref, n_groups))
    if ti.size == 0:
        return zero

    s = np.sign(d)
    gi = fi // gsize
    w = counts[gi].astype(np.float64)
    pene_terms = np.clip(d * s, 0.0, None)
    pene = float((pene_terms * w).sum() * scale)
    dv = v_all[ti + 1, vi] - v_all[ti, vi]          # step displacement per triple
    n_rows = normals[fi]
    dv_n = np.einsum("na,na->n", dv, n_rows)
    proj_terms = dv_n * d
    proj = float((proj_terms * w).sum() * scale)

    gscale = scale * n_total     # per-group loss uses its own face count
    group_pene = np.bincount(gi, pene_terms, n_groups) * gscale
    group_proj = np.bincount(gi, proj_terms, n_groups) * gscale

    proj_grad_v = phy_grad_v = None
    if want_grad:
        wscale = (scale * w)[:, None]
        proj_grad_v = np.zeros((nv, 3))
        phy_grad_v = np.zeros((nv, 3))
        # displacement term: d dV_t / d V_rest = R_t - R_{t-1}
        d_rot = rots[1:] - rots[:-1]
        term1 = np.einsum("nab,na->nb", d_rot[ti], d[:, None] * n_rows)
        # depth term: d d_t / d V_rest = R_t^T N
        term2 = np.einsum("nab,na->nb", rots[ti + 1], dv_n[:, None] * n_rows)
        np.add.at(proj_grad_v, vi, wscale * (term1 + term2))
        live = (d * s) > 0
        phy_rows = np.einsum("nab,na->nb", rots[ti + 1],
                             (live * s)[:, None] * n_rows)
        np.add.at(phy_grad_v, vi, wscale * phy_rows)
    return SimResult(pene, proj, proj_grad_v=proj_grad_v, phy_grad_v=phy_grad_v,
                     crossings=(ti, vi, fi), group_pene=group_pene,
                     group_proj=group_proj)


# ---------------------------------------------------------------------------
# Deformable objects: vertices affine in the global coefficient


@dataclass
class DeformablePart:
    """One part whose merged vertices are v(z) = v0 + J z."""

    name: str
    v0: np.ndarray                 # (nv, 3)
    jac: np.ndarray                # (nv, 3, K)
    faces: np.ndarray
    joint: Joint
    ref_states: tuple[float, ...] = ()
    convex_slices: list[tuple[int, int]] = field(default_factory=list)

    def mesh_at(self, z: np.ndarray) -> TriMesh:
        return TriMesh(self.v0 + self.jac @ np.asarray(z, dtype=np.float64),
                       self.faces)


@dataclass
class DeformableObject:
    parts: list[DeformablePart]
    k: int


# ---------------------------------------------------------------------------
# Alg. 4 driver


def _sample_ref_states(parts, mover_idx: int, rng) -> dict[int, float]:
    states = {}
    for j, part in enumerate(parts):
        if j == mover_idx:
            continue
        if part.joint.is_fixed:
            states[j] = 0.0
            continue
        if part.ref_states:
            states[j] = float(rng.choice(np.asarray(part.ref_states)))
        else:
            lo, hi = part.joint.range
            states[j] = float(rng.uniform(lo, hi))
    return states


def _articulated_ref_mesh(parts_meshes, parts, mover_idx, states) -> TriMesh:
    pieces = []
    for j, (mesh, part) in enumerate(zip(parts_meshes, parts)):
        if j == mover_idx:
            continue
        pieces.append(articulate(mesh, part.joint, states[j]))
    return merge_meshes(pieces)


def _run_losses(parts, part_meshes, cfg: SimConfig, want_grad: bool = False):
    """Shared Alg. 4 loop over (part, detection process) pairs.

    Returns the report and, with ``want_grad``, the per-part rest-frame
    vertex gradients of the projection and penetration losses.
    """
    n = len(parts) * cfg.n_det
    breakdown, penes, projs = [], [], []
    proj_grads, phy_grads = [], []
    for i, (part, mesh) in enumerate(zip(parts, part_meshes)):
        if len(parts) == 1 or part.joint.is_fixed:
            # nothing to hit, or a mover that does not move: zero by definition
            det_pene = det_proj = np.zeros(cfg.n_det)
            g_proj = g_phy = np.zeros((mesh.n_vertices, 3))
        else:
            # every detection process shares the mover trajectory and has an
            # equal-topology reference, so one stacked simulation covers all;
            # detections that draw the same states share one reference, kept
            # in first-draw order and weighted by how many detections drew it,
            # and faces posed alike in every reference (a fixed root) are
            # swept once
            refs, first, inverse = [], {}, []
            for det in range(cfg.n_det):
                rng = np.random.default_rng([cfg.seed, i, det])
                states = _sample_ref_states(parts, i, rng)
                key = tuple(states.values())
                if key not in first:
                    first[key] = len(refs)
                    refs.append(_articulated_ref_mesh(part_meshes, parts, i, states))
                inverse.append(first[key])
            res = single_simulation(mesh, merge_meshes(refs), part.joint,
                                    cfg.n_steps, want_grad=want_grad,
                                    group_counts=np.bincount(inverse))
            det_pene, det_proj = res.group_pene[inverse], res.group_proj[inverse]
            g_proj, g_phy = res.proj_grad_v, res.phy_grad_v
        penes.extend(det_pene)
        projs.extend(det_proj)
        for det in range(cfg.n_det):
            breakdown.append((part.name, det, float(det_pene[det]),
                              float(det_proj[det])))
        if want_grad:
            # the stacked gradient already averages over detections
            proj_grads.append(g_proj * cfg.n_det / n)
            phy_grads.append(g_phy * cfg.n_det / n)
    report = CollisionReport(float(np.mean(penes)), float(np.mean(projs)), breakdown)
    return report, proj_grads, phy_grads


def physics_losses(obj: ArticulatedObject, cfg: SimConfig) -> CollisionReport:
    """Average penetration and projection losses over all single simulations."""
    part_meshes = [p.merged() for p in obj.parts]
    report, _, _ = _run_losses(obj.parts, part_meshes, cfg)
    return report


def grad_proj_wrt_z(dobj: DeformableObject, z: np.ndarray,
                    cfg: SimConfig) -> tuple[CollisionReport, np.ndarray]:
    """Losses at z and the projection loss's gradient with crossings frozen.

    The gradient flows through the per-step displacement and depth of the
    moving part, both affine in z.
    """
    part_meshes = [p.mesh_at(z) for p in dobj.parts]
    report, proj_grads, _ = _run_losses(dobj.parts, part_meshes, cfg,
                                        want_grad=True)
    grad = np.zeros(dobj.k)
    for part, g in zip(dobj.parts, proj_grads):
        grad += np.einsum("va,vak->k", g, part.jac)
    return report, grad


def grad_phy_wrt_vertices(dobj: DeformableObject, z: np.ndarray,
                          cfg: SimConfig) -> tuple[float, list[np.ndarray]]:
    """Penetration loss and frozen-crossing rest-frame vertex gradients per part."""
    part_meshes = [p.mesh_at(z) for p in dobj.parts]
    report, _, phy_grads = _run_losses(dobj.parts, part_meshes, cfg,
                                       want_grad=True)
    return report.l_phy, phy_grads


def correct_shape(dobj: DeformableObject, z: np.ndarray, proj_cfg: ProjConfig,
                  sim_cfg: SimConfig):
    """Descend the projection loss in z; returns (z', report before, report after).

    The descent stops at a fixed point: once a step leaves z unchanged bit
    for bit, every later step would repeat the same computation, so the
    report just computed at z is the report after. Bytes are compared, so a
    step that only flips the sign of a zero still counts as a move.
    """
    z = np.array(z, dtype=np.float64)
    before = None
    for _ in range(proj_cfg.iters):
        report, grad = grad_proj_wrt_z(dobj, z, sim_cfg)
        if before is None:
            before = report          # the gradient pass already evaluates at z
        if not np.isfinite(grad).all():
            raise FloatingPointError("non-finite projection gradient")
        z_new = z - proj_cfg.eps_proj * grad
        if z_new.tobytes() == z.tobytes():
            return z, before, report
        z = z_new
    after, _, _ = _run_losses(dobj.parts, [p.mesh_at(z) for p in dobj.parts],
                              sim_cfg)
    return z, after if before is None else before, after
