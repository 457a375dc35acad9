"""Triangle meshes, articulated objects, OBJ/manifest I/O and kinematics."""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

REVOLUTE = "revolute"
PRISMATIC = "prismatic"
FIXED = "fixed"

_AXIS_TOL = 1e-9


class MeshError(ValueError):
    pass


class ManifestError(ValueError):
    pass


@dataclass(frozen=True)
class TriMesh:
    """Indexed triangle surface. Vertices (n,3) float64, faces (m,3) int."""

    vertices: np.ndarray
    faces: np.ndarray

    def __post_init__(self):
        v = np.ascontiguousarray(np.asarray(self.vertices, dtype=np.float64))
        f = np.ascontiguousarray(np.asarray(self.faces, dtype=np.int64))
        if v.ndim != 2 or v.shape[1] != 3:
            raise MeshError(f"vertices must be (n,3), got {v.shape}")
        if f.size == 0:
            f = f.reshape(0, 3)
        if f.ndim != 2 or f.shape[1] != 3:
            raise MeshError(f"faces must be (m,3), got {f.shape}")
        if not np.isfinite(v).all():
            raise MeshError("non-finite vertex coordinates")
        if f.size:
            if f.min() < 0 or f.max() >= len(v):
                raise MeshError("face index out of range")
            a, b, c = f[:, 0], f[:, 1], f[:, 2]
            if ((a == b) | (b == c) | (a == c)).any():
                bad = int(np.nonzero((a == b) | (b == c) | (a == c))[0][0])
                raise MeshError(f"degenerate face {bad}: {f[bad].tolist()}")
        v.setflags(write=False)
        f.setflags(write=False)
        object.__setattr__(self, "vertices", v)
        object.__setattr__(self, "faces", f)

    @property
    def n_vertices(self) -> int:
        return len(self.vertices)

    @property
    def n_faces(self) -> int:
        return len(self.faces)

    def with_vertices(self, vertices: np.ndarray) -> "TriMesh":
        return TriMesh(vertices, self.faces)

    def face_areas(self) -> np.ndarray:
        tri = self.vertices[self.faces]
        cross = np.cross(tri[:, 1] - tri[:, 0], tri[:, 2] - tri[:, 0])
        return 0.5 * np.linalg.norm(cross, axis=1)


def _finite_vector(val, n: int, what: str) -> np.ndarray:
    try:
        arr = np.asarray(val, dtype=np.float64).reshape(-1)
    except (TypeError, ValueError):
        arr = None
    if arr is None or arr.size != n or not np.isfinite(arr).all():
        raise ManifestError(f"joint {what} must be {n} finite numbers, got {val!r}")
    return arr


@dataclass(frozen=True)
class Joint:
    """Joint to the parent link. Range is radians (revolute) or model units."""

    kind: str
    axis: np.ndarray = field(default_factory=lambda: np.array([0.0, 0.0, 1.0]))
    pivot: np.ndarray = field(default_factory=lambda: np.zeros(3))
    range: tuple[float, float] = (0.0, 0.0)

    def __post_init__(self):
        if self.kind not in (REVOLUTE, PRISMATIC, FIXED):
            raise ManifestError(f"unknown joint kind {self.kind!r}")
        axis = _finite_vector(self.axis, 3, "axis")
        pivot = _finite_vector(self.pivot, 3, "pivot")
        if self.kind != FIXED:
            n = np.linalg.norm(axis)
            if abs(n - 1.0) > _AXIS_TOL:
                raise ManifestError(f"joint axis must be unit length, |axis|={n}")
        lo, hi = map(float, _finite_vector(self.range, 2, "range"))
        if self.kind != FIXED and lo > hi:
            raise ManifestError(f"joint range [{lo}, {hi}] has l > u")
        axis.setflags(write=False)
        pivot.setflags(write=False)
        object.__setattr__(self, "axis", axis)
        object.__setattr__(self, "pivot", pivot)
        object.__setattr__(self, "range", (lo, hi))

    @property
    def is_fixed(self) -> bool:
        return self.kind == FIXED


@dataclass(frozen=True)
class Part:
    """One link: a list of convex meshes plus the joint to its parent."""

    name: str
    convexes: tuple[TriMesh, ...]
    joint: Joint
    ref_states: tuple[float, ...] = ()

    def __post_init__(self):
        if not self.convexes:
            raise ManifestError(f"part {self.name!r} has no convexes")
        object.__setattr__(self, "convexes", tuple(self.convexes))
        object.__setattr__(self, "ref_states", tuple(float(s) for s in self.ref_states))
        lo, hi = self.joint.range
        for s in self.ref_states:
            if not self.joint.is_fixed and not (lo - 1e-12 <= s <= hi + 1e-12):
                raise ManifestError(f"ref state {s} outside range of part {self.name!r}")

    def merged(self) -> TriMesh:
        return merge_meshes(self.convexes)


@dataclass(frozen=True)
class ArticulatedObject:
    parts: tuple[Part, ...]

    def __post_init__(self):
        object.__setattr__(self, "parts", tuple(self.parts))
        n_fixed = sum(1 for p in self.parts if p.joint.is_fixed)
        if n_fixed > 1:
            raise ManifestError(f"{n_fixed} fixed parts; at most one fixed root allowed")
        names = {p.name for p in self.parts}
        if len(names) != len(self.parts):
            raise ManifestError("duplicate part names")


def merge_meshes(meshes) -> TriMesh:
    meshes = list(meshes)
    if not meshes:
        raise MeshError("cannot merge zero meshes")
    verts = []
    faces = []
    offset = 0
    for m in meshes:
        verts.append(m.vertices)
        faces.append(m.faces + offset)
        offset += m.n_vertices
    return TriMesh(np.vstack(verts), np.vstack(faces))


# ---------------------------------------------------------------------------
# OBJ I/O


def load_obj(path) -> TriMesh:
    """Parse an ASCII OBJ (v/f records, fan-triangulated polygons)."""
    path = Path(path)
    verts: list[list[float]] = []
    faces: list[list[int]] = []
    try:
        with open(path, encoding="utf-8") as fh:
            for lineno, line in enumerate(fh, start=1):
                tokens = line.split()
                if not tokens or tokens[0].startswith("#"):
                    continue
                tag = tokens[0]
                if tag == "v":
                    if len(tokens) < 4:
                        raise MeshError(f"{path}:{lineno}: vertex needs 3 coordinates")
                    try:
                        verts.append([float(t) for t in tokens[1:4]])
                    except ValueError as e:
                        raise MeshError(f"{path}:{lineno}: {e}") from e
                elif tag == "f":
                    idx = []
                    for tok in tokens[1:]:
                        try:
                            i = int(tok.split("/")[0])
                        except ValueError as e:
                            raise MeshError(f"{path}:{lineno}: bad face index {tok!r}") from e
                        if i < 0:
                            i = len(verts) + 1 + i
                        idx.append(i - 1)
                    if len(idx) < 3:
                        raise MeshError(f"{path}:{lineno}: face needs >= 3 vertices")
                    for k in range(1, len(idx) - 1):
                        faces.append([idx[0], idx[k], idx[k + 1]])
                    bad = [i for i in idx if i < 0 or i >= len(verts)]
                    if bad:
                        raise MeshError(f"{path}:{lineno}: face index out of range: {bad[0] + 1}")
    except UnicodeDecodeError as e:
        raise MeshError(f"{path}: not a UTF-8 text file: {e}") from e
    try:
        return TriMesh(np.array(verts, dtype=np.float64).reshape(-1, 3), np.array(faces))
    except MeshError as e:
        raise MeshError(f"{path}: {e}") from e


def save_obj(mesh: TriMesh, path) -> None:
    if mesh.n_faces == 0:
        raise MeshError("refusing to save a mesh with no faces")
    lines = [f"v {x:.17g} {y:.17g} {z:.17g}\n" for x, y, z in mesh.vertices.tolist()]
    lines += [f"f {a} {b} {c}\n" for a, b, c in (mesh.faces + 1).tolist()]
    with open(path, "w") as fh:
        fh.write("".join(lines))


# ---------------------------------------------------------------------------
# Manifest


def read_json(path, error: type[Exception]):
    """The value of the JSON file ``path``, read as UTF-8.

    Text that is not UTF-8 or not JSON raises ``error``, naming the file.
    """
    path = Path(path)
    try:
        return json.loads(path.read_text(encoding="utf-8"))
    except (json.JSONDecodeError, UnicodeDecodeError) as e:
        raise error(f"{path}: invalid JSON: {e}") from e


def _parse_joint(rec: dict) -> Joint:
    if not isinstance(rec, dict):
        raise ManifestError(f"joint must be a JSON object, got {rec!r}")
    kind = str(rec.get("kind", FIXED)).lower()
    if kind == FIXED:
        return Joint(FIXED)
    if kind not in (REVOLUTE, PRISMATIC):
        raise ManifestError(f"unknown joint kind {kind!r}")
    axis = _finite_vector(rec.get("axis", []), 3, "axis")
    n = np.linalg.norm(axis)
    if n < 1e-12:
        raise ManifestError("joint axis has zero length")
    return Joint(kind, axis=axis / n, pivot=rec.get("pivot", [0.0, 0.0, 0.0]),
                 range=rec.get("range", [0.0, 0.0]))


def _ref_states(val) -> tuple[float, ...]:
    numbers = isinstance(val, list) and all(
        isinstance(s, (int, float)) and not isinstance(s, bool) for s in val)
    if not numbers:
        raise ManifestError(f"ref_states must be a list of numbers, got {val!r}")
    return tuple(val)


def load_manifest(path) -> ArticulatedObject:
    """Load an articulated-object manifest (JSON) and its referenced OBJ files."""
    path = Path(path)
    spec = read_json(path, ManifestError)
    if not isinstance(spec, dict):
        raise ManifestError(f"{path}: top level must be a JSON object, got {spec!r}")
    recs = spec.get("parts", [])
    if not isinstance(recs, list):
        raise ManifestError(f"{path}: 'parts' must be a list, got {recs!r}")
    base = path.parent
    parts = []
    for i, rec in enumerate(recs):
        if not isinstance(rec, dict):
            raise ManifestError(f"{path}: part {i} must be a JSON object, got {rec!r}")
        name = rec.get("name")
        if not name or not isinstance(name, str):
            raise ManifestError(f"{path}: part {i} needs a name string, got {name!r}")
        objs = rec.get("convex_objs", [])
        if not objs:
            raise ManifestError(f"{path}: part {name!r} lists no convex OBJ files")
        if not isinstance(objs, list) or not all(isinstance(o, str) for o in objs):
            raise ManifestError(f"{path}: part {name!r}: convex_objs must be a list "
                                f"of file names, got {objs!r}")
        convexes = []
        for rel in objs:
            p = (base / rel).resolve()
            if not p.exists():
                raise ManifestError(f"{path}: missing convex file {rel!r} for part {name!r}")
            convexes.append(load_obj(p))
        try:
            parts.append(Part(name=name, convexes=tuple(convexes),
                              joint=_parse_joint(rec.get("joint", {})),
                              ref_states=_ref_states(rec.get("ref_states", []))))
        except ManifestError as e:
            raise ManifestError(f"{path}: part {name!r}: {e}") from e
    if not parts:
        raise ManifestError(f"{path}: manifest declares no parts")
    return ArticulatedObject(parts=tuple(parts))


# ---------------------------------------------------------------------------
# Kinematics


def rotation_about_axis(axis: np.ndarray, angle: float) -> np.ndarray:
    """Rodrigues rotation matrix for a unit axis."""
    kx, ky, kz = axis
    K = np.array([[0.0, -kz, ky], [kz, 0.0, -kx], [-ky, kx, 0.0]])
    return np.eye(3) + math.sin(angle) * K + (1.0 - math.cos(angle)) * (K @ K)


def articulate_vertices(vertices: np.ndarray, joint: Joint, state: float) -> np.ndarray:
    """Rigid transform of a vertex array by a joint placed at the given state."""
    if joint.is_fixed:
        return np.array(vertices, dtype=np.float64)
    lo, hi = joint.range
    if not (lo - 1e-12 <= state <= hi + 1e-12):
        raise ManifestError(f"state {state} outside joint range [{lo}, {hi}]")
    if joint.kind == PRISMATIC:
        return vertices + state * joint.axis
    R = rotation_about_axis(joint.axis, state)
    return (vertices - joint.pivot) @ R.T + joint.pivot


def articulate(mesh: TriMesh, joint: Joint, state: float) -> TriMesh:
    return mesh.with_vertices(articulate_vertices(mesh.vertices, joint, state))


# ---------------------------------------------------------------------------
# Surface sampling


def _surface_draw(mesh: TriMesh, n: int, seed) -> tuple[np.ndarray, np.ndarray]:
    """Face index (n,) and barycentric weights (n, 3) of n area-weighted draws."""
    if n < 1:
        raise MeshError("n must be >= 1")
    areas = mesh.face_areas()
    total = areas.sum()
    if total <= 0.0:
        raise MeshError("mesh has zero total surface area")
    rng = np.random.default_rng(seed)
    fidx = rng.choice(len(areas), size=n, p=areas / total)
    # uniform barycentric via the sqrt trick
    r1 = np.sqrt(rng.random(n))
    r2 = rng.random(n)
    return fidx, np.stack([1.0 - r1, r1 * (1.0 - r2), r1 * r2], axis=1)


def sample_surface(mesh: TriMesh, n: int, seed=0) -> np.ndarray:
    """Draw n area-weighted points on the surface. Deterministic per seed."""
    fidx, bary = _surface_draw(mesh, n, seed)
    tri = mesh.vertices[mesh.faces[fidx]]
    return (bary[:, 0, None] * tri[:, 0] + bary[:, 1, None] * tri[:, 1]
            + bary[:, 2, None] * tri[:, 2])
