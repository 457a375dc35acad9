"""Seeded input generators: the program under test only ever sees these files.

Every generator is a pure function of its seed, writes plain OBJ and JSON
files, and uses nothing from ``artigen`` so that a change to the program
cannot change the inputs it is measured on.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

Z_AXIS = [0.0, 0.0, 1.0]


def grid_box(scale, center, n: int = 3) -> tuple[np.ndarray, np.ndarray]:
    """Closed box with each side split into an n x n quad grid, outward faces.

    n = 3 gives 56 vertices and 108 faces.
    """
    index: dict[tuple, int] = {}
    verts: list[tuple[float, float, float]] = []
    faces: list[list[int]] = []

    def vid(p):
        key = tuple(p)
        if key not in index:
            index[key] = len(verts)
            verts.append(key)
        return index[key]

    for axis in range(3):
        u_ax, v_ax = (axis + 1) % 3, (axis + 2) % 3
        for side in (0, n):
            for i in range(n):
                for j in range(n):
                    def corner(a, b):
                        p = [0, 0, 0]
                        p[axis], p[u_ax], p[v_ax] = side, a, b
                        return vid(p)

                    c00, c10 = corner(i, j), corner(i + 1, j)
                    c01, c11 = corner(i, j + 1), corner(i + 1, j + 1)
                    if side:
                        faces += [[c00, c10, c11], [c00, c11, c01]]
                    else:
                        faces += [[c00, c11, c10], [c00, c01, c11]]
    v = np.array(verts, dtype=np.float64) / n - 0.5
    v = v * np.asarray(scale, dtype=np.float64) + np.asarray(center, dtype=np.float64)
    return v, np.array(faces, dtype=np.int64)


def write_obj(path, verts: np.ndarray, faces: np.ndarray) -> None:
    lines = [f"v {x:.17g} {y:.17g} {z:.17g}" for x, y, z in verts]
    lines += [f"f {a + 1} {b + 1} {c + 1}" for a, b, c in faces]
    Path(path).write_text("\n".join(lines) + "\n")


def read_obj(path) -> tuple[np.ndarray, np.ndarray]:
    """Triangle-only OBJ reader for files this benchmark or the program wrote."""
    verts, faces = [], []
    for line in Path(path).read_text().splitlines():
        tok = line.split()
        if not tok:
            continue
        if tok[0] == "v":
            verts.append([float(t) for t in tok[1:4]])
        elif tok[0] == "f":
            if len(tok) != 4:
                raise ValueError(f"{path}: non-triangle face {line!r}")
            faces.append([int(t.split("/")[0]) - 1 for t in tok[1:4]])
    return np.array(verts, dtype=np.float64), np.array(faces, dtype=np.int64)


def _revolute(pivot, lo, hi, axis=Z_AXIS) -> dict:
    return {"kind": "revolute", "axis": list(axis),
            "pivot": [float(c) for c in pivot], "range": [float(lo), float(hi)]}


def _prismatic(axis, lo, hi) -> dict:
    return {"kind": "prismatic", "axis": list(axis), "range": [float(lo), float(hi)]}


def write_object(obj_dir: Path, parts: list[dict]) -> Path:
    """Write one manifest; each part dict holds name, joint, convexes, ref_states."""
    obj_dir.mkdir(parents=True, exist_ok=True)
    recs = []
    for part in parts:
        names = []
        for ci, (v, f) in enumerate(part["convexes"]):
            name = f"{part['name']}_{ci}.obj"
            write_obj(obj_dir / name, v, f)
            names.append(name)
        rec = {"name": part["name"], "convex_objs": names, "joint": part["joint"]}
        if part.get("ref_states") is not None:
            rec["ref_states"] = list(part["ref_states"])
        recs.append(rec)
    path = obj_dir / "object.json"
    path.write_text(json.dumps({"parts": recs}, indent=1))
    return path


# ---------------------------------------------------------------------------
# Eyeglasses family: fixed two-convex frame and two revolute legs


def eyeglasses_parts(rng: np.random.Generator, ref_states=(0.0,)) -> list[dict]:
    """One jittered pair of toy eyeglasses, in manifest-part form.

    ``ref_states=None`` leaves the legs free, so the program samples their
    reference states uniformly over the joint range.
    """
    s = 1.0 + 0.25 * rng.uniform(-1, 1)       # overall size
    w = 1.0 + 0.3 * rng.uniform(-1, 1)        # frame width factor
    leg = 1.0 + 0.3 * rng.uniform(-1, 1)      # leg length factor
    rim = (0.9 * w * s, 0.12 * s, 0.45 * s)
    bar = (0.08 * s, leg * s, 0.08 * s)
    return [
        {"name": "frame", "joint": {"kind": "fixed"},
         "convexes": [grid_box(rim, (-0.5 * w * s, 0, 0)),
                      grid_box(rim, (0.5 * w * s, 0, 0))]},
        {"name": "leg_l", "joint": _revolute((-w * s, 0, 0), 0.0, 1.5),
         "convexes": [grid_box(bar, (-w * s, -0.5 * leg * s, 0))],
         "ref_states": ref_states},
        {"name": "leg_r", "joint": _revolute((w * s, 0, 0), -1.5, 0.0),
         "convexes": [grid_box(bar, (w * s, -0.5 * leg * s, 0))],
         "ref_states": ref_states},
    ]


def write_eyeglasses_dataset(root, seed: int, n: int = 5, variant: int = 0) -> Path:
    """n corresponding eyeglasses objects and the dataset manifest listing them."""
    root = Path(root)
    rng = np.random.default_rng([seed, 1, variant])
    entries = []
    for i in range(n):
        path = write_object(root / f"glasses_{i:02d}", eyeglasses_parts(rng))
        entries.append(str(path.relative_to(root)))
    ds = root / "dataset.json"
    ds.write_text(json.dumps({"objects": entries, "role": "finetune-train"}))
    return ds


def merge(pieces) -> tuple[np.ndarray, np.ndarray]:
    """Concatenate (vertices, faces) pieces, offsetting face indices."""
    verts, faces, offset = [], [], 0
    for v, f in pieces:
        verts.append(v)
        faces.append(f + offset)
        offset += len(v)
    return np.concatenate(verts), np.concatenate(faces)


def merged_geometry(parts: list[dict], states: dict[str, float] | None = None):
    """All convexes of an object merged in manifest order, legs posed by ``states``."""
    states = states or {}
    return merge((_rotate_z(v, part["joint"]["pivot"], states[part["name"]])
                  if states.get(part["name"]) else v, f)
                 for part in parts for v, f in part["convexes"])


def _rotate_z(v: np.ndarray, pivot, angle: float) -> np.ndarray:
    c, s = math.cos(angle), math.sin(angle)
    rot = np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])
    p = np.asarray(pivot, dtype=np.float64)
    return (v - p) @ rot.T + p


# ---------------------------------------------------------------------------
# Simulation objects: no reference states, revolute and prismatic joints


def simulation_objects(seed: int) -> list[tuple[str, bool, list[dict]]]:
    """(name, built to collide, parts) for the ``simulate`` workload.

    The colliding objects collide for every sampled reference state, so the
    expected sign of the loss does not depend on the seed; ``control`` keeps
    every part out of every other part's reach.
    """
    rng = np.random.default_rng([seed, 2])
    j = lambda lo=0.9, hi=1.1: float(rng.uniform(lo, hi))  # noqa: E731
    objs = []

    # free eyeglasses: each leg sweeps past the frame and the other leg, whose
    # fold is sampled anew for every detection process
    objs.append(("glasses_free", False, eyeglasses_parts(rng, ref_states=None)))

    # a rod whose tip crosses a wall while it swings about the origin
    objs.append(("hinge_wall", True, [
        {"name": "wall", "joint": {"kind": "fixed"},
         "convexes": [grid_box((0.1, 2.4 * j(), 1.2 * j()), (0.6 * j(), 0, 0))]},
        {"name": "rod", "joint": _revolute((0, 0, 0), 0.0, math.pi / 2),
         "convexes": [grid_box((1.0 * j(), 0.05, 0.05), (0.5, 0, 0))]},
    ]))

    # a drawer that slides through the back of its cabinet
    objs.append(("drawer", True, [
        {"name": "cabinet", "joint": {"kind": "fixed"},
         "convexes": [grid_box((0.1, 1.2 * j(), 0.8 * j()), (0, 0, 0)),
                      grid_box((1.2 * j(), 1.2, 0.1), (0.6, 0, -0.45))]},
        {"name": "drawer", "joint": _prismatic([-1, 0, 0], 0.0, 0.5 * j()),
         "convexes": [grid_box((0.6 * j(), 0.8, 0.5), (0.45, 0, 0))]},
    ]))

    # base, a swinging lid and a slider; the slider always crosses the base
    objs.append(("base_lid_slider", True, [
        {"name": "base", "joint": {"kind": "fixed"},
         "convexes": [grid_box((1.0 * j(), 1.0 * j(), 0.2), (0, 0, 0))]},
        {"name": "lid", "joint": _revolute((0, 0.6, 0.15), -0.8, 0.8, [1, 0, 0]),
         "convexes": [grid_box((0.9, 0.05, 0.6 * j()), (0, 0.6, 0.45))]},
        {"name": "slider", "joint": _prismatic([0, 0, -1], 0.0, 0.8 * j()),
         "convexes": [grid_box((0.2, 0.2, 0.6), (0.2 * j(), -0.2, 0.55))]},
    ]))

    # control: every part stays out of reach of every other part
    objs.append(("control", False, [
        {"name": "base", "joint": {"kind": "fixed"},
         "convexes": [grid_box((1.0 * j(), 1.0 * j(), 0.3), (0, 0, 0))]},
        {"name": "arm", "joint": _revolute((5.0 * j(), 0, 0), 0.0, 1.2),
         "convexes": [grid_box((1.0 * j(), 0.1, 0.1), (5.5, 0, 0))]},
        {"name": "slider", "joint": _prismatic([0, 0, 1], -1.0, 1.0),
         "convexes": [grid_box((0.3, 0.3 * j(), 0.3), (0, 5.0 * j(), 0))]},
    ]))
    return objs


def write_simulation_objects(root, seed: int) -> list[dict]:
    root = Path(root)
    out = []
    for name, collides, parts in simulation_objects(seed):
        path = write_object(root / name, parts)
        fixed = [p["name"] for p in parts if p["joint"]["kind"] == "fixed"]
        out.append({"name": name, "manifest": str(path.relative_to(root)),
                    "collides": collides, "control": name == "control",
                    "fixed": fixed})
    (root / "objects.json").write_text(json.dumps(out, indent=1))
    return out


# ---------------------------------------------------------------------------
# Evaluation population: posed eyeglasses, one merged OBJ each


def write_eval_shapes(root, seed: int, n: int = 40) -> Path:
    """n merged eyeglasses OBJs with jittered size and random leg folds."""
    gen_dir = Path(root)
    gen_dir.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng([seed, 3])
    for i in range(n):
        parts = eyeglasses_parts(rng)
        states = {"leg_l": float(rng.uniform(0.0, 1.5)),
                  "leg_r": float(rng.uniform(-1.5, 0.0))}
        write_obj(gen_dir / f"shape_{i:03d}.obj", *merged_geometry(parts, states))
    return gen_dir
