import json

import numpy as np
import pytest

from artigen.mesh import (
    ArticulatedObject,
    Joint,
    ManifestError,
    MeshError,
    Part,
    TriMesh,
    articulate,
    load_manifest,
    load_obj,
    merge_meshes,
    rotation_about_axis,
    sample_surface,
    save_obj,
)
from fixtures import simple_box


def test_trimesh_validation():
    v = np.zeros((3, 3))
    with pytest.raises(MeshError):
        TriMesh(v, np.array([[0, 1, 5]]))  # out of range
    with pytest.raises(MeshError):
        TriMesh(np.array([[0.0, 0.0, np.nan]] * 3), np.array([[0, 1, 2]]))


def test_trimesh_read_only():
    m = simple_box()
    with pytest.raises(ValueError):
        m.vertices[0, 0] = 5.0


def test_obj_round_trip(tmp_path):
    m = simple_box((1.5, 2.0, 0.5), (0.3, -0.2, 1.0))
    path = tmp_path / "box.obj"
    save_obj(m, path)
    m2 = load_obj(path)
    np.testing.assert_array_equal(m.vertices, m2.vertices)
    np.testing.assert_array_equal(m.faces, m2.faces)


def test_save_obj_bytes_and_bit_exact_round_trip(tmp_path):
    v = np.array([[-0.0, 5e-324, 0.1], [1e300, -1e300, 1.0 / 3.0], [0.0, -2.5e-308, 7.0]])
    m = TriMesh(v, np.array([[0, 1, 2], [2, 1, 0]]))
    # the per-row form over numpy scalars that save_obj has always written
    expect = "".join(f"v {r[0]:.17g} {r[1]:.17g} {r[2]:.17g}\n" for r in m.vertices)
    expect += "".join(f"f {f[0] + 1} {f[1] + 1} {f[2] + 1}\n" for f in m.faces)
    path = tmp_path / "m.obj"
    save_obj(m, path)
    assert path.read_bytes() == expect.encode()
    assert path.read_text().splitlines()[0] == "v -0 4.9406564584124654e-324 0.10000000000000001"
    back = load_obj(path)
    assert back.vertices.tobytes() == m.vertices.tobytes()
    assert back.faces.tobytes() == m.faces.tobytes()


def test_obj_fan_triangulation_and_negative_indices(tmp_path):
    path = tmp_path / "quad.obj"
    path.write_text(
        "v 0 0 0\nv 1 0 0\nv 1 1 0\nv 0 1 0\n"
        "f 1 2 3 4\n"
        "f -4 -3 -2\n"
    )
    m = load_obj(path)
    assert m.n_faces == 3
    np.testing.assert_array_equal(m.faces[0], [0, 1, 2])
    np.testing.assert_array_equal(m.faces[1], [0, 2, 3])
    np.testing.assert_array_equal(m.faces[2], [0, 1, 2])


def test_obj_error_reports_line(tmp_path):
    path = tmp_path / "bad.obj"
    path.write_text("v 0 0 0\nv 1 0 0\nf 1 2 9\n")
    with pytest.raises(MeshError, match=":3:"):
        load_obj(path)


def test_save_obj_refuses_empty(tmp_path):
    with pytest.raises(MeshError):
        save_obj(TriMesh(np.zeros((3, 3)), np.zeros((0, 3), dtype=int)),
                 tmp_path / "e.obj")


def test_joint_validation():
    with pytest.raises(ManifestError):
        Joint("revolute", axis=np.array([0.0, 0.0, 2.0]))
    with pytest.raises(ManifestError):
        Joint("revolute", axis=np.array([0.0, 0.0, 1.0]), range=(1.0, 0.0))
    with pytest.raises(ManifestError):
        Joint("spherical")
    assert Joint("fixed").is_fixed


def test_rotation_about_axis():
    r = rotation_about_axis(np.array([0.0, 0.0, 1.0]), np.pi / 2)
    np.testing.assert_allclose(r @ [1, 0, 0], [0, 1, 0], atol=1e-15)
    # orthonormality
    np.testing.assert_allclose(r @ r.T, np.eye(3), atol=1e-15)


def test_articulate_revolute_and_prismatic():
    m = simple_box()
    j = Joint("revolute", axis=np.array([0.0, 0.0, 1.0]),
              pivot=np.array([1.0, 0.0, 0.0]), range=(0.0, np.pi))
    out = articulate(m, j, np.pi)
    # rotation by pi about z through (1,0,0): (x,y) -> (2-x, -y)
    np.testing.assert_allclose(out.vertices[:, 0], 2 - m.vertices[:, 0], atol=1e-15)
    np.testing.assert_allclose(out.vertices[:, 1], -m.vertices[:, 1], atol=1e-15)

    jp = Joint("prismatic", axis=np.array([0.0, 1.0, 0.0]), range=(0.0, 2.0))
    out = articulate(m, jp, 1.5)
    np.testing.assert_allclose(out.vertices, m.vertices + [0, 1.5, 0])

    with pytest.raises(ManifestError):
        articulate(m, j, 4.0)  # outside range


def test_articulate_fixed_ignores_state():
    m = simple_box()
    out = articulate(m, Joint("fixed"), 0.0)
    np.testing.assert_array_equal(out.vertices, m.vertices)


def test_merge_meshes_offsets_faces():
    a, b = simple_box(), simple_box(center=(3, 0, 0))
    m = merge_meshes([a, b])
    assert m.n_vertices == 16 and m.n_faces == 24
    np.testing.assert_array_equal(m.faces[12:], b.faces + 8)


def test_part_and_object_validation():
    m = simple_box()
    with pytest.raises(ManifestError):
        Part("p", (), Joint("fixed"))
    with pytest.raises(ManifestError):
        Part("p", (m,), Joint("revolute", axis=np.array([0.0, 0.0, 1.0]),
                              range=(0.0, 1.0)), ref_states=(2.0,))
    p1 = Part("a", (m,), Joint("fixed"))
    p2 = Part("a", (m,), Joint("fixed"))
    with pytest.raises(ManifestError):
        ArticulatedObject(parts=(p1, p2))  # duplicate names
    p2 = Part("b", (m,), Joint("fixed"))
    with pytest.raises(ManifestError):
        ArticulatedObject(parts=(p1, p2))  # two fixed parts


def _write_manifest(tmp_path, joint):
    save_obj(simple_box(), tmp_path / "a.obj")
    save_obj(simple_box(center=(3, 0, 0)), tmp_path / "b.obj")
    rec = {
        "parts": [
            {"name": "base", "convex_objs": ["a.obj"], "joint": {"kind": "fixed"}},
            {"name": "arm", "convex_objs": ["b.obj"], "joint": joint},
        ]
    }
    path = tmp_path / "obj.json"
    path.write_text(json.dumps(rec))
    return path


def test_load_manifest(tmp_path):
    path = _write_manifest(tmp_path, {"kind": "revolute", "axis": [0, 0, 2],
                                      "pivot": [0, 0, 0], "range": [0, 1]})
    obj = load_manifest(path)  # non-unit axis is normalized at load
    assert obj.parts[1].name == "arm" and obj.parts[1].joint.axis[2] == 1.0
    assert sum(len(p.convexes) for p in obj.parts) == 2


def test_load_manifest_zero_axis(tmp_path):
    good = {"kind": "revolute", "axis": [0, 0, 1], "pivot": [0, 0, 0],
            "range": [0, 1]}
    bad = [
        ({"axis": [0, 0, 0]}, "zero length"),
        ({"range": [0.0]}, "range"),
        ({"pivot": [0.0, 0.0]}, "pivot"),
        ({"range": [0.0, float("inf")]}, "range"),
        ({"range": [float("nan"), 1.0]}, "range"),
        ({"kind": "hinge"}, "unknown joint kind 'hinge'"),
    ]
    for change, what in bad:
        path = _write_manifest(tmp_path, {**good, **change})
        with pytest.raises(ManifestError, match=f"obj.json: part 'arm': .*{what}"):
            load_manifest(path)


def test_load_manifest_missing_file(tmp_path):
    rec = {"parts": [{"name": "a", "convex_objs": ["nope.obj"],
                      "joint": {"kind": "fixed"}}]}
    path = tmp_path / "obj.json"
    path.write_text(json.dumps(rec))
    with pytest.raises((ManifestError, MeshError, FileNotFoundError)):
        load_manifest(path)


_ARM = {"name": "arm", "convex_objs": ["b.obj"], "joint": {"kind": "fixed"}}


@pytest.mark.parametrize("spec, what", [
    ([], "top level must be a JSON object"),
    ("x", "top level must be a JSON object"),
    ({"parts": "abc"}, "'parts' must be a list"),
    ({"parts": ["abc"]}, "part 0 must be a JSON object"),
    ({"parts": [{**_ARM, "name": 7}]}, "part 0 needs a name string"),
    ({"parts": [{**_ARM, "joint": "fixed"}]}, "part 'arm': joint must be a JSON object"),
    ({"parts": [{**_ARM, "convex_objs": "b.obj"}]},
     "part 'arm': convex_objs must be a list of file names"),
    ({"parts": [{**_ARM, "convex_objs": [3]}]},
     "part 'arm': convex_objs must be a list of file names"),
    ({"parts": [{**_ARM, "ref_states": "ab"}]},
     "part 'arm': ref_states must be a list of numbers"),
    ({"parts": [{**_ARM, "ref_states": [0.0, "1"]}]},
     "part 'arm': ref_states must be a list of numbers"),
    (b"\xff\xfe{}", "invalid JSON"),
], ids=["list", "string", "parts_string", "part_string", "name_number",
        "joint_string", "objs_string", "objs_numbers", "states_string",
        "states_mixed", "not_utf8"])
def test_load_manifest_rejects_wrong_types(tmp_path, spec, what):
    save_obj(simple_box(), tmp_path / "b.obj")
    path = tmp_path / "obj.json"
    if isinstance(spec, bytes):
        path.write_bytes(spec)
    else:
        path.write_text(json.dumps(spec))
    with pytest.raises(ManifestError, match=f"obj.json: {what}"):
        load_manifest(path)


@pytest.mark.parametrize("content, what", [
    (b"v 0 0 0\nv 1 0 0\nv 0 1 0\nf 1 2 3 \xe9\n", "not a UTF-8 text file"),
    (b"\x00\x9f\x92\x96 binary", "not a UTF-8 text file"),
    (b"v 0 0\n", ":1: vertex needs 3 coordinates"),
    (b"v 0 0 x\n", ":1: could not convert"),
    (b"v 0 0 0\nv 1 0 0\nf 1 2\n", ":3: face needs >= 3 vertices"),
    (b"v 0 0 0\nv 1 0 0\nv 0 1 0\nf 1 2 3.5\n", ":4: bad face index"),
    (b"v 0 0 nan\nv 1 0 0\nv 0 1 0\nf 1 2 3\n", "non-finite vertex"),
    (b"v 0 0 0\nv 1 0 0\nf 1 2 2\n", "degenerate face"),
], ids=["latin1_byte", "binary", "short_vertex", "bad_coordinate", "short_face",
        "float_index", "nan", "degenerate"])
def test_load_obj_rejects_hostile_input(tmp_path, content, what):
    path = tmp_path / "bad.obj"
    path.write_bytes(content)
    with pytest.raises(MeshError, match=f"bad.obj{what}" if what[0] == ":"
                       else f"bad.obj: .*{what}"):
        load_obj(path)


def test_sample_surface_deterministic_and_on_surface():
    m = simple_box()
    p1 = sample_surface(m, 256, seed=3)
    p2 = sample_surface(m, 256, seed=3)
    np.testing.assert_array_equal(p1, p2)
    assert p1.shape == (256, 3)
    # all samples on the box surface: at least one |coord| == 0.5
    assert np.isclose(np.abs(p1), 0.5).any(axis=1).all()
    p3 = sample_surface(m, 256, seed=4)
    assert not np.array_equal(p1, p3)

