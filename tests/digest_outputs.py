"""Print a sha256 for every file a fixed CLI sequence writes, or compare two runs.

Usage: python tests/digest_outputs.py SRC_ROOT OUT
       python tests/digest_outputs.py --compare OUT_A OUT_B

Imports ``artigen`` from ``SRC_ROOT/src`` (a checkout of this repository),
writes the 5-shot fixture eyeglasses dataset to ``OUT/data`` and runs, with
``--profile desk --seed 0`` and one BLAS thread: pretrain, finetune,
finetune ``--pretrained``, finetune ``--pretrained`` of a second dataset
(fixture seed 5, in ``OUT/data/seed5``), finetune with ``--config`` setting
``k`` to 3 (so the 4 targets outnumber the bases), sample ``-n 4``, sample
``--z-zero``, simulate, simulate of the same object with the legs'
``ref_states`` removed (in ``OUT/data/glasses_01/object_free.json``, so each
leg's detection processes pose the other leg at distinct states and share
the frame), simulate of a four-part object (in
``OUT/data/glasses_01/object_four.json``: the free-leg object plus a second
copy of the left rim that slides along y at three ``ref_states``, so each
detection stack holds copies of two parts posed at varying states), correct,
and eval of both sample sets (the ``--z-zero`` set is
40 copies of one shape). It then prints
``<sha256>  <path>`` for every output under ``OUT`` except ``run.json``
(which holds a timestamp). Run it on two checkouts and diff the listings to
see which outputs a change moved.

``--compare`` takes the ``OUT`` trees of two such runs. For every output that
differs it prints the path and, for JSON and OBJ files, the largest relative
difference between matching numbers, ``|a - b| / max(|a|, |b|)``; files whose
numbers do not pair up, or that exist on one side only, are named as such.
A JSON key found on one side only is named with its path, and the numbers
are then compared without it. It exits 1 when any output differs and 0 when
all are byte-identical.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import os
import sys
from pathlib import Path

# set before numpy is imported: the fitted model depends on the thread count
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"


def _outputs(out: Path) -> dict[str, Path]:
    """Every output under ``out`` but the input data and ``run.json``."""
    return {str(p.relative_to(out)): p for p in sorted(out.rglob("*"))
            if p.is_file() and p.name != "run.json"
            and p.relative_to(out).parts[0] != "data"}


def _json_numbers(tree) -> tuple[list, list[float]]:
    """A JSON tree's non-numeric skeleton and its numbers, in order."""
    skeleton, numbers = [], []

    def walk(node):
        if isinstance(node, dict):
            skeleton.append(sorted(node))
            for key in sorted(node):
                walk(node[key])
        elif isinstance(node, list):
            skeleton.append(len(node))
            for item in node:
                walk(item)
        elif isinstance(node, (int, float)) and not isinstance(node, bool):
            numbers.append(float(node))
        else:
            skeleton.append(node)

    walk(tree)
    return skeleton, numbers


def _obj_numbers(path: Path) -> tuple[list, list[float]]:
    """An OBJ's line kinds and lengths, and its numbers, in order."""
    rows = [line.split() for line in path.read_text().splitlines()]
    return ([(r[0], len(r)) for r in rows if r],
            [float(tok.split("/")[0]) for r in rows if r for tok in r[1:]])


def _one_sided_keys(a, b, at: str = ""):
    """Both JSON trees without the dict keys that only one of them has.

    Returns ``(a', b', keys)``, ``keys`` holding ``(path, in_a)`` per dropped
    key. Lists are descended only where their lengths match.
    """
    if isinstance(a, dict) and isinstance(b, dict):
        keys = [(at + k, k in a) for k in sorted(a.keys() ^ b.keys())]
        a_out, b_out = {}, {}
        for k in sorted(a.keys() & b.keys()):
            a_out[k], b_out[k], sub = _one_sided_keys(a[k], b[k], f"{at}{k}.")
            keys += sub
        return a_out, b_out, keys
    if isinstance(a, list) and isinstance(b, list) and len(a) == len(b):
        parts = [_one_sided_keys(x, y, f"{at}{i}.") for i, (x, y) in enumerate(zip(a, b))]
        return ([p[0] for p in parts], [p[1] for p in parts],
                [k for p in parts for k in p[2]])
    return a, b, []


def compare(out_a: Path, out_b: Path) -> int:
    """Print every differing output and its largest relative number difference."""
    a, b = _outputs(out_a), _outputs(out_b)
    n_diff = 0
    for rel in sorted(a.keys() | b.keys()):
        if rel not in a or rel not in b:
            print(f"{rel}  only in {out_a if rel in a else out_b}")
            n_diff += 1
            continue
        if a[rel].read_bytes() == b[rel].read_bytes():
            continue
        n_diff += 1
        if a[rel].suffix == ".json":
            tree_a, tree_b, keys = _one_sided_keys(json.loads(a[rel].read_text()),
                                                   json.loads(b[rel].read_text()))
            for key, in_a in keys:
                print(f"{rel}  key {key!r} only in {out_a if in_a else out_b}")
            (skel_a, num_a), (skel_b, num_b) = _json_numbers(tree_a), _json_numbers(tree_b)
        elif a[rel].suffix == ".obj":
            (skel_a, num_a), (skel_b, num_b) = _obj_numbers(a[rel]), _obj_numbers(b[rel])
        else:
            print(f"{rel}  differs")
            continue
        if skel_a != skel_b or len(num_a) != len(num_b):
            print(f"{rel}  differs in structure")
            continue
        rel_diff = max((abs(x - y) / max(abs(x), abs(y))
                        for x, y in zip(num_a, num_b) if x != y), default=0.0)
        print(f"{rel}  max relative difference {rel_diff:.3g}")
    print(f"{n_diff} of {len(a.keys() | b.keys())} outputs differ")
    return int(n_diff > 0)


def main(argv: list[str]) -> int:
    if len(argv) == 3 and argv[0] == "--compare":
        return compare(Path(argv[1]), Path(argv[2]))
    if len(argv) != 2:
        print("\n".join(__doc__.strip().splitlines()[2:4]), file=sys.stderr)
        return 2
    src_root, out = (Path(a).resolve() for a in argv)
    sys.path[:0] = [str(src_root / "src"), str(Path(__file__).resolve().parent)]
    import artigen
    from artigen.cli import main as cli
    from fixtures import write_eyeglasses_dataset

    if not Path(artigen.__file__).is_relative_to(src_root):
        print(f"artigen imported from {artigen.__file__}, not {src_root}",
              file=sys.stderr)
        return 2
    dataset = write_eyeglasses_dataset(out / "data", n=5, seed=0)
    other = write_eyeglasses_dataset(out / "data/seed5", n=5, seed=5)
    ref = out / "data/glasses_01/object.json"
    free = ref.with_name("object_free.json")
    manifest = json.loads(ref.read_text())
    for part in manifest["parts"]:
        part.pop("ref_states", None)
    free.write_text(json.dumps(manifest, indent=2))
    four = ref.with_name("object_four.json")
    manifest["parts"].append({
        "name": "lens", "convex_objs": ["rim_l.obj"],
        "joint": {"kind": "prismatic", "axis": [0, 1, 0], "range": [0.0, 0.3]},
        "ref_states": [0.0, 0.15, 0.3]})
    four.write_text(json.dumps(manifest, indent=2))
    k3 = out / "data/k3.json"
    k3.write_text(json.dumps({"k": 3}))
    model = out / "finetune/model.json"
    runs = [
        ["pretrain", dataset, out / "pretrain"],
        ["finetune", dataset, out / "finetune"],
        ["finetune", dataset, out / "finetune_pre",
         "--pretrained", out / "pretrain/model.json"],
        ["finetune", other, out / "finetune_cross",
         "--pretrained", out / "pretrain/model.json"],
        ["--config", k3, "finetune", dataset, out / "finetune_k3"],
        ["sample", model, ref, out / "sample", "-n", "4"],
        ["sample", model, ref, out / "sample_zero", "--z-zero"],
        ["simulate", ref, out / "simulate"],
        ["simulate", free, out / "simulate_free"],
        ["simulate", four, out / "simulate_four"],
        ["correct", model, ref, out / "correct"],
        ["eval", out / "sample", dataset, out / "eval"],
        ["eval", out / "sample_zero", dataset, out / "eval_zero"],
    ]
    with contextlib.redirect_stdout(sys.stderr):      # keep stdout to digests
        for run in runs:
            cli(["--profile", "desk", "--seed", "0", *map(str, run)])
    for rel, path in _outputs(out).items():
        print(f"{hashlib.sha256(path.read_bytes()).hexdigest()}  {rel}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
