"""Print a sha256 for every file a fixed CLI sequence writes.

Usage: python tests/digest_outputs.py SRC_ROOT OUT

Imports ``artigen`` from ``SRC_ROOT/src`` (a checkout of this repository),
writes the 5-shot fixture eyeglasses dataset to ``OUT/data`` and runs, with
``--profile desk --seed 0`` and one BLAS thread: pretrain, finetune,
finetune ``--pretrained``, sample ``-n 4``, sample ``--z-zero``, simulate,
correct and eval. It then prints ``<sha256>  <path>`` for every output under
``OUT`` except ``run.json`` (which holds a timestamp). Run it on two checkouts
and diff the listings to see which outputs a change moved.
"""

from __future__ import annotations

import contextlib
import hashlib
import os
import sys
from pathlib import Path

# set before numpy is imported: the fitted model depends on the thread count
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__.strip().splitlines()[2], file=sys.stderr)
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
    ref = out / "data/glasses_01/object.json"
    model = out / "finetune/model.json"
    runs = [
        ["pretrain", dataset, out / "pretrain"],
        ["finetune", dataset, out / "finetune"],
        ["finetune", dataset, out / "finetune_pre",
         "--pretrained", out / "pretrain/model.json"],
        ["sample", model, ref, out / "sample", "-n", "4"],
        ["sample", model, ref, out / "sample_zero", "--z-zero"],
        ["simulate", ref, out / "simulate"],
        ["correct", model, ref, out / "correct"],
        ["eval", out / "sample", dataset, out / "eval"],
    ]
    with contextlib.redirect_stdout(sys.stderr):      # keep stdout to digests
        for run in runs:
            cli(["--profile", "desk", "--seed", "0", *map(str, run)])
    for path in sorted(out.rglob("*")):
        rel = path.relative_to(out)
        if path.is_file() and path.name != "run.json" and rel.parts[0] != "data":
            print(f"{hashlib.sha256(path.read_bytes()).hexdigest()}  {rel}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
