"""End-to-end walkthrough on synthetic data with a known masking law.

Generates a patch dataset, trains the threshold regressor, checks the
gradient implementation, predicts a threshold map for a fresh texture,
decimates it to a coarse grid, evaluates against ground truth derived
from the generating law, and prints every summary line.  All stages go
through the command-line interface, so this doubles as a smoke test of
the published pipeline.

Usage: python scripts/run_synthetic_experiment.py [--out DIR] [--n 40] [--epochs 10]
"""

import argparse
import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from visthresh.cli import run
from visthresh.image_io import GrayImage, save_pgm
from visthresh.inference import load_map, decimate_map
from visthresh.synthetic import _texture, masking_threshold


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="synthetic_run", help="working directory")
    parser.add_argument("--n", type=int, default=40, help="number of base textures")
    parser.add_argument("--epochs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=7)
    args = parser.parse_args()

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    data = out / "data"
    ckpt = out / "model.vth"

    steps = [
        ["synth", "--out", str(data), "--seed", str(args.seed), "--n", str(args.n)],
        ["gradcheck", "--seed", "1"],
        [
            "train", "--manifest", str(data / "manifest.csv"), "--out", str(ckpt),
            "--epochs", str(args.epochs), "--seed", "0",
            "--report", str(out / "train_report.json"),
        ],
    ]
    for argv in steps:
        code = run(argv)
        if code != 0:
            return code

    # fresh texture the model has never seen; threshold map at stride 16
    rng = np.random.default_rng(args.seed + 1)
    demo = _texture(rng, 128)
    demo_path = out / "demo.pgm"
    save_pgm(GrayImage(demo), demo_path)
    prefix = out / "demo_map"
    code = run(["predict", "--model", str(ckpt), "--image", str(demo_path),
                "--stride", "16", "--out", str(prefix), "--pgm"])
    if code != 0:
        return code

    # ground truth on a 3x3 grid from the generating law over each cell footprint
    tmap = load_map(prefix)
    coarse = decimate_map(tmap, 3, 3)
    lines = ["row,col,threshold_db"]
    bounds = [0, 43, 86, 128]
    for r in range(3):
        for c in range(3):
            footprint = demo[bounds[r] : bounds[r + 1], bounds[c] : bounds[c + 1]]
            t_star = masking_threshold(footprint)
            db = 20.0 * np.log10(t_star)
            lines.append(f"{r},{c},{db:.6f}")
    gt_path = out / "gt.csv"
    gt_path.write_text("\n".join(lines) + "\n")

    return run(["evaluate", "--pred", str(prefix), "--gt", str(gt_path),
                "--band", "0,255", "--out", str(out / "eval_report.json")])


if __name__ == "__main__":
    sys.exit(main())
