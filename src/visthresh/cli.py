"""Command-line pipeline: synth, train, predict, evaluate, gradcheck, histogram.

Exit codes: 0 success, 1 usage error, 2 data error or out of memory, 3 numeric failure.
Every subcommand is reproducible from its flags; all randomness is seeded.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict
from pathlib import Path

from .errors import DataError, NumericError
from .evaluation import (
    DEFAULT_LUMINANCE_BAND,
    evaluate,
    intensity_histogram,
    load_groundtruth,
    pair_with_map,
)
from .image_io import load_pgm, load_quality_records, save_pgm
from .inference import decimate_map, export_map, load_map, normalize_map, predict_map
from .regressor import load_checkpoint, save_checkpoint
from .synthetic import SynthConfig, generate
from .training import TrainConfig, gradcheck, train


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def _parse_band(text: str) -> tuple[float, float]:
    parts = text.split(",")
    if len(parts) != 2:
        raise _UsageError(f"--band expects LO,HI, got {text!r}")
    try:
        lo, hi = float(parts[0]), float(parts[1])
    except ValueError:
        raise _UsageError(f"--band expects numbers, got {text!r}") from None
    if not lo <= hi:  # also rejects a NaN bound
        raise _UsageError(f"--band expects LO <= HI, got {text!r}")
    return lo, hi


def _cmd_synth(args) -> int:
    cfg = SynthConfig(n_images=args.n, image_size=args.size, seed=args.seed)
    manifest = generate(cfg, args.out)
    n_rows = sum(1 for line in manifest.read_text().splitlines() if line) - 1
    print(f"synth: wrote {n_rows} patch records under {args.out} (manifest {manifest})")
    return 0


def _cmd_train(args) -> int:
    cfg = TrainConfig(
        patch_stride=args.stride,
        batch_size=args.batch,
        epochs=args.epochs,
        learning_rate=args.lr,
        seed=args.seed,
        holdout_fraction=args.holdout,
    )
    records = load_quality_records(args.manifest)
    params, report = train(records, cfg)
    save_checkpoint(params, {"config": asdict(cfg)}, args.out)
    if args.report:
        Path(args.report).write_text(
            json.dumps(report.to_dict(cfg), indent=2, sort_keys=True) + "\n", encoding="utf-8"
        )
    holdout = report.holdout_loss[-1]
    holdout_text = f"{holdout:.4f}" if holdout is not None else "n/a"
    print(
        f"train: {cfg.epochs} epochs, final train loss {report.train_loss[-1]:.4f}, "
        f"holdout loss {holdout_text}, alpha {report.final_alpha:.4f} -> {args.out}"
    )
    return 0


def _cmd_predict(args) -> int:
    params, _ = load_checkpoint(args.model)
    img = load_pgm(args.image)
    tmap = predict_map(img, params, args.stride)
    csv_path, json_path = export_map(tmap, args.out)
    if args.pgm:
        pgm_path = Path(args.out).with_name(Path(args.out).name + ".pgm")
        save_pgm(normalize_map(tmap), pgm_path)
    print(
        f"predict: {tmap.values.shape[0]}x{tmap.values.shape[1]} threshold map "
        f"(stride {args.stride}) -> {csv_path}, {json_path}"
    )
    return 0


def _cmd_evaluate(args) -> int:
    tmap = load_map(args.pred)
    gt = load_groundtruth(args.gt)
    tmap = decimate_map(tmap, *gt.shape)
    result = evaluate(pair_with_map(gt, tmap), band=args.band)
    Path(args.out).write_text(
        json.dumps(result.to_dict(), indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    print(
        f"evaluate: plcc_raw {result.plcc_raw:.4f}, plcc_fitted {result.plcc_fitted:.4f}, "
        f"rmse_fitted {result.rmse_fitted:.4f}, kept {result.n_kept}/{result.n_total} "
        f"-> {args.out}"
    )
    return 0


def _cmd_gradcheck(args) -> int:
    report = gradcheck(seed=args.seed)
    status = "pass" if report.passed else "FAIL"
    print(
        f"gradcheck: max relative error {report.max_rel_error:.3e} "
        f"over {report.n_coords} coordinates, {report.refined} refined off a kink ({status})"
    )
    return 0 if report.passed else 3


def _cmd_histogram(args) -> int:
    records = load_quality_records(args.manifest)
    counts = intensity_histogram([rec.distorted for rec in records])
    lines = ["bin,count"] + [f"{b},{int(c)}" for b, c in enumerate(counts)]
    Path(args.out).write_text("\n".join(lines) + "\n", encoding="utf-8")
    print(f"histogram: {int(counts.sum())} patches over {len(records)} images -> {args.out}")
    return 0


def build_parser() -> _Parser:
    parser = _Parser(prog="visthresh", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a synthetic dataset with a known masking law")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--seed", type=int, default=SynthConfig.seed)
    p.add_argument("--n", type=int, default=SynthConfig.n_images, help="number of base textures")
    p.add_argument("--size", type=int, default=SynthConfig.image_size,
                   help="texture side length in pixels")
    p.set_defaults(func=_cmd_synth)

    p = sub.add_parser("train", help="train the threshold regressor on a manifest")
    p.add_argument("--manifest", required=True)
    p.add_argument("--out", required=True, help="checkpoint path")
    p.add_argument("--epochs", type=int, required=True)
    p.add_argument("--lr", type=float, default=TrainConfig.learning_rate)
    p.add_argument("--batch", type=int, default=TrainConfig.batch_size)
    p.add_argument("--stride", type=int, default=TrainConfig.patch_stride,
                   help="training patch stride")
    p.add_argument("--seed", type=int, default=TrainConfig.seed)
    p.add_argument("--holdout", type=float, default=TrainConfig.holdout_fraction)
    p.add_argument("--report", default=None, help="optional training-report JSON path")
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser("predict", help="produce a visibility-threshold map for an image")
    p.add_argument("--model", required=True, help="checkpoint path")
    p.add_argument("--image", required=True, help="input PGM")
    p.add_argument("--stride", type=int, default=16)
    p.add_argument("--out", required=True, help="output prefix (.csv/.json appended)")
    p.add_argument("--pgm", action="store_true", help="also write a normalized PGM rendering")
    p.set_defaults(func=_cmd_predict)

    p = sub.add_parser("evaluate", help="score predictions against a ground-truth grid")
    p.add_argument("--pred", required=True, help="prediction prefix from `predict`")
    p.add_argument("--gt", required=True, help="ground-truth CSV (row,col,threshold_db)")
    p.add_argument(
        "--band",
        type=_parse_band,
        default=DEFAULT_LUMINANCE_BAND,
        help="mean-luminance keep band LO,HI on the 0..255 scale (use 0,255 to keep all)",
    )
    p.add_argument("--out", required=True, help="report JSON path")
    p.set_defaults(func=_cmd_evaluate)

    p = sub.add_parser("gradcheck", help="verify analytic gradients against finite differences")
    p.add_argument("--seed", type=int, default=1)
    p.set_defaults(func=_cmd_gradcheck)

    p = sub.add_parser("histogram", help="intensity histogram of 32x32 patches in a manifest")
    p.add_argument("--manifest", required=True)
    p.add_argument("--out", required=True, help="output CSV path")
    p.set_defaults(func=_cmd_histogram)
    return parser


# built by the first run() and shared by every later one in the process:
# nothing changes it once built, and parse_args returns a fresh Namespace,
# so one call's flags never reach the next
_parser: _Parser | None = None


def run(argv) -> int:
    global _parser
    if _parser is None:
        _parser = build_parser()
    try:
        args = _parser.parse_args(argv)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except SystemExit as exc:  # --help
        return int(exc.code or 0)
    try:
        return args.func(args)
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 2
    except (NumericError, FloatingPointError) as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 3
    except MemoryError as exc:
        print(f"out of memory: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
