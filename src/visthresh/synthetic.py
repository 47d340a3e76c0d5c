"""Deterministic synthetic datasets with a known masking law.

Procedural textures (sums of eight random 2-D sinusoids plus uniform
noise, normalized into [0.1, 0.9]) are distorted with seeded uniform
noise at four fixed amplitudes.  Every 32x32 crop on the patch grid
becomes its own tiny image pair whose quality score is computed, from the
quantized pixels actually saved to disk, as ``q = 1 - exp(-alpha * E / T*)``
with the generating threshold ``T* = t0 + t1 * std(reference patch)``.  The
local-equals-global assumption therefore holds exactly, and a trained
model's thresholds can be correlated against the emitted T* oracle.

All randomness flows from config.seed through numpy's default PCG64
generator in a fixed draw order (per image: texture, then one noise
field per amplitude), so regenerating with the same config reproduces
every output byte.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from .errors import DataError
from .features import PATCH_SIZE, patch_grid, patch_means
# load_pgm is unused here but stays bound: bench/tracing.py wraps synthetic.load_pgm
from .image_io import GrayImage, load_pgm, quantize, read_csv_rows, save_pgm, write_manifest
from .quality_model import predict_quality

# the fixed generating law and crop geometry
NOISE_AMPLITUDES = (0.01, 0.03, 0.06, 0.10)
ALPHA_TRUE = 1.0
LAW_T0, LAW_T1 = 0.02, 0.5
CROP_STRIDE = 16  # overlapping crops; 9 patches per 64x64 texture


@dataclass(frozen=True)
class SynthConfig:
    n_images: int = 200
    image_size: int = 64
    seed: int = 7

    def __post_init__(self):
        if self.n_images < 1 or self.image_size < PATCH_SIZE:
            raise DataError(f"need n_images >= 1 and image_size >= {PATCH_SIZE}")
        if self.seed < 0:
            raise DataError(f"seed must be non-negative, got {self.seed}")


def masking_threshold(patch: np.ndarray) -> float:
    """Generating threshold: floor LAW_T0 plus LAW_T1 times the contrast (population std)."""
    return LAW_T0 + LAW_T1 * float(np.std(patch))


def texture(rng: np.random.Generator, size: int) -> np.ndarray:
    """One size x size procedural texture on [0.1, 0.9], drawn from rng (see the module docstring)."""
    u = np.arange(size) / size
    yy, xx = np.meshgrid(u, u, indexing="ij")
    tex = np.zeros((size, size))
    for _ in range(8):
        # low frequencies leave some patches nearly flat, so the per-patch
        # contrast (and with it the generating threshold) spans a wide range
        amp = rng.uniform(0.2, 1.0)
        freq = rng.uniform(0.25, 2.0)
        theta = rng.uniform(0.0, 2.0 * math.pi)
        phase = rng.uniform(0.0, 2.0 * math.pi)
        tex += amp * np.sin(
            2.0 * math.pi * freq * (math.cos(theta) * xx + math.sin(theta) * yy) + phase
        )
    tex += rng.uniform(0.01, 0.2) * rng.uniform(-1.0, 1.0, (size, size))
    lo, hi = tex.min(), tex.max()
    return 0.1 + 0.8 * (tex - lo) / (hi - lo)


def generate(cfg: SynthConfig, out_dir) -> Path:
    """Write reference/distorted patch pairs plus manifest, config, and oracle.

    Returns the manifest path.  Raw scores are the exact q values computed
    from the saved (quantized) pixels, on the [0, 1] scale with
    higher = worse, so training targets are self-consistent.
    """
    out = Path(out_dir)
    (out / "ref").mkdir(parents=True, exist_ok=True)
    (out / "dist").mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng(cfg.seed)
    rows = []
    oracle = ["patch_id,t_star"]
    grid = patch_grid(cfg.image_size, CROP_STRIDE)
    for i in range(cfg.n_images):
        # snapped to the 8-bit lattice, so the crops are the pixels load_pgm reads back
        ref = quantize(texture(rng, cfg.image_size)) / 255.0
        distorted = [
            quantize(np.clip(ref + rng.uniform(-a, a, ref.shape), 0.0, 1.0)) / 255.0
            for a in NOISE_AMPLITUDES
        ]
        errors = [patch_means(np.abs(dist - ref), grid, grid).tolist() for dist in distorted]
        for ri, r in enumerate(grid):
            for ci, c in enumerate(grid):
                pid = f"img{i:04d}_r{r:03d}_c{c:03d}"
                ref_crop = ref[r : r + PATCH_SIZE, c : c + PATCH_SIZE]
                save_pgm(GrayImage(ref_crop), out / "ref" / f"{pid}.pgm")
                t_star = masking_threshold(ref_crop)
                oracle.append(f"{pid},{t_star!r}")
                for ai, dist in enumerate(distorted):
                    dist_crop = dist[r : r + PATCH_SIZE, c : c + PATCH_SIZE]
                    dist_name = f"{pid}_a{ai}.pgm"
                    save_pgm(GrayImage(dist_crop), out / "dist" / dist_name)
                    q = predict_quality(errors[ai][ri][ci], t_star, ALPHA_TRUE).q_hat
                    rows.append(
                        {
                            "reference": f"ref/{pid}.pgm",
                            "distorted": f"dist/{dist_name}",
                            "raw_score": q,
                            "score_min": 0.0,
                            "score_max": 1.0,
                            "polarity": "higher_is_worse",
                        }
                    )
    manifest = out / "manifest.csv"
    write_manifest(rows, manifest)
    config_blob = dict(asdict(cfg), noise_amplitudes=list(NOISE_AMPLITUDES), alpha_true=ALPHA_TRUE,
                       law_t0=LAW_T0, law_t1=LAW_T1, patch_stride=CROP_STRIDE)
    (out / "synth_config.json").write_text(
        json.dumps(config_blob, sort_keys=True, indent=2) + "\n", encoding="utf-8"
    )
    (out / "oracle.csv").write_text("\n".join(oracle) + "\n", encoding="utf-8")
    return manifest


def load_oracle(path) -> dict[str, float]:
    """Read oracle.csv into {patch_id: T*}."""
    path = Path(path)
    rows = read_csv_rows(path)
    if not rows or rows[0][1] != ["patch_id", "t_star"]:
        raise DataError(f"{path}: expected header 'patch_id,t_star'")
    out = {}
    for lineno, row in rows[1:]:
        try:
            pid, value = row
            out[pid] = float(value)
        except ValueError:
            raise DataError(f"{path}:{lineno}: expected 'patch_id,t_star', got {row}") from None
    return out
