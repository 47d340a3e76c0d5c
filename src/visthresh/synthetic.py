"""Deterministic synthetic datasets with a known masking law.

Procedural textures (sums of eight random 2-D sinusoids plus uniform
noise, normalized into [0.1, 0.9]) are distorted with seeded uniform
noise at several amplitudes.  Every aligned 32x32 patch becomes its own
tiny image pair whose quality score is computed, from the quantized
pixels actually saved to disk, as ``q = 1 - exp(-alpha * E / T*)`` with
the generating threshold ``T* = t0 + t1 * std(reference patch)``.  The
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
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import DataError
from .image_io import GrayImage, load_manifest, load_pgm, save_pgm, write_manifest
from .quality_model import mean_abs_error
from .training import patch_grid

PATCH = 32


@dataclass(frozen=True)
class SynthConfig:
    n_images: int = 200
    image_size: int = 64
    noise_amplitudes: tuple[float, ...] = (0.01, 0.03, 0.06, 0.10)
    alpha_true: float = 1.0
    law_t0: float = 0.02
    law_t1: float = 0.5
    seed: int = 7
    patch_stride: int = 16  # overlapping crops; 9 patches per 64x64 texture

    def __post_init__(self):
        if self.n_images < 1 or self.image_size < PATCH:
            raise DataError(f"need n_images >= 1 and image_size >= {PATCH}")
        if self.law_t0 <= 0:
            raise DataError(f"law floor t0 must be positive, got {self.law_t0}")
        if not self.noise_amplitudes or any(a <= 0 for a in self.noise_amplitudes):
            raise DataError("noise amplitudes must be positive (zero would yield E = 0)")
        if self.patch_stride < 1:
            raise DataError("patch_stride must be >= 1")


def masking_threshold(patch: np.ndarray, t0: float, t1: float) -> float:
    """Generating threshold: floor plus a contrast term (population std)."""
    return t0 + t1 * float(np.std(patch))


def _quantize(arr: np.ndarray) -> np.ndarray:
    """Snap to the 8-bit lattice exactly as save_pgm/load_pgm will."""
    return np.floor(arr * 255.0 + 0.5) / 255.0


def _texture(rng: np.random.Generator, size: int) -> np.ndarray:
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
    for i in range(cfg.n_images):
        ref = _quantize(_texture(rng, cfg.image_size))
        distorted = [
            _quantize(np.clip(ref + rng.uniform(-a, a, ref.shape), 0.0, 1.0))
            for a in cfg.noise_amplitudes
        ]
        for r in patch_grid(cfg.image_size, cfg.patch_stride, PATCH):
            for c in patch_grid(cfg.image_size, cfg.patch_stride, PATCH):
                pid = f"img{i:04d}_r{r:03d}_c{c:03d}"
                ref_crop = ref[r : r + PATCH, c : c + PATCH]
                save_pgm(GrayImage(ref_crop), out / "ref" / f"{pid}.pgm")
                t_star = masking_threshold(ref_crop, cfg.law_t0, cfg.law_t1)
                for ai, dist in enumerate(distorted):
                    dist_crop = dist[r : r + PATCH, c : c + PATCH]
                    dist_name = f"{pid}_a{ai}.pgm"
                    save_pgm(GrayImage(dist_crop), out / "dist" / dist_name)
                    e = mean_abs_error(ref_crop, dist_crop)
                    q = 1.0 - math.exp(-cfg.alpha_true * e / t_star)
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
    config_blob = {k: getattr(cfg, k) for k in cfg.__dataclass_fields__}
    config_blob["noise_amplitudes"] = list(cfg.noise_amplitudes)
    (out / "synth_config.json").write_text(
        json.dumps(config_blob, sort_keys=True, indent=2) + "\n", encoding="utf-8"
    )
    oracle_thresholds(out)
    return manifest


def oracle_thresholds(out_dir) -> Path:
    """Recompute T* from the saved reference patches and emit oracle.csv."""
    out = Path(out_dir)
    config_path = out / "synth_config.json"
    manifest_path = out / "manifest.csv"
    if not config_path.exists() or not manifest_path.exists():
        raise DataError(f"{out}: not a generated tree (missing config or manifest)")
    config = json.loads(config_path.read_text())
    seen = set()
    lines = ["patch_id,t_star"]
    for rec in load_manifest(manifest_path):
        pid = rec.reference_path.stem
        if pid in seen:
            continue
        seen.add(pid)
        patch = load_pgm(rec.reference_path).pixels
        t_star = masking_threshold(patch, config["law_t0"], config["law_t1"])
        lines.append(f"{pid},{t_star!r}")
    oracle_path = out / "oracle.csv"
    oracle_path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return oracle_path


def load_oracle(path) -> dict[str, float]:
    """Read oracle.csv into {patch_id: T*}."""
    path = Path(path)
    lines = path.read_text(encoding="utf-8").strip().splitlines()
    if not lines or lines[0] != "patch_id,t_star":
        raise DataError(f"{path}: expected header 'patch_id,t_star'")
    out = {}
    for lineno, line in enumerate(lines[1:], start=2):
        try:
            pid, value = line.split(",")
            out[pid] = float(value)
        except ValueError:
            raise DataError(f"{path}:{lineno}: expected 'patch_id,t_star', got {line!r}") from None
    return out
