import hashlib
import math

import numpy as np
import pytest

from visthresh.errors import DataError
from visthresh.image_io import load_manifest, load_pgm
from visthresh.synthetic import (
    SynthConfig,
    generate,
    load_oracle,
    masking_threshold,
    oracle_thresholds,
)

SMALL = dict(n_images=3, seed=11)


def tree_digest(root):
    h = hashlib.sha256()
    for path in sorted(p for p in root.rglob("*") if p.is_file()):
        h.update(str(path.relative_to(root)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


class TestConfig:
    def test_rejects_zero_amplitude(self):
        with pytest.raises(DataError, match="amplitude"):
            SynthConfig(noise_amplitudes=(0.0, 0.1))

    def test_rejects_nonpositive_floor(self):
        with pytest.raises(DataError, match="t0"):
            SynthConfig(law_t0=0.0)

    def test_rejects_small_images(self):
        with pytest.raises(DataError):
            SynthConfig(image_size=16)


class TestMaskingLaw:
    def test_constant_patch_hits_floor(self):
        assert masking_threshold(np.full((32, 32), 0.5), 0.02, 0.5) == 0.02

    def test_contrast_raises_threshold(self, rng):
        flat = np.full((32, 32), 0.5)
        busy = rng.uniform(0.0, 1.0, (32, 32))
        assert masking_threshold(busy, 0.02, 0.5) > masking_threshold(flat, 0.02, 0.5)


class TestGenerate:
    def test_deterministic_tree(self, tmp_path):
        generate(SynthConfig(**SMALL), tmp_path / "a")
        generate(SynthConfig(**SMALL), tmp_path / "b")
        assert tree_digest(tmp_path / "a") == tree_digest(tmp_path / "b")

    def test_row_and_file_counts(self, tmp_path):
        cfg = SynthConfig(**SMALL)
        manifest = generate(cfg, tmp_path)
        records = load_manifest(manifest)
        patches = 3 * 9  # 3 images x 3x3 stride-16 crops of a 64x64 texture
        assert len(records) == patches * len(cfg.noise_amplitudes)
        assert len(list((tmp_path / "ref").glob("*.pgm"))) == patches
        assert len(list((tmp_path / "dist").glob("*.pgm"))) == patches * 4

    def test_manifest_scores_reproducible_from_saved_pixels(self, tmp_path):
        cfg = SynthConfig(**SMALL)
        manifest = generate(cfg, tmp_path)
        oracle = load_oracle(tmp_path / "oracle.csv")
        for rec in load_manifest(manifest)[:8]:
            ref = load_pgm(rec.reference_path).pixels
            dist = load_pgm(rec.distorted_path).pixels
            e = float(np.mean(np.abs(dist - ref)))
            t_star = oracle[rec.reference_path.stem]
            q = 1.0 - math.exp(-cfg.alpha_true * e / t_star)
            assert rec.raw_score == pytest.approx(q, abs=1e-9)

    def test_scores_are_valid_quality_targets(self, tmp_path):
        manifest = generate(SynthConfig(**SMALL), tmp_path)
        for rec in load_manifest(manifest):
            assert 0.0 <= rec.raw_score <= 1.0
            assert rec.polarity == "higher_is_worse"

    def test_pixel_range(self, tmp_path):
        generate(SynthConfig(**SMALL), tmp_path)
        ref = load_pgm(next(iter((tmp_path / "ref").glob("*.pgm"))))
        assert ref.pixels.min() >= 0.0 and ref.pixels.max() <= 1.0


class TestOracle:
    def test_thresholds_at_least_floor(self, tmp_path):
        cfg = SynthConfig(**SMALL)
        generate(cfg, tmp_path)
        oracle = load_oracle(tmp_path / "oracle.csv")
        assert len(oracle) == 27
        assert all(v >= cfg.law_t0 for v in oracle.values())

    def test_recomputation_matches_csv(self, tmp_path):
        cfg = SynthConfig(**SMALL)
        manifest = generate(cfg, tmp_path)
        oracle = load_oracle(tmp_path / "oracle.csv")
        for rec in load_manifest(manifest):
            patch = load_pgm(rec.reference_path).pixels
            expected = masking_threshold(patch, cfg.law_t0, cfg.law_t1)
            assert oracle[rec.reference_path.stem] == pytest.approx(expected, abs=1e-9)

    def test_regeneration_is_stable(self, tmp_path):
        generate(SynthConfig(**SMALL), tmp_path)
        first = (tmp_path / "oracle.csv").read_bytes()
        oracle_thresholds(tmp_path)
        assert (tmp_path / "oracle.csv").read_bytes() == first

    @pytest.mark.parametrize(
        "row", ["p0,1.5,7", "p0", "p0,abc"], ids=["extra_column", "one_column", "non_numeric"]
    )
    def test_malformed_oracle_row_is_data_error(self, tmp_path, row):
        (tmp_path / "oracle.csv").write_text(f"patch_id,t_star\np1,0.2\n{row}\n")
        with pytest.raises(DataError, match=r"oracle.csv:3"):
            load_oracle(tmp_path / "oracle.csv")

    def test_requires_generated_tree(self, tmp_path):
        with pytest.raises(DataError, match="generated tree"):
            oracle_thresholds(tmp_path / "empty")
