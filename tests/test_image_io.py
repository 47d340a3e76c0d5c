import csv

import numpy as np
import pytest
from hypothesis import given, strategies as st

from visthresh import image_io
from visthresh.errors import DataError
from visthresh.evaluation import load_groundtruth
from visthresh.image_io import (
    GrayImage,
    ManifestRecord,
    QualityRecord,
    load_manifest,
    load_pgm,
    load_quality_records,
    normalize_score,
    save_pgm,
    write_manifest,
)
from visthresh.synthetic import load_oracle

from conftest import make_image, write_pgm_bytes


def tiled(quad: list[int]) -> list[int]:
    """The 32x32 raster, row-major, that repeats a 2x2 pattern."""
    return np.tile(np.reshape(quad, (2, 2)), (16, 16)).ravel().tolist()


class TestLoadPgm:
    def test_scales_bytes_exactly(self, tmp_path):
        path = tmp_path / "a.pgm"
        write_pgm_bytes(path, 2, 2, [0, 255, 128, 64])
        img = load_pgm(path)
        assert img.pixels.tolist() == [[0.0, 1.0], [128 / 255, 64 / 255]]

    def test_single_pixel(self, tmp_path):
        path = tmp_path / "one.pgm"
        write_pgm_bytes(path, 1, 1, [255])
        assert load_pgm(path).pixels.tolist() == [[1.0]]

    def test_rejects_ascii_pgm(self, tmp_path):
        path = tmp_path / "ascii.pgm"
        write_pgm_bytes(path, 1, 1, [255], magic=b"P2")
        with pytest.raises(DataError, match="unsupported format"):
            load_pgm(path)

    def test_rejects_wrong_maxval(self, tmp_path):
        path = tmp_path / "deep.pgm"
        write_pgm_bytes(path, 1, 1, [255], maxval=65535)
        with pytest.raises(DataError, match="maxval"):
            load_pgm(path)

    def test_rejects_truncated_data(self, tmp_path):
        path = tmp_path / "short.pgm"
        write_pgm_bytes(path, 4, 4, [0] * 7)
        with pytest.raises(DataError, match="truncated"):
            load_pgm(path)

    def test_rejects_zero_dimensions(self, tmp_path):
        path = tmp_path / "zero.pgm"
        write_pgm_bytes(path, 0, 4, [])
        with pytest.raises(DataError, match="dimensions"):
            load_pgm(path)

    def test_leading_zero_header_field_loads(self, tmp_path):
        path = tmp_path / "zero_padded.pgm"
        path.write_bytes(b"P5\n2 01\n0255\n\x10\x20")
        assert load_pgm(path).pixels.tolist() == [[16 / 255, 32 / 255]]

    def test_accepts_header_comments(self, tmp_path):
        path = tmp_path / "comment.pgm"
        path.write_bytes(b"P5\n# made by hand\n2 1\n255\n\x10\x20")
        img = load_pgm(path)
        assert img.pixels.shape == (1, 2)

    def test_comment_after_maxval(self, tmp_path):
        # pgm(5): the comment runs through its line end, then one whitespace
        # byte delimits the raster
        path = tmp_path / "comment.pgm"
        path.write_bytes(b"P5\n2 2\n255#note\n\n" + bytes([10, 20, 30, 40]))
        assert load_pgm(path).pixels.tolist() == [[10 / 255, 20 / 255], [30 / 255, 40 / 255]]
        # here the delimiter is the first raster byte (10 is a newline), so the raster is short
        path.write_bytes(b"P5\n2 2\n255#\n" + bytes([10, 20, 30, 40]))
        with pytest.raises(DataError, match="truncated"):
            load_pgm(path)


class TestSavePgm:
    def test_endpoint_bytes(self, tmp_path):
        path = tmp_path / "out.pgm"
        save_pgm(make_image([[0.0, 1.0]]), path)
        data = path.read_bytes()
        assert data.startswith(b"P5\n2 1\n255\n")
        assert data[-2:] == bytes([0, 255])

    def test_rounds_half_up(self, tmp_path):
        path = tmp_path / "half.pgm"
        save_pgm(make_image([[0.5]]), path)
        assert path.read_bytes()[-1] == 128

    @pytest.mark.parametrize("seed", [0, 1, 7, 2**31])
    def test_roundtrip_identity_on_quantized_lattice(self, seed, tmp_path):
        rng = np.random.default_rng(seed)
        samples = rng.integers(0, 256, size=(5, 7), dtype=np.uint8)
        img = make_image(samples / 255.0)
        path = tmp_path / "img.pgm"
        save_pgm(img, path)
        again = load_pgm(path)
        np.testing.assert_array_equal(again.pixels, img.pixels)

    def test_roundtrip_reaches_quantization_step(self, tmp_path):
        img = make_image([[0.123456, 0.9997]])
        path = tmp_path / "q.pgm"
        save_pgm(img, path)
        assert np.max(np.abs(load_pgm(path).pixels - img.pixels)) <= 0.5 / 255


class TestGrayImage:
    def test_rejects_out_of_range(self):
        with pytest.raises(DataError):
            GrayImage(np.array([[0.0, 1.2]]))

    def test_rejects_non_finite(self):
        with pytest.raises(DataError):
            GrayImage(np.array([[np.nan]]))

    def test_immutable(self):
        img = make_image([[0.5]])
        with pytest.raises(ValueError):
            img.pixels[0, 0] = 0.1


MANIFEST_HEADER = "reference,distorted,raw_score,score_min,score_max,polarity"


class TestManifest:
    def test_parses_rows_and_resolves_paths(self, tmp_path):
        (tmp_path / "m.csv").write_text(
            f"{MANIFEST_HEADER}\n# a comment line\na.pgm,b.pgm,30.0,0,100,higher_is_worse\n"
        )
        records = load_manifest(tmp_path / "m.csv")
        assert len(records) == 1
        rec = records[0]
        assert rec.raw_score == 30.0
        assert rec.polarity == "higher_is_worse"
        assert rec.reference_path == tmp_path / "a.pgm"
        assert rec.distorted_path == tmp_path / "b.pgm"

    def test_empty_after_header(self, tmp_path):
        (tmp_path / "m.csv").write_text(MANIFEST_HEADER + "\n")
        assert load_manifest(tmp_path / "m.csv") == []

    def test_unknown_polarity(self, tmp_path):
        (tmp_path / "m.csv").write_text(f"{MANIFEST_HEADER}\na.pgm,b.pgm,1,0,2,up\n")
        with pytest.raises(DataError, match="polarity"):
            load_manifest(tmp_path / "m.csv")

    def test_missing_column(self, tmp_path):
        (tmp_path / "m.csv").write_text("reference,distorted,raw_score\na,b,1\n")
        with pytest.raises(DataError, match="header"):
            load_manifest(tmp_path / "m.csv")

    def test_unparsable_number(self, tmp_path):
        (tmp_path / "m.csv").write_text(f"{MANIFEST_HEADER}\na,b,xx,0,1,higher_is_worse\n")
        with pytest.raises(DataError, match="unparsable"):
            load_manifest(tmp_path / "m.csv")

    def test_nul_in_image_path(self, tmp_path):
        (tmp_path / "m.csv").write_text(f"{MANIFEST_HEADER}\na,\0b,0.5,0,1,higher_is_worse\n")
        with pytest.raises(DataError, match=r"m.csv:2: NUL byte"):
            load_manifest(tmp_path / "m.csv")

    @pytest.mark.parametrize(
        "loader, text",
        [
            (load_manifest, f"{MANIFEST_HEADER}\na,\0b,0.5,0,1,higher_is_worse\n"),
            (load_groundtruth, "row,col,threshold_db\n0,0,\0\n"),
            (load_oracle, "patch_id,t_star\n\0p,0.5\n"),
        ],
        ids=["manifest", "groundtruth", "oracle"],
    )
    def test_nul_rejected_before_a_py310_csv_reader(self, tmp_path, monkeypatch, loader, text):
        # Python 3.10's csv.reader raises csv.Error on a NUL; every CSV
        # loader must name the line itself before the reader sees it
        real_reader = csv.reader

        def py310_reader(lines, *args, **kwargs):
            def checked(lines):
                for line in lines:
                    if "\0" in line:
                        raise csv.Error("line contains NUL")
                    yield line

            return real_reader(checked(lines), *args, **kwargs)

        monkeypatch.setattr(csv, "reader", py310_reader)
        (tmp_path / "m.csv").write_text(text)
        with pytest.raises(DataError, match=r"m.csv:2: NUL byte"):
            loader(tmp_path / "m.csv")

    def test_error_names_file_line_after_blank_and_comment(self, tmp_path):
        (tmp_path / "m.csv").write_text(
            f"{MANIFEST_HEADER}\n\n# comment\na,b,xx,0,1,higher_is_worse\n"
        )
        with pytest.raises(DataError, match=r"m.csv:4: unparsable number"):
            load_manifest(tmp_path / "m.csv")

    def test_oversized_field_is_data_error(self, tmp_path):
        (tmp_path / "m.csv").write_text(f"{MANIFEST_HEADER}\n{'a' * 200_000},b,0.5,0,1,up\n")
        with pytest.raises(DataError, match=r"m.csv:2: malformed CSV"):
            load_manifest(tmp_path / "m.csv")

    def test_score_outside_range_rejected(self, tmp_path):
        (tmp_path / "m.csv").write_text(f"{MANIFEST_HEADER}\na,b,5,0,1,higher_is_worse\n")
        with pytest.raises(DataError):
            load_manifest(tmp_path / "m.csv")

    @pytest.mark.parametrize(
        "scores",
        ["5,0,inf,higher_is_better", "99,0,inf,higher_is_worse", "5,-inf,10,higher_is_worse",
         "inf,0,inf,higher_is_worse"],
    )
    def test_non_finite_score_rejected(self, tmp_path, scores):
        # an infinite bound would make every target 0, 1 or NaN
        (tmp_path / "m.csv").write_text(f"{MANIFEST_HEADER}\na,b,{scores}\n")
        with pytest.raises(DataError, match=r"(raw_score|score_min|score_max) must be finite, got -?inf"):
            load_manifest(tmp_path / "m.csv")

    @pytest.mark.parametrize(
        "scores, message",
        [
            ("1,0,2,up", "unknown polarity 'up'"),
            ("5,0,inf,higher_is_worse", "score_max must be finite"),
            ("1,2,2,higher_is_worse", "score_min must be < score_max"),
            ("5,0,1,higher_is_worse", "raw_score 5.0 outside range"),
        ],
        ids=["polarity", "non_finite", "empty_range", "raw_out_of_range"],
    )
    def test_row_error_names_file_line(self, tmp_path, scores, message):
        # line 2 is valid, so the error must name the offending line 3
        text = f"{MANIFEST_HEADER}\na,b,0.5,0,1,higher_is_worse\na,b,{scores}\n"
        (tmp_path / "m.csv").write_text(text)
        with pytest.raises(DataError, match=rf"m.csv:3: {message}"):
            load_manifest(tmp_path / "m.csv")

    def test_write_then_load(self, tmp_path):
        rows = [
            {
                "reference": "r.pgm",
                "distorted": "d.pgm",
                "raw_score": 0.25,
                "score_min": 0.0,
                "score_max": 1.0,
                "polarity": "higher_is_worse",
            }
        ]
        write_manifest(rows, tmp_path / "m.csv")
        records = load_manifest(tmp_path / "m.csv")
        assert records[0].raw_score == 0.25


class TestNormalizeScore:
    @pytest.mark.parametrize(
        "raw, lo, hi, polarity, expected",
        [
            (100.0, 0.0, 100.0, "higher_is_worse", 1.0),
            (0.0, 0.0, 100.0, "higher_is_worse", 0.0),
            (80.0, 0.0, 100.0, "higher_is_better", 0.2),
        ],
    )
    def test_examples(self, raw, lo, hi, polarity, expected):
        rec = ManifestRecord("a", "b", raw, lo, hi, polarity)
        assert normalize_score(rec) == pytest.approx(expected, abs=1e-15)

    @given(
        st.floats(0, 1), st.floats(0, 1),
        st.sampled_from(["higher_is_worse", "higher_is_better"]),
    )
    def test_monotone_in_degradation(self, a, b, polarity):
        worse, better = max(a, b), min(a, b)
        if polarity == "higher_is_better":
            worse, better = better, worse
        q_worse = normalize_score(ManifestRecord("a", "b", worse, -1.0, 2.0, polarity))
        q_better = normalize_score(ManifestRecord("a", "b", better, -1.0, 2.0, polarity))
        assert q_worse >= q_better - 1e-12


class TestQualityRecord:
    def test_dimension_mismatch(self):
        with pytest.raises(DataError, match="dimensions"):
            QualityRecord(make_image(np.zeros((4, 4))), make_image(np.zeros((4, 5))), 0.5)

    def test_load_quality_records(self, tmp_path):
        write_pgm_bytes(tmp_path / "r.pgm", 32, 32, tiled([10, 20, 30, 40]))
        write_pgm_bytes(tmp_path / "d.pgm", 32, 32, tiled([12, 22, 28, 40]))
        (tmp_path / "m.csv").write_text(
            f"{MANIFEST_HEADER}\nr.pgm,d.pgm,40.0,0,100,higher_is_worse\n"
        )
        records = load_quality_records(tmp_path / "m.csv")
        assert len(records) == 1
        assert records[0].q_global == pytest.approx(0.4)

    def test_each_image_path_loaded_once(self, tmp_path, monkeypatch):
        write_pgm_bytes(tmp_path / "r.pgm", 32, 32, tiled([10, 20, 30, 40]))
        write_pgm_bytes(tmp_path / "d1.pgm", 32, 32, tiled([12, 22, 28, 40]))
        write_pgm_bytes(tmp_path / "d2.pgm", 32, 32, tiled([9, 25, 31, 44]))
        (tmp_path / "m.csv").write_text(
            f"{MANIFEST_HEADER}\n"
            "r.pgm,d1.pgm,40.0,0,100,higher_is_worse\n"
            "r.pgm,d2.pgm,60.0,0,100,higher_is_worse\n"
            "r.pgm,d1.pgm,50.0,0,100,higher_is_worse\n"
        )
        loaded = []
        real_load_pgm = image_io.load_pgm

        def counting_load_pgm(path):
            loaded.append(path)
            return real_load_pgm(path)

        monkeypatch.setattr(image_io, "load_pgm", counting_load_pgm)
        records = load_quality_records(tmp_path / "m.csv")
        assert sorted(p.name for p in loaded) == ["d1.pgm", "d2.pgm", "r.pgm"]
        assert records[0].reference is records[1].reference is records[2].reference
        assert records[0].distorted is records[2].distorted
        assert records[1].distorted is not records[0].distorted
        want = np.reshape(tiled([9, 25, 31, 44]), (32, 32)) / 255
        assert np.array_equal(records[1].distorted.pixels, want)
        assert [r.q_global for r in records] == pytest.approx([0.4, 0.6, 0.5])
