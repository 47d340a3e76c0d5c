import json

import numpy as np
import pytest

import visthresh.cli as cli
from visthresh.cli import run
from visthresh.evaluation import DEFAULT_LUMINANCE_BAND
from visthresh.image_io import load_pgm, save_pgm, GrayImage
from visthresh.training import GradCheckReport

MANIFEST_HEADER = "reference,distorted,raw_score,score_min,score_max,polarity"


@pytest.fixture(scope="module")
def tiny_dataset(tmp_path_factory):
    out = tmp_path_factory.mktemp("data")
    code = run(["synth", "--out", str(out), "--seed", "3", "--n", "2", "--size", "64"])
    assert code == 0
    return out


@pytest.fixture(scope="module")
def tiny_checkpoint(tiny_dataset, tmp_path_factory):
    ckpt = tmp_path_factory.mktemp("model") / "model.vth"
    code = run(
        [
            "train", "--manifest", str(tiny_dataset / "manifest.csv"),
            "--out", str(ckpt), "--epochs", "1", "--seed", "1",
        ]
    )
    assert code == 0
    return ckpt


class TestSynth:
    def test_writes_expected_tree(self, tiny_dataset, capsys):
        assert (tiny_dataset / "manifest.csv").exists()
        assert (tiny_dataset / "oracle.csv").exists()
        assert (tiny_dataset / "synth_config.json").exists()

    def test_negative_seed_is_data_error(self, tmp_path, capsys):
        assert run(["synth", "--out", str(tmp_path / "d"), "--seed", "-1", "--n", "1"]) == 2
        assert "seed" in capsys.readouterr().err
        assert not (tmp_path / "d").exists()

    def test_out_of_memory_is_exit_2(self, monkeypatch, tmp_path, capsys):
        def fake_generate(cfg, out_dir):
            raise MemoryError("Unable to allocate 74.5 PiB for an array")

        monkeypatch.setattr(cli, "generate", fake_generate)
        assert run(["synth", "--out", str(tmp_path / "d"), "--n", "1"]) == 2
        assert capsys.readouterr().err.splitlines() == [
            "out of memory: Unable to allocate 74.5 PiB for an array"
        ]


class TestTrain:
    def test_checkpoint_and_summary(self, tiny_checkpoint, capsys):
        assert tiny_checkpoint.exists()

    def test_empty_manifest_is_data_error(self, tmp_path, capsys):
        manifest = tmp_path / "m.csv"
        manifest.write_text(MANIFEST_HEADER + "\n")
        code = run(["train", "--manifest", str(manifest), "--out", str(tmp_path / "c.vth"),
                    "--epochs", "1"])
        assert code == 2

    def test_missing_manifest_is_data_error(self, tmp_path):
        code = run(["train", "--manifest", str(tmp_path / "none.csv"),
                    "--out", str(tmp_path / "c.vth"), "--epochs", "1"])
        assert code == 2

    def test_report_flag(self, tiny_dataset, tmp_path):
        ckpt = tmp_path / "m.vth"
        report = tmp_path / "report.json"
        code = run(["train", "--manifest", str(tiny_dataset / "manifest.csv"),
                    "--out", str(ckpt), "--epochs", "1", "--report", str(report)])
        assert code == 0
        blob = json.loads(report.read_text())
        assert "train_loss" in blob and "config" in blob
        assert blob["config"]["seed"] == 0 and "seed" not in blob

    def test_negative_seed_is_data_error(self, tiny_dataset, tmp_path, capsys):
        code = run(["train", "--manifest", str(tiny_dataset / "manifest.csv"),
                    "--out", str(tmp_path / "c.vth"), "--epochs", "1", "--seed", "-1"])
        assert code == 2
        assert "seed" in capsys.readouterr().err
        assert not (tmp_path / "c.vth").exists()

    @pytest.mark.parametrize(
        "flags",
        [["--epochs", "3", "--lr", "1000"], ["--epochs", "2", "--lr", "800", "--seed", "1"]],
        ids=["log_scale_overflows", "alpha_underflows_to_zero"],
    )
    def test_divergence_is_numeric_failure(self, flags, tmp_path, capsys):
        assert run(["synth", "--out", str(tmp_path), "--seed", "1", "--n", "1", "--size", "64"]) == 0
        capsys.readouterr()
        code = run(["train", "--manifest", str(tmp_path / "manifest.csv"),
                    "--out", str(tmp_path / "c.vth")] + flags)
        assert code == 3
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("numeric failure:")


class TestPredict:
    def test_writes_map_files(self, tiny_checkpoint, tmp_path, capsys):
        img_path = tmp_path / "input.pgm"
        rng = np.random.default_rng(0)
        save_pgm(GrayImage(rng.uniform(0.1, 0.9, (64, 64))), img_path)
        prefix = tmp_path / "map"
        code = run(["predict", "--model", str(tiny_checkpoint), "--image", str(img_path),
                    "--stride", "16", "--out", str(prefix), "--pgm"])
        assert code == 0
        assert (tmp_path / "map.csv").exists()
        assert (tmp_path / "map.json").exists()
        rendered = load_pgm(tmp_path / "map.pgm")
        assert rendered.pixels.shape == (3, 3)

    def test_pgm_flag_not_carried_into_the_next_run(self, tiny_checkpoint, tmp_path):
        img_path = tmp_path / "input.pgm"
        save_pgm(GrayImage(np.random.default_rng(0).uniform(0.1, 0.9, (64, 64))), img_path)
        base = ["predict", "--model", str(tiny_checkpoint), "--image", str(img_path)]
        assert run(base + ["--out", str(tmp_path / "a"), "--pgm"]) == 0
        assert run(base + ["--out", str(tmp_path / "b")]) == 0
        assert (tmp_path / "a.pgm").exists()
        assert (tmp_path / "b.csv").exists() and not (tmp_path / "b.pgm").exists()

    def test_undersized_image_is_data_error(self, tiny_checkpoint, tmp_path):
        img_path = tmp_path / "small.pgm"
        save_pgm(GrayImage(np.full((16, 16), 0.5)), img_path)
        code = run(["predict", "--model", str(tiny_checkpoint), "--image", str(img_path),
                    "--stride", "16", "--out", str(tmp_path / "map")])
        assert code == 2

    @pytest.mark.parametrize(
        "corrupt",
        [lambda blob: blob + b"\xff", lambda blob: blob[:-1]],
        ids=["trailer_not_utf8", "trailer_truncated"],
    )
    def test_malformed_checkpoint_trailer_is_data_error(self, tiny_checkpoint, tmp_path,
                                                        capsys, corrupt):
        blob = tiny_checkpoint.read_bytes()
        assert blob.endswith(b"}")  # the JSON metadata trailer
        bad = tmp_path / "bad.vth"
        bad.write_bytes(corrupt(blob))
        img_path = tmp_path / "input.pgm"
        save_pgm(GrayImage(np.full((32, 32), 0.5)), img_path)
        code = run(["predict", "--model", str(bad), "--image", str(img_path),
                    "--out", str(tmp_path / "map")])
        assert code == 2
        assert str(bad) in capsys.readouterr().err

    @pytest.mark.parametrize("header", [b"P5 1_0 1 255\n", b"P5 +2 1 255\n", b"P5 1 1 2_55\n"],
                             ids=["underscore_width", "signed_width", "underscore_maxval"])
    def test_non_digit_pgm_header_field_is_data_error(self, tiny_checkpoint, tmp_path, capsys,
                                                      header):
        # int() would read these as 10, 2 and 255; netpbm takes decimal digits only
        img_path = tmp_path / "odd.pgm"
        img_path.write_bytes(header + bytes(10))
        code = run(["predict", "--model", str(tiny_checkpoint), "--image", str(img_path),
                    "--out", str(tmp_path / "map")])
        err = capsys.readouterr().err
        assert code == 2
        assert err.count("\n") == 1 and "non-numeric" in err, err


class TestEvaluate:
    @pytest.fixture
    def prediction(self, tiny_checkpoint, tmp_path):
        img_path = tmp_path / "input.pgm"
        rng = np.random.default_rng(5)
        save_pgm(GrayImage(rng.uniform(0.1, 0.9, (96, 96))), img_path)
        prefix = tmp_path / "map"
        assert run(["predict", "--model", str(tiny_checkpoint), "--image", str(img_path),
                    "--stride", "16", "--out", str(prefix)]) == 0
        return prefix

    def test_report_written(self, prediction, tmp_path, capsys):
        gt = tmp_path / "gt.csv"
        rng = np.random.default_rng(1)
        lines = ["row,col,threshold_db"]
        for r in range(2):
            for c in range(2):
                lines.append(f"{r},{c},{-20 + 5 * rng.uniform():.3f}")
        gt.write_text("\n".join(lines) + "\n")
        report = tmp_path / "report.json"
        code = run(["evaluate", "--pred", str(prediction), "--gt", str(gt),
                    "--band", "0,255", "--out", str(report)])
        assert code == 0
        blob = json.loads(report.read_text())
        assert {"plcc_raw", "plcc_fitted", "rmse_fitted", "n_kept"} <= set(blob)
        out = capsys.readouterr().out
        assert "plcc_fitted" in out

    @pytest.mark.parametrize(
        "suffix, corrupt",
        [
            (".csv", lambda text: "x" + text),
            (".json", lambda text: text[: len(text) // 2]),
            (".json", lambda text: json.dumps(
                {k: v for k, v in json.loads(text).items() if k != "patch_size"})),
            (".json", lambda text: json.dumps(
                {**json.loads(text), "mean_luminance": [[128.0, 128.0], [128.0, 128.0]]})),
            (".json", lambda text: json.dumps({**json.loads(text), "mean_luminance": [["a"]]})),
            (".json", lambda text: json.dumps(
                {k: v for k, v in json.loads(text).items() if k != "mean_luminance"})),
            (".json", lambda text: json.dumps({**json.loads(text), "mean_luminance": None})),
        ],
        ids=["csv_non_numeric_cell", "sidecar_not_json", "sidecar_missing_patch_size",
             "sidecar_luminance_shape", "sidecar_luminance_not_numeric",
             "sidecar_missing_luminance", "sidecar_null_luminance"],
    )
    def test_malformed_map_is_data_error(self, prediction, tmp_path, capsys, suffix, corrupt):
        bad = prediction.with_name(prediction.name + suffix)
        bad.write_text(corrupt(bad.read_text()))
        gt = tmp_path / "gt.csv"
        gt.write_text("row,col,threshold_db\n0,0,-20\n0,1,-18\n1,0,-17\n1,1,-15\n")
        code = run(["evaluate", "--pred", str(prediction), "--gt", str(gt),
                    "--out", str(tmp_path / "r.json")])
        assert code == 2
        assert str(bad) in capsys.readouterr().err

    def test_non_utf8_groundtruth_is_data_error(self, prediction, tmp_path, capsys):
        gt = tmp_path / "gt.csv"
        gt.write_bytes(b"row,col,threshold_db\n0,0,\xff\n0,1,-18\n1,0,-17\n1,1,-15\n")
        code = run(["evaluate", "--pred", str(prediction), "--gt", str(gt),
                    "--out", str(tmp_path / "r.json")])
        assert code == 2
        assert str(gt) in capsys.readouterr().err

    def test_finer_gt_than_map_is_data_error(self, prediction, tmp_path, capsys):
        gt = tmp_path / "gt.csv"
        lines = ["row,col,threshold_db"]
        for r in range(9):
            for c in range(9):
                lines.append(f"{r},{c},{-15.0 + r + c}")
        gt.write_text("\n".join(lines) + "\n")
        code = run(["evaluate", "--pred", str(prediction), "--gt", str(gt),
                    "--out", str(tmp_path / "r.json")])
        assert code == 2
        err = capsys.readouterr().err
        assert "target grid 9x9 exceeds source" in err
        assert "smaller stride" in err

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize(
        "cell, map_cell, n",
        [
            (lambda r, c: (-1) ** (r + c) * 1.7e308, None, 5),
            (lambda r, c: 1e300 * (1.0 + 0.1 * r - 0.05 * c), None, 5),
            (lambda r, c: -15.0 + r + 0.5 * c + 0.1 * r * c, lambda r, c: 1.7e308 * (1.0 - 0.01 * (r + c)), 5),
            (lambda r, c: -15.0 + r + 0.5 * c, lambda r, c: 1.7e308 * (1.0 - 0.01 * (r + c)), 2),
        ],
        ids=["near_max_alternating", "squares_overflow", "map_near_max", "map_bin_sums_overflow"],
    )
    def test_overflowing_groundtruth_is_data_error(self, prediction, tmp_path, capsys, cell, map_cell, n):
        # an n x n ground truth: at n = 5 it matches the 5x5 map, so the
        # values reach the fit as they are; at n = 2 the map's 2x2 bin means
        # are taken first.  map_cell, if given, overwrites the map's values.
        if map_cell is not None:
            rows = [",".join(repr(map_cell(r, c)) for c in range(5)) for r in range(5)]
            prediction.with_name(prediction.name + ".csv").write_text("\n".join(rows) + "\n")
        gt = tmp_path / "gt.csv"
        lines = ["row,col,threshold_db"]
        lines += [f"{r},{c},{cell(r, c)!r}" for r in range(n) for c in range(n)]
        gt.write_text("\n".join(lines) + "\n")
        report = tmp_path / "r.json"
        code = run(["evaluate", "--pred", str(prediction), "--gt", str(gt),
                    "--band", "0,255", "--out", str(report)])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("data error:") and err.count("\n") == 1
        assert not report.exists()

    def test_default_band_after_an_explicit_band(self, prediction, tmp_path):
        gt = tmp_path / "gt.csv"
        gt.write_text("row,col,threshold_db\n0,0,-20\n0,1,-18\n1,0,-17\n1,1,-15\n")
        base = ["evaluate", "--pred", str(prediction), "--gt", str(gt)]
        assert run(base + ["--band", "0,255", "--out", str(tmp_path / "wide.json")]) == 0
        assert run(base + ["--out", str(tmp_path / "default.json")]) == 0
        assert json.loads((tmp_path / "wide.json").read_text())["band"] == [0.0, 255.0]
        default = json.loads((tmp_path / "default.json").read_text())["band"]
        assert default == list(DEFAULT_LUMINANCE_BAND)

    def test_bad_band_is_usage_error(self, prediction, tmp_path):
        code = run(["evaluate", "--pred", str(prediction), "--gt", str(tmp_path / "gt.csv"),
                    "--band", "nope", "--out", str(tmp_path / "r.json")])
        assert code == 1

    def test_nan_band_is_usage_error(self, prediction, tmp_path, capsys):
        code = run(["evaluate", "--pred", str(prediction), "--gt", str(tmp_path / "gt.csv"),
                    "--band", "nan,5", "--out", str(tmp_path / "r.json")])
        assert code == 1
        assert capsys.readouterr().err.startswith("usage error: --band")


class TestGradcheckCommand:
    def test_passes_and_prints(self, capsys):
        assert run(["gradcheck", "--seed", "1"]) == 0
        out = capsys.readouterr().out
        assert "max relative error" in out and "0 refined" in out and "pass" in out

    def test_failure_maps_to_exit_3(self, monkeypatch, capsys):
        def fake_gradcheck(seed=1):
            return GradCheckReport(seed=seed, n_coords=1, max_rel_error=1.0, passed=False)

        monkeypatch.setattr(cli, "gradcheck", fake_gradcheck)
        assert run(["gradcheck"]) == 3

    def test_negative_seed_is_data_error(self, capsys):
        assert run(["gradcheck", "--seed", "-1"]) == 2
        assert "seed" in capsys.readouterr().err


class TestHistogramCommand:
    def test_writes_counts(self, tiny_dataset, tmp_path, capsys):
        out = tmp_path / "hist.csv"
        code = run(["histogram", "--manifest", str(tiny_dataset / "manifest.csv"),
                    "--out", str(out)])
        assert code == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "bin,count"
        assert len(lines) == 257
        total = sum(int(line.split(",")[1]) for line in lines[1:])
        # each manifest row is its own 32x32 distorted patch image -> 1 patch per row
        assert total == 2 * 9 * 4

    def test_non_utf8_manifest_is_data_error(self, tmp_path, capsys):
        manifest = tmp_path / "m.csv"
        row = b"ref/\xff\xfe.pgm,dist/a.pgm,0.5,0,1,higher_is_worse"
        manifest.write_bytes(MANIFEST_HEADER.encode() + b"\n" + row + b"\n")
        code = run(["histogram", "--manifest", str(manifest), "--out", str(tmp_path / "h.csv")])
        assert code == 2
        assert str(manifest) in capsys.readouterr().err


class TestManifestPairErrors:
    @pytest.mark.parametrize("command", ["train", "histogram"])
    @pytest.mark.parametrize(
        "ref_shape, dist_shape",
        [((20, 40), (20, 40)), ((40, 31), (40, 31)), ((64, 64), (64, 60))],
        ids=["small", "narrow", "mismatch"],
    )
    def test_error_names_distorted_image(self, tmp_path, capsys, command, ref_shape, dist_shape):
        save_pgm(GrayImage(np.full(ref_shape, 0.5)), tmp_path / "ref.pgm")
        save_pgm(GrayImage(np.full(dist_shape, 0.4)), tmp_path / "bad_dist.pgm")
        manifest = tmp_path / "m.csv"
        manifest.write_text(MANIFEST_HEADER + "\nref.pgm,bad_dist.pgm,0.5,0,1,higher_is_worse\n")
        code = run([command, "--manifest", str(manifest), "--out", str(tmp_path / "out"),
                    *(["--epochs", "1"] if command == "train" else [])])
        assert code == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("data error: ")
        assert "bad_dist.pgm" in err[0]


class TestUsage:
    def test_unknown_flag(self):
        assert run(["gradcheck", "--bogus"]) == 1

    def test_unknown_subcommand(self):
        assert run(["frobnicate"]) == 1

    def test_missing_required_flag(self):
        assert run(["synth"]) == 1

    def test_help_exits_zero(self, capsys):
        assert run(["--help"]) == 0
        assert "synth" in capsys.readouterr().out


class TestParserReuse:
    def test_parser_built_once_per_process(self, monkeypatch, capsys):
        built, build = [], cli.build_parser

        def counting_build_parser():
            built.append(build())
            return built[-1]

        monkeypatch.setattr(cli, "_parser", None)
        monkeypatch.setattr(cli, "build_parser", counting_build_parser)
        assert run(["synth"]) == 1
        assert run(["--help"]) == 0
        assert run(["gradcheck", "--bogus"]) == 1
        assert len(built) == 1 and cli._parser is built[0]

    def test_usage_error_then_help_then_valid_call(self, capsys):
        assert run(["gradcheck", "--seed", "x"]) == 1
        assert "usage error" in capsys.readouterr().err
        assert run(["--help"]) == 0
        assert "gradcheck" in capsys.readouterr().out
        assert run(["gradcheck", "--seed", "1"]) == 0
        out = capsys.readouterr().out
        assert "max relative error" in out and "0 refined" in out and "pass" in out
