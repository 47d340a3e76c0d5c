"""Corrupted inputs reach every CLI loader and end in a documented exit code.

Each example takes one pristine input file, truncates it at a random
offset, flips one byte or replaces it with random bytes, and runs the
command that reads it.  `cli.run` must return 0, 2 (data error) or
3 (numeric failure), never raise.  The synthetic oracle, which no command
reads, is fuzzed the same way through `load_oracle`: it returns or raises
DataError.
"""

import shutil

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from visthresh.cli import run
from visthresh.errors import DataError
from visthresh.image_io import GrayImage, save_pgm, write_manifest
from visthresh.inference import export_map, predict_map
from visthresh.regressor import init_params, save_checkpoint
from visthresh.synthetic import load_oracle

# {d} is the directory holding the inputs
PREDICT = ["predict", "--model", "{d}/model.vth", "--image", "{d}/img.pgm", "--out", "{d}/out"]
EVALUATE = ["evaluate", "--pred", "{d}/map", "--gt", "{d}/gt.csv", "--out", "{d}/report.json"]
HISTOGRAM = ["histogram", "--manifest", "{d}/manifest.csv", "--out", "{d}/hist.csv"]

# target file -> the command that loads it
TARGETS = {
    "img.pgm": PREDICT,
    "model.vth": PREDICT,
    "manifest.csv": HISTOGRAM,
    "map.csv": EVALUATE,
    "map.json": EVALUATE,
    "gt.csv": EVALUATE,
}


@pytest.fixture(scope="module")
def pristine(tmp_path_factory):
    """Directory of valid inputs: every command in TARGETS exits 0 on it."""
    root = tmp_path_factory.mktemp("pristine")
    rng = np.random.default_rng(0)
    img = GrayImage(rng.uniform(0.1, 0.9, (48, 48)))
    save_pgm(img, root / "img.pgm")
    save_pgm(GrayImage(rng.uniform(0.1, 0.9, (32, 32))), root / "ref.pgm")
    save_pgm(GrayImage(rng.uniform(0.1, 0.9, (32, 32))), root / "dist.pgm")
    write_manifest(
        [{"reference": "ref.pgm", "distorted": "dist.pgm", "raw_score": 0.4,
          "score_min": 0.0, "score_max": 1.0, "polarity": "higher_is_worse"}],
        root / "manifest.csv",
    )
    params = init_params(0)
    save_checkpoint(params, {"seed": 0}, root / "model.vth")
    export_map(predict_map(img, params, 4), root / "map")  # 5x5 cells
    lines = ["row,col,threshold_db"] + [
        f"{r},{c},{-20.0 + r - 0.5 * c + 0.25 * r * c}" for r in range(3) for c in range(3)
    ]
    (root / "gt.csv").write_text("\n".join(lines) + "\n", encoding="utf-8")
    (root / "oracle.csv").write_text(
        "patch_id,t_star\nimg0000_r000_c000,0.0731\nimg0000_r000_c016,0.11250000000000002\n",
        encoding="utf-8",
    )
    for argv in (PREDICT, EVALUATE, HISTOGRAM):
        assert run([a.format(d=root) for a in argv]) == 0
    return root


@st.composite
def corrupted(draw, blob: bytes) -> bytes:
    kind = draw(st.sampled_from(["truncate", "flip", "random"]))
    if kind == "truncate":
        return blob[: draw(st.integers(0, len(blob) - 1))]
    if kind == "flip":
        i = draw(st.integers(0, len(blob) - 1))
        return blob[:i] + bytes([blob[i] ^ draw(st.integers(1, 255))]) + blob[i + 1 :]
    return draw(st.binary(max_size=512))


@pytest.mark.parametrize("target", sorted(TARGETS))
@settings(max_examples=50, deadline=None, derandomize=True)
@given(data=st.data())
def test_corrupt_input_exits_cleanly(pristine, tmp_path_factory, target, data):
    blob = (pristine / target).read_bytes()
    work = tmp_path_factory.getbasetemp() / f"fuzz-{target}"
    shutil.rmtree(work, ignore_errors=True)
    shutil.copytree(pristine, work)
    (work / target).write_bytes(data.draw(corrupted(blob)))
    assert run([a.format(d=work) for a in TARGETS[target]]) in (0, 2, 3)


@settings(max_examples=50, deadline=None, derandomize=True)
@given(data=st.data())
def test_corrupt_oracle_loads_or_is_data_error(pristine, tmp_path_factory, data):
    path = tmp_path_factory.getbasetemp() / "fuzz-oracle.csv"
    path.write_bytes(data.draw(corrupted((pristine / "oracle.csv").read_bytes())))
    try:
        load_oracle(path)
    except DataError:
        pass
