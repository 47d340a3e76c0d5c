"""Grayscale image I/O, dataset manifests, and quality-score normalization.

Images are binary PGM (P5, 8-bit) only, loaded bit-exactly: each sample is
divided by 255 so all luminance values live in [0, 1] as float64.  Datasets
are described by a CSV manifest pairing reference and distorted images with
a raw quality score and its range/polarity; `normalize_score` maps every
score onto [0, 1] with 0 = imperceptible distortion.
"""

from __future__ import annotations

import csv
import functools
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import DataError

MANIFEST_HEADER = ("reference", "distorted", "raw_score", "score_min", "score_max", "polarity")
POLARITIES = ("higher_is_worse", "higher_is_better")


@dataclass(frozen=True, eq=False)
class GrayImage:
    """Single-channel luminance raster with values in [0, 1], shape (height, width)."""

    pixels: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.pixels, dtype=np.float64)
        if arr.ndim != 2 or arr.shape[0] < 1 or arr.shape[1] < 1:
            raise DataError(f"image must be a non-empty 2-D array, got shape {arr.shape}")
        if not np.all(np.isfinite(arr)):
            raise DataError("image contains non-finite values")
        if arr.min() < 0.0 or arr.max() > 1.0:
            raise DataError("image values must lie in [0, 1]")
        arr = arr.copy()
        arr.flags.writeable = False
        object.__setattr__(self, "pixels", arr)

    @property
    def height(self) -> int:
        return self.pixels.shape[0]

    @property
    def width(self) -> int:
        return self.pixels.shape[1]


@dataclass(frozen=True)
class ManifestRecord:
    """One dataset row: an image pair plus its raw score and score scale."""

    reference_path: Path
    distorted_path: Path
    raw_score: float
    score_min: float
    score_max: float
    polarity: str

    def __post_init__(self):
        if self.polarity not in POLARITIES:
            raise DataError(f"unknown polarity {self.polarity!r}, expected one of {POLARITIES}")
        if not self.score_min < self.score_max:
            raise DataError(f"score_min must be < score_max, got [{self.score_min}, {self.score_max}]")
        if not self.score_min <= self.raw_score <= self.score_max:
            raise DataError(
                f"raw_score {self.raw_score} outside range [{self.score_min}, {self.score_max}]"
            )


@dataclass(frozen=True, eq=False)
class QualityRecord:
    """Loaded image pair with its normalized quality target (0 = best, 1 = worst)."""

    reference: GrayImage
    distorted: GrayImage
    q_global: float

    def __post_init__(self):
        if self.reference.pixels.shape != self.distorted.pixels.shape:
            raise DataError(
                f"reference {self.reference.pixels.shape} and distorted "
                f"{self.distorted.pixels.shape} dimensions differ"
            )
        if not 0.0 <= self.q_global <= 1.0:
            raise DataError(f"q_global {self.q_global} outside [0, 1]")


def _read_header_token(data: bytes, pos: int) -> tuple[bytes, int]:
    """Return the next whitespace-delimited header token, skipping '#' comments."""
    n = len(data)
    while pos < n:
        c = data[pos : pos + 1]
        if c == b"#":
            while pos < n and data[pos : pos + 1] not in (b"\n", b"\r"):
                pos += 1
        elif c.isspace():
            pos += 1
        else:
            break
    start = pos
    while pos < n and not data[pos : pos + 1].isspace() and data[pos : pos + 1] != b"#":
        pos += 1
    if start == pos:
        raise DataError("truncated PGM header")
    return data[start:pos], pos


def load_pgm(path) -> GrayImage:
    """Load a binary 8-bit PGM (P5, maxval 255) as a GrayImage.

    Each 8-bit sample is divided by 255 exactly.  Header comments are
    accepted on read; files we write never contain them.
    """
    data = Path(path).read_bytes()
    magic, pos = _read_header_token(data, 0)
    if magic != b"P5":
        raise DataError(f"{path}: unsupported format {magic!r}, only binary PGM (P5) is accepted")
    fields = []
    for name in ("width", "height", "maxval"):
        token, pos = _read_header_token(data, pos)
        try:
            fields.append(int(token))
        except ValueError:
            raise DataError(f"{path}: malformed PGM header, non-numeric {name} {token!r}") from None
    width, height, maxval = fields
    if width <= 0 or height <= 0:
        raise DataError(f"{path}: zero or negative dimensions {width}x{height}")
    if maxval != 255:
        raise DataError(f"{path}: unsupported maxval {maxval}, expected 255")
    pos += 1  # single whitespace byte after maxval
    raster = data[pos : pos + width * height]
    if len(raster) < width * height:
        raise DataError(f"{path}: truncated pixel data, expected {width * height} bytes")
    pixels = np.frombuffer(raster, dtype=np.uint8).astype(np.float64).reshape(height, width) / 255.0
    return GrayImage(pixels)


def save_pgm(img: GrayImage, path) -> None:
    """Write a GrayImage as binary PGM, quantizing with round-half-up to 8 bits."""
    pixels = img.pixels
    quantized = np.floor(pixels * 255.0 + 0.5).astype(np.uint8)
    header = f"P5\n{pixels.shape[1]} {pixels.shape[0]}\n255\n".encode("ascii")
    Path(path).write_bytes(header + quantized.tobytes())


def _nul_free_lines(fh, path: Path):
    """The file's lines, rejecting a NUL byte before the csv module sees it
    (Python 3.10's reader raises on one, later ones accept it)."""
    for lineno, line in enumerate(fh, 1):
        if "\0" in line:
            raise DataError(f"{path}:{lineno}: NUL byte")
        yield line


def read_csv_rows(path: Path) -> list[tuple[int, list[str]]]:
    """(line number, row) pairs of a UTF-8 CSV file without NUL bytes.

    Blank lines and lines starting with '#' are skipped; the line number is
    the file's own, so error messages can name it.
    """
    try:
        with path.open(newline="", encoding="utf-8") as fh:
            reader = csv.reader(_nul_free_lines(fh, path))
            return [
                (reader.line_num, row)
                for row in reader
                if row and not row[0].lstrip().startswith("#")
            ]
    except UnicodeDecodeError as exc:
        raise DataError(f"{path}: not UTF-8 text ({exc.reason})") from None
    except csv.Error as exc:  # e.g. a field over csv.field_size_limit()
        raise DataError(f"{path}:{reader.line_num}: malformed CSV ({exc})") from None


def load_manifest(path) -> list[ManifestRecord]:
    """Parse a dataset manifest CSV into records.

    The header must be exactly ``reference,distorted,raw_score,score_min,
    score_max,polarity``; lines starting with '#' are ignored.  Image paths
    are resolved relative to the manifest's directory.
    """
    path = Path(path)
    base = path.parent
    rows = read_csv_rows(path)
    if not rows:
        raise DataError(f"{path}: empty manifest, missing header")
    header = tuple(cell.strip() for cell in rows[0][1])
    if header != MANIFEST_HEADER:
        raise DataError(f"{path}: bad manifest header {header}, expected {MANIFEST_HEADER}")
    records = []
    for lineno, row in rows[1:]:
        if len(row) != len(MANIFEST_HEADER):
            raise DataError(f"{path}:{lineno}: expected {len(MANIFEST_HEADER)} columns, got {len(row)}")
        ref, dist, raw, lo, hi, polarity = (cell.strip() for cell in row)
        try:
            raw_f, lo_f, hi_f = float(raw), float(lo), float(hi)
        except ValueError:
            raise DataError(f"{path}:{lineno}: unparsable number in {row}") from None
        records.append(
            ManifestRecord(
                reference_path=base / ref,
                distorted_path=base / dist,
                raw_score=raw_f,
                score_min=lo_f,
                score_max=hi_f,
                polarity=polarity,
            )
        )
    return records


def normalize_score(rec: ManifestRecord) -> float:
    """Map a raw score onto [0, 1] with 0 = best quality, 1 = worst."""
    frac = (rec.raw_score - rec.score_min) / (rec.score_max - rec.score_min)
    return frac if rec.polarity == "higher_is_worse" else 1.0 - frac


def load_quality_records(manifest_path) -> list[QualityRecord]:
    """Load every manifest row into memory with its normalized quality target.

    Each distinct image path is read once; the records that name it share
    one (read-only) GrayImage.
    """
    load = functools.cache(load_pgm)
    return [
        QualityRecord(
            reference=load(rec.reference_path),
            distorted=load(rec.distorted_path),
            q_global=normalize_score(rec),
        )
        for rec in load_manifest(manifest_path)
    ]


def write_manifest(records: list[dict], path) -> None:
    """Write manifest rows (dicts keyed by the manifest columns) as CSV."""
    path = Path(path)
    lines = [",".join(MANIFEST_HEADER)]
    for rec in records:
        lines.append(
            ",".join(
                [
                    str(rec["reference"]),
                    str(rec["distorted"]),
                    repr(float(rec["raw_score"])),
                    repr(float(rec["score_min"])),
                    repr(float(rec["score_max"])),
                    rec["polarity"],
                ]
            )
        )
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
