"""The pipeline's input files, each behind one reader that checks its kind
and values and names the file in every error: `read_image` (a 3-channel P6
image), `read_label` (a 1-channel P5 label map) and `read_prob` (a float64
sidecar told by its magic, else a 1-channel P5 scaled by 1/255).  Formats are
header-plus-raw with maxval 255, so round trips are bit-exact.  A raster's
header is scanned from the open file a byte at a time, and its checked
payload is read straight into the pixel array.  `write_prob` writes the 8-bit
PGM and, where exact values matter, the sidecar beside it.
"""

from __future__ import annotations

import os
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

PROB_MAGIC = b"LGPROB1\x00"  # padded to 8 bytes; header is 16 bytes with extents
RASTER_MAGIC = {1: b"P5", 3: b"P6"}  # channel count -> raster magic


class DataError(ValueError):
    """Malformed or inconsistent data file."""


@dataclass
class Raster:
    """8-bit image, row-major, channel-interleaved; channels is 1 or 3."""

    width: int
    height: int
    channels: int
    pixels: np.ndarray  # (H, W, C) uint8

    def __post_init__(self):
        if self.channels not in RASTER_MAGIC:
            raise DataError(f"raster must have 1 or 3 channels, got {self.channels}")
        if self.width <= 0 or self.height <= 0:
            raise DataError(f"raster extents must be positive, got {self.width}x{self.height}")
        if self.pixels.shape != (self.height, self.width, self.channels):
            raise DataError("pixel buffer shape does not match declared extents")
        if self.pixels.dtype != np.uint8:
            raise DataError("pixels must be uint8")


@dataclass
class LabelMap:
    """Per-pixel binary labels; 1 marks object pixels."""

    width: int
    height: int
    labels: np.ndarray  # (H, W) uint8 in {0, 1}

    def __post_init__(self):
        if self.width <= 0 or self.height <= 0:
            raise DataError("label map extents must be positive")
        if self.labels.shape != (self.height, self.width):
            raise DataError("label buffer shape does not match declared extents")
        # two bool maps at most, where np.isin sorted and copied the map
        binary = self.labels == 0
        binary |= self.labels == 1
        if not binary.all():
            raise DataError("labels must be 0/1")


def _header(fh, path) -> tuple:
    """(tokens, offset): the four header tokens, read from fh one byte at a
    time, and the payload offset just past the byte after maxval, which must
    be whitespace.  A byte that is neither whitespace nor '#' extends the
    current token; '#' starts a comment that runs to CR, LF or end of file."""
    tokens, token = [], bytearray()
    while True:
        c = fh.read(1)
        if c and not c.isspace() and c != b"#":
            token += c
            continue
        if token:
            tokens.append(bytes(token))
            token.clear()
            if len(tokens) == 4:
                if not c.isspace():
                    raise DataError(f"{path}: missing whitespace after maxval")
                return tokens, fh.tell()
        if c == b"#":
            while c not in (b"\n", b"\r", b""):
                c = fh.read(1)
        if not c:
            raise DataError(f"{path}: truncated header")


def read_raster(path) -> Raster:
    """Parse a binary P5/P6 file with maxval 255.  The header is read from
    the open file one byte at a time (_header); the payload is checked
    against the file size, then read straight into the pixel array."""
    with open(path, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size
        tokens, offset = _header(fh, path)
        channels = {magic: c for c, magic in RASTER_MAGIC.items()}.get(tokens[0])
        if channels is None:
            raise DataError(f"{path}: unsupported magic {tokens[0]!r} (want P5 or P6)")
        try:
            width, height, maxval = (int(t) for t in tokens[1:])
        except ValueError as exc:
            raise DataError(f"{path}: non-numeric header field") from exc
        if width <= 0 or height <= 0:
            raise DataError(f"{path}: non-positive extents {width}x{height}")
        if maxval != 255:
            raise DataError(f"{path}: maxval must be 255, got {maxval}")
        need, have = width * height * channels, size - offset
        if have < need:
            raise DataError(f"{path}: truncated payload ({have} of {need} bytes)")
        if have > need:
            raise DataError(f"{path}: {have - need} trailing bytes after payload")
        pixels = np.empty((height, width, channels), dtype=np.uint8)
        got = fh.readinto(pixels.reshape(-1))
        if got != need:  # a file that shrank while it was read
            raise DataError(f"{path}: truncated payload ({got} of {need} bytes)")
    return Raster(width, height, channels, pixels)


def write_raster(raster: Raster, path) -> None:
    """Canonical header (single spaces, newlines) followed by the raw payload,
    written from the pixels' own buffer."""
    header = RASTER_MAGIC[raster.channels] + f"\n{raster.width} {raster.height}\n255\n".encode()
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(np.ascontiguousarray(raster.pixels, dtype=np.uint8))


def read_image(path, channels: int = 3) -> Raster:
    """A raster with `channels` channels: 3 (a P6 image) or 1 (a P5 map)."""
    img = read_raster(path)
    if img.channels != channels:
        raise DataError(f"{path}: need a {channels}-channel ({RASTER_MAGIC[channels].decode()}) "
                        f"image, got {img.channels} channel{'s' if img.channels > 1 else ''}")
    return img


def read_label(path) -> LabelMap:
    """A 1-channel map as binary labels; >= 128 counts as object."""
    img = read_image(path, channels=1)
    return LabelMap(img.width, img.height, (img.pixels[..., 0] >= 128).astype(np.uint8))


def write_label(labels: LabelMap, path) -> None:
    """Labels as a viewable P5 image: 1 -> 255."""
    pixels = (labels.labels * np.uint8(255))[..., None]
    write_raster(Raster(labels.width, labels.height, 1, pixels), path)


def unit_array(values, what: str = "probabilities") -> np.ndarray:
    """values as a float64 array, rejected unless every one is finite and in
    [0, 1] (NaN fails both comparisons, so it is rejected too)."""
    values = np.asarray(values, dtype=np.float64)
    if not np.all((values >= 0.0) & (values <= 1.0)):
        raise DataError(f"{what} must be finite and lie in [0, 1]")
    return values


def prob_to_raster(prob: np.ndarray) -> Raster:
    """Quantise probabilities to 8 bits: round(p * 255), rounded in place."""
    prob = unit_array(prob)
    q = prob * 255.0
    q = np.rint(q, out=q).astype(np.uint8)
    h, w = prob.shape
    return Raster(w, h, 1, q[..., None])


def write_prob_sidecar(prob: np.ndarray, path) -> None:
    """Exact float64 map: 16-byte header (magic, u32 height, u32 width), then
    row-major little-endian payload, written from the map's own buffer when
    it is already a contiguous little-endian float64 array."""
    prob = np.asarray(prob, dtype=np.float64)
    if prob.ndim != 2 or 0 in prob.shape:
        raise DataError(f"probability map must be 2-D with positive extents, got {prob.shape}")
    h, w = prob.shape
    with open(path, "wb") as fh:
        fh.write(PROB_MAGIC)
        fh.write(struct.pack("<II", h, w))
        fh.write(np.ascontiguousarray(prob, dtype="<f8"))


def read_prob_sidecar(path) -> np.ndarray:
    """The float64 map of a sidecar.  The header is checked against the file
    size before the payload is read straight into the returned array."""
    with open(path, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size
        header = fh.read(16)
        if not header.startswith(PROB_MAGIC):
            raise DataError(f"{path}: not a probability sidecar")
        if len(header) < 16:
            raise DataError(f"{path}: truncated header")
        h, w = struct.unpack("<II", header[8:16])
        if h == 0 or w == 0:
            raise DataError(f"{path}: non-positive extents {h}x{w}")
        if size != 16 + 8 * h * w:
            raise DataError(f"{path}: payload size mismatch")
        prob = np.empty((h, w), dtype="<f8")
        if fh.readinto(prob.reshape(-1).view(np.uint8)) != 8 * h * w:  # shrank while read
            raise DataError(f"{path}: payload size mismatch")
    return prob.astype(np.float64, copy=False)


def read_prob(path) -> np.ndarray:
    """The exact floats of a sidecar (told by its magic, not its name), or else a
    1-channel map scaled by 1/255; rejected unless every value is finite and in [0, 1]."""
    with open(path, "rb") as fh:
        sidecar = fh.read(len(PROB_MAGIC)) == PROB_MAGIC
    if sidecar:
        prob = read_prob_sidecar(path)
    else:
        prob = read_image(path, channels=1).pixels[..., 0].astype(np.float64) / 255.0
    return unit_array(prob, f"{path}: probabilities")


def write_prob(prob: np.ndarray, out: Path, stem: str, sidecar: bool) -> list:
    """The 8-bit PGM of a probability map and, with `sidecar`, the exact
    float map beside it; returns the paths written."""
    paths = [out / f"{stem}.pgm"]
    write_raster(prob_to_raster(prob), paths[0])
    if sidecar:
        paths.append(out / f"{stem}.lgprob")
        write_prob_sidecar(prob, paths[1])
    return paths
