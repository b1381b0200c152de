"""PGM/PPM and probability-sidecar round-trip tests."""

import re
import struct
import tracemalloc

import numpy as np
import pytest

from lgseg import raster
from lgseg.raster import DataError, LabelMap, Raster
from lgseg.rng import SplitMix64


def test_p5_scan_order(tmp_path):
    p = tmp_path / "t.pgm"
    p.write_bytes(b"P5\n2 2\n255\n" + bytes([0, 64, 128, 255]))
    r = raster.read_raster(p)
    assert (r.width, r.height, r.channels) == (2, 2, 1)
    assert r.pixels[..., 0].tolist() == [[0, 64], [128, 255]]


def test_p6_round_trip_byte_identical(tmp_path):
    rng = SplitMix64(0)
    pixels = (rng.uniform(0, 256, (32, 48, 3)).astype(np.uint8))
    r = Raster(48, 32, 3, pixels)
    p1, p2 = tmp_path / "a.ppm", tmp_path / "b.ppm"
    raster.write_raster(r, p1)
    raster.write_raster(raster.read_raster(p1), p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_comments_and_whitespace_canonicalised(tmp_path):
    payload = bytes(range(6))
    messy = tmp_path / "messy.pgm"
    messy.write_bytes(b"P5 # magic\n# a comment line\n 3\t2 # dims\n255\n" + payload)
    r = raster.read_raster(messy)
    clean = tmp_path / "clean.pgm"
    raster.write_raster(r, clean)
    assert clean.read_bytes() == b"P5\n3 2\n255\n" + payload


def test_zero_extent_rejected(tmp_path):
    p = tmp_path / "z.pgm"
    p.write_bytes(b"P5\n0 0\n255\n")
    with pytest.raises(DataError):
        raster.read_raster(p)


def test_bad_maxval_rejected(tmp_path):
    p = tmp_path / "m.pgm"
    p.write_bytes(b"P5\n2 2\n65535\n" + bytes(8))
    with pytest.raises(DataError):
        raster.read_raster(p)


def test_truncated_payload_rejected(tmp_path):
    p = tmp_path / "t.pgm"
    p.write_bytes(b"P5\n4 4\n255\n" + bytes(7))
    with pytest.raises(DataError):
        raster.read_raster(p)


def test_trailing_bytes_rejected(tmp_path):
    p = tmp_path / "t.pgm"
    p.write_bytes(b"P5\n2 2\n255\n" + bytes(9))
    with pytest.raises(DataError):
        raster.read_raster(p)


def test_unknown_magic_rejected(tmp_path):
    p = tmp_path / "t.pbm"
    p.write_bytes(b"P4\n2 2\n")
    with pytest.raises(DataError):
        raster.read_raster(p)


def read_raster_reference(path):
    """The whole-file reader: the file read at once, its header parsed from
    the start, and the pixels copied out of the payload slice."""
    with open(path, "rb") as fh:
        blob = fh.read()
    tokens, i = [], 0
    while len(tokens) < 4:
        if i >= len(blob):
            raise DataError(f"{path}: truncated header")
        c = blob[i:i + 1]
        if c == b"#":
            while i < len(blob) and blob[i:i + 1] not in (b"\n", b"\r"):
                i += 1
        elif c.isspace():
            i += 1
        else:
            j = i
            while j < len(blob) and not blob[j:j + 1].isspace() and blob[j:j + 1] != b"#":
                j += 1
            tokens.append(blob[i:j])
            i = j
    if i >= len(blob) or not blob[i:i + 1].isspace():
        raise DataError(f"{path}: missing whitespace after maxval")
    channels = {b"P5": 1, b"P6": 3}.get(tokens[0])
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
    need = width * height * channels
    payload = blob[i + 1:]
    if len(payload) < need:
        raise DataError(f"{path}: truncated payload ({len(payload)} of {need} bytes)")
    if len(payload) > need:
        raise DataError(f"{path}: {len(payload) - need} trailing bytes after payload")
    pixels = np.frombuffer(payload, dtype=np.uint8).reshape(height, width, channels)
    return Raster(width, height, channels, pixels.copy())


def raster_outcome(read, path):
    try:
        r = read(path)
    except DataError as exc:
        return str(exc)
    return (r.width, r.height, r.channels, r.pixels.shape, r.pixels.tobytes())


def raster_blobs():
    """Whole files and every prefix of them: comments and whitespace of every
    kind, headers that cross the 64- and 128-byte reads, '#' right after
    maxval, bad magic, maxval and extents, and trailing bytes."""
    long = b"# " + b"x" * 150 + b"\n"
    wholes = [
        b"P5\n2 2\n255\n" + bytes([0, 64, 128, 255]),
        b"P6\n2 1\n255\n" + bytes(range(6)),
        b"P5 # magic\n# a comment line\n 3\t2 # dims\n255\r" + bytes(range(6)),
        b"P5" + b" " * 61 + b"12 1\n255\n" + bytes(12),  # width straddles byte 64
        b"P5\n" + long + b"1 1\n" + long + b"255\x0b" + b"\x07",
        b"P5\n1 1\n" + b" " * 54 + b"255\n\x01",  # maxval ends at byte 63
        b"P5\n1 1\n" + b" " * 55 + b"255\n\x01",  # its whitespace is byte 64
        b"P5\n1 1\n255#x\n\x01",
        b"P5\n1 1\n255\n\x01\x02",
        b"P4\n1 1\n255\n\x01",
        b"P5\n1 x\n255\n\x01",
        b"P5\n0 1\n255\n",
        b"P5\n1 1\n65535\n\x00\x01",
    ]
    blobs = set()
    for whole in wholes:
        blobs.update(whole[:n] for n in range(len(whole) + 1))
    return sorted(blobs)


def test_read_raster_matches_the_whole_file_reader(tmp_path):
    p = tmp_path / "r.pgm"
    outcomes = set()
    for blob in raster_blobs():
        p.write_bytes(blob)
        got = raster_outcome(raster.read_raster, p)
        assert got == raster_outcome(read_raster_reference, p), blob
        outcomes.add(got if isinstance(got, str) else "read")
    kinds = {re.sub(r"^\S+: ", "", o).split(" (")[0].split(",")[0] for o in outcomes}
    assert {"read", "truncated header", "missing whitespace after maxval",
            "non-numeric header field", "maxval must be 255", "truncated payload",
            "1 trailing bytes after payload", "non-positive extents 0x1",
            "unsupported magic b'P4'"} <= kinds


def test_reading_a_512_p6_holds_its_pixels_once(tmp_path):
    # the payload is read straight into the pixel array; the whole file,
    # a slice of it and a copy held it three times over (2.25 MiB)
    img = Raster(512, 512, 3, SplitMix64(7).uniform(0, 256, (512, 512, 3)).astype(np.uint8))
    p = tmp_path / "i.ppm"
    raster.write_raster(img, p)
    back = []
    peak = traced_peak(lambda: back.append(raster.read_raster(p)))
    margin = 64 << 10
    assert peak < img.pixels.nbytes + margin, (peak, img.pixels.nbytes)
    assert back[0].pixels.tobytes() == img.pixels.tobytes()
    assert back[0].pixels.flags.writeable and back[0].pixels.flags.c_contiguous


@pytest.mark.parametrize("dtype", [np.uint8, np.int8, np.int16, np.int64, np.uint64,
                                   np.float32, np.float64, np.bool_])
def test_label_check_rejects_what_isin_rejects(dtype):
    values = {"u": [0, 1, 2, 255], "i": [0, 1, -1, 2, 127], "b": [False, True],
              "f": [0, 1, -0.0, 0.5, np.nan, np.inf, -np.inf, 1.0000001, -1]}[np.dtype(dtype).kind]
    for a in values:
        for b in values:
            labels = np.array([[0, a], [b, 1]]).astype(dtype)
            accepted = bool(np.isin(labels, (0, 1)).all())
            try:
                LabelMap(2, 2, labels)
            except DataError as exc:
                assert not accepted and str(exc) == "labels must be 0/1", (a, b)
            else:
                assert accepted, (a, b)


def test_label_check_of_a_512_map_holds_two_bool_maps():
    # np.isin peaked at 3.0 MiB, 12 times the 256 KiB map
    labels = (SplitMix64(8).uniform(0, 1, (512, 512)) > 0.5).astype(np.uint8)
    peak = traced_peak(lambda: LabelMap(512, 512, labels))
    assert peak < 2 * labels.size + (16 << 10), peak


def test_label_round_trip(tmp_path):
    rng = SplitMix64(1)
    lab = LabelMap(20, 10, (rng.uniform(0, 1, (10, 20)) > 0.7).astype(np.uint8))
    p = tmp_path / "lab.pgm"
    raster.write_label(lab, p)
    back = raster.read_label(p)
    assert np.array_equal(back.labels, lab.labels)


def test_prob_sidecar_exact(tmp_path):
    rng = SplitMix64(2)
    prob = rng.uniform(0, 1, (17, 23))
    p = tmp_path / "prob.lgprob"
    raster.write_prob_sidecar(prob, p)
    back = raster.read_prob_sidecar(p)
    assert back.shape == (17, 23)
    assert np.array_equal(back, prob)
    assert back.tobytes() == prob.tobytes()


def traced_peak(call) -> int:
    """The peak bytes tracemalloc sees NumPy and Python allocate in call()."""
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_reading_a_512_sidecar_holds_one_map(tmp_path):
    # the payload is read straight into the returned map; reading the whole
    # file and converting it held the map two and three times over
    prob = SplitMix64(3).uniform(0, 1, (512, 512))
    p = tmp_path / "prob.lgprob"
    raster.write_prob_sidecar(prob, p)
    back = []
    peak = traced_peak(lambda: back.append(raster.read_prob_sidecar(p)))
    margin = 64 << 10
    assert peak < prob.nbytes + margin, (peak, prob.nbytes)
    assert back[0].dtype == np.float64 and back[0].tobytes() == prob.tobytes()


def test_writers_write_from_the_arrays_own_buffers(tmp_path):
    # no whole-payload copy: a .tobytes() would add 768 KiB for the image,
    # and astype plus .tobytes() 4 MiB for the map
    prob = SplitMix64(4).uniform(0, 1, (512, 512))
    img = Raster(512, 512, 3, SplitMix64(5).uniform(0, 256, (512, 512, 3)).astype(np.uint8))
    margin = 64 << 10
    assert traced_peak(lambda: raster.write_prob_sidecar(prob, tmp_path / "p.lgprob")) < margin
    assert traced_peak(lambda: raster.write_raster(img, tmp_path / "i.ppm")) < margin
    assert (tmp_path / "i.ppm").read_bytes() == b"P6\n512 512\n255\n" + img.pixels.tobytes()


@pytest.mark.parametrize("layout", ["transposed", "big-endian", "float32"])
def test_prob_sidecar_bytes_do_not_depend_on_the_maps_layout(tmp_path, layout):
    prob = SplitMix64(6).uniform(0, 1, (7, 5))
    given = {"transposed": np.ascontiguousarray(prob.T).T,
             "big-endian": prob.astype(">f8"),
             "float32": prob.astype(np.float32)}[layout]
    want = prob.astype(np.float32).astype(np.float64) if layout == "float32" else prob
    p = tmp_path / "prob.lgprob"
    raster.write_prob_sidecar(given, p)
    assert p.read_bytes() == (raster.PROB_MAGIC + struct.pack("<II", 7, 5)
                              + want.astype("<f8").tobytes())


def test_prob_sidecar_header_is_16_bytes(tmp_path):
    p = tmp_path / "prob.lgprob"
    raster.write_prob_sidecar(np.zeros((2, 3)), p)
    blob = p.read_bytes()
    assert blob[:8] == b"LGPROB1\x00"
    assert len(blob) == 16 + 8 * 6


def test_prob_sidecar_corrupt_rejected(tmp_path):
    p = tmp_path / "bad.lgprob"
    p.write_bytes(b"LGPROB1\x00" + b"\x00" * 4)
    with pytest.raises(DataError):
        raster.read_prob_sidecar(p)


@pytest.mark.parametrize("shape", [(0, 5), (5, 0)])
def test_prob_sidecar_empty_extent_rejected(tmp_path, shape):
    p = tmp_path / "empty.lgprob"
    p.write_bytes(b"LGPROB1\x00" + struct.pack("<II", *shape))
    with pytest.raises(DataError, match="non-positive extents"):
        raster.read_prob_sidecar(p)


@pytest.mark.parametrize("shape", [(0, 5), (5, 0), (0, 0)])
def test_prob_sidecar_write_rejects_empty_extent(tmp_path, shape):
    p = tmp_path / "empty.lgprob"
    with pytest.raises(DataError, match="positive extents"):
        raster.write_prob_sidecar(np.zeros(shape), p)
    assert not p.exists()


@pytest.mark.parametrize("bad", [np.nan, np.inf, -0.25, 1.5])
def test_prob_quantisation_rejects_bad_probabilities(bad):
    prob = np.array([[0.0, 0.5, bad]])
    with pytest.raises(DataError, match=r"finite and lie in \[0, 1\]"):
        raster.prob_to_raster(prob)


def test_quantising_a_512_map_holds_one_float_map():
    # p * 255 is rounded in place: np.rint of it held a second float map (4.0 MiB)
    prob = SplitMix64(9).uniform(0, 1, (512, 512))
    r = []
    peak = traced_peak(lambda: r.append(raster.prob_to_raster(prob)))
    assert peak < prob.nbytes + (1 << 20), (peak, prob.nbytes)
    assert r[0].pixels[..., 0].tobytes() == np.rint(prob * 255.0).astype(np.uint8).tobytes()


def test_prob_quantisation_round_trip(tmp_path):
    prob = np.array([[0.0, 0.5, 1.0]])
    r = raster.prob_to_raster(prob)
    assert r.pixels[..., 0].tolist() == [[0, 128, 255]]
    p = tmp_path / "prob.pgm"
    raster.write_raster(r, p)
    back = raster.read_prob(p)
    assert np.allclose(back, [[0.0, 128 / 255, 1.0]])


@pytest.mark.parametrize("channels", [1, 3])
def test_read_image_names_file_and_both_channel_counts(tmp_path, channels):
    # the other kind of file: a P5 where a P6 is wanted, and the reverse
    have = 4 - channels
    p = tmp_path / "img"
    raster.write_raster(Raster(3, 2, have, np.zeros((2, 3, have), np.uint8)), p)
    magic = "P6" if channels == 3 else "P5"
    with pytest.raises(DataError) as exc:
        raster.read_image(p, channels)
    assert str(exc.value) == (f"{p}: need a {channels}-channel ({magic}) image, "
                              f"got {have} channel{'s' if have == 3 else ''}")
    assert raster.read_image(p, have).channels == have


def test_read_label_rejects_three_channels_naming_file(tmp_path):
    p = tmp_path / "labels.ppm"
    raster.write_raster(Raster(3, 2, 3, np.zeros((2, 3, 3), np.uint8)), p)
    with pytest.raises(DataError, match=rf"^{re.escape(str(p))}: need a 1-channel \(P5\)"):
        raster.read_label(p)


@pytest.mark.parametrize("bad", [np.nan, -np.inf, -0.25, 1.5])
def test_read_prob_rejects_bad_sidecar_values_naming_file(tmp_path, bad):
    p = tmp_path / "bad.lgprob"
    raster.write_prob_sidecar(np.array([[0.0, 0.5, bad]]), p)
    with pytest.raises(DataError, match=rf"^{re.escape(str(p))}: probabilities must be finite"):
        raster.read_prob(p)


def test_read_prob_tells_a_sidecar_by_its_magic_not_its_name(tmp_path):
    prob = np.array([[0.0, 0.1, 1.0]])
    written = raster.write_prob(prob, tmp_path, "map", sidecar=True)
    assert [p.name for p in written] == ["map.pgm", "map.lgprob"]
    assert raster.read_prob(tmp_path / "map.lgprob").tobytes() == prob.tobytes()
    assert raster.read_prob(tmp_path / "map.pgm").tolist() == [[0.0, 26 / 255, 1.0]]
    # a sidecar under another name is still a sidecar, and a P5 under the
    # sidecar suffix still a PGM
    (tmp_path / "map.bin").write_bytes((tmp_path / "map.lgprob").read_bytes())
    assert raster.read_prob(tmp_path / "map.bin").tobytes() == prob.tobytes()
    (tmp_path / "pgm.lgprob").write_bytes((tmp_path / "map.pgm").read_bytes())
    assert raster.read_prob(tmp_path / "pgm.lgprob").tolist() == [[0.0, 26 / 255, 1.0]]


@pytest.mark.parametrize("blob, reason", [
    (raster.PROB_MAGIC + b"\x01\x00", "truncated header"),
    (raster.PROB_MAGIC + struct.pack("<II", 1, 2) + b"\x00" * 8, "payload size mismatch"),
    (raster.PROB_MAGIC + struct.pack("<II", 1, 2) + b"\x00" * 24, "payload size mismatch"),
    (b"", "truncated header"),
], ids=["sidecar-header", "sidecar-payload", "sidecar-trailing", "empty"])
def test_read_prob_names_the_file_whatever_it_holds(tmp_path, blob, reason):
    p = tmp_path / "map.bin"
    p.write_bytes(blob)
    with pytest.raises(DataError, match=rf"^{re.escape(str(p))}: {reason}"):
        raster.read_prob(p)
