import hashlib
import zlib

import numpy as np
import pytest

from divcontrol.checkpoint import (
    FORMAT_VERSION,
    CheckpointState,
    load_checkpoint,
    save_checkpoint,
)
from divcontrol.errors import CheckpointError

ARRAYS = {"weights": np.arange(6, dtype=np.float64).reshape(2, 3) / 7,
          "steps/count": np.array([3, -1], dtype=np.int64)}
META = {"config_text": "seed = 0\n"}


@pytest.fixture(scope="module")
def blob(tmp_path_factory):
    path = tmp_path_factory.mktemp("ckpt") / "small.divc"
    save_checkpoint(path, CheckpointState(step=12, arrays=ARRAYS, meta=META))
    return path.read_bytes()


def load_bytes(tmp_path, data):
    path = tmp_path / "mutated.divc"
    path.write_bytes(data)
    return load_checkpoint(path)


def checked_spans(data):
    """Byte ranges of every payload followed by its CRC-32."""
    payloads = [a.astype(a.dtype.newbyteorder("<")).tobytes() for a in ARRAYS.values()]
    payloads += [t.encode("utf-8") for t in META.values()]
    spans = []
    for p in payloads:
        start = data.index(p)
        spans.append(range(start, start + len(p) + 4))
    return spans


def test_round_trip(tmp_path, blob):
    state = load_bytes(tmp_path, blob)
    assert state.step == 12
    assert state.meta == META
    for name, arr in ARRAYS.items():
        assert np.array_equal(state.arrays[name], arr)
        assert state.arrays[name].dtype == arr.dtype


def test_truncation_at_every_byte_raises(tmp_path, blob):
    for n in range(len(blob)):
        with pytest.raises(CheckpointError):
            load_bytes(tmp_path, blob[:n])


def test_single_byte_flips_raise_only_checkpoint_errors(tmp_path, blob):
    # the step, block names and dtype tags lie outside every checksum and
    # may flip silently; everything else must either load or raise
    # CheckpointError
    spans = checked_spans(blob)
    for pos in range(len(blob)):
        for mask in (0x01, 0x80, 0xFF):
            data = bytearray(blob)
            data[pos] ^= mask
            try:
                load_bytes(tmp_path, bytes(data))
            except CheckpointError:
                continue
            assert not any(pos in span for span in spans), (pos, mask)


@pytest.mark.parametrize("version", [1, 3])
def test_other_format_versions_raise(tmp_path, blob, version):
    # the version follows the magic; a reader of one version reads no other
    assert int.from_bytes(blob[4:8], "little") == FORMAT_VERSION == 2
    data = blob[:4] + version.to_bytes(4, "little") + blob[8:]
    with pytest.raises(CheckpointError, match=f"version {version}.* version 2"):
        load_bytes(tmp_path, data)


def test_unknown_dtype_tag_raises(tmp_path, blob):
    # the tag byte follows the first block's name
    name = next(iter(ARRAYS)).encode("utf-8")
    tag_pos = blob.index(name) + len(name)
    assert blob[tag_pos] == 0
    data = bytearray(blob)
    data[tag_pos] = 128
    with pytest.raises(CheckpointError, match="dtype tag"):
        load_bytes(tmp_path, bytes(data))


def test_non_utf8_block_name_raises(tmp_path, blob):
    name = next(iter(ARRAYS)).encode("utf-8")
    data = bytearray(blob)
    data[blob.index(name)] = 0xFF
    with pytest.raises(CheckpointError, match="UTF-8"):
        load_bytes(tmp_path, bytes(data))


def test_non_utf8_meta_payload_with_valid_checksum_raises(tmp_path, blob):
    # a payload corrupted before its CRC was taken passes the checksum
    text = META["config_text"].encode("utf-8")
    bad = b"\xff" + text[1:]
    start = blob.index(text)
    crc = zlib.crc32(bad).to_bytes(4, "little")
    data = blob[:start] + bad + crc + blob[start + len(text) + 4:]
    with pytest.raises(CheckpointError, match="block 'meta/config_text' is not UTF-8"):
        load_bytes(tmp_path, data)


def test_repeated_block_name_raises(tmp_path, blob):
    # a second 'weights' block with other values and its own valid CRC,
    # and a block count that includes it, would replace the first one
    name = next(iter(ARRAYS)).encode("utf-8")
    start = blob.index(name) - 2          # the u16 name length
    payload = ARRAYS["weights"].astype("<f8").tobytes()
    end = blob.index(payload)
    other = (2 * ARRAYS["weights"]).astype("<f8").tobytes()
    copy = blob[start:end] + other + zlib.crc32(other).to_bytes(4, "little")
    count = int.from_bytes(blob[16:20], "little")   # after magic, version, step
    data = blob[:16] + (count + 1).to_bytes(4, "little") + blob[20:] + copy
    with pytest.raises(CheckpointError, match="more than once"):
        load_bytes(tmp_path, data)


def test_odd_layouts_and_zero_size_blocks_write_pinned_bytes(tmp_path):
    # payloads are written as views of the arrays' bytes; the file must be
    # the same whatever the layout, zero-size blocks included
    base = np.arange(24, dtype=np.float64).reshape(2, 3, 4) / 7
    arrays = {"empty": np.zeros(0), "empty/2d": np.zeros((3, 0)),
              "empty/i64": np.zeros((0, 2), np.int64), "scalar": np.array(2.5),
              "f_order": np.asfortranarray(base), "reversed": base[::-1, :, ::-2],
              "ints": np.array([3, -1, 2**62])}
    path = tmp_path / "odd.divc"
    save_checkpoint(path, CheckpointState(step=7, arrays=arrays,
                                          meta={"a": "", "config_text": "seed = 0\n"}))
    assert hashlib.sha256(path.read_bytes()).hexdigest() == (
        "72d167c4cf9ec54114cf7ed534986e62564f72b695a14611450f4accb343f904")
    state = load_checkpoint(path)
    for name, arr in arrays.items():
        assert state.arrays[name].shape == arr.shape
        assert np.array_equal(state.arrays[name], arr), name
