"""Binary dataset/model formats and text artifacts (CSV, SVG)."""

import struct
import tracemalloc

import numpy as np
import pytest

from chanchart import fileio
from chanchart.encoder import EncoderParams, MlpParams, init_random, mlp_init
from chanchart.fileio import (
    READ_ROWS,
    FileFormatError,
    RowReader,
    MAGIC_DATASET,
    MAGIC_MODEL,
    SEGMENT_COLORS,
    chart_csv,
    chart_svg,
    loss_csv,
    read_dataset,
    read_model,
    write_dataset,
    write_dataset_blocks,
    write_model,
    write_text,
)
from chanchart.rng import SplitMix64
from chanchart.synthgen import ChannelSet
from helpers import ccd1_bytes


def _random_channelset(n=7, m=5, p=2, seed=0):
    rng = SplitMix64(seed)
    re = rng.uniforms(n * m).reshape(n, m) - 0.5
    im = rng.uniforms(n * m).reshape(n, m) - 0.5
    pos = rng.uniforms(n * p).reshape(n, p) * 10.0
    return ChannelSet(channels=re + 1j * im, positions=pos, sample_rate=3.0)


# ---------------------------------------------------------------------------
# dataset round trips


def test_dataset_round_trip_bit_exact(tmp_path):
    cs = _random_channelset()
    path = str(tmp_path / "d.bin")
    write_dataset(path, cs)
    back = read_dataset(path, sample_rate=3.0)
    assert np.array_equal(back.channels, cs.channels)
    assert back.channels.dtype == np.complex128
    assert np.array_equal(back.positions, cs.positions)
    assert back.sample_rate == 3.0


def test_dataset_round_trip_3d_positions(tmp_path):
    cs = _random_channelset(p=3)
    path = str(tmp_path / "d.bin")
    write_dataset(path, cs)
    back = read_dataset(path)
    assert back.positions.shape == (7, 3)
    assert np.array_equal(back.positions, cs.positions)
    assert back.sample_rate == 7.0  # default when not passed


def test_dataset_header_layout(tmp_path):
    cs = _random_channelset(n=3, m=2)
    path = str(tmp_path / "d.bin")
    write_dataset(path, cs)
    raw = open(path, "rb").read()
    assert raw[:4] == MAGIC_DATASET
    n, m, p = struct.unpack_from("<3Q", raw, 4)
    assert (n, m, p) == (3, 2, 2)
    # positions then interleaved re/im channel doubles, little-endian
    assert len(raw) == 4 + 24 + 8 * (3 * 2) + 8 * (3 * 2 * 2)
    first_pos = struct.unpack_from("<d", raw, 28)[0]
    assert first_pos == cs.positions[0, 0]
    off = 28 + 8 * 6
    re0, im0 = struct.unpack_from("<2d", raw, off)
    assert re0 == cs.channels[0, 0].real and im0 == cs.channels[0, 0].imag


def test_dataset_rejects_corruption(tmp_path):
    cs = _random_channelset()
    path = str(tmp_path / "d.bin")
    write_dataset(path, cs)
    raw = open(path, "rb").read()

    bad_magic = tmp_path / "bad_magic.bin"
    bad_magic.write_bytes(b"XXXX" + raw[4:])
    with pytest.raises(FileFormatError, match="magic"):
        read_dataset(str(bad_magic))

    truncated = tmp_path / "trunc.bin"
    truncated.write_bytes(raw[:-9])
    with pytest.raises(FileFormatError):
        read_dataset(str(truncated))

    trailing = tmp_path / "trail.bin"
    trailing.write_bytes(raw + b"\x00")
    with pytest.raises(FileFormatError, match="trailing"):
        read_dataset(str(trailing))

    empty = tmp_path / "empty.bin"
    empty.write_bytes(b"")
    with pytest.raises(FileFormatError):
        read_dataset(str(empty))


def test_dataset_rejects_implausible_header(tmp_path):
    path = tmp_path / "bad.bin"
    path.write_bytes(MAGIC_DATASET + struct.pack("<3Q", 2, 3, 4))
    with pytest.raises(FileFormatError, match="implausible"):
        read_dataset(str(path))
    path.write_bytes(MAGIC_DATASET + struct.pack("<3Q", 0, 3, 2))
    with pytest.raises(FileFormatError, match="implausible"):
        read_dataset(str(path))


@pytest.mark.parametrize("n, m, p", [(2, 3, 4), (0, 3, 2), (2, 0, 2)], ids=["P4", "N0", "M0"])
def test_writer_refuses_a_header_the_reader_refuses(tmp_path, n, m, p):
    # no file is made, not even the temporary one
    path = tmp_path / "d.bin"
    with pytest.raises(ValueError, match=f"implausible header N={n} M={m} P={p}"):
        write_dataset_blocks(str(path), np.zeros((n, p)), m, [np.zeros((n, m), complex)])
    with pytest.raises(ValueError, match="implausible header"):
        write_dataset(str(path), ChannelSet(channels=np.zeros((n, m), complex),
                                            positions=np.zeros((n, p))))
    assert list(tmp_path.iterdir()) == []


def _signed_zero_channelset():
    """Channels whose entries include -0.0, subnormal and extreme finite parts."""
    cs = _random_channelset(n=5, m=4, p=3, seed=11)
    ch = cs.channels.copy()
    ch[0, 0] = complex(-0.0, -0.0)
    ch[1, 1] = complex(0.0, -0.0)
    ch[2, 2] = complex(-0.0, 5e-324)
    ch[3, 3] = complex(-1.7976931348623157e308, 2.2250738585072014e-308)
    return ChannelSet(channels=ch, positions=cs.positions, sample_rate=3.0)


def test_write_dataset_matches_reference_writer(tmp_path):
    cs = _signed_zero_channelset()
    path = tmp_path / "d.bin"
    write_dataset(str(path), cs)
    assert path.read_bytes() == ccd1_bytes(cs.channels, cs.positions)
    # non-contiguous inputs are written in row-major order all the same
    strided = ChannelSet(channels=np.asfortranarray(cs.channels),
                         positions=np.asfortranarray(cs.positions))
    write_dataset(str(path), strided)
    assert path.read_bytes() == ccd1_bytes(cs.channels, cs.positions)


def test_read_dataset_returns_the_files_doubles(tmp_path):
    cs = _signed_zero_channelset()
    path = tmp_path / "d.bin"
    path.write_bytes(ccd1_bytes(cs.channels, cs.positions))
    back = read_dataset(str(path))
    assert back.channels.dtype == np.complex128
    assert back.channels.flags.c_contiguous and back.channels.flags.writeable
    assert back.positions.flags.c_contiguous and back.positions.flags.writeable
    # bit patterns, so the sign of every zero counts
    assert np.array_equal(back.channels.view(np.uint64), cs.channels.view(np.uint64))
    assert np.array_equal(back.positions.view(np.uint64), cs.positions.view(np.uint64))


@pytest.mark.parametrize("where, value", [("channels", np.nan), ("channels", -np.inf),
                                          ("positions", np.inf), ("positions", np.nan)])
def test_dataset_rejects_non_finite_values(tmp_path, where, value):
    cs = _random_channelset()
    if where == "channels":
        cs.channels[3, 2] = complex(0.5, value)
    else:
        cs.positions[6, 1] = value
    path = str(tmp_path / "d.bin")
    write_dataset(path, cs)
    with pytest.raises(FileFormatError, match=f"non-finite value in {where}"):
        read_dataset(path)


def _assert_rejected_without_allocating(read, path, match):
    tracemalloc.start()
    try:
        with pytest.raises(FileFormatError, match=match):
            read(str(path))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_header_claiming_terabytes_is_rejected_before_allocating(tmp_path):
    # 92 bytes whose header implies 8 * 2^40 * (2 + 2^21) bytes of payload
    path = tmp_path / "huge.bin"
    path.write_bytes(MAGIC_DATASET + struct.pack("<3Q", 1 << 40, 1 << 20, 2) + bytes(64))
    assert path.stat().st_size == 92
    _assert_rejected_without_allocating(read_dataset, path, "truncated")

    path.write_bytes(MAGIC_MODEL + struct.pack("<5Q", 0, 1 << 30, 1 << 30, 2, 5) + bytes(64))
    _assert_rejected_without_allocating(read_model, path, "truncated")

    path.write_bytes(MAGIC_MODEL + struct.pack("<5Q", 1, 2, 1 << 40, 1 << 40, 2) + bytes(64))
    _assert_rejected_without_allocating(read_model, path, "truncated")


# ---------------------------------------------------------------------------
# row-selective reads and block-streamed writes


@pytest.mark.parametrize("choice", ["sorted", "unsorted", "repeated", "none", "all"])
def test_row_selective_read_returns_exactly_the_chosen_rows(tmp_path, choice):
    # 150 rows: two full READ_ROWS blocks and a short third one
    n = 150
    assert n > 2 * READ_ROWS and n % READ_ROWS
    cs = _random_channelset(n=n, m=3, seed=4)
    path = str(tmp_path / "d.bin")
    write_dataset(path, cs)
    rows = {"sorted": np.array([0, 5, 63, 64, 127, 128, 149]),
            "unsorted": SplitMix64(9).sample(n, 40),  # smart-init atom order
            "repeated": np.array([149, 3, 3, 64, 0, 149]),
            "none": np.array([], dtype=np.int64),
            "all": np.arange(n)}[choice]
    asked = []
    with RowReader(path, check=lambda n_rows, m: asked.append((n_rows, m))) as data:
        assert asked == [(n, 3)] and data.shape == (n, 3)
        back = data[rows]
        assert np.array_equal(data.positions, cs.positions)
    assert back.dtype == np.complex128 and back.flags.c_contiguous
    assert back.shape == (rows.size, 3)
    assert np.array_equal(back.view(np.uint64), cs.channels[rows].view(np.uint64))


def test_row_reader_reads_the_rows_read_dataset_returns(tmp_path):
    cs = _signed_zero_channelset()
    path = str(tmp_path / "d.bin")
    write_dataset(path, cs)
    idx = np.array([4, 0, 4, 2])
    with RowReader(path) as data:
        back = data[idx]
    assert np.array_equal(back, read_dataset(path).channels[idx])
    assert np.array_equal(back.view(np.uint64), cs.channels[idx].view(np.uint64))


def test_row_selective_read_still_checks_every_row(tmp_path):
    cs = _random_channelset(n=150, m=3)
    cs.channels[140, 1] = complex(0.5, np.nan)  # in the last block, never read by index
    path = str(tmp_path / "d.bin")
    write_dataset(path, cs)
    with pytest.raises(FileFormatError, match="non-finite value in channels"):
        RowReader(path)
    with pytest.raises(FileFormatError, match="non-finite value in channels"):
        RowReader(path, check=lambda n, m: None)


def test_row_choice_is_checked_against_n(tmp_path):
    path = str(tmp_path / "d.bin")
    write_dataset(path, _random_channelset(n=7))
    with RowReader(path) as data:
        for rows in ([7], [-1], [[0, 1]], [0.0], [True], 3):
            with pytest.raises(ValueError, match="N=7"):
                data[rows]
        assert data[[]].shape == (0, 5)


def test_row_choice_that_raises_stops_before_any_channel_row(tmp_path):
    # a header claiming 2^16 rows of 2^10 entries over a sparse 1 GiB file
    path = tmp_path / "big.bin"
    n, m = 1 << 16, 1 << 10
    with open(path, "wb") as fh:
        fh.write(MAGIC_DATASET + struct.pack("<3Q", n, m, 2))
        fh.truncate(28 + 8 * n * (2 + 2 * m))

    def refuse(n_rows, m_entries):
        raise LookupError(f"refused N={n_rows} M={m_entries}")

    tracemalloc.start()
    try:
        with pytest.raises(LookupError, match=f"refused N={n} M={m}"):
            RowReader(str(path), check=refuse)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 8 * n * 2 + (1 << 20)  # the positions, and no channel buffer


def test_row_reader_catches_a_file_changed_after_opening(tmp_path):
    cs = _random_channelset(n=10, m=3)
    path = tmp_path / "d.bin"
    write_dataset(str(path), cs)
    size = path.stat().st_size
    with RowReader(str(path)) as data:
        with open(path, "r+b") as fh:  # a NaN in row 4's imaginary part
            fh.seek(size - 16 * 3 * 6 + 8)
            fh.write(struct.pack("<d", np.nan))
        assert np.array_equal(data[[3, 5]], cs.channels[[3, 5]])
        with pytest.raises(FileFormatError, match="d.bin: non-finite value in channels"):
            data[[3, 4]]
        path.write_bytes(path.read_bytes()[:size - 16 * 3 * 2])  # rows 8 and 9 cut
        assert np.array_equal(data[[7]], cs.channels[[7]])
        with pytest.raises(FileFormatError, match="truncated while reading channels "
                                                  r"\(wanted 96 bytes, got 48\)"):
            data[[7, 8]]


def _blocks(channels, size):
    for lo in range(0, channels.shape[0], size):
        yield channels[lo:lo + size]


@pytest.mark.parametrize("size", [1, 4, 7, 100])
def test_block_writer_matches_reference_writer(tmp_path, size):
    cs = _signed_zero_channelset()
    path = tmp_path / "d.bin"
    write_dataset_blocks(str(path), cs.positions, 4, _blocks(cs.channels, size))
    assert path.read_bytes() == ccd1_bytes(cs.channels, cs.positions)
    assert sorted(p.name for p in tmp_path.iterdir()) == ["d.bin"]


def test_failed_block_write_leaves_no_partial_file(tmp_path):
    cs = _random_channelset(n=10, m=3)
    path = tmp_path / "d.bin"

    def failing():
        yield cs.channels[:4]
        raise ValueError("block 2 failed")

    with pytest.raises(ValueError, match="block 2 failed"):
        write_dataset_blocks(str(path), cs.positions, 3, failing())
    assert list(tmp_path.iterdir()) == []
    # too few rows is refused too, and an existing file is left as it was
    path.write_bytes(b"before")
    with pytest.raises(ValueError, match="hold 12 entries, expected 10x3"):
        write_dataset_blocks(str(path), cs.positions, 3, _blocks(cs.channels[:4], 3))
    assert path.read_bytes() == b"before"
    assert [p.name for p in tmp_path.iterdir()] == ["d.bin"]


# ---------------------------------------------------------------------------
# model round trips


def test_hybrid_model_round_trip(tmp_path):
    model = init_random(12, 6, 3, 2, seed=1)
    path = str(tmp_path / "m.bin")
    write_model(path, model)
    back = read_model(path)
    assert isinstance(back, EncoderParams)
    assert back.k == model.k
    assert np.array_equal(back.d_re, model.d_re)
    assert np.array_equal(back.d_im, model.d_im)
    assert np.array_equal(back.z, model.z)


def test_mlp_model_round_trip(tmp_path):
    model = mlp_init(10, seed=2, hidden=(7, 4))
    path = str(tmp_path / "m.bin")
    write_model(path, model)
    back = read_model(path)
    assert isinstance(back, MlpParams)
    assert len(back.weights) == len(model.weights)
    for a, b in zip(back.weights, model.weights):
        assert np.array_equal(a, b)


def test_model_rejects_corruption(tmp_path):
    model = init_random(4, 3, 2, 2, seed=3)
    path = str(tmp_path / "m.bin")
    write_model(path, model)
    raw = open(path, "rb").read()

    bad = tmp_path / "bad.bin"
    bad.write_bytes(b"CCD1" + raw[4:])  # dataset magic on a model file
    with pytest.raises(FileFormatError, match="magic"):
        read_model(str(bad))

    bad.write_bytes(raw[:-1])
    with pytest.raises(FileFormatError):
        read_model(str(bad))

    bad.write_bytes(raw + b"\x01")
    with pytest.raises(FileFormatError, match="trailing"):
        read_model(str(bad))

    bad.write_bytes(MAGIC_MODEL + struct.pack("<Q", 9))
    with pytest.raises(FileFormatError, match="kind"):
        read_model(str(bad))

    # k > n_init is implausible
    bad.write_bytes(MAGIC_MODEL + struct.pack("<5Q", 0, 4, 3, 2, 5))
    with pytest.raises(FileFormatError, match="implausible"):
        read_model(str(bad))

    # an MLP input layer takes the stacked [Re; Im] channel, so its width is even
    write_model(str(bad), MlpParams(weights=[np.ones((3, 5)), np.ones((2, 3))]))
    with pytest.raises(FileFormatError, match="implausible layer dims"):
        read_model(str(bad))


@pytest.mark.parametrize("kind", ["hybrid", "mlp"])
def test_model_rejects_non_finite_weights(tmp_path, kind):
    if kind == "hybrid":
        model = init_random(4, 3, 2, 2, seed=3)
        model.z[1, 2] = np.nan
    else:
        model = mlp_init(6, seed=2, hidden=(5,))
        model.weights[1][0, 4] = -np.inf
    path = str(tmp_path / "m.bin")
    write_model(path, model)
    with pytest.raises(FileFormatError, match="non-finite"):
        read_model(path)


def test_write_model_rejects_unknown_type(tmp_path):
    with pytest.raises(TypeError):
        write_model(str(tmp_path / "m.bin"), object())


# ---------------------------------------------------------------------------
# text artifacts


def test_write_text_uses_lf_only(tmp_path):
    path = tmp_path / "t.csv"
    write_text(str(path), "a,b\n1,2\n")
    assert path.read_bytes() == b"a,b\n1,2\n"


@pytest.mark.parametrize("existing", [False, True])
def test_writes_failing_midway_leave_no_partial_file(tmp_path, monkeypatch, existing):
    # the model fails after its header and first array are written, the text
    # when encoding meets a lone surrogate, once the output file is open;
    # both take a path object as well as a string
    model_path, text_path = tmp_path / "m.bin", tmp_path / "t.csv"
    if existing:
        model_path.write_bytes(b"old model")
        text_path.write_bytes(b"old text")
    with pytest.raises(UnicodeEncodeError):
        write_text(text_path, "a,b\n\ud800\n")
    written = []

    def write_f64(fh, arr):
        if written:
            raise OSError("disk full")
        written.append(arr)
        fh.write(np.ascontiguousarray(arr, dtype="<f8"))
    monkeypatch.setattr(fileio, "_write_f64", write_f64)
    with pytest.raises(OSError, match="disk full"):
        write_model(model_path, init_random(4, 6, 2, 2, seed=1))
    assert len(written) == 1
    want = ["m.bin", "t.csv"] if existing else []
    assert sorted(p.name for p in tmp_path.iterdir()) == want
    if existing:
        assert model_path.read_bytes() == b"old model"
        assert text_path.read_bytes() == b"old text"


def test_chart_csv_content():
    chart = np.array([[0.5, -1.25], [2.0, 3.5]])
    pos = np.array([[10.0, 20.0], [30.0, 40.0]])
    text = chart_csv(chart, pos)
    lines = text.splitlines()
    assert lines[0] == "index,chart_x,chart_y,true_x,true_y"
    assert lines[1] == "0,0.5,-1.25,10.0,20.0"
    assert lines[2] == "1,2.0,3.5,30.0,40.0"
    assert text.endswith("\n")
    # repr round-trips doubles exactly, with no numpy scalar wrappers
    third = chart_csv(np.array([[1.0 / 3.0, 0.1]]), np.zeros((1, 2)))
    assert "np.float64" not in third
    assert float(third.splitlines()[1].split(",")[1]) == 1.0 / 3.0


def test_loss_csv_is_one_based():
    text = loss_csv([0.5, 0.25])
    assert text == "epoch,mean_loss\n1,0.5\n2,0.25\n"


def test_chart_svg_structure():
    rng = SplitMix64(4)
    chart = rng.uniforms(32).reshape(16, 2)
    svg = chart_svg(chart)
    assert svg.startswith("<svg ")
    assert svg.rstrip("\n").endswith("</svg>")
    assert 'width="640" height="640"' in svg
    assert svg.count("<circle") == 16
    for color in SEGMENT_COLORS:
        assert color in svg  # 16 points over 8 segments: every color used
    # deterministic output
    assert chart_svg(chart) == svg


def test_chart_svg_handles_degenerate_extent():
    svg = chart_svg(np.zeros((3, 2)))
    assert svg.count("<circle") == 3
    assert "nan" not in svg and "inf" not in svg
