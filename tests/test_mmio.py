import io
import os
import threading
import tracemalloc

import numpy as np
import pytest

from saddleqr import DenseMatrix, Vector, matrix2
from saddleqr import mmio
from saddleqr.mmio import MatrixMarketError, read_matrix, read_vector, write_matrix, write_vector
from saddleqr.rng import standard_normals


def test_round_trip_bit_exact(tmp_path):
    for seed in range(5):
        m = DenseMatrix(standard_normals(seed, 12).reshape(4, 3) * 10.0 ** (seed - 2))
        path = tmp_path / f"m{seed}.mtx"
        write_matrix(path, m)
        back = read_matrix(path)
        assert np.array_equal(back.array, m.array)


def test_round_trip_extreme_values(tmp_path):
    m = DenseMatrix([[1e-308, -1e308], [3.141592653589793, -0.0]])
    path = tmp_path / "x.mtx"
    write_matrix(path, m)
    assert np.array_equal(read_matrix(path).array, m.array)


def test_file_layout_is_column_major(tmp_path):
    m = DenseMatrix([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]])
    path = tmp_path / "layout.mtx"
    write_matrix(path, m)
    lines = path.read_text().splitlines()
    assert lines[0] == "%%MatrixMarket matrix array real general"
    assert lines[1] == "2 3"
    assert [float(v) for v in lines[2:]] == [1.0, 4.0, 2.0, 5.0, 3.0, 6.0]


def test_vector_round_trip(tmp_path):
    v = Vector(standard_normals(9, 7))
    path = tmp_path / "v.mtx"
    write_vector(path, v)
    assert np.array_equal(read_vector(path).array, v.array)


def test_read_vector_rejects_matrix(tmp_path):
    path = tmp_path / "m.mtx"
    write_matrix(path, DenseMatrix(np.eye(2)))
    with pytest.raises(MatrixMarketError, match="1-column"):
        read_vector(path)


def test_comments_and_blank_lines_tolerated(tmp_path):
    path = tmp_path / "c.mtx"
    path.write_text(
        "%%MatrixMarket matrix array real general\n"
        "% a comment\n\n"
        "2 1\n"
        "1.5\n"
        "% inline comment line\n"
        "-2.5\n"
    )
    assert np.array_equal(read_matrix(path).array, [[1.5], [-2.5]])


@pytest.mark.parametrize(
    "content,fragment",
    [
        ("%%MatrixMarket matrix coordinate real general\n1 1 1\n1 1 2.0\n", ":1:"),
        ("%%MatrixMarket matrix array real general\n2\n1.0\n2.0\n", "rows cols"),
        ("%%MatrixMarket matrix array real general\n2 1\n1.0\nbogus\n", ":4:"),
        ("%%MatrixMarket matrix array real general\n2 1\n1.0\n", "expected 2 entries"),
        ("%%MatrixMarket matrix array real general\n1 1\nnan\n", "non-finite"),
        ("%%MatrixMarket matrix array real general\n0 2\n", "positive"),
        ("", ":1: empty file"),
        ("%%MatrixMarket matrix array real general\n2 x\n1.0\n2.0\n", ":2: non-integer"),
        ("%%MatrixMarket matrix array real general\n% no sizes\n", ":2: missing dimensions"),
        ("%%MatrixMarket matrix array real general\n1 1\n\xe91.0\n", ":3: not UTF-8 text"),
        # Errors come in line order: the header before a later undecodable byte.
        ("%%MatrixMarket matrix coordinate real general\n1 1\n\xe9\n", ":1: expected header"),
        ("%%MatrixMarket matrix array real general\n2 1\n1.0\n2.0\n3.0\n",
         ":5: expected 2 entries for 2x1, got 3"),
        # A false dimensions line is reported, not allocated: 8 TB of entries.
        ("%%MatrixMarket matrix array real general\n1000000 1000000\n1.0\n",
         ":3: expected 1000000000000 entries"),
    ],
)
def test_parse_errors_name_file_and_line(tmp_path, content, fragment):
    path = tmp_path / "bad.mtx"
    path.write_bytes(content.encode("latin-1"))  # one byte a character: "\xe9" is not UTF-8
    with pytest.raises(MatrixMarketError, match=fragment) as exc:
        read_matrix(path)
    assert str(path) in str(exc.value)


def test_missing_file_raises():
    with pytest.raises(FileNotFoundError):
        read_matrix("/nonexistent/nowhere.mtx")


def test_each_line_ending_reads_to_the_same_bytes(tmp_path):
    m = DenseMatrix(standard_normals(3, 3600).reshape(60, 60))  # 83 kB: more than one block
    path = tmp_path / "m.mtx"
    write_matrix(path, m)
    text = path.read_bytes()
    for end in (b"\r\n", b"\r"):
        path.write_bytes(text.replace(b"\n", end))
        assert read_matrix(path).array.tobytes() == m.array.tobytes()


@pytest.mark.parametrize("block", [1, 2, 3, 5, 64])
def test_lines_cut_where_splitlines_cuts(monkeypatch, block):
    # Small blocks cut between the CR and the LF of a line end, and after a CR.
    monkeypatch.setattr(mmio, "_BLOCK", block)
    alphabet = np.frombuffer(b"ab \r\n", dtype=np.uint8)
    for seed in range(50):
        data = alphabet[(standard_normals(seed, 40) * 1e6).astype(np.int64) % 5].tobytes()
        assert list(mmio._lines(io.BytesIO(data))) == data.splitlines(), data


def test_read_peak_memory_is_a_few_copies_of_the_matrix(tmp_path):
    # At n = 300 (0.69 MiB of entries) the reader that split the whole file
    # into line and float lists first peaked at 12.18 MiB; the one-pass
    # reader peaks at 1.46 MiB, the parsed array and its row-major copy.
    path = tmp_path / "m300.mtx"
    write_matrix(path, matrix2(300, 4.0, 1))
    tracemalloc.start()
    try:
        read_matrix(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 3 * 300 * 300 * 8, peak


def test_reads_from_a_pipe(tmp_path):
    # A pipe (a shell's process substitution, say) reports no size to bound the entries by.
    m = DenseMatrix(standard_normals(4, 6).reshape(3, 2))
    source, fifo = tmp_path / "m.mtx", tmp_path / "fifo"
    write_matrix(source, m)
    os.mkfifo(fifo)
    writer = threading.Thread(target=lambda: fifo.write_bytes(source.read_bytes()), daemon=True)
    writer.start()
    try:
        assert read_matrix(fifo).array.tobytes() == m.array.tobytes()
    finally:
        writer.join(timeout=10)
    assert not writer.is_alive()
