import numpy as np
import pytest

from saddleqr import DenseMatrix, Vector
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
