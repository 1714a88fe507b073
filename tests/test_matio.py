import numpy as np
import pytest

from prune24.matio import (
    load_matrix,
    read_matrix,
    read_matrix_csv,
    save_matrix,
    write_matrix,
    write_matrix_csv,
)


def test_binary_roundtrip_bit_exact(tmp_path):
    rng = np.random.default_rng(0)
    mat = rng.normal(size=(3, 8))
    mat[0, 0] = -0.0
    mat[1, 2] = 1e-308
    mat[2, 7] = -1e300
    path = tmp_path / "m.bin"
    write_matrix(path, mat)
    back = read_matrix(path)
    assert back.shape == mat.shape
    assert mat.tobytes() == back.tobytes()


def test_bad_magic(tmp_path):
    path = tmp_path / "bad.bin"
    path.write_bytes(b"NOPE" + b"\x00" * 40)
    with pytest.raises(ValueError, match="bad magic"):
        read_matrix(path)


def test_truncated_header(tmp_path):
    path = tmp_path / "short.bin"
    path.write_bytes(b"PRX1\x01\x00")
    with pytest.raises(ValueError, match="truncated"):
        read_matrix(path)


def test_truncated_payload(tmp_path):
    path = tmp_path / "cut.bin"
    write_matrix(path, np.ones((2, 4)))
    data = path.read_bytes()
    path.write_bytes(data[:-9])
    with pytest.raises(ValueError, match="truncated"):
        read_matrix(path)


def test_trailing_payload_bytes(tmp_path):
    path = tmp_path / "long.bin"
    write_matrix(path, np.ones((2, 2)))
    path.write_bytes(path.read_bytes() + b"\x00" * 8)
    with pytest.raises(ValueError, match="trailing data"):
        read_matrix(path)


def test_csv_trailing_rows(tmp_path):
    path = tmp_path / "long.csv"
    path.write_text("1,2\n1.0,2.0\n3.0,4.0\n")
    with pytest.raises(ValueError, match="trailing data"):
        read_matrix_csv(path)


def test_csv_trailing_blank_lines_are_allowed(tmp_path):
    path = tmp_path / "blank.csv"
    path.write_text("1,2\n1.0,2.0\n\n  \n")
    assert np.array_equal(read_matrix_csv(path), [[1.0, 2.0]])


@pytest.mark.parametrize("header", ["-1,2", "2,-1"])
def test_csv_negative_header(tmp_path, header):
    path = tmp_path / "neg.csv"
    path.write_text(header + "\n")
    with pytest.raises(ValueError, match="negative dimension"):
        read_matrix_csv(path)


def test_dimension_overflow(tmp_path):
    import struct

    path = tmp_path / "huge.bin"
    path.write_bytes(struct.pack("<4sIQQ", b"PRX1", 1, 1 << 40, 1 << 40))
    with pytest.raises(ValueError, match="overflow"):
        read_matrix(path)


def test_csv_roundtrip(tmp_path):
    rng = np.random.default_rng(1)
    mat = rng.normal(size=(4, 4)) * 10.0 ** rng.integers(-10, 10, size=(4, 4))
    path = tmp_path / "m.csv"
    write_matrix_csv(path, mat)
    assert path.read_text().splitlines()[0] == "4,4"
    back = read_matrix_csv(path)
    # repr() of a double roundtrips exactly
    assert np.array_equal(mat, back)


def test_extension_dispatch(tmp_path):
    mat = np.arange(8.0).reshape(2, 4)
    save_matrix(tmp_path / "a.csv", mat)
    save_matrix(tmp_path / "a.bin", mat)
    assert np.array_equal(load_matrix(tmp_path / "a.csv"), mat)
    assert np.array_equal(load_matrix(tmp_path / "a.bin"), mat)


@pytest.mark.parametrize("shape", [(2, 0), (0, 3), (0, 0)])
@pytest.mark.parametrize("ext", ["csv", "bin"])
def test_empty_matrix_roundtrip(tmp_path, shape, ext):
    path = tmp_path / f"empty.{ext}"
    save_matrix(path, np.zeros(shape))
    assert load_matrix(path).shape == shape


def test_csv_with_no_columns_rejects_values_and_trailing_data(tmp_path):
    path = tmp_path / "cols0.csv"
    path.write_text("2,0\n\n1.0\n")
    with pytest.raises(ValueError, match="row 1 has 1 values, expected 0"):
        read_matrix_csv(path)
    path.write_text("2,0\n\n\n1.0\n")
    with pytest.raises(ValueError, match="trailing data"):
        read_matrix_csv(path)
    path.write_text("2,0\n\n")
    with pytest.raises(ValueError, match="missing rows"):
        read_matrix_csv(path)
