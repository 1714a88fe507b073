"""Matrix file I/O.

Binary format (bit-exact across platforms):
    magic  "PRX1"            4 bytes
    version                  u32 little-endian, currently 1
    rows, cols               u64 little-endian each
    payload                  rows*cols IEEE-754 binary64, little-endian,
                             row-major

CSV fallback: first line ``rows,cols``, then one matrix row per line with
comma-separated values (an empty line for each row of a matrix with no
columns). Values are written with repr precision so the text
roundtrip reproduces the exact doubles.

Both readers raise ValueError on data past the declared matrix; a CSV may
end in blank lines.
"""

import struct

import numpy as np

MAGIC = b"PRX1"
VERSION = 1
_HEADER = struct.Struct("<4sIQQ")

# refuse absurd headers instead of trying to allocate petabytes
_MAX_ELEMS = 1 << 34


def write_matrix(path, mat: np.ndarray) -> None:
    mat = np.ascontiguousarray(mat, dtype=np.float64)
    if mat.ndim != 2:
        raise ValueError(f"expected a 2-d matrix, got shape {mat.shape}")
    rows, cols = mat.shape
    with open(path, "wb") as fh:
        fh.write(_HEADER.pack(MAGIC, VERSION, rows, cols))
        fh.write(mat.astype("<f8").tobytes())


def read_matrix(path) -> np.ndarray:
    with open(path, "rb") as fh:
        header = fh.read(_HEADER.size)
        if len(header) < _HEADER.size:
            raise ValueError("truncated file: incomplete header")
        magic, version, rows, cols = _HEADER.unpack(header)
        if magic != MAGIC:
            raise ValueError("bad magic")
        if version != VERSION:
            raise ValueError(f"unsupported version {version}")
        if rows * cols > _MAX_ELEMS:
            raise ValueError(f"dimension overflow: {rows}x{cols}")
        payload = fh.read(8 * rows * cols)
        if len(payload) != 8 * rows * cols:
            raise ValueError("truncated file: incomplete payload")
        if fh.read(1):
            raise ValueError(f"trailing data after the {rows}x{cols} payload")
    data = np.frombuffer(payload, dtype="<f8").astype(np.float64)
    return data.reshape(rows, cols)


def write_matrix_csv(path, mat: np.ndarray) -> None:
    mat = np.asarray(mat, dtype=np.float64)
    if mat.ndim != 2:
        raise ValueError(f"expected a 2-d matrix, got shape {mat.shape}")
    rows, cols = mat.shape
    with open(path, "w") as fh:
        fh.write(f"{rows},{cols}\n")
        for r in range(rows):
            fh.write(",".join(repr(float(v)) for v in mat[r]) + "\n")


def read_matrix_csv(path) -> np.ndarray:
    with open(path) as fh:
        first = fh.readline()
        if not first:
            raise ValueError("truncated file: empty")
        try:
            rows, cols = (int(tok) for tok in first.strip().split(","))
        except ValueError as exc:
            raise ValueError(f"bad csv header {first.strip()!r}") from exc
        if rows < 0 or cols < 0:
            raise ValueError(f"negative dimension in csv header: {rows}x{cols}")
        if rows * cols > _MAX_ELEMS:
            raise ValueError(f"dimension overflow: {rows}x{cols}")
        out = np.empty((rows, cols))
        for r in range(rows):
            line = fh.readline()
            if not line:
                raise ValueError("truncated file: missing rows")
            text = line.strip()
            # a row of a matrix with no columns is an empty line
            vals = text.split(",") if text or cols else []
            if len(vals) != cols:
                raise ValueError(f"row {r} has {len(vals)} values, expected {cols}")
            out[r] = [float(v) for v in vals]
        if any(line.strip() for line in fh):
            raise ValueError(f"trailing data after the {rows} declared rows")
    return out


def load_matrix(path) -> np.ndarray:
    """Dispatch on extension: .csv uses the text format, anything else binary."""
    if str(path).endswith(".csv"):
        return read_matrix_csv(path)
    return read_matrix(path)


def save_matrix(path, mat: np.ndarray) -> None:
    if str(path).endswith(".csv"):
        write_matrix_csv(path, mat)
    else:
        write_matrix(path, mat)
