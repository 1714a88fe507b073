"""Output checks for the benchmark's prune calls.

Every check returns a list of problems; an empty list means the output
passed. The PRX1 decoder here is independent of ``prune24.matio`` so that
the readback check compares the program's reader against the format itself.
"""

import struct

import numpy as np

_HEADER = struct.Struct("<4sIQQ")


def decode_prx1(data: bytes) -> np.ndarray:
    """Decode a PRX1 file's bytes; raises ValueError on a malformed file."""
    if len(data) < _HEADER.size:
        raise ValueError("truncated header")
    magic, version, rows, cols = _HEADER.unpack_from(data)
    if magic != b"PRX1" or version != 1:
        raise ValueError(f"bad header {magic!r} v{version}")
    if len(data) != _HEADER.size + 8 * rows * cols:
        raise ValueError(f"size {len(data)} does not match {rows}x{cols}")
    return np.frombuffer(data, dtype="<f8", offset=_HEADER.size).reshape(rows, cols)


def loss(W, W_star, H) -> float:
    """Reconstruction loss Tr((W - W*) H (W - W*)^T)."""
    delta = W - W_star
    return float(np.sum((delta @ H) * delta))


def check_output(W, mask, shape) -> list:
    """Problems with a pruned weight matrix and its mask."""
    problems = []
    if W.shape != shape or mask.shape != shape:
        return [f"shape {W.shape}/{mask.shape}, expected {shape}"]
    if not np.all(np.isfinite(W)):
        problems.append("non-finite weight")
    per_cell = np.count_nonzero(W.reshape(-1, 4), axis=1)
    if np.any(per_cell > 2):
        problems.append(f"{int(np.sum(per_cell > 2))} cells with more than 2 nonzeros")
    if not np.array_equal(mask, (W != 0).astype(np.float64)):
        problems.append("mask differs from the nonzero pattern of the weights")
    return problems


def check_readback(data: bytes, read_back: np.ndarray) -> list:
    """The program's reader must return the file's doubles bit for bit."""
    try:
        decoded = decode_prx1(data)
    except ValueError as exc:
        return [f"malformed PRX1 file: {exc}"]
    if read_back.shape != decoded.shape or read_back.astype("<f8").tobytes() != decoded.tobytes():
        return ["PRX1 readback is not bit-exact"]
    return []


def check_losses(calls) -> dict:
    """Cross-call loss checks, as {call index: [problems]}.

    ``calls`` holds dicts with ``method``, ``instance``, ``alpha``,
    ``wanda_loss`` and, for calls whose output could be read, ``loss``. A
    ``-gd`` variant may not end above its base method's loss on the same
    instance, and at alpha = 1 (diagonal hessian) ``prox`` must match
    wanda's loss to 1e-9 relative.
    """
    problems = {}
    by_key = {(c["instance"], c["method"]): c for c in calls if "loss" in c}
    for i, c in enumerate(calls):
        if "loss" not in c:
            continue
        base = by_key.get((c["instance"], c["method"].removesuffix("-gd")))
        if c["method"].endswith("-gd") and base is not None and c["loss"] > base["loss"]:
            problems.setdefault(i, []).append(
                f"{c['method']} loss {c['loss']!r} above {base['method']} loss {base['loss']!r}")
        if c["method"] == "prox" and c["alpha"] == 1.0:
            ref = c["wanda_loss"]
            if abs(c["loss"] - ref) > 1e-9 * abs(ref):
                problems.setdefault(i, []).append(
                    f"prox loss {c['loss']!r} differs from wanda {ref!r} at alpha=1")
    return problems
