"""Binary field snapshots.

Layout (little endian):
    bytes  0..15   magic "SPINLAYERSNAP001"
    bytes 16..19   field id: "MCEL" (cell 3-vector field),
                   "HYEE" (face components), "EYEE" (edge components)
    bytes 20..31   three uint32 cell counts
    bytes 32..55   three float64 spacings dx, dy, dz
    bytes 56..63   float64 time stamp
    payload        float64 arrays, row major:
                   MCEL -> one (nx, ny, nz, 3) block of triples
                   HYEE -> (nx+1,ny,nz), (nx,ny+1,nz), (nx,ny,nz+1) blocks
                   EYEE -> (nx,ny+1,nz+1), (nx+1,ny,nz+1), (nx+1,ny+1,nz)

Files are written to "<path>.partial" and renamed into place so a crash
never leaves a truncated file under the final name.  A file is read back
through `read_field`, which checks that it holds the field and grid asked
for.
"""

import math
import os
import struct

import numpy as np

MAGIC = b"SPINLAYERSNAP001"
_HEADER = struct.Struct("<16s4s3I3dd")

FIELD_M = b"MCEL"
FIELD_H = b"HYEE"
FIELD_E = b"EYEE"


class SnapshotError(OSError):
    """A snapshot file that cannot be read, or that holds another field or
    grid than the one asked for; an I/O error to the command line."""


def _payload_shapes(field_id: bytes, dims: tuple) -> list:
    nx, ny, nz = dims
    if field_id == FIELD_M:
        return [(nx, ny, nz, 3)]
    if field_id == FIELD_H:
        return [(nx + 1, ny, nz), (nx, ny + 1, nz), (nx, ny, nz + 1)]
    if field_id == FIELD_E:
        return [(nx, ny + 1, nz + 1), (nx + 1, ny, nz + 1), (nx + 1, ny + 1, nz)]
    raise ValueError(f"unknown snapshot field id {field_id!r}")


def write_snapshot(path, field_id: bytes, dims: tuple, spacings: tuple,
                   t: float, arrays) -> None:
    shapes = _payload_shapes(field_id, dims)
    if len(arrays) != len(shapes):
        raise ValueError(f"{field_id!r} expects {len(shapes)} arrays")
    header = _HEADER.pack(MAGIC, field_id, *map(int, dims), *map(float, spacings),
                          float(t))
    tmp = str(path) + ".partial"
    with open(tmp, "wb") as fh:
        fh.write(header)
        for arr, shape in zip(arrays, shapes):
            a = np.asarray(arr, dtype="<f8")
            if a.shape != shape:
                raise ValueError(f"array shape {a.shape} does not match {shape}")
            fh.write(a.tobytes(order="C"))   # row-major bytes in any layout
    os.replace(tmp, path)


def read_snapshot(path):
    """Returns (field_id, dims, spacings, t, list of arrays); a malformed
    file raises ValueError."""
    with open(path, "rb") as fh:
        header = fh.read(_HEADER.size)
        if len(header) != _HEADER.size:
            raise ValueError("truncated snapshot header")
        magic, field_id, nx, ny, nz, dx, dy, dz, t = _HEADER.unpack(header)
        if magic != MAGIC:
            raise ValueError(f"bad snapshot magic {magic!r}")
        dims = (nx, ny, nz)
        shapes = _payload_shapes(field_id, dims)
        # check the size before reading: the header's counts are outside input
        counts = [math.prod(shape) for shape in shapes]
        if os.fstat(fh.fileno()).st_size < _HEADER.size + 8 * sum(counts):
            raise ValueError("truncated snapshot payload")
        arrays = []
        for shape, count in zip(shapes, counts):
            buf = fh.read(count * 8)
            if len(buf) != count * 8:
                raise ValueError("truncated snapshot payload")
            arrays.append(np.frombuffer(buf, dtype="<f8").reshape(shape).copy())
    return field_id, dims, (dx, dy, dz), t, arrays


def read_field(path, field_id: bytes, dims: tuple):
    """(t, list of arrays) of the snapshot at path, which must hold
    field_id on a grid of dims cells.  Any other file, and one that cannot
    be opened or parsed, raises SnapshotError naming the path."""
    try:
        got_id, got_dims, _, t, arrays = read_snapshot(path)
    except OSError as exc:
        raise SnapshotError(f"{path}: {exc.strerror or exc}") from exc
    except ValueError as exc:
        raise SnapshotError(f"{path}: {exc}") from exc
    if got_id != field_id or got_dims != tuple(dims):
        raise SnapshotError(f"{path}: holds {got_id!r} on {got_dims} cells, "
                            f"not {field_id!r} on {tuple(dims)}")
    return t, arrays
