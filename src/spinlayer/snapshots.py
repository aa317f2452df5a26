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

Files are written through `_atomic_open`, the one writer of a run
directory: it writes "<path>.partial" and renames it into place, so a
crash never leaves a truncated file under the final name.  A file is
read back through `read_field`, which checks from the header, before
reading the payload, that it holds the field and grid asked for.
"""

import contextlib
import math
import os
import struct
from typing import Optional

import numpy as np

MAGIC = b"SPINLAYERSNAP001"
_HEADER = struct.Struct("<16s4s3I3dd")

FIELD_M = b"MCEL"
FIELD_H = b"HYEE"
FIELD_E = b"EYEE"


class SnapshotError(OSError):
    """A snapshot file that cannot be read, or that holds another field or
    grid than the one asked for; an I/O error to the command line."""


@contextlib.contextmanager
def _atomic_open(path, mode: str):
    """`open(<path>.partial, mode)` for the block, renamed to path when the
    block completes; a block that raises leaves the closed .partial file."""
    tmp = str(path) + ".partial"
    with open(tmp, mode) as fh:
        yield fh
    os.replace(tmp, path)


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
    with _atomic_open(path, "wb") as fh:
        fh.write(header)
        for arr, shape in zip(arrays, shapes):
            a = np.asarray(arr, dtype="<f8")
            if a.shape != shape:
                raise ValueError(f"array shape {a.shape} does not match {shape}")
            fh.write(a.tobytes(order="C"))   # row-major bytes in any layout


def read_snapshot(path, expect: Optional[tuple] = None):
    """Returns (field_id, dims, spacings, t, list of arrays); a malformed
    file raises ValueError, and so does one whose header names another
    (field id, dims) than `expect` when that is given, before its payload
    is read."""
    with open(path, "rb") as fh:
        header = fh.read(_HEADER.size)
        if len(header) != _HEADER.size:
            raise ValueError("truncated snapshot header")
        magic, field_id, nx, ny, nz, dx, dy, dz, t = _HEADER.unpack(header)
        if magic != MAGIC:
            raise ValueError(f"bad snapshot magic {magic!r}")
        dims = (nx, ny, nz)
        if expect is not None and (field_id, dims) != expect:
            raise ValueError(f"holds {field_id!r} on {dims} cells, "
                             f"not {expect[0]!r} on {expect[1]}")
        shapes = _payload_shapes(field_id, dims)
        # check the size before reading: the header's counts are outside input
        counts = [math.prod(shape) for shape in shapes]
        if os.fstat(fh.fileno()).st_size < _HEADER.size + 8 * sum(counts):
            raise ValueError("truncated snapshot payload")
        arrays = []
        for shape, count in zip(shapes, counts):
            # read straight into the array: one payload-sized buffer a block
            a = np.empty(shape, dtype="<f8")
            if fh.readinto(a) != count * 8:
                raise ValueError("truncated snapshot payload")
            arrays.append(a)
    return field_id, dims, (dx, dy, dz), t, arrays


def read_field(path, field_id: bytes, dims: tuple):
    """(t, list of arrays) of the snapshot at path, which must hold
    field_id on a grid of dims cells.  Any other file, and one that cannot
    be opened or parsed, raises SnapshotError naming the path; the header
    is checked before the payload is read."""
    try:
        _, _, _, t, arrays = read_snapshot(path, (field_id, tuple(dims)))
    except OSError as exc:
        raise SnapshotError(f"{path}: {exc.strerror or exc}") from exc
    except ValueError as exc:
        raise SnapshotError(f"{path}: {exc}") from exc
    return t, arrays
