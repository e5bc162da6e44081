"""Deterministic file output: atomic writes, PGM images, CSV tables and
float32 field dumps with text headers.

Every writer goes through an atomic temp-file + rename so a crashed run
never leaves a half-written artifact; the artifact gets the mode a plain
``open`` gives under the umask in force when it is written.  Every format
is byte-stable for a given input (fixed float repr, fixed line endings)
so repeated runs diff clean.

CSV tables are written by column: ``write_csv`` takes one sequence per
header field, formats each numeric column in one pass (every number as
the repr of the Python number ``.tolist()`` gives, the shortest repr that
reads back to the same float) and joins the cells with ``","`` and CRLF.
A column of strings is written as it is, so a caller can format a column
shared by several blocks of rows once, with ``format_cells``.  No cell is
quoted; a string that would need quoting is refused.

A PGM image is quantized from the masked samples of a 2-D mask straight
into its 8-bit raster, so no float raster is formed for it; a float32
dump is written from a 2-D raster.  The package writes these files and
never reads them back; the dump's header says everything a reader needs
(shape, dtype, grid metadata).
"""

from __future__ import annotations

import os

import numpy as np

from .errors import DomainError

FIELD_MAGIC = "statorlab-field 1"


def atomic_write_bytes(path, data: bytes):
    """Write ``data`` to ``path`` through a unique temp file and a rename.

    Concurrent writers each get their own temp file, so the last rename
    wins whole.  The temp file is created 0666 and the kernel applies the
    umask in force at that write, so the file gets the mode a plain
    ``open`` would give it.
    """
    path = os.fspath(path)
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    tmp = f"{path}.{os.urandom(8).hex()}"
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL
                 | getattr(os, "O_BINARY", 0), 0o666)
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def atomic_write_text(path, text: str):
    atomic_write_bytes(path, text.encode("utf-8"))


def format_cells(column) -> list:
    """The text cells of one column: strings as they are, numbers (numpy
    arrays and scalars included) as the repr of the Python number that
    ``.tolist()`` or ``.item()`` gives, so a numpy float loses its
    ``np.float64(...)`` wrapper on the way.  A list of strings is returned
    itself, not walked again."""
    if isinstance(column, np.ndarray):
        values = column.tolist()
    elif isinstance(column, list) and column and isinstance(column[0], str):
        return column
    else:
        # item by item: np.asarray would turn ints past int64 into floats
        values = [v.item() if isinstance(v, np.generic) else v for v in column]
    if not values or isinstance(values[0], str):
        return values
    # a list's str is the reprs of its items joined by ", ": one C call
    return str(values)[1:-1].split(", ")


def write_csv(path, header, columns):
    """RFC-4180-style CSV from columns: comma separated, CRLF, one header
    row, then one row per index of the equally long ``columns``."""
    cells = [format_cells(column) for column in columns]
    for column in (header, *cells):
        text = "".join(column)
        if any(ch in text for ch in ',"\r\n'):
            raise DomainError(f"a CSV cell would need quoting: {column[:8]!r}")
    lines = [",".join(header), *map(",".join, zip(*cells, strict=True))]
    atomic_write_bytes(path, ("\r\n".join(lines) + "\r\n").encode("utf-8"))


def quantize_intensity(samples: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """8-bit quantization round(i*255) of the intensity ``samples`` at the
    True entries of ``mask``, in their order; the image is 0 off the mask.

    Zeroing invalid pixels is a property of the export format only; the
    in-memory objects hold the masked samples alone.
    """
    img = np.zeros(mask.shape, dtype=np.uint8)
    img[mask] = np.rint(np.clip(samples, 0.0, 1.0) * 255.0).astype(np.uint8)
    return img


def write_pgm(path, samples: np.ndarray, mask: np.ndarray):
    """Binary PGM (P5, maxval 255) of intensity ``samples`` in [0, 1], one
    per True pixel of the 2-D ``mask``."""
    if mask.ndim != 2:
        raise DomainError(f"PGM export needs a 2-D array, got {mask.ndim}-D")
    if samples.shape != (np.count_nonzero(mask),):
        raise DomainError(f"PGM export of {samples.shape} samples: not one per mask pixel")
    img = quantize_intensity(samples, mask)
    h, w = img.shape
    header = f"P5\n{w} {h}\n255\n".encode("ascii")
    atomic_write_bytes(path, header + img.tobytes())


def phase_to_unit(phase: np.ndarray) -> np.ndarray:
    """Map wrapped phase (-pi, pi] onto [0, 1] for image export."""
    return (phase + np.pi) / (2.0 * np.pi)


def write_field_f32(path, values: np.ndarray, meta: dict):
    """Raw little-endian float32 dump with an ASCII header.

    The header carries the grid metadata (one ``key value`` pair per
    line, taken from the grid's describe() dict plus caller extras) and
    ends with an ``end-header`` line; the payload follows row-major.
    """
    lines = [FIELD_MAGIC]
    for key in sorted(meta):
        lines.append(f"{key} {format_cells([meta[key]])[0]}")
    shape = "x".join(str(s) for s in values.shape)
    lines.append(f"shape {shape}")
    lines.append("dtype <f4")
    lines.append("end-header")
    header = ("\n".join(lines) + "\n").encode("ascii")
    payload = np.ascontiguousarray(values, dtype="<f4").tobytes()
    atomic_write_bytes(path, header + payload)

