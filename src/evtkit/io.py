"""CSV ingestion of block-maxima series and file emission helpers."""

from __future__ import annotations

import math
import os
import tempfile
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .distributions import Distribution
from .errors import DomainError, EmptyDatasetError, ParseError
from .sample import Sample

__all__ = ["Dataset", "load_csv", "simulate_to_csv", "write_text_atomic"]

# Cells per format_column chunk: enough that the per-chunk Python work is
# negligible, few enough that a chunk's per-cell strings stay small.
CHUNK_CELLS = 4096


@dataclass(frozen=True, eq=False)
class Dataset:
    """A labeled block-maxima series, optionally with one year per value."""

    label: str
    sample: Sample
    years: tuple[int, ...] | None = None

    def __post_init__(self):
        if self.years is not None:
            years = tuple(int(y) for y in self.years)
            if len(years) != self.sample.n:
                raise DomainError("years and values must have the same length")
            if any(b <= a for a, b in zip(years, years[1:])):
                raise DomainError("years must be strictly increasing")
            object.__setattr__(self, "years", years)


def _parse_float(token: str, row: int) -> float:
    try:
        value = float(token)
    except ValueError:
        raise ParseError(row, f"could not parse {token!r} as a number") from None
    if not math.isfinite(value):
        raise ParseError(row, f"non-finite value {token!r}")
    return value


def _parse_year(token: str, row: int) -> int:
    try:
        return int(token)
    except ValueError:
        raise ParseError(row, f"could not parse {token!r} as a year") from None


def _is_numeric(token: str) -> bool:
    try:
        float(token)
    except ValueError:
        return False
    return True


def load_csv(path) -> Dataset:
    """Load a block-maxima series from a comma-delimited UTF-8 file (BOM ignored).

    The dataset's label is the file name without its suffix. Two layouts
    are accepted: one value per line, or ``year,value`` rows. The cell count
    of the first data row sets the layout, and every later row must match it.
    The first non-blank row is a header, and skipped, when none of its cells
    is a number; one that mixes numbers and text is a data row, so its text
    cell is a ParseError. In a one-column file a single non-numeric cell is
    thus a header. Blank lines are ignored but keep their place in row
    numbering.

    Raises
    ------
    OSError
        Missing or unreadable input file.
    ParseError
        Non-numeric or non-finite cell, an inconsistent column count, or a
        byte that is not UTF-8 (reported with its 1-based row number).
    EmptyDatasetError
        No data rows at all.
    """
    path = Path(path)
    data = path.read_bytes()
    try:
        text = data.decode("utf-8").removeprefix("\ufeff")
    except UnicodeDecodeError as exc:
        # The bytes before the bad one decode; an "x" after them lands on its row.
        row = len((data[: exc.start].decode("utf-8") + "x").splitlines())
        raise ParseError(row, f"byte 0x{data[exc.start]:02x} is not UTF-8") from None

    years: list[int] = []
    values: list[float] = []
    n_columns = None  # set by the first data row
    allow_header = True  # only the first non-blank row may be a header

    for row, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        parts = [p.strip() for p in line.split(",")]
        if allow_header:
            allow_header = False
            if not any(_is_numeric(p) for p in parts):
                continue  # header row
        if n_columns is None:
            if len(parts) not in (1, 2):
                raise ParseError(row, f"expected 1 or 2 columns, found {len(parts)}")
            n_columns = len(parts)
        if len(parts) != n_columns:
            raise ParseError(row, f"expected {n_columns} columns, found {len(parts)}")
        if n_columns == 2:
            years.append(_parse_year(parts[0], row))
            values.append(_parse_float(parts[1], row))
        else:
            values.append(_parse_float(parts[0], row))

    if not values:
        raise EmptyDatasetError(f"no data rows in {path}")
    return Dataset(
        label=path.stem,
        sample=Sample(np.asarray(values)),
        years=tuple(years) if years else None,
    )


def write_text_atomic(path, text: str) -> Path:
    """Write ``text`` to ``path`` via a temp file and rename (atomic per file)."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp_name = tempfile.mkstemp(dir=path.parent, prefix=f".{path.name}.", suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="\n") as handle:
            handle.write(text)
        os.replace(tmp_name, path)
    except BaseException:
        try:
            os.unlink(tmp_name)
        except OSError:
            pass
        raise
    return path


def format_column(values) -> list[str]:
    """Text of a one-dimensional column, as newline-joined chunks of ``CHUNK_CELLS`` cells.

    Floats are written as their shortest round-trip ``repr``, anything else
    (years, indices) with ``str``. Each chunk is formatted by C loops, and
    the column is never held as one string per cell.
    """
    arr = np.asarray(values)
    fmt = repr if arr.dtype.kind == "f" else str
    return [
        "\n".join(map(fmt, arr[i : i + CHUNK_CELLS].tolist()))
        for i in range(0, arr.size, CHUNK_CELLS)
    ]


def write_csv(path, header: str, *columns: list[str]) -> Path:
    """Write a comma-delimited file: the header row, then one row per cell index.

    Each column is the :func:`format_column` text of an array, and all
    columns have the same length, so their chunks line up. A column text can
    be passed to several files.
    """
    body = [
        "\n".join(map(",".join, zip(*(chunk.split("\n") for chunk in chunks))))
        for chunks in zip(*columns)
    ]
    return write_text_atomic(path, "\n".join([header, *body]) + "\n")


def simulate_to_csv(dist: Distribution, n: int, seed: int, path) -> Path:
    """Draw ``n`` values from ``dist`` and write them one per line.

    The same seed always produces a byte-identical file.
    """
    sample = dist.sample(n, seed)
    return write_text_atomic(path, "\n".join(format_column(sample.values)) + "\n")
