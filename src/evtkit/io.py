"""CSV ingestion of block-maxima series and file emission helpers."""

from __future__ import annotations

import math
import os
import tempfile
from array import array
from contextlib import ExitStack, contextmanager, suppress
from dataclasses import dataclass
from itertools import chain
from pathlib import Path

import numpy as np

from .distributions import Distribution
from .errors import DomainError, EmptyDatasetError, ParseError
from .sample import Sample, whole_number

__all__ = ["Dataset", "load_csv", "simulate_to_csv", "write_text_atomic"]

# Rows (not cells) per write_csv chunk: enough that the per-chunk Python work is negligible,
# few enough that a chunk's cell strings stay under 1 MB at 11 columns, as in emit_plot_data.
CHUNK_CELLS = 1024
BLOCK_CHARS = 1 << 16  # characters per load_csv block, which then runs on to the next "\n"


@dataclass(frozen=True, eq=False)
class Dataset:
    """A labeled block-maxima series, optionally with one year per value: whole numbers, strictly increasing."""

    label: str
    sample: Sample
    years: tuple[int, ...] | None = None

    def __post_init__(self):
        if self.years is not None:
            years = tuple(whole_number(year, "year") for year in self.years)
            if len(years) != self.sample.n:
                raise DomainError("years and values must have the same length")
            if any(b <= a for a, b in zip(years, years[1:])):
                raise DomainError("years must be strictly increasing")
            object.__setattr__(self, "years", years)


def _parses(parse, token: str) -> bool:
    try:
        parse(token)
    except ValueError:
        return False
    return True


def _row_error(line: str, row: int, n_columns: int) -> ParseError:
    """The error of a data row that does not parse, naming its first bad cell."""
    cells = [cell.strip() for cell in line.split(",")]
    if len(cells) != n_columns:
        return ParseError(row, f"expected {n_columns} columns, found {len(cells)}")
    if n_columns == 2 and not _parses(int, cells[0]):
        return ParseError(row, f"could not parse {cells[0]!r} as a year")
    return ParseError(row, f"could not parse {cells[-1]!r} as a number")


def load_csv(path) -> Dataset:
    """Load a block-maxima series from a comma-delimited UTF-8 file (BOM ignored).

    The dataset's label is the file name without its suffix. Two layouts
    are accepted: one value per line, or ``year,value`` rows. The cell count
    of the first data row sets the layout, and every later row must match it.
    The first non-blank row is a header, and skipped, when none of its cells
    is a number; one that mixes numbers and text is a data row, so its text
    cell is a ParseError. In a one-column file a single non-numeric cell is
    thus a header. Blank lines are ignored but keep their place in row
    numbering. The text is read in one pass, split into lines a block at a
    time, and each bad row raises where it is read, so of several bad rows
    the first is reported. The values go straight into a float array: beside
    the file's text, loading keeps about 40 B per row.

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
    try:
        text = path.read_bytes().decode("utf-8").removeprefix("\ufeff")
    except UnicodeDecodeError as exc:
        # The bytes before the bad one decode; an "x" after them lands on its row.
        row = len((exc.object[: exc.start].decode("utf-8") + "x").splitlines())
        raise ParseError(row, f"byte 0x{exc.object[exc.start]:02x} is not UTF-8") from None

    # The first non-blank row, or the next one when the first is a header; the parse
    # below continues the same lines, so the text is split once.
    lines = _lines(text)
    data_rows = ((row, line) for row, line in lines if line.strip())
    first = next(data_rows, None)
    if first is not None and not any(_parses(float, cell) for cell in first[1].split(",")):
        first = next(data_rows, None)
    if first is None:
        raise EmptyDatasetError(f"no data rows in {path}")
    n_columns = len(first[1].split(","))
    if n_columns not in (1, 2):
        raise ParseError(first[0], f"expected 1 or 2 columns, found {n_columns}")

    # A row that int and float accept is valid: they strip the same blanks as
    # str.strip. Any other row is blank or the error, raised at once.
    years, values = [], array("d")
    add_year, add_value, isfinite = years.append, values.append, math.isfinite
    for row, line in chain([first], lines):
        try:
            if n_columns == 1:
                value = float(line)
            else:
                year, value = line.split(",")
                add_year(int(year))
                value = float(value)
        except ValueError:
            if line.strip():
                raise _row_error(line, row, n_columns) from None
            continue
        if not isfinite(value):
            raise ParseError(row, f"non-finite value {line.split(',')[-1].strip()!r}")
        add_value(value)
    del text  # before the dataset's copies are made
    return Dataset(label=path.stem, sample=Sample(np.frombuffer(values)), years=years or None)


def _lines(text: str):
    r"""``enumerate(text.splitlines(), 1)``, split a block at a time; a block ends after a "\n", never inside "\r\n"."""
    def blocks():
        start = 0
        while start < len(text):
            end = text.find("\n", start + BLOCK_CHARS) + 1 or len(text)
            yield text[start:end].splitlines()
            start = end

    return enumerate(chain.from_iterable(blocks()), 1)


@contextmanager
def _atomic_files(paths: list[Path]):
    """Text handles on a temp file beside each of ``paths``, all renamed into place when the block ends.

    On failure every temp file still there is removed; a file renamed before a failed rename stays.
    """
    temps = []
    try:
        with ExitStack() as stack:
            handles = []
            for path in paths:
                path.parent.mkdir(parents=True, exist_ok=True)
                fd, tmp_name = tempfile.mkstemp(dir=path.parent, prefix=f".{path.name}.", suffix=".tmp")
                temps.append(tmp_name)
                handles.append(stack.enter_context(os.fdopen(fd, "w", encoding="utf-8", newline="\n")))
            yield handles
        for tmp_name, path in zip(temps, paths):
            os.replace(tmp_name, path)
    except BaseException:
        for tmp_name in temps:
            with suppress(OSError):
                os.unlink(tmp_name)
        raise


def write_text_atomic(path, text: str) -> Path:
    """Write ``text`` to ``path`` via a temp file and rename (atomic per file)."""
    path = Path(path)
    with _atomic_files([path]) as (handle,):
        handle.write(text)
    return path


def write_csv(files: dict) -> list[Path]:
    """Write comma-delimited files in one pass, ``CHUNK_CELLS`` rows of each at a time; return their paths.

    ``files`` maps each path to its header row (None for none) and its
    columns, one-dimensional arrays of one length per file. Row i joins the
    columns' cells i by commas: floats as their shortest round-trip ``repr``,
    anything else (years, indices) with ``str``. A column passed to several
    files is formatted once per chunk. The files are renamed into place from
    temp files after the last chunk, and no temp file is left on failure.
    """
    paths = [Path(path) for path in files]
    specs = list(files.values())
    n_rows = max(len(columns[0]) for _, columns in specs)
    with _atomic_files(paths) as handles:
        for handle, (header, _) in zip(handles, specs):
            if header is not None:
                handle.write(header + "\n")
        for start in range(0, n_rows, CHUNK_CELLS):
            cells = {}  # by column id: the column's cells in this chunk
            for handle, (_, columns) in zip(handles, specs):
                if start >= len(columns[0]):
                    continue
                for column in columns:
                    if id(column) not in cells:
                        fmt = repr if column.dtype.kind == "f" else str
                        cells[id(column)] = list(map(fmt, column[start : start + CHUNK_CELLS].tolist()))
                handle.write("\n".join(map(",".join, zip(*(cells[id(column)] for column in columns)))))
                handle.write("\n")
    return paths


def simulate_to_csv(dist: Distribution, n: int, seed: int, path) -> Path:
    """Draw ``n`` values from ``dist`` and write them one per line.

    The same seed always produces a byte-identical file.
    """
    sample = dist.sample(n, seed)
    return write_csv({path: (None, [sample.values])})[0]
