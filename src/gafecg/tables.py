"""Atomic file writes, and the CSV tables each stage hands the next: written
by ``write_table`` through ``atomic_write``, read back by ``read_table`` with
the same declared columns."""
from __future__ import annotations

import contextlib
import csv
import os
from pathlib import Path

from .errors import BuildError


@contextlib.contextmanager
def atomic_write(path: str | Path, mode: str = "wb"):
    """Open ``path`` for writing as a temp file beside it, moved over ``path``
    when the block ends; if the block raises, the temp file is removed and
    ``path`` is left as it was. Text mode writes newlines as given, as the
    csv module requires."""
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    try:
        with open(tmp, mode, newline=None if "b" in mode else "") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def write_table(path: str | Path, fields: list[str], rows) -> None:
    """Write ``rows`` (dicts keyed by ``fields``) under a ``fields`` header."""
    with atomic_write(path, "w") as fh:
        writer = csv.DictWriter(fh, fieldnames=fields)
        writer.writeheader()
        writer.writerows(rows)


def read_table(
    path: str | Path, fields: list[str], producer: str, parse: dict | None = None
) -> list[dict]:
    """Rows of a table the ``producer`` stage wrote with ``fields``: the
    header must be ``fields`` exactly, every row needs one cell per column,
    and ``parse`` maps a column to the function that converts its cells.
    Anything else is a BuildError naming the file (and line)."""
    try:
        fh = open(path, newline="")
    except FileNotFoundError:
        raise BuildError(f"missing {path}; re-run {producer}") from None
    with fh:
        reader = csv.DictReader(fh)
        header = reader.fieldnames or []
        if header != list(fields):
            missing = [f for f in fields if f not in header]
            problem = (
                f"has no {', '.join(missing)}" if missing
                else f"has {', '.join(header)}, expected {', '.join(fields)}"
            )
            raise BuildError(f"{path}: bad columns: {problem}; re-run {producer}")
        rows = []
        for row in reader:
            where = f"{path} line {reader.line_num}"
            if None in row or None in row.values():
                raise BuildError(f"{where}: expected {len(fields)} cells; re-run {producer}")
            for column, convert in (parse or {}).items():
                try:
                    row[column] = convert(row[column])
                except ValueError:
                    raise BuildError(
                        f"{where}: bad {column} {row[column]!r}; re-run {producer}"
                    ) from None
            rows.append(row)
        return rows
