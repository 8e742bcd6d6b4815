"""How every artifact reaches disk, and the readers they share.

Each writer encodes the whole artifact in memory, writes it to a temporary
file in the target directory and renames that over the target, so a reader
sees the old file or the new one, never a partial one. JSON is strict: a
non-finite float raises ValueError instead of writing a NaN token. CSV floats
use Python's shortest round-trip form. Durability (fsync) is not a goal.
"""

from __future__ import annotations

import csv
import io
import json
import os
import secrets
from pathlib import Path

from .errors import DomainError


def _publish(path, data: bytes) -> None:
    """Swap data in at path, creating its directory.

    The file gets the mode a plain open() gives, 0666 minus the umask (not
    mkstemp's 0600), and the temporary file is removed on any failure.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f".{path.name}.{secrets.token_hex(8)}.tmp")
    try:
        with open(tmp, "xb") as fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def write_json(path, doc, indent: int) -> None:
    """One strict JSON document, indented, with a trailing newline."""
    text = json.dumps(doc, indent=indent, allow_nan=False) + "\n"
    _publish(path, text.encode())


def write_jsonl(path, records) -> None:
    """One strict JSON document per line."""
    text = "".join(json.dumps(r, allow_nan=False) + "\n" for r in records)
    _publish(path, text.encode())


def read_jsonl(path) -> list:
    """Every non-blank line of a JSONL file, parsed."""
    with Path(path).open() as fh:
        return [json.loads(line) for line in fh if line.strip()]


def write_rows_csv(path, columns, rows) -> None:
    """Fixed-column CSV with shortest round-trip decimal floats."""
    buf = io.StringIO(newline="")
    writer = csv.writer(buf)
    writer.writerow(columns)
    for row in rows:
        writer.writerow(
            [repr(v) if isinstance(v, float) else v for v in (row[c] for c in columns)]
        )
    _publish(path, buf.getvalue().encode())


def read_rows_csv(path, columns) -> list[dict]:
    """Read back a fixed-column CSV; numeric text becomes int or float."""
    with Path(path).open(newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if tuple(header or ()) != tuple(columns):
            raise DomainError(f"unexpected CSV header {header} in {path}")
        return [dict(zip(columns, map(_parse_cell, raw))) for raw in reader]


def _parse_cell(text: str):
    for parse in (int, float):
        try:
            return parse(text)
        except ValueError:
            pass
    return text
