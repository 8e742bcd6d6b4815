"""How every artifact reaches disk, and the readers they share.

Each writer encodes the whole artifact in memory, writes it to a temporary
file in the target directory and renames that over the target, so a reader
sees the old file or the new one, never a partial one. Durability (fsync) is
not a goal.

Every float is written in Python's shortest round-trip form, float.__repr__,
which is what json itself writes for a finite float. JSON, JSONL and CSV are
strict: a non-finite float raises ValueError instead of writing a NaN token,
and nothing is written. A JSON document's bytes are exactly
json.dumps(doc, indent=indent, allow_nan=False) plus a newline. No writer
here formats a large float list: checkpoints carry their parameters as one
base64 float64 string (see checkpoint.py).
"""

from __future__ import annotations

import csv
import io
import json
import os
import secrets
from pathlib import Path

from .errors import DomainError

# Compact, strict JSON: json.dumps(o, allow_nan=False), built once.
_STRICT = json.JSONEncoder(allow_nan=False)


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


def write_lines(path, lines) -> None:
    """Text lines, each ended by a newline; the one end of every JSONL writer."""
    _publish(path, "".join(line + "\n" for line in lines).encode())


def write_jsonl(path, records) -> None:
    """One strict JSON document per line."""
    write_lines(path, map(_STRICT.encode, records))


def read_json(path, error, what: str):
    """The JSON document at ``path``. A file that is missing, unreadable (a
    directory, not UTF-8) or not valid JSON raises ``error`` naming it as ``what``."""
    path = Path(path)
    if not path.exists():
        raise error(f"{what} not found: {path}")
    try:
        text = path.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise error(f"{what} {path} is unreadable: {exc}") from exc
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise error(f"{what} {path} is not valid JSON: {exc}") from exc


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
        cells = [row[c] for c in columns]
        writer.writerow(
            [_STRICT.encode(v) if isinstance(v, float) else v for v in cells]
        )
    _publish(path, buf.getvalue().encode())


def read_rows_csv(path, columns) -> list[dict]:
    """Read back a fixed-column CSV; numeric text becomes int or float."""
    with Path(path).open(newline="", encoding="utf-8") as fh:
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
