"""Exception types shared across the package, the UTF-8 opener every file
reader uses, and the record reader of the three CSV formats."""

import csv
import math
from contextlib import contextmanager
from pathlib import Path
from typing import IO, Iterator, Sequence


class ValidationError(ValueError):
    """Raised when an input violates a documented precondition."""


def require_finite(**values: float) -> None:
    """Reject the first NaN or infinite value by name. NaN passes every
    range comparison, so bounds checks run after this one."""
    for name, value in values.items():
        if not math.isfinite(value):
            raise ValidationError(f"{name} must be finite, got {value}")


@contextmanager
def open_text(path: Path, newline: str | None = None) -> Iterator[IO[str]]:
    """`path` opened for reading as UTF-8; bytes that do not decode raise
    ValidationError naming the file instead of UnicodeDecodeError."""
    try:
        with path.open(encoding="utf-8", newline=newline) as fh:
            yield fh
    except UnicodeDecodeError as exc:
        raise ValidationError(f"{path}: not UTF-8 text ({exc.reason} at byte {exc.start})") from exc


def csv_records(path: Path, columns: Sequence[str]) -> Iterator[tuple[int, dict[str, str]]]:
    """(file line, record) for each data row of the CSV file at `path`.
    Lines starting with '#' are comments and blank lines are skipped,
    before the header too, but line numbers count every line of the file.
    The header is the first other line and must name every one of
    `columns`. A line the csv module cannot read, such as a field over
    its size limit, raises ValidationError naming that line."""
    with open_text(path, newline="") as fh:
        lineno = 0

        def uncommented() -> Iterator[str]:
            nonlocal lineno
            for lineno, line in enumerate(fh, start=1):
                if line[0] not in "#\r\n":
                    yield line

        reader = csv.DictReader(uncommented())
        try:
            missing = [c for c in columns if c not in (reader.fieldnames or [])]
            if missing:
                raise ValidationError(f"{path}: missing columns {missing}")
            for rec in reader:
                yield lineno, rec
        except csv.Error as exc:
            raise ValidationError(f"{path}: line {lineno}: {exc}") from exc
