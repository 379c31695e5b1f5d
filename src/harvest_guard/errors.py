"""Exception types shared across the package, and the UTF-8 opener every file reader uses."""

from contextlib import contextmanager
from pathlib import Path
from typing import IO, Iterator


class ValidationError(ValueError):
    """Raised when an input violates a documented precondition."""


@contextmanager
def open_text(path: Path, newline: str | None = None) -> Iterator[IO[str]]:
    """`path` opened for reading as UTF-8; bytes that do not decode raise
    ValidationError naming the file instead of UnicodeDecodeError."""
    try:
        with path.open(encoding="utf-8", newline=newline) as fh:
            yield fh
    except UnicodeDecodeError as exc:
        raise ValidationError(f"{path}: not UTF-8 text ({exc.reason} at byte {exc.start})") from exc
