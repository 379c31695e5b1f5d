"""Exception types shared across the package, and the UTF-8 opener every file reader uses."""

import math
from contextlib import contextmanager
from pathlib import Path
from typing import IO, Iterator


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
