"""Summary statistics of one benchmark run: op timings and op accounting."""

from __future__ import annotations

import statistics
from dataclasses import dataclass, field

# a tail percentile is reported only with this many ops beyond it
TAIL_BEYOND = 10


@dataclass(frozen=True)
class Tail:
    value: float
    pct: float  # share of samples at or below `value`, in percent
    n: int  # sample count
    beyond: int  # samples strictly above `value`'s rank


def tail(samples: list[float], beyond: int = TAIL_BEYOND) -> Tail:
    """Highest percentile with at least `beyond` samples above it.

    Sorted ascending, rank k has n-1-k samples above it, so the highest
    qualifying rank is n-1-beyond. With fewer than beyond+1 samples no
    rank qualifies; the minimum is reported and `beyond` says how many
    samples actually lie above it.
    """
    if not samples:
        raise ValueError("tail of no samples")
    ordered = sorted(samples)
    n = len(ordered)
    k = max(0, n - 1 - beyond)
    return Tail(ordered[k], 100.0 * (k + 1) / n, n, n - 1 - k)


def spread(samples: list[float]) -> float:
    """Interquartile range as a share of the median (0 for < 2 samples)."""
    if len(samples) < 2:
        return 0.0
    q1, q2, q3 = statistics.quantiles(samples, n=4)
    return (q3 - q1) / q2 if q2 else 0.0


@dataclass
class OpLog:
    """Every op a run attempted, with its wall time and check verdict."""

    walls: list[float] = field(default_factory=list)
    failures: list[str] = field(default_factory=list)  # one line per failed op

    def record(self, wall_s: float, problem: str | None) -> None:
        self.walls.append(wall_s)
        if problem is not None:
            self.failures.append(problem)

    @property
    def attempted(self) -> int:
        return len(self.walls)

    @property
    def failed(self) -> int:
        return len(self.failures)

    @property
    def failed_frac(self) -> float:
        return self.failed / self.attempted if self.attempted else 1.0
