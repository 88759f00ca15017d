"""Summary statistics of a benchmark run."""

from __future__ import annotations

TAIL_BEYOND = 10


def tail(samples) -> tuple[float, float, int]:
    """The highest percentile of ``samples`` with at least ten samples
    beyond it, as (value, percentile, sample count).

    With n sorted samples that is the one at index n - 11, the
    100 (n - 11) / (n - 1) percentile.  With ten or fewer samples no
    percentile qualifies, and the maximum (percentile 100) is given.
    """
    xs = sorted(samples)
    n = len(xs)
    if n <= TAIL_BEYOND:
        return xs[-1], 100.0, n
    k = n - TAIL_BEYOND - 1
    return xs[k], 100.0 * k / (n - 1), n


class CellTally:
    """Failed (t, method) cells over the distinct ops of a run.

    A cell fails if it came back ``ERR:<code>`` or its op raised; an op
    that ran more than once counts once, with its worst outcome.
    """

    def __init__(self):
        self.cells: dict[str, int] = {}
        self.failed: dict[str, int] = {}
        self.kappa_errs: dict[str, int] = {}

    def record(self, label: str, cells: int, failed: int, kappa_errs: int = 0) -> None:
        self.cells[label] = cells
        self.failed[label] = max(self.failed.get(label, 0), failed)
        self.kappa_errs[label] = max(self.kappa_errs.get(label, 0), kappa_errs)

    @property
    def base(self) -> int:
        return sum(self.cells.values())

    @property
    def count(self) -> int:
        return sum(self.failed.values())

    @property
    def share(self) -> float:
        return self.count / self.base if self.base else 0.0
