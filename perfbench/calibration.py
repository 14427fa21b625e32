"""Machine-speed calibration, so that runs made minutes apart can be compared.

On a shared machine the same op runs up to half again as long from one
minute to the next, as other tenants load the core it runs on.  A measured
run therefore stops before its first op, after every CAL_EVERY_S of op time
and after its last op, and times three fixed pure-Python loops: integer
arithmetic, a small dict of tuple keys, and method calls on small objects.
The loops keep no objects alive and share no code with ckgames, so a change
to the program does not move them.  Each loop answers a little differently to
a loaded core, and their geometric mean follows short ops better than any
one of them did in trials.

`slowdown` is that geometric mean of each loop's time over its NOMINAL time,
which is what the loop takes on an idle core of the 2-core VM on which the
benchmark was written.  An op's time is divided by the mean slowdown at the
calibration points just before and just after it.
"""

import math
import statistics
from time import perf_counter

LOOPS = 3
CAL_EVERY_S = 0.5


def _arithmetic() -> int:
    s = 0
    for i in range(100_000):
        s += i * i % 7
    return s


def _tuple_keys() -> int:
    counts: dict = {}
    for i in range(25_000):
        key = (i & 63, i & 7)
        counts[key] = counts.get(key, 0) + 1
    return len(counts)


class _Cell:
    __slots__ = ("x",)

    def __init__(self, x: int):
        self.x = x

    def plus(self, y: int) -> int:
        return self.x + y


def _method_calls() -> int:
    s = 0
    for i in range(30_000):
        s += _Cell(i).plus(1)
    return s


NOMINAL = ((_arithmetic, 0.0065), (_tuple_keys, 0.0038), (_method_calls, 0.0068))


def slowdown() -> float:
    """Geometric mean over the loops of (median of LOOPS runs) / nominal time."""
    logs = []
    for loop, nominal in NOMINAL:
        times = []
        for _ in range(LOOPS):
            t0 = perf_counter()
            loop()
            times.append(perf_counter() - t0)
        logs.append(math.log(statistics.median(times) / nominal))
    return math.exp(sum(logs) / len(logs))


def warm_up(seconds: float = 0.3) -> None:
    """Run the loops until the core has come up to speed after the process started."""
    end = perf_counter() + seconds
    while perf_counter() < end:
        slowdown()


def scale(times: list[float], points: list[tuple[int, float]]) -> list[float]:
    """Op times at nominal speed.

    `points` are (ops run before the calibration, slowdown), in order; the
    first is at 0 and the last at len(times).
    """
    out = []
    j = 0
    for i, t in enumerate(times):
        while points[j + 1][0] <= i:
            j += 1
        out.append(t * 2 / (points[j][1] + points[j + 1][1]))
    return out
