"""Host-speed scaling for the benchmark's timings.

The shared host the benchmark was written on drifts in speed by up to
1.7x over seconds, and the drift moves all pure-Python code alike, so
raw times spread by 15-40% from run to run.  ``HostSpeed`` times a fixed
``reference_loop`` every ``EVERY_S`` seconds and scales each op's time
to the nominal speed at which that loop takes ``NOMINAL_S``.  A change
to ``pslens`` moves the op times and leaves the loop alone.
"""

from __future__ import annotations

import bisect
from time import perf_counter


class _Pair:
    __slots__ = ("a", "b")

    def __init__(self, a: int, b: int):
        self.a, self.b = a, b

    def __eq__(self, other) -> bool:
        return isinstance(other, _Pair) and self.a == other.a and self.b == other.b


_PAIRS = [_Pair(i % 7, i * 3 % 5) for i in range(24)]


def reference_loop() -> int:
    """Fixed pure-Python work whose time tracks the host's speed.

    It mixes what the library's inner loops do: closure calls, memo
    dicts keyed by tuples, structural ``__eq__`` on small objects, and
    allocation of small dicts, tuples and lists.
    """
    memo: dict = {}

    def le(i: int, j: int) -> bool:
        key = (i, j)
        hit = memo.get(key)
        if hit is None:
            hit = memo[key] = _PAIRS[i] == _PAIRS[j] or (i & 3) < (j & 3)
        return hit

    related = sum(le(i, j) for i in range(24) for j in range(4))
    rows = [{"key": (i, i + 1), "value": [i] * 3} for i in range(60)]
    return related + len(rows)


class HostSpeed:
    """The host's speed over time.

    ``tick`` times ``reference_loop`` (fastest of 2) when ``EVERY_S``
    has passed since the last sample, which costs about 2% of a run.  An
    op is scaled by the mean of the samples taken just before and just
    after it.
    """

    EVERY_S = 0.01
    NOMINAL_S = 110e-6  # about the loop's median on the 2.1 GHz Xeon VM the bench was written on

    def __init__(self):
        self.times: list[float] = []
        self.samples: list[float] = []

    def tick(self) -> None:
        now = perf_counter()
        if self.times and now < self.times[-1] + self.EVERY_S:
            return
        runs = []
        for _ in range(2):
            start = perf_counter()
            reference_loop()
            runs.append(perf_counter() - start)
        self.times.append(now)
        self.samples.append(min(runs))

    def scale(self, start: float, end: float) -> float:
        """Factor from a time measured over ``[start, end]`` to nominal speed."""
        before = max(bisect.bisect_right(self.times, start) - 1, 0)
        after = min(bisect.bisect_left(self.times, end), len(self.times) - 1)
        return self.NOMINAL_S / ((self.samples[before] + self.samples[after]) / 2)

    def timed(self, fn):
        """``fn()`` and its time scaled to nominal speed."""
        self.tick()
        start = perf_counter()
        result = fn()
        end = perf_counter()
        self.tick()
        return result, (end - start) * self.scale(start, end)
