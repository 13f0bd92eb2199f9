"""The speed reference that corrects the benchmark's times for machine speed.

The shared virtual machine this benchmark was built on changes speed by up to
a factor of two within minutes, and process CPU time moves with wall time, so
neither can tell a slower program from a slower machine. A fixed piece of
interpreter work, the reference, is therefore timed next to every timed
round and set-up process, and each time is scaled by ``REFERENCE_S`` over the
mean of the reference times taken around and during it: it reads as the time
on a machine where the reference takes ``REFERENCE_S``.
"""

from __future__ import annotations

import time
from typing import Callable

# the reference's wall time on the 2-vCPU VM the baseline was recorded on, in
# its fast state; only a scale, so a later machine needs no new value
REFERENCE_S = 0.015


class _Item:
    __slots__ = ("number", "text")

    def __init__(self, number: int, text: str):
        self.number = number
        self.text = text


def _reference_pass() -> int:
    # interpreter-bound like the program: objects, string keys, dict lookups, a sort
    items = [_Item(i, str(i)) for i in range(3000)]
    by_text = {item.text: item for item in items}
    total = sum(by_text[str(i)].number for i in range(0, 3000, 3))
    return total + len(sorted(items, key=lambda item: item.text))


def reference_s() -> float:
    """Wall seconds of the reference work, which never changes. Nine passes
    keep its own noise well below the machine's swings."""
    t0 = time.perf_counter()
    for _ in range(9):
        _reference_pass()
    return time.perf_counter() - t0


def scale(reference_times: list[float]) -> float:
    """The factor that turns a time measured amid these reference times into
    one at the reference speed."""
    return REFERENCE_S * len(reference_times) / sum(reference_times)


class Sampler:
    """Times the reference inside a round that outlasts the machine's speed,
    from a scripted policy the round calls often: at most once per
    ``interval_s``. ``take()`` returns the times and clears them."""

    def __init__(self, interval_s: float):
        self.interval_s = interval_s
        self.times: list[float] = []
        self._last = time.perf_counter()

    def wrap(self, policy: Callable[[str, int], str]) -> Callable[[str, int], str]:
        def sampled(prompt: str, seed: int) -> str:
            if time.perf_counter() - self._last >= self.interval_s:
                # a global, looked up at call time, so a traced run's
                # wrapper makes it a span and keeps it out of self times
                self.times.append(reference_s())
                self._last = time.perf_counter()
            return policy(prompt, seed)
        return sampled

    def take(self) -> list[float]:
        times, self.times = self.times, []
        self._last = time.perf_counter()
        return times
