"""In-memory spans and a per-call time histogram for the traced run.

Spans are kept in a list and written out once, when the run ends.  Calls
that happen hundreds of thousands of times per run (one refinement per
split) are not given a span each: their durations go into a
:class:`Histogram`, and one aggregate span records the layer's busy time.
"""

from __future__ import annotations

import time
from contextlib import contextmanager


class Tracer:
    """Nested spans: name, start, end (seconds since the tracer was made),
    the id of the enclosing span, and free-form attributes such as the
    repetition a span belongs to."""

    def __init__(self):
        self.spans: list = []
        self._open: list = []
        self._origin = time.perf_counter()

    def _now(self) -> float:
        return time.perf_counter() - self._origin

    @contextmanager
    def span(self, name: str, **attrs):
        record = {
            "id": len(self.spans),
            "name": name,
            "parent": self._open[-1] if self._open else None,
            "start": self._now(),
            "end": None,
            **attrs,
        }
        self.spans.append(record)
        self._open.append(record["id"])
        try:
            yield record
        finally:
            record["end"] = self._now()
            self._open.pop()

    def add(self, name: str, **attrs) -> dict:
        """An aggregate record for many calls, under the innermost open span."""
        record = {
            "id": len(self.spans),
            "name": name,
            "parent": self._open[-1] if self._open else None,
            **attrs,
        }
        self.spans.append(record)
        return record

    @staticmethod
    def duration(record: dict) -> float:
        return record["end"] - record["start"]

    def durations(self, name: str, **match) -> list:
        """Durations of the closed spans called ``name`` whose attributes
        equal ``match``."""
        return [
            self.duration(s)
            for s in self.spans
            if s["name"] == name
            and s.get("end") is not None
            and all(s.get(k) == v for k, v in match.items())
        ]


class Histogram:
    """Log-linear histogram of integer nanosecond durations.

    Each power of two is cut into 2**SUB_BITS equal buckets, so a quantile
    read from its bucket is within 1/2**SUB_BITS of the true value, whatever
    the number of samples.
    """

    SUB_BITS = 4

    def __init__(self):
        self.counts: dict = {}
        self.count = 0
        self.total_ns = 0

    def add(self, ns: int) -> None:
        shift = ns.bit_length() - self.SUB_BITS - 1
        low = (ns >> shift) << shift if shift > 0 else ns
        self.counts[low] = self.counts.get(low, 0) + 1
        self.count += 1
        self.total_ns += ns

    def quantile_ns(self, q: float) -> float:
        """The q-quantile, interpolated linearly inside its bucket."""
        if not self.count:
            raise ValueError("empty histogram")
        rank = q * (self.count - 1)
        seen = 0
        for low in sorted(self.counts):
            n = self.counts[low]
            if seen + n > rank:
                shift = low.bit_length() - self.SUB_BITS - 1
                width = 1 << shift if shift > 0 else 1
                return low + width * (rank - seen) / n
            seen += n
        raise AssertionError("quantile rank beyond the histogram")

    def to_json_dict(self) -> dict:
        return {
            "count": self.count,
            "total_ns": self.total_ns,
            "buckets_ns": sorted(self.counts.items()),
        }
