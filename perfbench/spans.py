"""Spans and counts recorded by the benchmark around calls into forestry.

A span is (name, start, end, parent, request): ``parent`` is the index of
the request span that caused it (-1 for a request span itself) and
``request`` numbers the request (one permutation or one query), so spans of
one request share it.  Spans are kept in memory and written out once, when
the pass ends.  Layer spans never nest inside each other, so a layer's
busy time is the sum of its span durations and equals its self time.
"""

from __future__ import annotations

import json
from collections import Counter
from time import perf_counter


class _Span:
    __slots__ = ("tracer", "name", "start")

    def __init__(self, tracer: "Tracer", name: str):
        self.tracer = tracer
        self.name = name

    def __enter__(self) -> None:
        self.start = perf_counter()

    def __exit__(self, *exc) -> None:
        t = self.tracer
        t.spans.append((self.name, self.start, perf_counter(), t.parent, t.request_no))


class Tracer:
    """Records spans and counts."""

    enabled = True

    def __init__(self) -> None:
        self.spans: list[tuple[str, float, float, int, int]] = []
        self.counts: Counter = Counter()
        self.parent = -1
        self.request_no = -1

    def span(self, name: str) -> _Span:
        return _Span(self, name)

    def add(self, name: str, amount: int = 1) -> None:
        self.counts[name] += amount

    def begin_request(self, name: str) -> None:
        self.request_no += 1
        self.parent = len(self.spans)
        # placeholder, completed by end_request so children can point at it
        self.spans.append((name, perf_counter(), 0.0, -1, self.request_no))

    def end_request(self) -> None:
        name, start, _, _, request = self.spans[self.parent]
        self.spans[self.parent] = (name, start, perf_counter(), -1, request)
        self.parent = -1

    def busy(self) -> dict[str, float]:
        """Seconds spent inside each layer span name (request spans excluded)."""
        out: Counter = Counter()
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                out[name] += end - start
        return dict(out)

    def write(self, path: str) -> None:
        with open(path, "w") as fh:
            for name, start, end, parent, request in self.spans:
                fh.write(
                    json.dumps(
                        {
                            "name": name,
                            "start": start,
                            "end": end,
                            "parent": parent,
                            "request": request,
                        }
                    )
                    + "\n"
                )


class _NoSpan:
    __slots__ = ()

    def __enter__(self) -> None:
        pass

    def __exit__(self, *exc) -> None:
        pass


_NO_SPAN = _NoSpan()


class NullTracer:
    """Same interface, records nothing: the untraced path."""

    enabled = False

    def span(self, name: str) -> _NoSpan:
        return _NO_SPAN

    def add(self, name: str, amount: int = 1) -> None:
        pass

    def begin_request(self, name: str) -> None:
        pass

    def end_request(self) -> None:
        pass
