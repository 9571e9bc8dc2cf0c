"""Outside-in tracing: spans recorded around the calls the bench makes
into ``pslens``, never inside the library.

A *request* is one verdict or one CLI command; it opens a root span and
every span or call recorded until it ends carries its id.  Coarse calls
(a law check, a pipeline stage, a CLI command) are stored one span each.
Hot calls (a lens ``get``/``put`` under a law check, a domain ``le``)
happen up to millions of times per request, so they are stored as
aggregate spans: one record per (parent span, name) with the call count,
the summed duration, the first start and last end, and the recorder's
own bookkeeping time.  Hot calls never nest inside each other, so a
span's self time is its duration minus its child spans, its child
aggregates and their bookkeeping.
"""

from __future__ import annotations

import dataclasses
import json
import time
from collections import Counter
from contextlib import contextmanager, nullcontext
from typing import Any, Callable

from pslens.iposet import IPoset
from pslens.lens import PSLens, is_failure

now = time.perf_counter_ns


def canon(x: Any) -> str:
    """Deterministic text for a value, independent of hash seeds and of
    dict insertion order, for digests."""
    if isinstance(x, (set, frozenset)):
        return "{" + ",".join(sorted(canon(e) for e in x)) + "}"
    if isinstance(x, dict):
        return "{" + ",".join(sorted(f"{canon(k)}:{canon(v)}" for k, v in x.items())) + "}"
    if isinstance(x, (list, tuple)):
        inner = ",".join(canon(e) for e in x)
        return f"[{inner}]" if isinstance(x, list) else f"({inner})"
    if dataclasses.is_dataclass(x) and not isinstance(x, type):
        fields = ",".join(canon(getattr(x, f.name)) for f in dataclasses.fields(x))
        return f"{type(x).__name__}({fields})"
    return repr(x)


def freeze(x: Any) -> Any:
    """A hashable stand-in for a value, equal exactly when the values are."""
    if isinstance(x, dict):
        return (dict, frozenset((k, freeze(v)) for k, v in x.items()))
    if isinstance(x, (list, tuple)):
        return (type(x), tuple(freeze(e) for e in x))
    if dataclasses.is_dataclass(x) and not isinstance(x, type):
        return (type(x), tuple(freeze(getattr(x, f.name)) for f in dataclasses.fields(x)))
    return x


def _key(args: tuple) -> Any:
    try:
        hash(args)
    except TypeError:
        return freeze(args)
    return args


#: Hot calls whose distinct arguments are counted, per request.
DISTINCT = frozenset({"lens.get", "lens.put", "iposet.le", "iposet.ident", "iposet.contains"})


class NoRecorder:
    """Stand-in for :class:`Recorder` when a pass runs untraced."""

    tracing = False

    def request(self, name: str, **tags):
        return nullcontext()

    def span(self, name: str):
        return nullcontext()


class Recorder:
    """In-memory span store for one traced pass."""

    tracing = True

    def __init__(self):
        self.spans: list[list] = []  # [id, parent, request, name, start_ns, end_ns]
        # (parent, name) -> [request, calls, total_ns, first_start, last_end, bookkeeping_ns]
        self.aggs: dict[tuple, list] = {}
        self.requests: list[dict] = []
        self.calls: Counter = Counter()
        self.distinct: Counter = Counter()  # distinct arguments per request, summed
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._request: int | None = None
        self._seen: set = set()
        self._in_call = False

    @contextmanager
    def request(self, name: str, **tags):
        rid = len(self.requests)
        self.requests.append(dict(tags, name=name))
        self._request, self._seen = rid, set()
        try:
            with self.span(name):
                yield
        finally:
            self._request, self._seen = None, set()

    @contextmanager
    def span(self, name: str):
        sid = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        record = [sid, parent, self._request, name, now(), None]
        self.spans.append(record)
        self._stack.append(sid)
        try:
            yield
        finally:
            record[5] = now()
            self._stack.pop()

    def call(self, name: str, fn: Callable, *args: Any) -> Any:
        """Run one hot call, folding it into its parent's aggregate.

        The aggregate also keeps the recorder's own bookkeeping time, which
        self times leave out.
        """
        entered = now()
        if self._in_call:
            raise RuntimeError(f"hot call {name} nested inside another hot call")
        self._in_call = True
        start = now()
        try:
            return fn(*args)
        finally:
            end = now()
            self._in_call = False
            parent = self._stack[-1]
            self.calls[name] += 1
            if name in DISTINCT:
                key = (name, _key(args))
                if key not in self._seen:
                    self._seen.add(key)
                    self.distinct[name] += 1
            agg = self.aggs.get((parent, name))
            if agg is None:
                agg = self.aggs[(parent, name)] = [self._request, 0, 0, start, end, 0]
            agg[1] += 1
            agg[2] += end - start
            agg[4] = end
            agg[5] += start - entered + now() - end

    # -- derived quantities --------------------------------------------------

    def durations_ns(self, name: str) -> list[int]:
        return [s[5] - s[4] for s in self.spans if s[3] == name]

    def total_s(self, name: str) -> float:
        """Summed duration of the spans and aggregates called ``name``."""
        spans = sum(self.durations_ns(name))
        aggs = sum(a[2] for (_, n), a in self.aggs.items() if n == name)
        return (spans + aggs) / 1e9

    def self_ns(self, name: str) -> list[int]:
        """Self time of every span called ``name``: its duration less its
        children and the bookkeeping for its hot calls."""
        covered: Counter = Counter()
        for s in self.spans:
            if s[1] is not None:
                covered[s[1]] += s[5] - s[4]
        for (parent, _), agg in self.aggs.items():
            covered[parent] += agg[2] + agg[5]
        return [s[5] - s[4] - covered[s[0]] for s in self.spans if s[3] == name]

    def per_request_ns(self, name: str) -> Counter:
        """Per request id, the summed time of spans and aggregates called ``name``."""
        out: Counter = Counter()
        for s in self.spans:
            if s[3] == name:
                out[s[2]] += s[5] - s[4]
        for (_, agg_name), agg in self.aggs.items():
            if agg_name == name:
                out[agg[0]] += agg[2]
        return out

    def write(self, path) -> None:
        with open(path, "w") as out:
            for sid, parent, request, name, start, end in self.spans:
                out.write(json.dumps({"span": sid, "parent": parent, "request": request, "name": name,
                                      "start_ns": start, "end_ns": end}) + "\n")
            for (parent, name), (request, calls, total, first, last, book) in self.aggs.items():
                out.write(json.dumps({"aggregate": name, "parent": parent, "request": request, "calls": calls,
                                      "total_ns": total, "start_ns": first, "end_ns": last,
                                      "bookkeeping_ns": book}) + "\n")


class IPosetProxy(IPoset):
    """A domain that forwards every query to ``inner`` as a hot call."""

    def __init__(self, inner: IPoset, rec: Recorder, prefix: str = "iposet"):
        self.inner = inner
        self.rec = rec
        self.name = inner.name
        self.least = inner.least
        self.has_merge = inner.has_merge
        self._names = {op: f"{prefix}.{op}" for op in ("le", "ident", "contains", "merge")}

    @property
    def elements(self):
        return self.inner.elements

    def le(self, a, b):
        return self.rec.call(self._names["le"], self.inner.le, a, b)

    def ident(self, a, b):
        return self.rec.call(self._names["ident"], self.inner.ident, a, b)

    def contains(self, x):
        return self.rec.call(self._names["contains"], self.inner.contains, x)

    def merge(self, a, b):
        return self.rec.call(self._names["merge"], self.inner.merge, a, b)

    def __repr__(self) -> str:
        return repr(self.inner)


def wrap_subject(lens: PSLens, rec: Recorder) -> PSLens:
    """The lens under a law check: hot-call ``get``/``put`` and proxied
    source and view domains."""

    def get(s):
        return rec.call("lens.get", lens.get, s)

    def put(s, v):
        out = rec.call("lens.put", lens.put, s, v)
        rec.counts["lens.put_refused"] += is_failure(out)
        return out

    return dataclasses.replace(
        lens, source=IPosetProxy(lens.source, rec), view=IPosetProxy(lens.view, rec), get=get, put=put
    )


def wrap_stage(lens: PSLens, rec: Recorder, get_name: str | None = None, put_name: str | None = None) -> PSLens:
    """A pipeline stage whose ``get``/``put`` become coarse spans; refused
    puts are counted under ``<put_name>_refused``."""
    get, put = lens.get, lens.put
    if get_name:
        def get(s, _get=lens.get):
            with rec.span(get_name):
                return _get(s)
    if put_name:
        def put(s, v, _put=lens.put):
            with rec.span(put_name):
                out = _put(s, v)
            rec.counts[put_name + "_refused"] += is_failure(out)
            return out
    return dataclasses.replace(lens, get=get, put=put)


def wrap_function(fn: Callable, rec: Recorder, name: str) -> Callable:
    def traced(*args, **kwargs):
        with rec.span(name):
            return fn(*args, **kwargs)

    return traced
