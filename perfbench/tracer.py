"""Outside-in span tracer for the solver layers.

The tracer replaces public module attributes with timing wrappers.  The
solvers look these names up in their module namespace at call time (for
example ``ladlasso.locus`` calls ``ccd_descend`` through its own global), so
wrapping the attribute sees every call without touching the package.
``restore`` puts every original back.

A span is ``[name_id, start, end, parent, solve_id]``: the parent is the
index of the span that was open when it started (-1 at the top), and all
spans opened during one solve carry that solve's id.  Spans stay in memory
until ``write``.
"""

from __future__ import annotations

import gzip
import json
from time import perf_counter

import numpy as np


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.spans: list[list] = []
        self.solve_id = -1
        self.missing: list[str] = []  # wrapped names that no longer exist
        self._stack: list[int] = []
        self._originals: list[tuple[object, str, object]] = []

    def traced(self, fn, name: str, observe=None):
        """``fn`` wrapped in a span called ``name``; ``observe(result)`` runs after it returns."""
        if name not in self.names:
            self.names.append(name)
        name_id = self.names.index(name)
        spans, stack = self.spans, self._stack

        def wrapper(*args, **kwargs):
            idx = len(spans)
            rec = [name_id, 0.0, 0.0, stack[-1] if stack else -1, self.solve_id]
            spans.append(rec)
            stack.append(idx)
            rec[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = perf_counter()
                stack.pop()
            if observe is not None:
                observe(result)
            return result

        return wrapper

    def wrap(self, module, attr: str, name: str, observe=None) -> None:
        original = getattr(module, attr, None)
        if original is None:
            if f"{module.__name__}.{attr}" not in self.missing:
                self.missing.append(f"{module.__name__}.{attr}")
            return
        self._originals.append((module, attr, original))
        setattr(module, attr, self.traced(original, name, observe))

    def restore(self) -> None:
        while self._originals:
            module, attr, original = self._originals.pop()
            setattr(module, attr, original)

    def totals(self) -> dict[str, dict[str, float]]:
        """Per span name: call count, total duration and self time (duration minus children)."""
        out = {name: {"calls": 0, "total_s": 0.0, "self_s": 0.0} for name in self.names}
        if not self.spans:
            return out
        arr = np.array(self.spans, dtype=float)
        name_ids = arr[:, 0].astype(int)
        parents = arr[:, 3].astype(int)
        dur = arr[:, 2] - arr[:, 1]
        child = np.zeros(len(dur))
        nested = parents >= 0
        np.add.at(child, parents[nested], dur[nested])
        self_s = dur - child
        for name_id, name in enumerate(self.names):
            sel = name_ids == name_id
            out[name] = {
                "calls": int(sel.sum()),
                "total_s": float(dur[sel].sum()),
                "self_s": float(self_s[sel].sum()),
            }
        return out

    def write(self, path) -> None:
        with gzip.open(path, "wt", encoding="ascii") as fh:
            json.dump(
                {"fields": ["name", "start", "end", "parent", "solve_id"],
                 "names": self.names, "spans": self.spans},
                fh,
            )
