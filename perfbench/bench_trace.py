"""Span tracer that times calls into a package's modules from outside.

At install time every public module-level function of the named modules is
replaced by a wrapper that records a span (id, parent id, name, start, end).
Functions are found by enumeration, so a function added later is traced
without editing this file.  Every other module of the package that bound the
same function object with ``from x import f`` has that binding replaced too.

Spans stay in memory; `aggregate` derives per-function call counts, total
time and self time (span duration minus the time covered by its children).
Two functions get more: the last return value of `ROOT_SPAN` (the report)
is kept, and each `ROWS_SPAN` span carries the row count of its matrix.
"""

from __future__ import annotations

import functools
import inspect
import time

# Leaf arithmetic called more than about 10k times per run.  Wrapping it would
# cost more than the work it measures; its time lands in the caller's self time.
EXCLUDED = frozenset(
    {
        "gf16.add",
        "gf16.mul",
        "gf16.inv",
        "gf16.conj",
        "gf16.norm",
        "gf16.power",
        "hermitian.hermitian_form",
        "hermitian.is_isotropic",
        "hermitian.normalize",
    }
)
ROOT_SPAN = "pipeline.run_check"
ROWS_SPAN = "euclid.rank_mod_prime"


def public_functions(module) -> dict[str, object]:
    """Public functions defined in `module` itself (not imported into it)."""
    return {
        name: obj
        for name, obj in vars(module).items()
        if not name.startswith("_")
        and inspect.isfunction(obj)
        and obj.__module__ == module.__name__
    }


class Tracer:
    """Wraps the public functions of `modules` and records their spans.

    `modules` maps a short layer name (``"graph"``) to the module object.
    """

    def __init__(self, modules: dict, exclude=EXCLUDED):
        self.modules = dict(modules)
        self.exclude = frozenset(exclude)
        self.spans: list[list] = []  # [id, parent, name, start, end, rows]
        self.root_result = None  # last value returned by ROOT_SPAN
        self.names: list[str] = []  # every wrapped function, once installed
        self._stack: list[int] = []
        self._undo: list[tuple[dict, str, object]] = []

    def install(self) -> None:
        """Wrap every traced function; `uninstall` restores the originals."""
        namespaces = [vars(m) for m in self.modules.values()]
        for layer, mod in self.modules.items():
            for name, fn in public_functions(mod).items():
                qualname = f"{layer}.{name}"
                if qualname in self.exclude:
                    continue
                self.names.append(qualname)
                wrapper = self._wrap(qualname, fn)
                for ns in namespaces:
                    for key, value in list(ns.items()):
                        if value is fn:
                            self._undo.append((ns, key, fn))
                            ns[key] = wrapper

    def uninstall(self) -> None:
        for ns, key, fn in reversed(self._undo):
            ns[key] = fn
        self._undo.clear()

    def _wrap(self, qualname: str, fn):
        spans, stack = self.spans, self._stack
        is_root, has_rows = qualname == ROOT_SPAN, qualname == ROWS_SPAN
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(spans) + 1
            span = [sid, stack[-1] if stack else 0, qualname, clock(), 0.0, None]
            spans.append(span)
            stack.append(sid)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[4] = clock()
                stack.pop()
            if has_rows:
                span[5] = len(args[0] if args else kwargs["rows"])
            if is_root:
                self.root_result = result
            return result

        return traced


def aggregate(spans) -> dict[str, dict]:
    """Per-function calls, total seconds, self seconds and summed rows."""
    child_time: dict[int, float] = {}
    for sid, parent, _name, start, end, _rows in spans:
        if parent:
            child_time[parent] = child_time.get(parent, 0.0) + (end - start)
    out: dict[str, dict] = {}
    for sid, _parent, name, start, end, rows in spans:
        row = out.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0, "rows": 0})
        row["calls"] += 1
        row["total_s"] += end - start
        row["self_s"] += end - start - child_time.get(sid, 0.0)
        if rows is not None:
            row["rows"] += rows
    return out


def coverage(spans, root: str) -> float | None:
    """Share of the `root` spans' time covered by traced callees."""
    agg = aggregate(spans).get(root)
    if not agg or agg["total_s"] <= 0:
        return None
    return 1.0 - agg["self_s"] / agg["total_s"]
