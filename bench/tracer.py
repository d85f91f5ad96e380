"""Spans and counters for the traced run.

``Tracer.install`` replaces every public pandiag function at every module
attribute that binds it (``pandiag.magic.check`` as well as
``pandiag.params.check``), so calls between modules are traced too.  Each
call becomes a span (name, start, end, parent); each ``next()`` of a
returned generator becomes a span of the function's name.  ``gcd`` is only
counted: it runs millions of times, and a span per call would swamp the
trace.  ``uninstall`` puts the original functions back, so untraced rounds
run the program exactly as shipped.

Spans stay in memory as flat arrays and are written out once, at the end.
"""

from __future__ import annotations

import functools
import inspect
import sys
import types
from array import array
from collections import Counter
from pathlib import Path
from time import perf_counter

import numpy as np

COUNTED_ONLY = {"modarith.gcd"}
CHECK_FAMILY = {"params.check", "params.check_pair", "params.check_triple", "params.check_quad"}


class Tracer:
    def __init__(self, modules):
        self.names: list[str] = []
        self.name_ids: dict[str, int] = {}
        self.name = array("l")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("l")
        self.stack = [-1]
        self.counts: Counter[str] = Counter()
        targets = {}  # public function: "module.name" where it is defined
        for mod in modules:
            short = mod.__name__.rsplit(".", 1)[-1]
            for attr, obj in vars(mod).items():
                defined_here = getattr(obj, "__module__", None) == mod.__name__
                is_function = inspect.isfunction(obj) or hasattr(obj, "cache_info")
                if defined_here and is_function and not attr.startswith("_"):
                    targets[obj] = f"{short}.{attr}"
        self._wrappers = {fn: self._wrap(fn, label) for fn, label in targets.items()}
        package = sys.modules[modules[0].__name__.split(".")[0]]
        # (module, attribute, function) for every binding of a target, imports included
        self._bindings = [
            (mod, attr, obj)
            for mod in [package, *modules]
            for attr, obj in vars(mod).items()
            if not attr.startswith("_") and _hashable(obj) and obj in targets
        ]

    # --- installing -------------------------------------------------------

    def install(self) -> None:
        for mod, attr, fn in self._bindings:
            setattr(mod, attr, self._wrappers[fn])

    def uninstall(self) -> None:
        for mod, attr, fn in self._bindings:
            setattr(mod, attr, fn)

    # --- recording ----------------------------------------------------------

    def _id(self, label: str) -> int:
        if label not in self.name_ids:
            self.name_ids[label] = len(self.names)
            self.names.append(label)
        return self.name_ids[label]

    def _open(self, nid: int) -> int:
        idx = len(self.start)
        self.name.append(nid)
        self.parent.append(self.stack[-1])
        self.end.append(0.0)
        self.stack.append(idx)
        self.start.append(perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = perf_counter()
        self.stack.pop()

    def _wrap(self, fn, label):
        counts = self.counts
        if label in COUNTED_ONLY:

            @functools.wraps(fn)
            def counted(*args, **kwargs):
                counts[label] += 1
                return fn(*args, **kwargs)

            return counted

        nid = self._id(label)
        after = _AFTER.get(label)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self._open(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if isinstance(result, types.GeneratorType):
                return self._traced_generator(result, nid, label)
            if after is not None:
                after(counts, result)
            return result

        return traced

    def _traced_generator(self, gen, nid, label):
        while True:
            idx = self._open(nid)
            try:
                item = next(gen)
            except StopIteration:
                self._close(idx)
                return
            except BaseException:
                self._close(idx)
                raise
            self._close(idx)
            self.counts[f"{label}.yielded"] += 1
            yield item

    def mark(self) -> int:
        """Index of the next span, to cut the trace into rounds."""
        return len(self.start)

    # --- reporting ----------------------------------------------------------

    def arrays(self):
        return (
            np.frombuffer(self.name, dtype=np.int_).copy(),
            np.frombuffer(self.start, dtype=np.float64).copy(),
            np.frombuffer(self.end, dtype=np.float64).copy(),
            np.frombuffer(self.parent, dtype=np.int_).copy(),
        )

    def summarize(self, lo: int, hi: int) -> dict:
        """Calls, self seconds and top-level seconds per span name in spans [lo, hi)."""
        name, start, end, parent = (a[lo:hi] for a in self.arrays())
        dur = end - start
        child = np.zeros(len(dur))
        nested = parent >= lo
        np.add.at(child, parent[nested] - lo, dur[nested])
        self_s = dur - child
        labels = np.array(self.names, dtype=object)[name] if len(name) else np.array([], dtype=object)
        out = {"calls": Counter(), "self_s": Counter(), "top_s": float(dur[~nested].sum())}
        out["module_self_s"] = Counter()
        check_ids = [self.name_ids[n] for n in CHECK_FAMILY if n in self.name_ids]
        in_family = np.isin(name, check_ids)
        parent_in_family = np.zeros(len(name), dtype=bool)
        parent_in_family[nested] = in_family[parent[nested] - lo]
        out["check_calls"] = int((in_family & ~parent_in_family).sum())
        iter_id = self.name_ids.get("params.iter_feasible", -2)
        leaf = np.zeros(len(name), dtype=bool)
        leaf[nested] = name[parent[nested] - lo] == iter_id
        out["leaf_checks"] = int((in_family & leaf).sum())
        for label, s in zip(labels, self_s):
            out["calls"][label] += 1
            out["self_s"][label] += s
            out["module_self_s"][label.split(".")[0]] += s
        return out

    def write(self, path: Path, rounds) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        name, start, end, parent = self.arrays()
        np.savez(
            path,
            names=np.array(self.names),
            name=name,
            start=start,
            end=end,
            parent=parent,
            rounds=np.array(rounds, dtype=np.int64).reshape(-1, 2),
        )


def _hashable(obj) -> bool:
    try:
        hash(obj)
    except TypeError:
        return False
    return True


def _count_lines(counts, report):
    counts["verify.lines_checked"] += report.lines_checked


def _count_cells(counts, array):
    counts["lattice.cells_built"] += array.values.size


def _count_cli_bytes(counts, _code):
    # called while cli.run still sees the benchmark's in-memory streams
    counts["cli.bytes_in"] += sys.stdin.tell()
    counts["cli.bytes_out"] += len(sys.stdout.getvalue())


_AFTER = {
    "verify.verify_latin_pandiagonal": _count_lines,
    "verify.verify_magic_pandiagonal": _count_lines,
    "lattice.build": _count_cells,
    "cli.run": _count_cli_bytes,
}
