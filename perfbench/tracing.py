"""Spans around the calls into blockspin's public functions, and their self times.

The package is not edited.  A traced job process (`job.py`) imports its entry
module, then replaces every public function and method of the package's
modules with a wrapper that records a span: in the module that defines it, in
every module that imported it by name, and on the class for methods,
classmethods and staticmethods.  In `cli` only `main` is wrapped, so that
`cli.main`'s self time is argument parsing plus artifact formatting and
writing.  Spans stay in memory and are written once, when the job ends.

The benchmark process adds one root span per job, from launch to exit, and
computes each span's self time: its duration minus the part of its interval
that its child spans cover.
"""

from __future__ import annotations

import functools
import inspect
import json
import time
from array import array

LAYERS = ("cli", "codes", "channel", "pauli", "toric_rescale", "tiling", "dfs", "logistic")
JOB = "job"
IMPORT = "import"

# work counts read from return values: span name -> (counter, count of the result)
COUNTERS = {
    "channel.LogicalActionTable.build": ("channel.table_entries", lambda table: int(table.cls.size)),
    "channel.flow": ("channel.flow.levels", lambda traj: len(traj.levels) - 1),
    "tiling.concatenate_tiling": ("tiling.sites_addressed", lambda ct: len(ct.addresses)),
    "dfs.algebra_closure": ("dfs.algebra_dim", len),
}


class Recorder:
    """In-memory span store of one job process."""

    def __init__(self, job_id: str):
        self.job_id = job_id
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_ids = array("i")
        self.parents = array("i")
        self.starts = array("d")
        self.ends = array("d")
        self._stack = [-1]
        self.counters: dict[str, int] = {}

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def add(self, name: str, start: float, end: float) -> None:
        """Record a finished span under the current parent."""
        self.name_ids.append(self._name_id(name))
        self.parents.append(self._stack[-1])
        self.starts.append(start)
        self.ends.append(end)

    def wrap(self, name: str, fn):
        """`fn` with a span named `name` around every call."""
        nid = self._name_id(name)
        name_ids, parents, starts, ends, stack = (
            self.name_ids, self.parents, self.starts, self.ends, self._stack)
        clock = time.perf_counter
        counter, count = COUNTERS.get(name, (None, None))
        counters = self.counters

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(starts)
            name_ids.append(nid)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if counter is not None:
                counters[counter] = counters.get(counter, 0) + count(result)
            return result

        return traced

    def dump(self, path: str) -> None:
        header = json.dumps({"job": self.job_id, "names": self.names,
                             "count": len(self.starts), "counters": self.counters})
        with open(path, "wb") as fh:
            fh.write(header.encode() + b"\n")
            for arr in (self.name_ids, self.parents, self.starts, self.ends):
                arr.tofile(fh)


def load(path: str) -> tuple[dict, list[tuple[str, float, float, int]]]:
    """(header, spans) of a dump; a span is (name, start, end, parent index or -1)."""
    with open(path, "rb") as fh:
        header = json.loads(fh.readline())
        n = header["count"]
        cols = []
        for code in "iidd":
            col = array(code)
            col.fromfile(fh, n)
            cols.append(col)
    names = header["names"]
    return header, [(names[i], s, e, p) for i, p, s, e in zip(cols[0], cols[1], cols[2], cols[3])]


def _public(name: str) -> bool:
    return not name.startswith("_")


def install(recorder: Recorder, modules: dict[str, object], extra: tuple = ()) -> None:
    """Wrap the public functions and methods of `modules` (layer -> module).

    Every module in `modules` and `extra` that bound a wrapped function by
    name gets the wrapper too.
    """
    wrapped: dict[int, object] = {}
    for layer, mod in modules.items():
        for attr, obj in list(vars(mod).items()):
            if not _public(attr) or getattr(obj, "__module__", None) != mod.__name__:
                continue
            if layer == "cli":
                if attr == "main":
                    wrapped[id(obj)] = recorder.wrap("cli.main", obj)
            elif inspect.isfunction(obj):
                wrapped[id(obj)] = recorder.wrap(f"{layer}.{attr}", obj)
            elif inspect.isclass(obj) and not issubclass(obj, BaseException):
                _wrap_methods(recorder, f"{layer}.{attr}", obj)
    for mod in (*modules.values(), *extra):
        for attr, obj in list(vars(mod).items()):
            if id(obj) in wrapped:
                setattr(mod, attr, wrapped[id(obj)])


def _wrap_methods(recorder: Recorder, prefix: str, cls: type) -> None:
    for attr, raw in list(vars(cls).items()):
        if not _public(attr):
            continue
        if isinstance(raw, (classmethod, staticmethod)):
            setattr(cls, attr, type(raw)(recorder.wrap(f"{prefix}.{attr}", raw.__func__)))
        elif inspect.isfunction(raw):
            setattr(cls, attr, recorder.wrap(f"{prefix}.{attr}", raw))


# ---------------------------------------------------------------------------
# analysis in the benchmark process


def covered(start: float, end: float, intervals: list[tuple[float, float]]) -> float:
    """Length of the part of [start, end] that the union of `intervals` covers."""
    total, reach = 0.0, start
    for s, e in sorted(intervals):
        s, e = max(s, reach), min(e, end)
        if e > s:
            total += e - s
            reach = e
    return total


def self_times(spans: list[tuple[str, float, float, int]]) -> list[float]:
    """Self time of each span: duration minus the time its children cover."""
    children: list[list[tuple[float, float]]] = [[] for _ in spans]
    for _, s, e, parent in spans:
        if parent >= 0:
            children[parent].append((s, e))
    return [
        (e - s) - covered(s, e, kids) if kids else e - s
        for (_, s, e, _), kids in zip(spans, children)
    ]


def job_spans(launch: float, exit_: float, spans: list[tuple[str, float, float, int]]):
    """The job's spans under a root span `job` covering launch to exit."""
    root = [(JOB, launch, exit_, -1)]
    return root + [(name, s, e, p + 1) for name, s, e, p in spans]


class Profile:
    """Calls, self time and work counts summed over the spans of a pass."""

    def __init__(self):
        self.calls: dict[str, int] = {}
        self.self_s: dict[str, float] = {}
        self.counters: dict[str, int] = {}
        self.job_s = 0.0

    def add_job(self, spans, counters: dict[str, int]) -> None:
        """Add one job's spans (root first, as `job_spans` builds them)."""
        self.job_s += spans[0][2] - spans[0][1]
        for (name, *_), t in zip(spans, self_times(spans)):
            self.calls[name] = self.calls.get(name, 0) + 1
            self.self_s[name] = self.self_s.get(name, 0.0) + t
        for key, value in counters.items():
            self.counters[key] = self.counters.get(key, 0) + value

    def layer_self_s(self) -> dict[str, float]:
        """Self time per layer; `job` and `import` are kept as their own rows."""
        out: dict[str, float] = {}
        for name, t in self.self_s.items():
            layer = name.split(".")[0]
            out[layer] = out.get(layer, 0.0) + t
        return out

    def metrics(self) -> dict[str, float]:
        """Every per-layer metric this profile can give, by name."""
        out: dict[str, float] = {}
        for name in self.calls:
            out[f"{name}.calls"] = self.calls[name]
            out[f"{name}.self_s"] = self.self_s[name]
        for layer, t in self.layer_self_s().items():
            out.setdefault(f"{layer}.self_s", t)
        out.update(self.counters)
        out["cli.import_s"] = self.self_s.get(IMPORT, 0.0)
        flows = self.calls.get("channel.flow", 0)
        out["channel.levels_per_flow"] = (
            self.counters.get("channel.flow.levels", 0) / flows if flows else 0.0)
        return out
