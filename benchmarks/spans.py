"""Spans recorded around the benchmark's calls into the library.

A span has a name (``layer.function``), a tag (poset, problem class or
connective), a start and end time, the index of its parent span and the id
of the op it belongs to.  Spans live in flat arrays while the run goes on and
are written out once, when it ends.  Untraced runs use :class:`NullTracer`,
which calls straight through.
"""

from __future__ import annotations

from array import array
from pathlib import Path
from time import perf_counter

import numpy as np


class NullTracer:
    """Calls through without recording anything."""

    enabled = False

    def call(self, name, tag, fn, *args):
        return fn(*args)

    def open(self, name, tag, op_id=None):
        return -1

    def close(self, index):
        pass


class Tracer:
    """In-memory span recorder; spans nest through an explicit stack."""

    enabled = True

    def __init__(self) -> None:
        self.keys: dict[tuple[str, str], int] = {}
        self.key = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.op = array("i")
        self._stack = [-1]
        self._op_id = -1
        self._frozen: tuple[int, dict[str, np.ndarray]] | None = None

    def open(self, name: str, tag: str, op_id: int | None = None) -> int:
        """Start a span; ``op_id`` marks the root span of an op."""
        if op_id is not None:
            self._op_id = op_id
        index = len(self.start)
        self.key.append(self.keys.setdefault((name, tag), len(self.keys)))
        self.parent.append(self._stack[-1])
        self.op.append(self._op_id)
        self.end.append(0.0)
        self._stack.append(index)
        self.start.append(perf_counter())
        return index

    def close(self, index: int) -> None:
        self.end[index] = perf_counter()
        self._stack.pop()

    def call(self, name: str, tag: str, fn, *args):
        index = self.open(name, tag)
        try:
            return fn(*args)
        finally:
            self.close(index)

    # -- analysis -------------------------------------------------------------

    def arrays(self) -> dict[str, np.ndarray]:
        """The spans as numpy columns (cached until another span is added)."""
        if self._frozen is None or self._frozen[0] != len(self.start):
            self._frozen = (len(self.start), self._columns())
        return self._frozen[1]

    def _columns(self) -> dict[str, np.ndarray]:
        return {
            "key": np.frombuffer(self.key, dtype=np.int32).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
            "op": np.frombuffer(self.op, dtype=np.int32).copy(),
        }

    def durations(self, name: str, tag_prefix: str = "", ops=None) -> np.ndarray:
        """Durations (s) of the spans with this name and a matching tag,
        optionally only those belonging to the given op ids."""
        a = self.arrays()
        keys = [k for (n, t), k in self.keys.items() if n == name and t.startswith(tag_prefix)]
        mask = np.isin(a["key"], keys)
        if ops is not None:
            mask &= np.isin(a["op"], list(ops))
        return (a["end"] - a["start"])[mask]

    def self_times(self, ops) -> dict[str, float]:
        """Self time (s) per layer inside the ``bench.op`` spans of the given ops.

        A span's self time is its duration minus its children's durations;
        the layer is the part of the name before the first dot.  Spans under
        an op's ``bench.check`` root (output checks) are left out.
        """
        a = self.arrays()
        dur = a["end"] - a["start"]
        child = np.zeros_like(dur)
        has_parent = a["parent"] >= 0
        np.add.at(child, a["parent"][has_parent], dur[has_parent])
        own = dur - child
        root = np.where(has_parent, a["parent"], np.arange(len(dur)))
        while True:
            up = np.where(a["parent"][root] >= 0, a["parent"][root], root)
            if np.array_equal(up, root):
                break
            root = up
        op_keys = [k for (n, _), k in self.keys.items() if n == "bench.op"]
        mask = np.isin(a["op"], list(ops)) & np.isin(a["key"][root], op_keys)
        per_key = np.bincount(a["key"][mask], weights=own[mask], minlength=len(self.keys))
        out: dict[str, float] = {}
        for (name, _), k in self.keys.items():
            layer = name.split(".", 1)[0]
            out[layer] = out.get(layer, 0.0) + float(per_key[k])
        return out

    def write(self, path: Path, ops: list[dict]) -> None:
        """Write every span, the span-name table and the op list (npz)."""
        path.parent.mkdir(parents=True, exist_ok=True)
        names = sorted(self.keys, key=self.keys.get)
        np.savez_compressed(
            path,
            names=np.array([f"{n}@{t}" for n, t in names]),
            ops=np.array([f"{o['id']} {o['workload']} {o['pass']} {o['kind']}" for o in ops]),
            **self.arrays(),
        )
