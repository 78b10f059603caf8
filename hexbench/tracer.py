"""Spans around hexcnn's public functions, recorded from outside the package.

``Tracer.installed()`` wraps each function in TARGETS and rebinds the
wrapper in every ``hexcnn`` namespace that holds the original, whatever
name it was bound under (``ops.gemm``, ``zeronet.gemm``,
``grads.window_columns``, ``nn.conv_valid``, ...).  Modules are reached
through ``sys.modules``: the package re-exports some functions under
their module's name (``hexcnn.im2col`` is a function), so attribute
access on the package would miss them.  Every original is restored on
exit.

Each op opens a root span; every span keeps (name, start, end, parent
span, op), in memory until the run writes them out.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import sys
from time import perf_counter

# (module, function, counter): the counter turns (args, result) into the
# span's work count, or is None.
TARGETS = (
    ("hexcnn.nn", "forward", None),
    ("hexcnn.nn", "backward", None),
    ("hexcnn.nn", "apply_gradients", None),
    ("hexcnn.grid", "pad_rings", None),
    ("hexcnn.ops", "window_columns", lambda args, out: out.nbytes),
    ("hexcnn.ops", "conv_valid", None),
    ("hexcnn.ops", "conv_full", None),
    ("hexcnn.ops", "maxpool", None),
    ("hexcnn.grads", "maxpool_backward", None),
    ("hexcnn.grads", "conv_backward_filter", None),
    ("hexcnn.grads", "conv_backward_input", None),
    ("hexcnn.grads", "upsample_stride", None),
    ("hexcnn.matmul", "gemm", lambda args, out: args[0].shape[0] * args[0].shape[1] * args[1].shape[1]),
    ("hexcnn.zeronet", "forward_zeroout", None),
    ("hexcnn.zeronet", "backward_zeroout", None),
    ("hexcnn.resample", "square_to_hex", None),
)

ROOT = "op"


class Tracer:
    def __init__(self):
        self.spans = []  # (name, start, end, parent span index or -1, op index, count)
        self.ops = []  # (path, op input index, root span index)
        self.tensors = {}  # path -> [HexTensor constructions, bytes copied]
        self.bindings = {}  # "module.function" -> namespaces patched
        self._stack = [-1]
        self._path = None

    def _span(self, name, counter, fn):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = len(spans)
            spans.append(None)
            stack.append(sid)
            t0 = perf_counter()
            out = None
            try:
                out = fn(*args, **kwargs)
                return out
            finally:
                t1 = perf_counter()
                stack.pop()
                count = counter(args, out) if counter and out is not None else 0
                spans[sid] = (name, t0, t1, stack[-1], len(self.ops) - 1, count)

        return wrapper

    @contextlib.contextmanager
    def op(self, path: str, index: int):
        """Root span of one op on ``path`` ("native" or "zeroout")."""
        sid = len(self.spans)
        self.ops.append((path, index, sid))
        self.spans.append(None)
        self._stack.append(sid)
        self._path = path
        t0 = perf_counter()
        try:
            yield
        finally:
            t1 = perf_counter()
            self._stack.pop()
            self._path = None
            self.spans[sid] = (ROOT, t0, t1, -1, len(self.ops) - 1, 0)

    @contextlib.contextmanager
    def installed(self):
        mods = [m for k, m in list(sys.modules.items()) if k == "hexcnn" or k.startswith("hexcnn.")]
        undo = []
        try:
            for modname, fname, counter in TARGETS:
                orig = getattr(importlib.import_module(modname), fname)
                name = f"{modname.split('.')[-1]}.{fname}"
                wrapped = self._span(name, counter, orig)
                where = []
                for m in mods:
                    for attr, value in list(vars(m).items()):
                        if value is orig:
                            setattr(m, attr, wrapped)
                            undo.append((m, attr, orig))
                            where.append(f"{m.__name__}.{attr}")
                self.bindings[name] = where
            hex_tensor = importlib.import_module("hexcnn.grid").HexTensor
            post_init = hex_tensor.__post_init__

            def counted_post_init(t):
                post_init(t)
                if self._path is not None:
                    tally = self.tensors.setdefault(self._path, [0, 0])
                    tally[0] += 1
                    tally[1] += t.data.nbytes

            hex_tensor.__post_init__ = counted_post_init
            undo.append((hex_tensor, "__post_init__", post_init))
            yield self
        finally:
            for obj, attr, orig in reversed(undo):
                setattr(obj, attr, orig)

    def layer_stats(self, path: str) -> dict:
        """Per-op means over the ops on ``path``: calls, busy and self ms, counts.

        Self time is a span's duration minus its direct children's (spans
        nest and do not overlap: one thread, one caller).  ``covered`` is
        the share of root time spent inside any layer span.
        """
        op_ids = {k for k, (p, _, _) in enumerate(self.ops) if p == path}
        n = len(op_ids)
        child = [0.0] * len(self.spans)
        for name, t0, t1, parent, op, _ in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        stats = {}
        root_ms = []
        covered = 0.0
        for sid, (name, t0, t1, parent, op, count) in enumerate(self.spans):
            if op not in op_ids:
                continue
            busy = t1 - t0
            if name == ROOT:
                root_ms.append(1e3 * busy)
                covered += child[sid] / busy
                continue
            s = stats.setdefault(name, {"calls": 0, "busy_ms": 0.0, "self_ms": 0.0, "count": 0})
            s["calls"] += 1
            s["busy_ms"] += 1e3 * busy
            s["self_ms"] += 1e3 * (busy - child[sid])
            s["count"] += count
        for s in stats.values():
            for k in s:
                s[k] /= n
        tensors = self.tensors.get(path, [0, 0])
        return {
            "ops": n,
            "op_ms": root_ms,
            "covered_frac": covered / n,
            "layers": stats,
            "hex_tensors": tensors[0] / n,
            "hex_tensor_bytes": tensors[1] / n,
        }

    def write_spans(self, fh) -> None:
        """One JSON line per span, ops numbered in run order."""
        for sid, (name, t0, t1, parent, op, count) in enumerate(self.spans):
            path, index, _ = self.ops[op]
            rec = {"id": sid, "parent": parent, "op": op, "path": path, "input": index,
                   "name": name, "start": t0, "end": t1, "count": count}
            fh.write(json.dumps(rec) + "\n")
