"""Span recorder for the traced run.

Timing wrappers go around the public functions of each strathom module
from outside: nothing inside `src/` is changed.  Modules that bind a name
with `from .qlinalg import rank` hold their own reference, so every
wrapper is installed on every strathom module whose attribute is the
original object, and all of them are restored on exit.

Spans (name, start, end, parent, command) are kept in memory; `dump`
writes them out once, at the end of the run.
"""

from __future__ import annotations

import functools
import inspect
import json
import os
import sys
import time
from collections import Counter, defaultdict

QLINALG_FNS = ("rank", "kernel_basis", "image_basis", "sum_dim",
               "signature_sym")
IO_DUMP_FNS = ("dump_canonical", "space_to_dict", "complex_to_dict",
               "pairing_to_dict", "matrix_to_rows")
# Module layers whose public functions are wrapped.  qlinalg is limited to
# the elimination entry points the CLI reaches (`solve` serves only
# `induced_map`, which no command calls): as_rational and the stacking
# helpers run per entry and would only measure the wrapper.
LAYERS = ("cli", "io", "stratified", "qlinalg", "chains", "simplicial",
          "signatures", "modes")


class Span:
    __slots__ = ("id", "parent", "cmd", "layer", "name", "start", "end")

    def __init__(self, id, parent, cmd, layer, name, start, end=None):
        self.id, self.parent, self.cmd = id, parent, cmd
        self.layer, self.name = layer, name
        self.start, self.end = start, end


def self_times(spans) -> dict:
    """span id -> its duration minus the part of it its children cover."""
    children = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append((s.start, s.end))
    out = {}
    for s in spans:
        covered = 0
        lo = s.start
        for a, b in sorted(children.get(s.id, ())):
            a, b = max(a, lo), min(b, s.end)
            if b > a:
                covered += b - a
                lo = b
        out[s.id] = (s.end - s.start) - covered
    return out


def _public_functions(module) -> list[str]:
    return [n for n, obj in vars(module).items()
            if not n.startswith("_") and inspect.isfunction(obj)
            and obj.__module__ == module.__name__]


class Tracer:
    """Install with `with tracer:`; call `command(i)` before and
    `end_command()` after each command."""

    def __init__(self):
        self.spans: list[Span] = []
        self.stack: list[Span] = []
        self.counts = Counter()
        self.spaces: list = []
        self.cmd = -1
        self._patches: list = []
        self._stratified_depth = 0

    # -- span bookkeeping -------------------------------------------------

    def _open(self, layer: str, name: str) -> Span:
        parent = self.stack[-1].id if self.stack else None
        span = Span(len(self.spans), parent, self.cmd, layer, name,
                    time.perf_counter_ns())
        self.spans.append(span)
        self.stack.append(span)
        return span

    def _close(self, span: Span) -> None:
        span.end = time.perf_counter_ns()
        self.stack.pop()

    def _wrap(self, layer: str, name: str, fn, after=None):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = tracer._open(layer, name)
            if layer == "stratified":
                tracer._stratified_depth += 1
            elif layer == "qlinalg" and tracer._stratified_depth:
                tracer.counts["stratified.rank_calls"] += 1
            try:
                out = fn(*args, **kwargs)
            finally:
                if layer == "stratified":
                    tracer._stratified_depth -= 1
                tracer._close(span)
            if after is not None:
                after(tracer.counts, args, out)
            return out
        return wrapper

    # -- installation -----------------------------------------------------

    def _replace(self, original, replacement) -> None:
        """Point every strathom module attribute bound to `original` at
        `replacement`."""
        for mod_name, module in list(sys.modules.items()):
            if module is None or not (mod_name == "strathom"
                                      or mod_name.startswith("strathom.")):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._patches.append((module, attr, original))
                    setattr(module, attr, replacement)

    def _patch_method(self, cls, attr: str, replacement) -> None:
        self._patches.append((cls, attr, getattr(cls, attr)))
        setattr(cls, attr, replacement)

    def __enter__(self):
        import strathom.cli  # noqa: F401  (loads every layer module)
        from strathom import chains, qlinalg, stratified
        for layer in LAYERS:
            module = sys.modules[f"strathom.{layer}"]
            names = QLINALG_FNS if layer == "qlinalg" else \
                ["main"] if layer == "cli" else _public_functions(module)
            for name in names:
                original = getattr(module, name)
                after = None
                if layer == "qlinalg":
                    after = _qlinalg_counter(name)
                elif layer == "io" and name == "load_json":
                    after = _bytes_in
                self._replace(original, self._wrap(layer, name, original, after))
        self._patch_method(chains.ChainComplex, "homology", self._wrap(
            "chains", "homology", chains.ChainComplex.homology))
        self._patch_method(qlinalg.IncrementalSpan, "add",
                           _span_add(self.counts, qlinalg.IncrementalSpan.add))
        self._patch_method(stratified.TwoStrataSpace, "__init__",
                           _space_init(self.spaces,
                                       stratified.TwoStrataSpace.__init__))
        return self

    def __exit__(self, *exc):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)
        return False

    # -- per-command hooks --------------------------------------------------

    def command(self, index: int) -> None:
        self.cmd = index

    def end_command(self) -> None:
        """Count the rank-cache entries of the spaces the command built."""
        self.counts["stratified.cache_entries"] += sum(
            len(s._rank_cache) for s in self.spaces)
        self.spaces.clear()

    # -- results ----------------------------------------------------------

    def metrics(self) -> dict:
        """Per-layer metrics of everything recorded so far (seconds)."""
        selfs = self_times(self.spans)
        m = Counter()
        for s in self.spans:
            st = selfs[s.id] / 1e9
            m[f"{s.layer}.calls"] += 1
            m[f"{s.layer}.self_s"] += st
            if s.layer == "qlinalg":
                m[f"qlinalg.{s.name}.calls"] += 1
                m[f"qlinalg.{s.name}.self_s"] += st
            elif s.layer == "io":
                m["io.dump_s" if s.name in IO_DUMP_FNS else "io.load_s"] += st
            elif s.layer == "simplicial":
                if s.name in ("boundary_matrix", "ih_direct"):
                    m[f"simplicial.{s.name}.calls"] += 1
                if s.name in ("ih_direct", "cup_pairing"):
                    m[f"simplicial.{s.name}.self_s"] += st
                if s.name == "barycentric_subdivide":
                    m["simplicial.subdivide_s"] += (s.end - s.start) / 1e9
        m.update(self.counts)
        adds = self.counts["qlinalg.span_adds"]
        m["qlinalg.span_accept_ratio"] = (
            self.counts["qlinalg.span_accepted"] / adds if adds else 0.0)
        return dict(m)

    def dump(self, path) -> None:
        with open(path, "w") as f:
            json.dump({"fields": ["id", "parent", "cmd", "layer", "name",
                                  "start_ns", "end_ns"],
                       "spans": [[s.id, s.parent, s.cmd, s.layer, s.name,
                                  s.start, s.end] for s in self.spans]}, f)


def _qlinalg_counter(name: str):
    prefix = f"qlinalg.{name}"

    def after(counts, args, out):
        if name == "sum_dim":
            subspaces = args[:2]
            nnz = sum(len(v) for s in subspaces for v in s.basis)
            cells = sum(s.ambient_dim * s.dim for s in subspaces)
        else:
            m = args[0]
            nnz, cells = m.nnz, m.rows * m.cols
        if name in ("rank", "sum_dim"):
            r = out
        elif name == "kernel_basis":
            r = args[0].cols - out.dim
        elif name == "image_basis":
            r = out.dim
        else:  # signature_sym
            r = out.pos + out.neg
        counts[f"{prefix}.nnz_in"] += nnz
        counts[f"{prefix}.cells_in"] += cells
        counts[f"{prefix}.rank_out"] += r
    return after


def _bytes_in(counts, args, out):
    counts["io.bytes_in"] += os.path.getsize(args[0])


def _span_add(counts, original):
    @functools.wraps(original)
    def add(self, vec):
        grew = original(self, vec)
        counts["qlinalg.span_adds"] += 1
        counts["qlinalg.span_accepted"] += grew
        return grew
    return add


def _space_init(spaces, original):
    @functools.wraps(original)
    def __init__(self, *args, **kwargs):
        original(self, *args, **kwargs)
        spaces.append(self)
    return __init__
