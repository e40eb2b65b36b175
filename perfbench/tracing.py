"""Spans around calls into each psdbounds layer, recorded from outside the package.

Tracing patches names where the calling module looks them up: modules bind
names at import (``widths.gaussian_sym``, each module's ``substream``), so a
patch on the defining module alone would miss those calls.  ``install``
returns a handle whose ``remove`` restores every original, so traced and
untraced passes can alternate in one process.

Spans live in memory; ``collect`` turns the spans of one pass into per-layer
metrics and drops them.  A span's self time is its duration minus the union
of its child spans, so overlapping children in pool threads are not counted
twice.  Spans opened in pool worker threads take as parent the span that
submitted the work.
"""

from __future__ import annotations

import math
import threading
import time
from collections import defaultdict
from concurrent.futures import ThreadPoolExecutor

import numpy as np

# Layer metrics whose values depend only on the seed; two traced runs of one
# commit must agree on them exactly.
EXACT_COUNTS = (
    "linalg.gaussian_sym.calls",
    "lapack.eigvalsh.matrices",
    "cones.member.eig_subsets",
    "widths.k_sparse.exhaustive.eig_subsets",
    "widths.k_sparse.greedy.eig_subsets",
    "hypercube.fourier_transform.values",
)

# Spans reported as <name>.calls and <name>.self_s.
SPAN_NAMES = (
    "rng.substream",
    "linalg.gaussian_sym",
    "linalg.to_dense",
    "linalg.project_traceless",
    "linalg.read_symmat",
    "linalg.write_symmat",
    "lapack.eigvalsh",
    "lapack.einsum",
    "widths.width_base_psd",
    "widths.width_general_dual",
    "widths.width_dual_base_sparse",
    "widths.width_via_oracle",
    "widths.k_sparse.exhaustive",
    "widths.k_sparse.greedy",
    "cones.sparse_kpsd_member",
    "cones.sparse_kpsd_refute",
    "cones.read_conefam",
    "hypercube.fourier_transform",
    "hypercube.inverse_fourier",
    "hypercube.variance_identity_check",
    "bounds.emit_curve",
    "cli.main",
)

# Counters other than calls and self time, all summed over a pass.
COUNTER_NAMES = (
    "linalg.to_dense.bytes",
    "lapack.eigvalsh.matrices",
    "lapack.eigvalsh.flops_est",
    "cones.member.eig_subsets",
    "widths.k_sparse.exhaustive.eig_subsets",
    "widths.k_sparse.greedy.eig_subsets",
    "hypercube.fourier_transform.values",
    "bounds.emit_curve.points",
)


class Span:
    __slots__ = ("name", "parent", "t0", "t1", "eig")

    def __init__(self, name: str, parent: "Span | None"):
        self.name = name
        self.parent = parent
        self.t0 = self.t1 = 0.0
        self.eig = 0  # matrices sent to eigvalsh under this span


def _covered(span: Span, children: list[Span]) -> float:
    """Length of the union of the children's intervals inside the span."""
    total = 0.0
    end = span.t0
    for child in sorted(children, key=lambda c: c.t0):
        lo, hi = max(child.t0, end), min(child.t1, span.t1)
        if hi > lo:
            total += hi - lo
            end = hi
    return total


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.counters: dict[str, float] = defaultdict(float)
        self._local = threading.local()

    def current(self) -> Span | None:
        stack = getattr(self._local, "stack", None)
        return stack[-1] if stack else None

    def adopt(self, parent: Span | None, fn, *args, **kwargs):
        """Run fn in this thread with parent as the enclosing span."""
        saved = getattr(self._local, "stack", None)
        self._local.stack = [parent] if parent is not None else []
        try:
            return fn(*args, **kwargs)
        finally:
            self._local.stack = saved

    def wrap(self, name, fn, after=None):
        """Span around fn; name may be a callable of the call's arguments.

        after(span, args, kwargs, result) runs once the span has closed.
        """

        def traced(*args, **kwargs):
            stack = getattr(self._local, "stack", None)
            if stack is None:
                stack = self._local.stack = []
            span = Span(name(args, kwargs) if callable(name) else name, stack[-1] if stack else None)
            self.spans.append(span)
            stack.append(span)
            span.t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.t1 = time.perf_counter()
                stack.pop()
            if after is not None:
                after(span, args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def collect(self) -> dict[str, float]:
        """Per-layer metrics of the spans recorded since the last collect."""
        spans, self.spans = self.spans, []
        counters = dict(self.counters)
        self.counters.clear()  # cleared in place: install's hooks hold this dict
        children: dict[int, list[Span]] = defaultdict(list)
        for span in spans:
            if span.parent is not None:
                children[id(span.parent)].append(span)
        out = {f"{n}.{stat}": 0.0 for n in SPAN_NAMES for stat in ("calls", "self_s")}
        out.update({n: 0.0 for n in COUNTER_NAMES})
        for span in spans:
            out[f"{span.name}.calls"] += 1
            out[f"{span.name}.self_s"] += (span.t1 - span.t0) - _covered(span, children[id(span)])
        for key, value in counters.items():
            if key in out:
                out[key] += value
        subsets = counters.get("member.subsets", 0.0)
        out["cones.member.screen_miss_ratio"] = counters.get("member.eig", 0.0) / subsets if subsets else 0.0
        return out


class Installed:
    def __init__(self):
        self._saved: list[tuple[object, str, object]] = []

    def patch(self, owner, attr: str, value) -> None:
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def remove(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)


def install(tracer: Tracer) -> Installed:
    """Patch every traced name; call remove() on the result to undo."""
    from psdbounds import _rng, bounds, cli, cones, hypercube, linalg, widths

    handle = Installed()
    add = tracer.counters

    def patch_all(owners, attr, wrapped):
        for owner in owners:
            handle.patch(owner, attr, wrapped)

    patch_all((_rng, linalg, cones, widths, hypercube, cli), "substream",
              tracer.wrap("rng.substream", _rng.substream))
    patch_all((linalg, widths, hypercube), "gaussian_sym",
              tracer.wrap("linalg.gaussian_sym", linalg.gaussian_sym))
    patch_all((linalg, hypercube), "project_traceless",
              tracer.wrap("linalg.project_traceless", linalg.project_traceless))

    def dense_bytes(span, args, kwargs, result):
        add["linalg.to_dense.bytes"] += 8 * args[0].dim ** 2

    handle.patch(linalg.SymmetricMatrix, "to_dense",
                 tracer.wrap("linalg.to_dense", linalg.SymmetricMatrix.to_dense, dense_bytes))
    for attr in ("read_symmat", "write_symmat"):
        handle.patch(linalg, attr, tracer.wrap(f"linalg.{attr}", getattr(linalg, attr)))

    def eig_counts(span, args, kwargs, result):
        shape = np.shape(args[0])
        n = shape[-1]
        matrices = math.prod(shape[:-2])
        add["lapack.eigvalsh.matrices"] += matrices
        add["lapack.eigvalsh.flops_est"] += matrices * 4.0 * n**3 / 3.0
        ancestor = span.parent
        while ancestor is not None:
            ancestor.eig += matrices
            ancestor = ancestor.parent

    handle.patch(np.linalg, "eigvalsh", tracer.wrap("lapack.eigvalsh", np.linalg.eigvalsh, eig_counts))
    handle.patch(np, "einsum", tracer.wrap("lapack.einsum", np.einsum))

    for attr in ("width_base_psd", "width_general_dual", "width_dual_base_sparse", "width_via_oracle"):
        handle.patch(widths, attr, tracer.wrap(f"widths.{attr}", getattr(widths, attr)))

    def k_sparse_name(args, kwargs):
        mode = kwargs.get("mode", args[2] if len(args) > 2 else "exhaustive")
        return f"widths.k_sparse.{mode}"

    def k_sparse_counts(span, args, kwargs, result):
        add[f"{span.name}.eig_subsets"] += span.eig

    handle.patch(widths, "k_sparse_largest_eigenvalue",
                 tracer.wrap(k_sparse_name, widths.k_sparse_largest_eigenvalue, k_sparse_counts))

    class AdoptingPool(ThreadPoolExecutor):
        def submit(self, fn, /, *args, **kwargs):
            return super().submit(tracer.adopt, tracer.current(), fn, *args, **kwargs)

    handle.patch(widths, "ThreadPoolExecutor", AdoptingPool)

    def member_counts(span, args, kwargs, result):
        add["cones.member.eig_subsets"] += span.eig
        tol = kwargs.get("tol", args[2] if len(args) > 2 else None)
        if result and (tol is None or tol > 0):  # tol=0 skips the screen
            add["member.eig"] += span.eig
            add["member.subsets"] += math.comb(args[0].dim, args[1])

    handle.patch(cones, "sparse_kpsd_member",
                 tracer.wrap("cones.sparse_kpsd_member", cones.sparse_kpsd_member, member_counts))
    for attr in ("sparse_kpsd_refute", "read_conefam"):
        handle.patch(cones, attr, tracer.wrap(f"cones.{attr}", getattr(cones, attr)))

    def transform_values(span, args, kwargs, result):
        add["hypercube.fourier_transform.values"] += result.coefficients.size

    handle.patch(hypercube, "fourier_transform",
                 tracer.wrap("hypercube.fourier_transform", hypercube.fourier_transform, transform_values))
    for attr in ("inverse_fourier", "variance_identity_check"):
        handle.patch(hypercube, attr, tracer.wrap(f"hypercube.{attr}", getattr(hypercube, attr)))

    def curve_points(span, args, kwargs, result):
        add["bounds.emit_curve.points"] += len(result.points)

    handle.patch(bounds, "emit_curve", tracer.wrap("bounds.emit_curve", bounds.emit_curve, curve_points))
    handle.patch(cli, "main", tracer.wrap("cli.main", cli.main))
    return handle
