"""In-memory span tracer for the benchmark's traced run.

The program is not modified.  `Tracer.install` rebinds each traced public
function, in every loaded `shearspec` module that holds a reference to it,
to a wrapper that records a span.  Rebinding only the defining module would
miss calls from `cli`, `reconstruction`, `interferometer` and `analysis`,
which import these functions by name.
"""

from __future__ import annotations

import functools
import inspect
import json
import os
import sys
import time

# Layer boundaries, by the module that defines each function.  Every public
# function of `config` is traced and reported together as `config.s`.
TARGETS = {
    "cli": ("main",),
    "core": (
        "spectral_to_temporal_array",
        "temporal_to_spectral_array",
        "wigner",
        "load_mode",
        "save_mode",
    ),
    "synthesis": ("synthesize",),
    "interferometer": (
        "ideal_interferogram",
        "detect_counts",
        "save_interferogram_csv",
        "load_interferogram_csv",
    ),
    "reconstruction": (
        "reconstruct",
        "extract_phase_difference",
        "integrate_phase",
        "fit_phase_polynomial",
        "calibrate_delay",
        "save_result",
        "load_result",
    ),
    "analysis": ("temporal_profile", "orthogonality_report", "save_wigner_csv"),
    "config": None,
}

TRANSFORMS = ("core.spectral_to_temporal_array", "core.temporal_to_spectral_array")
OP_SPAN = "op"


def _config_functions(module) -> tuple:
    return tuple(
        name
        for name, fn in vars(module).items()
        if inspect.isfunction(fn) and fn.__module__ == module.__name__ and not name.startswith("_")
    )


class Span:
    __slots__ = ("name", "start", "end", "parent", "op", "raised", "nbytes")

    def __init__(self, name: str, parent: int, op: int):
        self.name = name
        self.parent = parent
        self.op = op
        self.start = self.end = 0.0
        self.raised = False
        self.nbytes = 0

    def as_dict(self) -> dict:
        return {slot: getattr(self, slot) for slot in self.__slots__}


class Tracer:
    """Records (name, start, end, parent, op id) for every traced call."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._saved: list[tuple] = []
        self._op = -1
        self.span_names: list[str] = []

    # ---- patching ------------------------------------------------------------

    def install(self) -> None:
        modules = [m for n, m in sys.modules.items() if n == "shearspec" or n.startswith("shearspec.")]
        for short, names in TARGETS.items():
            module = sys.modules[f"shearspec.{short}"]
            for fname in names or _config_functions(module):
                original = getattr(module, fname)
                wrapper = self._wrap(f"{short}.{fname}", original)
                self.span_names.append(f"{short}.{fname}")
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            self._saved.append((mod, attr, original))
                            setattr(mod, attr, wrapper)

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._saved):
            setattr(mod, attr, original)
        self._saved.clear()

    def _open(self, name: str) -> Span:
        span = Span(name, self._stack[-1] if self._stack else -1, self._op)
        self.spans.append(span)
        self._stack.append(len(self.spans) - 1)
        return span

    def _wrap(self, name: str, fn):
        writer = fn.__name__.startswith("save_")

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self._open(name)
            span.start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            except BaseException:
                span.raised = True
                raise
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
                if writer and not span.raised:
                    span.nbytes = os.path.getsize(args[1] if len(args) > 1 else kwargs["path"])

        return traced

    # ---- ops -----------------------------------------------------------------

    def call_op(self, op_id: int, fn, *args):
        """Run one op under a root span; all spans it opens carry op_id."""
        self._op = op_id
        span = self._open(OP_SPAN)
        span.start = time.perf_counter()
        try:
            return fn(*args)
        finally:
            span.end = time.perf_counter()
            self._stack.pop()

    def write(self, path) -> None:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span.as_dict()) + "\n")

    # ---- per-layer metrics ---------------------------------------------------

    def layer_metrics(self, n_ops: int) -> dict:
        """Per-op totals for every traced function, plus the grouped metrics.

        A span's self time is its duration minus that of its direct children;
        calls are single-threaded and nest, so the children never overlap.
        """
        child = [0.0] * len(self.spans)
        for sp in self.spans:
            if sp.parent >= 0:
                child[sp.parent] += sp.end - sp.start
        stats = {name: {"s": 0.0, "calls": 0, "self_s": 0.0, "bytes": 0} for name in self.span_names}
        config_s = 0.0
        errors = 0
        for i, sp in enumerate(self.spans):
            if sp.name == OP_SPAN:
                continue
            dur = sp.end - sp.start
            st = stats[sp.name]
            st["s"] += dur
            st["calls"] += 1
            st["self_s"] += dur - child[i]
            st["bytes"] += sp.nbytes
            parent = self.spans[sp.parent].name if sp.parent >= 0 else ""
            if sp.name.startswith("config.") and not parent.startswith("config."):
                config_s += dur
            if sp.raised and sp.name.startswith("reconstruction.") and not parent.startswith("reconstruction."):
                errors += 1

        n = max(n_ops, 1)
        out = {}
        for name, st in stats.items():
            for stat, value in st.items():
                out[f"{name}.{stat}"] = value / n
        out["core.transform.s"] = sum(stats[t]["s"] for t in TRANSFORMS) / n
        out["core.transform.calls"] = sum(stats[t]["calls"] for t in TRANSFORMS) / n
        out["cli.self_s"] = stats["cli.main"]["self_s"] / n
        out["config.s"] = config_s / n
        out["reconstruction.errors"] = errors / n
        return out
