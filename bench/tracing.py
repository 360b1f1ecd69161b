"""Spans and counters for the traced benchmark run.

The tracer wraps the public functions of the hetsed modules at the module
attribute, so calls made through a module (``evaluation.intersection_match``,
or an unqualified call inside the defining module) open a span.  A span
records its name, start, end and parent; spans and counters stay in memory
and are folded into per-layer metrics once a pass ends.

Span names are ``<module>.<function>``.  The benchmark's own operations open
``bench.<stage>`` spans and its CLI calls ``cli.<command>`` spans, so every
span's first name part is the layer its self time is charged to.
"""

from __future__ import annotations

import functools
import inspect
import os
from collections import Counter
from contextlib import contextmanager
from time import perf_counter

import numpy as np

# Wrapping these would only duplicate a span the benchmark already opens.
_NOT_WRAPPED = {"hetsed.cli.main"}


class Tracer:
    """Collects spans and counters for one pass at a time."""

    def __init__(self, modules) -> None:
        self._modules = list(modules)
        self._patched: list[tuple[object, str, object]] = []
        self.reset()

    def reset(self) -> None:
        self.spans: list[list] = []  # [name, start, end, parent index]
        self._stack: list[int] = []
        self.counts: Counter = Counter()
        self.windows: set[int] = set()

    @contextmanager
    def span(self, name: str):
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        record = [name, perf_counter(), 0.0, parent]
        self.spans.append(record)
        self._stack.append(index)
        try:
            yield
        finally:
            record[2] = perf_counter()
            self._stack.pop()

    def error(self, layer: str) -> None:
        self.counts[f"{layer}.errors"] += 1

    def _parent_name(self) -> str:
        return self.spans[self._stack[-1]][0] if self._stack else ""

    def install(self) -> None:
        """Replace every public hetsed function, wherever a module binds it."""
        if self._patched:
            raise RuntimeError("tracer already installed")
        wrapped: dict[int, object] = {}
        for module in self._modules:
            for attr, fn in list(vars(module).items()):
                if not inspect.isfunction(fn) or attr.startswith("_"):
                    continue
                qualified = f"{fn.__module__}.{fn.__name__}"
                if not fn.__module__.startswith("hetsed.") or qualified in _NOT_WRAPPED:
                    continue
                if id(fn) not in wrapped:
                    wrapped[id(fn)] = self._wrap(fn)
                self._patched.append((module, attr, fn))
                setattr(module, attr, wrapped[id(fn)])

    def uninstall(self) -> None:
        for module, attr, fn in reversed(self._patched):
            setattr(module, attr, fn)
        self._patched.clear()

    def _wrap(self, fn):
        layer = fn.__module__.rsplit(".", 1)[-1]
        name = f"{layer}.{fn.__name__}"
        hook = _HOOKS.get(name)
        if layer == "formats" and fn.__name__.startswith("read_"):
            hook = _count_read
        elif layer == "formats" and fn.__name__.startswith("write_"):
            hook = _count_written
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span_name = name
            if name == "fdy.fdy_conv":
                span_name = f"{name}.cin{np.shape(_arg(args, kwargs, 0, 'x'))[0]}"
            try:
                with tracer.span(span_name):
                    result = fn(*args, **kwargs)
            except Exception:
                tracer.error(layer)
                raise
            if hook is not None:
                hook(tracer, args, kwargs, result)
            return result

        return traced

    def summary(self) -> dict[str, float]:
        """Per-layer metrics of the spans and counters since the last reset."""
        covered = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        out: dict[str, float] = Counter()
        for (name, start, end, _), children in zip(self.spans, covered):
            out[f"{name}.calls"] += 1
            out[f"{name}.busy_s"] += end - start
            out[f"{name}.self_s"] += end - start - children
            out[f"{name.split('.', 1)[0]}.self_s"] += end - start - children
        out.update(self.counts)
        out["postprocess.moving_average.windows"] = len(self.windows)
        swept = self.counts["evaluation.dets_swept"]
        out["evaluation.rematch_ratio"] = self.counts["evaluation.dets_matched"] / swept if swept else 0.0
        out["trace.spans"] = len(self.spans)
        return dict(out)


def _arg(args, kwargs, position: int, name: str):
    return args[position] if len(args) > position else kwargs[name]


def _count_read(tracer: Tracer, args, kwargs, result) -> None:
    tracer.counts["formats.bytes_read"] += os.path.getsize(_arg(args, kwargs, 0, "path"))


def _count_written(tracer: Tracer, args, kwargs, result) -> None:
    # write_sebbs_tsv writes through write_soft_events_tsv: count the file once
    if not tracer._parent_name().startswith("formats.write_"):
        tracer.counts["formats.bytes_written"] += os.path.getsize(_arg(args, kwargs, 0, "path"))


def _fdy_conv(tracer: Tracer, args, kwargs, result) -> None:
    x = np.asarray(_arg(args, kwargs, 0, "x"))
    kernels = _arg(args, kwargs, 1, "params").basis_kernels
    k, c_out, c_in, k_f, k_t = kernels.shape
    _, f, t = x.shape
    taps = c_out * c_in * k_f * k_t
    # per-frequency kernel mix plus the correlation with the mixed kernel
    tracer.counts["fdy.macs"] += f * k * taps + f * t * taps
    tracer.counts["fdy.bytes"] += 8 * (x.size + kernels.size + result.size)


def _domain_gen_bytes(tracer: Tracer, args, kwargs, result) -> None:
    arrays = [a for a in args + tuple(kwargs.values()) if isinstance(a, np.ndarray) and a.ndim == 3]
    tracer.counts["domain_gen.bytes"] += 8 * (sum(a.size for a in arrays) + result.size)


def _key(count: str, measure):
    def hook(tracer: Tracer, args, kwargs, result) -> None:
        tracer.counts[count] += measure(args, kwargs, result)

    return hook


def _moving_average(tracer: Tracer, args, kwargs, result) -> None:
    tracer.windows.add(int(_arg(args, kwargs, 1, "window")))


_HOOKS = {
    "evaluation.intersection_match": _key(
        "evaluation.dets_matched", lambda a, k, r: len(_arg(a, k, 0, "dets"))
    ),
    "evaluation.roc_from_confidences": _key(
        "evaluation.dets_swept", lambda a, k, r: len(_arg(a, k, 0, "dets"))
    ),
    "evaluation.segment_scores": _key("evaluation.segments", lambda a, k, r: r.shape[0]),
    "postprocess.csebb_detect": _key("postprocess.boxes", lambda a, k, r: len(r)),
    "postprocess.frame_threshold_merge": _key("postprocess.events", lambda a, k, r: len(r)),
    "postprocess.moving_average": _moving_average,
    "features.extract_log_mel": _key("features.frames", lambda a, k, r: r.values.shape[0]),
    "fdy.fdy_conv": _fdy_conv,
    "domain_gen.freq_mixstyle": _domain_gen_bytes,
    "domain_gen.freq_mixstyle_input_grad": _domain_gen_bytes,
    "domain_gen.residual_norm": _domain_gen_bytes,
}
