"""Spans and counters recorded around calls into the ``dsie`` modules.

Tracing wraps the module attributes named in ``TRACED``: the attribute is
replaced in its defining module and in every ``dsie`` module that imported
it by name, so ``dsie.pipeline.dsie_step`` and ``dsie.estimator.dsie_step``
both go through the wrapper. Spans are kept in memory and written out when
the run ends; nothing inside the package changes.
"""

from __future__ import annotations

import contextlib
import functools
import gzip
import importlib
import json
import os
import sys
import time
from dataclasses import dataclass, field

import numpy as np

# (module, attribute) pairs traced as spans; "Class.method" patches the class.
TRACED = (
    ("network", "load_network"),
    ("model", "build_continuous"),
    ("model", "build_discrete"),
    ("model", "check_joint_rank"),
    ("model", "partition"),
    ("linalg", "discretize_zoh"),
    ("linalg", "wls_solve"),
    ("linalg", "mahalanobis"),
    ("linalg", "clamp_eigenvalues"),
    ("linalg", "symmetrize_psd"),
    ("sim", "simulate_truth"),
    ("sim", "generate_measurements"),
    ("sim", "apply_attacks"),
    ("estimator", "estimate_input"),
    ("estimator", "detect_bad_data"),
    ("estimator", "predict"),
    ("estimator", "update"),
    ("estimator", "wls_snapshot"),
    ("estimator", "tse_step"),
    ("estimator", "dsie_step"),
    ("distributed", "local_phase"),
    ("distributed", "cross_check"),
    ("distributed", "fuse"),
    ("distributed", "finalize_phase"),
    ("distributed", "run_round"),
    ("distributed", "Transport.deliver"),
    ("distributed", "LossyTransport.deliver"),
    ("pipeline", "prepare"),
    ("pipeline", "run_dsie"),
    ("pipeline", "run_wls"),
    ("pipeline", "run_tse"),
    ("pipeline", "run_ddsie"),
    ("pipeline", "run_scenario"),
    ("pipeline", "write_outputs"),
)

# Counted but not timed, as (module, attribute, counter): the chi-square
# threshold is evaluated once per step for a constant dof today.
COUNTED = (("estimator", "BddConfig.threshold", "estimator.bdd_threshold_calls"),)

# Both transports report under one span name.
_SPAN_NAMES = {"distributed.LossyTransport.deliver": "distributed.Transport.deliver"}


@dataclass
class Span:
    name: str
    start_ns: int
    end_ns: int
    parent: int  # index into Recorder.spans, -1 for a root span
    op: str

    @property
    def duration_ns(self) -> int:
        return self.end_ns - self.start_ns


@dataclass
class Recorder:
    """In-memory span list, open-span stack and counters of one run."""

    spans: list = field(default_factory=list)
    stack: list = field(default_factory=list)
    counters: dict = field(default_factory=dict)
    op: str = ""
    last_step: dict = field(default_factory=dict)  # transport -> step of its latest batch

    def count(self, name: str, by: int = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + by

    def begin(self, name: str) -> int:
        idx = len(self.spans)
        parent = self.stack[-1] if self.stack else -1
        self.spans.append(Span(name, time.perf_counter_ns(), 0, parent, self.op))
        self.stack.append(idx)
        return idx

    def end(self, idx: int) -> None:
        self.spans[idx].end_ns = time.perf_counter_ns()
        self.stack.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        idx = self.begin(name)
        try:
            yield
        finally:
            self.end(idx)


# --- counters taken from results, outside the span's interval -------------


def _after_bdd(rec, args, result):
    rec.count("estimator.bdd_alarms", int(result.flagged))
    rec.count("estimator.bdd_diagonal_fallbacks", int(result.diagonal_fallback))


def _after_tse(rec, args, result):
    rec.count("estimator.bdd_alarms", int(result[1].flagged))


def _after_symmetrize(rec, args, result):
    # The Cholesky path returns the symmetrized input unchanged; any other
    # result went through the eigen-clamp repair.
    p = np.asarray(args[0], dtype=float)
    rec.count("linalg.symmetrize_psd.repairs", int(not np.array_equal(result, 0.5 * (p + p.T))))


def _after_cross_check(rec, args, result):
    rec.count("distributed.crosscheck_checked", len(result.accept))
    rec.count("distributed.crosscheck_accepted", sum(result.accept))


def _after_deliver(rec, args, result):
    transport, messages = args[0], list(args[1])
    if messages:
        rec.last_step[transport] = max(m.step for m in messages)
    step = rec.last_step.get(transport)
    sent_now = {id(m) for m in messages}
    rec.count("distributed.msgs_sent", len(messages))
    rec.count("distributed.msgs_delivered", len(result))
    rec.count("distributed.msgs_delayed", sum(id(m) not in sent_now for m in result))
    rec.count("distributed.msgs_stale", sum(m.step != step for m in result))


def _after_write(rec, args, result):
    outdir = args[1]
    rec.count(
        "pipeline.bytes_written",
        sum(e.stat().st_size for e in os.scandir(outdir) if e.is_file()),
    )


_AFTER = {
    "estimator.detect_bad_data": _after_bdd,
    "estimator.tse_step": _after_tse,
    "linalg.symmetrize_psd": _after_symmetrize,
    "distributed.cross_check": _after_cross_check,
    "distributed.Transport.deliver": _after_deliver,
    "pipeline.write_outputs": _after_write,
}


def _span_wrapper(rec: Recorder, name: str, fn):
    after = _AFTER.get(name)

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        idx = rec.begin(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            rec.end(idx)
        if after is not None:
            after(rec, args, result)
        return result

    return wrapper


def _count_wrapper(rec: Recorder, name: str, fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        rec.count(name)
        return fn(*args, **kwargs)

    return wrapper


def _dsie_modules():
    return [m for name, m in sorted(sys.modules.items()) if name == "dsie" or name.startswith("dsie.")]


class Installation:
    """Context manager that traces into ``rec`` while it is open.

    Leaving it, or calling ``remove``, restores every patched attribute.
    """

    def __init__(self, rec: Recorder):
        self.rec = rec
        self._patched: list[tuple[object, str, object]] = []

    def __enter__(self):
        try:
            for module, attr in TRACED:
                name = _SPAN_NAMES.get(f"{module}.{attr}", f"{module}.{attr}")
                self._patch(module, attr, lambda fn, n=name: _span_wrapper(self.rec, n, fn))
            for module, attr, name in COUNTED:
                self._patch(module, attr, lambda fn, n=name: _count_wrapper(self.rec, n, fn))
        except BaseException:
            self.remove()
            raise
        return self.rec

    def __exit__(self, *exc):
        self.remove()
        return False

    def _patch(self, module, attr, make):
        mod = importlib.import_module(f"dsie.{module}")
        if "." in attr:
            cls_name, meth = attr.split(".")
            cls = getattr(mod, cls_name)
            original = cls.__dict__[meth]
            setattr(cls, meth, make(original))
            self._patched.append((cls, meth, original))
            return
        original = getattr(mod, attr)
        wrapper = make(original)
        for m in _dsie_modules():
            for key, value in list(vars(m).items()):
                if value is original:
                    setattr(m, key, wrapper)
                    self._patched.append((m, key, original))

    def remove(self):
        while self._patched:
            owner, key, original = self._patched.pop()
            setattr(owner, key, original)


# --- arithmetic on recorded spans ------------------------------------------


def _covered_ns(start: int, end: int, intervals) -> int:
    """Length of the union of ``intervals`` clipped to [start, end]."""
    total = 0
    cursor = start
    for s, e in sorted(intervals):
        s, e = max(s, cursor), min(e, end)
        if e > s:
            total += e - s
            cursor = e
    return total


def self_times_ns(spans) -> list[int]:
    """Each span's duration minus the part of it that its child spans cover."""
    children: dict[int, list[tuple[int, int]]] = {}
    for sp in spans:
        if sp.parent >= 0:
            children.setdefault(sp.parent, []).append((sp.start_ns, sp.end_ns))
    return [
        sp.duration_ns - _covered_ns(sp.start_ns, sp.end_ns, children.get(i, ()))
        for i, sp in enumerate(spans)
    ]


@dataclass(frozen=True)
class LayerStats:
    calls: int
    total_ms: float
    self_ms: float
    durations_ms: np.ndarray


def layer_stats(spans) -> dict[str, LayerStats]:
    selfs = self_times_ns(spans)
    grouped: dict[str, tuple[list, list]] = {}
    for sp, s in zip(spans, selfs):
        durs, self_list = grouped.setdefault(sp.name, ([], []))
        durs.append(sp.duration_ns)
        self_list.append(s)
    return {
        name: LayerStats(
            calls=len(durs),
            total_ms=sum(durs) / 1e6,
            self_ms=sum(self_list) / 1e6,
            durations_ms=np.asarray(durs, dtype=float) / 1e6,
        )
        for name, (durs, self_list) in grouped.items()
    }


def write_spans(spans, path) -> None:
    """Columnar gzip JSON: span names are indices into ``names``."""
    names = sorted({sp.name for sp in spans})
    index = {n: i for i, n in enumerate(names)}
    doc = {
        "names": names,
        "name": [index[sp.name] for sp in spans],
        "start_ns": [sp.start_ns for sp in spans],
        "end_ns": [sp.end_ns for sp in spans],
        "parent": [sp.parent for sp in spans],
        "op": [sp.op for sp in spans],
    }
    with gzip.open(path, "wt") as f:
        json.dump(doc, f)
