"""Span recording for the traced run, from outside the package.

The recorder replaces the module attributes that callers resolve (for
example ``fock.char_set``, ``spin.det3`` or ``Hermitian3.from_upper``) with
wrappers that record one span per call: name, start, end, parent span and
pass id.  Spans stay in memory until the run writes them out.  Uninstalling
puts back the very objects that were there before.

Only the traced run imports this module; untraced runs measure the program
with none of it loaded.
"""

from __future__ import annotations

import contextlib
import functools
import gzip
import json
import statistics
import time
from array import array
from dataclasses import dataclass
from typing import Callable


@dataclass(frozen=True)
class Target:
    """A callable to wrap: ``owner`` is ``module``, ``module.Class`` or ``module.DICT[key]``.

    ``size`` names a per-pass work metric and computes one span's
    contribution from the call's arguments and result.
    """

    owner: str
    key: str
    span: str
    size: tuple[str, Callable[[tuple, object], float]] | None = None


def _amps(args, _result) -> float:
    return float(args[0].amplitudes.size)


TARGETS = (
    Target("cli", "main", "cli.main"),
    Target("analysis", "scan", "analysis.scan"),
    Target("analysis", "find_extremum", "analysis.find_extremum"),
    Target("families", "build", "families.build",
           ("families.build.amps", lambda _a, state: float(state.amplitudes.size))),
    Target("families", "bessel_i", "numerics.bessel_i"),
    Target("fock", "char_set", "fock.char_set", ("fock.char_set.amps", _amps)),
    Target("fock", "report", "fock.report"),
    Target("fock", "gram_matrices", "fock.gram_matrices"),
    Target("fock", "det3", "numerics.det3"),
    Target("fock", "phase_distribution", "fock.phase_distribution",
           ("fock.phase_distribution.points", lambda a, dens: float(a[0].amplitudes.size * len(dens)))),
    Target("spin", "report", "spin.report",
           ("spin.report.dim", lambda a, _r: float(a[0].system.dim))),
    Target("spin", "char_set", "spin.char_set"),
    Target("spin", "gram_dets", "spin.gram_dets"),
    Target("spin", "cyclic_phase", "spin.cyclic_phase"),
    Target("spin", "weyl_defect", "spin.weyl_defect"),
    Target("spin", "det3", "numerics.det3"),
    Target("numerics.Hermitian3", "from_upper", "numerics.Hermitian3"),
    # verify.run dispatches through this dict, not the module attributes.
    *(Target("verify._SUITES", suite, f"verify.run_{suite}",
             ("verify.checks", lambda _a, res: float(res.checks)))
      for suite in ("spin", "fock", "families")),
)

LAYERS = tuple(dict.fromkeys(t.span for t in TARGETS))
SIZE_METRICS = tuple(dict.fromkeys(t.size[0] for t in TARGETS if t.size))
PER_REPORT = ("fock", "spin")  # <module>.char_set calls per <module>.report call


def metric_units() -> dict[str, str]:
    """Every per-layer metric the traced run reports, with its unit."""
    units = {}
    for layer in LAYERS:
        units[f"{layer}.calls"] = "count"
        units[f"{layer}.self_s"] = "s"
        units[f"{layer}.share"] = "ratio"
    units.update({name: "count" for name in SIZE_METRICS})
    units.update({f"{m}.char_set.per_report": "count" for m in PER_REPORT})
    units["trace.overhead_ratio"] = "ratio"
    return units


def _resolve(modules: dict, owner: str):
    """``module``, ``module.Attr`` or ``module.DICT`` -> the object holding the key."""
    head, _, rest = owner.partition(".")
    obj = modules[head]
    return getattr(obj, rest) if rest else obj


class Recorder:
    """Spans in column arrays; each wrapper appends one row per call."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.pass_id = array("i")
        self.start = array("q")
        self.end = array("q")
        self.size = array("d")
        self._stack: list[int] = []
        self._active = False
        self._pass = -1
        self._saved: list[tuple[object, str, object]] = []

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _open(self, nid: int) -> int:
        idx = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.pass_id.append(self._pass)
        self.start.append(0)
        self.end.append(0)
        self.size.append(0.0)
        self._stack.append(idx)
        self.start[idx] = time.perf_counter_ns()
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter_ns()
        self._stack.pop()

    def begin_pass(self, pass_id: int) -> None:
        self._pass = pass_id

    @contextlib.contextmanager
    def op_span(self, op_name: str):
        """Root span of one op; library calls are recorded only inside one."""
        idx = self._open(self._id(f"op.{op_name}"))
        self._active = True
        try:
            yield
        finally:
            self._active = False
            self._close(idx)

    def _wrap(self, fn, nid: int, size_fn):
        rec = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not rec._active:
                return fn(*args, **kwargs)
            idx = rec._open(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                rec._close(idx)
            if size_fn is not None:
                rec.size[idx] = size_fn(args, result)
            return result

        return traced

    # -- installing -------------------------------------------------------

    def install(self, modules: dict) -> None:
        """Wrap every target; ``modules`` maps short names to weyl_uncert modules."""
        if self._saved:
            raise RuntimeError("wrappers already installed")
        try:
            for t in TARGETS:
                self._install_one(_resolve(modules, t.owner), t)
        except BaseException:
            self.uninstall()
            raise

    def _install_one(self, owner, t: Target) -> None:
        nid = self._id(t.span)
        size_fn = t.size[1] if t.size else None
        if isinstance(owner, dict):
            original = owner[t.key]
            owner[t.key] = self._wrap(original, nid, size_fn)
        else:
            original = vars(owner)[t.key]  # the raw classmethod, not a bound method
            if isinstance(original, classmethod):
                wrapped = classmethod(self._wrap(original.__func__, nid, size_fn))
            else:
                wrapped = self._wrap(original, nid, size_fn)
            setattr(owner, t.key, wrapped)
        self._saved.append((owner, t.key, original))

    def uninstall(self) -> None:
        """Put back exactly the objects install() replaced."""
        while self._saved:
            owner, key, original = self._saved.pop()
            if isinstance(owner, dict):
                owner[key] = original
            else:
                setattr(owner, key, original)

    @contextlib.contextmanager
    def installed(self, modules: dict):
        self.install(modules)
        try:
            yield self
        finally:
            self.uninstall()

    # -- output -----------------------------------------------------------

    def spans(self) -> list[tuple[str, int, int, int, int]]:
        """(name, start_ns, end_ns, parent index, pass id) per span, in opening order."""
        return [
            (self.names[n], s, e, p, q)
            for n, s, e, p, q in zip(self.name_id, self.start, self.end, self.parent, self.pass_id)
        ]

    def write(self, path) -> None:
        """Spans as gzipped JSON columns, times in ns from the first span's start.

        ``parent`` is the index of the parent span, -1 for an op's root span.
        """
        t0 = self.start[0] if self.start else 0
        doc = {
            "names": self.names,
            "name": list(self.name_id),
            "parent": list(self.parent),
            "pass": list(self.pass_id),
            "start_ns": [s - t0 for s in self.start],
            "end_ns": [e - t0 for e in self.end],
            "size": list(self.size),
        }
        with gzip.open(path, "wt", compresslevel=1) as handle:
            json.dump(doc, handle)


def self_times(start, end, parent) -> list[int]:
    """Each span's duration minus the part of it that its child spans cover."""
    children: list[list[int]] = [[] for _ in start]
    for idx, p in enumerate(parent):
        if p >= 0:
            children[p].append(idx)
    out = []
    for idx, kids in enumerate(children):
        lo, hi = start[idx], end[idx]
        covered = 0
        reach = lo
        for s, e in sorted((max(start[k], lo), min(end[k], hi)) for k in kids):
            s = max(s, reach)
            if e > s:
                covered += e - s
                reach = e
        out.append(hi - lo - covered)
    return out


def layer_metrics(rec: Recorder, pass_seconds: dict[int, float]) -> dict[str, float]:
    """Per-layer metrics over the traced passes (pass id -> timed seconds).

    Counts and sizes are per pass; ``self_s`` is the median over passes of
    the layer's self time in a pass; ``share`` is its self time as a
    fraction of all traced pass time.
    """
    passes = len(pass_seconds)
    total = sum(pass_seconds.values())
    self_ns = self_times(rec.start, rec.end, rec.parent)
    size_of = {t.span: t.size[0] for t in TARGETS if t.size}
    calls = dict.fromkeys(LAYERS, 0)
    per_pass = {layer: dict.fromkeys(pass_seconds, 0) for layer in LAYERS}
    sizes = dict.fromkeys(SIZE_METRICS, 0.0)
    for nid, pid, self_t, size in zip(rec.name_id, rec.pass_id, self_ns, rec.size):
        name = rec.names[nid]
        if name not in calls or pid not in pass_seconds:
            continue
        calls[name] += 1
        per_pass[name][pid] += self_t
        if name in size_of:
            sizes[size_of[name]] += size
    out = {}
    for layer in LAYERS:
        out[f"{layer}.calls"] = calls[layer] / passes
        out[f"{layer}.self_s"] = statistics.median(per_pass[layer].values()) / 1e9
        out[f"{layer}.share"] = sum(per_pass[layer].values()) / 1e9 / total
    out.update({name: value / passes for name, value in sizes.items()})
    for m in PER_REPORT:
        reports = calls[f"{m}.report"]
        out[f"{m}.char_set.per_report"] = calls[f"{m}.char_set"] / reports if reports else 0.0
    return out
