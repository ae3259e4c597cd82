"""Ops, passes and output checks shared by the benchmark child and its tests.

An op is one public call into weyl_uncert plus the check of its output.  A
pass runs a fixed list of ops one after another (a closed loop with one
client) and times only the calls; checks run outside the timed region.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import time
from dataclasses import dataclass, field
from typing import Callable

# Same absolute tolerance as the bound checks of `weyl-uncert verify`.
NUMERIC_TOL = 1e-9


class CheckFailed(Exception):
    """An op returned, but its output is wrong."""


@dataclass
class Op:
    """One public call and the check of its output.

    ``check`` raises CheckFailed on a wrong output and otherwise returns the
    work units the output stands for (rows, checks or ops, by workload).
    """

    name: str
    call: Callable[[], object]
    check: Callable[[object], float]


@dataclass
class PassResult:
    seconds: float = 0.0
    work: float = 0.0
    attempted: int = 0
    failures: list[str] = field(default_factory=list)


def run_pass(ops: list[Op], recorder=None) -> PassResult:
    """Run the ops in order; time each call, then check its output.

    ``recorder`` is the tracer's span recorder in a traced pass and None
    otherwise; with it, each call runs inside a root span named after the op.
    """
    res = PassResult()
    for op in ops:
        res.attempted += 1
        error = None
        out = None
        scope = recorder.op_span(op.name) if recorder is not None else contextlib.nullcontext()
        t0 = time.perf_counter()
        try:
            with scope:
                out = op.call()
        except Exception as exc:  # a raising op is a failed op, not a crashed run
            error = f"{op.name}: raised {type(exc).__name__}: {exc}"
        res.seconds += time.perf_counter() - t0
        if error is None:
            try:
                res.work += op.check(out)
            except CheckFailed as exc:
                error = f"{op.name}: {exc}"
            except Exception as exc:
                error = f"{op.name}: check raised {type(exc).__name__}: {exc}"
        if error is not None:
            res.failures.append(error)
    return res


# ---------------------------------------------------------------------------
# CLI calls in-process


@dataclass
class CliOutput:
    code: int
    stdout: str
    stderr: str


def run_cli(cli_module, argv: list[str]) -> CliOutput:
    """``cli.main(argv)`` in-process, with stdout and stderr captured.

    ``cli_module.main`` is looked up on every call, so a wrapper installed
    on the module attribute sees it.
    """
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli_module.main(argv)
        except SystemExit as exc:  # argparse rejects bad arguments this way
            code = exc.code if isinstance(exc.code, int) else 2
    return CliOutput(code, out.getvalue(), err.getvalue())


# ---------------------------------------------------------------------------
# output comparison against recorded references


def _close(a: float, b: float) -> bool:
    if math.isnan(a) or math.isnan(b):
        return math.isnan(a) and math.isnan(b)
    return abs(a - b) <= NUMERIC_TOL


def compare_csv(text: str, ref: str) -> str | None:
    """Header exact, same row count, every numeric field within NUMERIC_TOL."""
    got = list(csv.reader(io.StringIO(text)))
    want = list(csv.reader(io.StringIO(ref)))
    if not got or got[0] != want[0]:
        return f"CSV header differs: {got[:1]!r}"
    if len(got) != len(want):
        return f"CSV has {len(got) - 1} rows, reference {len(want) - 1}"
    for i, (row, ref_row) in enumerate(zip(got[1:], want[1:]), start=1):
        if len(row) != len(ref_row):
            return f"CSV row {i} has {len(row)} fields, reference {len(ref_row)}"
        for name, x, y in zip(want[0], row, ref_row):
            if not _close(float(x), float(y)):
                return f"CSV row {i} {name} = {x}, reference {y}"
    return None


def compare_json(got, want, where: str = "$") -> str | None:
    """Numbers within NUMERIC_TOL, everything else equal, recursively."""
    numbers = (int, float)
    if isinstance(want, bool) or isinstance(got, bool):
        return None if got == want else f"{where} = {got!r}, reference {want!r}"
    if isinstance(want, numbers) and isinstance(got, numbers):
        return None if _close(float(got), float(want)) else f"{where} = {got!r}, reference {want!r}"
    if isinstance(want, dict) and isinstance(got, dict):
        if sorted(got) != sorted(want):
            return f"{where} keys {sorted(got)}, reference {sorted(want)}"
        for key in want:
            msg = compare_json(got[key], want[key], f"{where}.{key}")
            if msg:
                return msg
        return None
    if isinstance(want, list) and isinstance(got, list):
        if len(got) != len(want):
            return f"{where} has {len(got)} items, reference {len(want)}"
        for i, (g, w) in enumerate(zip(got, want)):
            msg = compare_json(g, w, f"{where}[{i}]")
            if msg:
                return msg
        return None
    return None if got == want else f"{where} = {got!r}, reference {want!r}"


def check_output(text: str, ref: str, fmt: str) -> None:
    """Raise CheckFailed unless ``text`` matches the reference output."""
    msg = compare_csv(text, ref) if fmt == "csv" else compare_json(json.loads(text), json.loads(ref))
    if msg:
        raise CheckFailed(msg)
