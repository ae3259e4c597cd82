"""The weyl_uncert benchmark: one workload, one run, metrics on stdout.

    python3 perfbench/run.py --workload figures|verify|large --seed N \\
        --seconds S --trace 0|1

Run it from the root of a checkout; it measures the library in src/.  Every
op is a public call (``weyl_uncert.cli.main`` in-process, or a library
function) made by a fresh child process with BLAS and OpenMP threads pinned
to 1, one op after another (a closed loop with one client).

--trace 0 starts children one after another.  Each times its import of
weyl_uncert (setup_s) and its first, cold pass (cold_s).  CHILDREN warm
children each also run warm passes for S / CHILDREN seconds.  Cold children
stop after their cold pass; they run after the warm ones, spread over the
run, while COLD_SHARE of S lasts, at most MAX_COLD_CHILDREN of them.  The
run reports the end-to-end metrics: medians over all children for setup_s
and cold_s, over the warm children for peak_rss_mib, and over all warm
passes for pass_p50_s, pass_tail_s and work_per_s.  Every time is scaled by
the speed probes timed right before and after it (see probe.py), which takes
out the drift of the shared machine's speed; the unscaled medians go into the record
and are printed beside the metrics.

--trace 1 starts one child that, after its cold pass, runs untraced and
traced passes in turn for S seconds (the tracer's wrappers are installed for
each traced pass only), and reports the per-layer metrics of the traced
passes.  The spans are written to
.perfbench-out/<workload>.spans.json.gz.

Every op's output is checked (see workloads.py).  The last line of stdout
is one JSON object: {"correct", "attempted", "failed", "metrics"}; a full
record with the environment goes to .perfbench-out/.  The run exits
non-zero without that line if any child fails.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import probe

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench-out"

WORKLOADS = ("figures", "verify", "large")
# A cold pass is one sample per process: several short children, with the
# cold ones spread between the warm ones, sample the whole run.  Every warm
# child also pays a cold pass (about 7 s on large), so there are only 4.
# Cold children cost a share of the run's time, not a fixed count, so cheap
# cold passes get more samples.
CHILDREN = 4
COLD_SHARE = 0.15
MAX_COLD_CHILDREN = 8
COLD_STREAMS = 1000  # cold children draw inputs from streams 1000, 1001, ...
TIME_LIMIT_S = 170.0
TAIL_BEYOND = 10  # samples a tail percentile must have above it
PINNED_THREADS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

E2E_UNITS = {
    "setup_s": "s",
    "cold_s": "s",
    "pass_p50_s": "s",
    "pass_tail_s": "s",
    "work_per_s": "1/s",
    "peak_rss_mib": "MiB",
}


class BenchError(Exception):
    pass


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=WORKLOADS, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def _run_child(args, child: int, workdir: Path, deadline: float, **extra) -> dict:
    result = workdir / f"child{child}.json"
    cmd = [
        sys.executable, str(HERE / "child.py"),
        "--workload", args.workload, "--seed", str(args.seed), "--child", str(child),
        "--src", str(SRC), "--workdir", str(workdir), "--result", str(result),
    ]
    for key, value in extra.items():
        cmd += [f"--{key.replace('_', '-')}", str(value)]
    env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONHASHSEED="0")
    env.update({name: "1" for name in PINNED_THREADS})
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr,
                              timeout=max(deadline - time.monotonic(), 1.0))
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"child {child} did not finish within the time limit") from exc
    if proc.returncode != 0:
        raise BenchError(f"child {child} exited with code {proc.returncode}")
    return json.loads(result.read_text())


def tail(values: list[float]) -> tuple[float, float, int]:
    """(value, percentile, samples beyond) of the highest percentile with
    TAIL_BEYOND samples above it, but never below the median: with fewer than
    2 * TAIL_BEYOND + 1 samples it is the median (the upper one of an even
    count), with fewer samples beyond."""
    xs = sorted(values)
    rank = max(len(xs) - TAIL_BEYOND - 1, len(xs) // 2)
    return xs[rank], 100.0 * (rank + 1) / len(xs), len(xs) - 1 - rank


def _bracketing(probes: list[float]) -> list[float]:
    """The mean of the probes right before and right after each timed step."""
    return [(before + after) / 2 for before, after in zip(probes, probes[1:])]


def end_to_end(children: list[dict]) -> tuple[dict[str, float], dict]:
    """The end-to-end metrics, each time scaled by the probes that bracket it."""
    def passes(c):  # (seconds, probe) of the cold pass and then each warm pass
        return list(zip([c["cold_s"], *c["warm_s"]], _bracketing(c["probe_s"]), strict=True))

    warm_children = [c for c in children if c["warm_s"]]
    warm = [probe.scaled(s, p) for c in warm_children for s, p in passes(c)[1:]]
    tail_s, pct, beyond = tail(warm)
    metrics = {
        "setup_s": statistics.median(
            probe.scaled(c["setup_s"], *_bracketing(c["setup_probe_s"]), probe.PYTHON_REFERENCE_S)
            for c in children),
        "cold_s": statistics.median(probe.scaled(*passes(c)[0]) for c in children),
        "pass_p50_s": statistics.median(warm),
        "pass_tail_s": tail_s,
        "work_per_s": sum(c["warm_work"] for c in warm_children) / sum(warm),
        "peak_rss_mib": statistics.median(c["peak_rss_kib"] for c in warm_children) / 1024.0,
    }
    raw_warm = [s for c in warm_children for s in c["warm_s"]]
    detail = {"children": len(children), "warm_passes": len(warm), "tail_percentile": pct,
              "tail_samples_beyond": beyond, "work_unit": children[0]["work_unit"],
              "unscaled": {"setup_s": statistics.median(c["setup_s"] for c in children),
                           "cold_s": statistics.median(c["cold_s"] for c in children),
                           "pass_p50_s": statistics.median(raw_warm),
                           "probe_p50_s": statistics.median(
                               p for c in warm_children for p in c["probe_s"])}}
    return metrics, detail


# ---------------------------------------------------------------------------
# environment record


def _git_sha() -> str | None:
    """HEAD of the checkout, or None where it is not a git repository."""
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=10,
                              env=dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent)))
    except (OSError, subprocess.SubprocessError):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def _cpu_model() -> str | None:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def environment(args, sizes: dict) -> dict:
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):
        blas = None
    return {
        "git_sha": _git_sha(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas,
        "threads": {name: "1" for name in PINNED_THREADS},
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "sizes": sizes,
    }


# ---------------------------------------------------------------------------


def main(argv=None) -> int:
    # SIGTERM exits through subprocess.run, which then kills the running child.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    args = _parse(argv)
    if not (SRC / "weyl_uncert" / "__init__.py").is_file():
        print(f"error: {SRC / 'weyl_uncert'} not found; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    deadline = time.monotonic() + TIME_LIMIT_S
    started = time.monotonic()
    OUT_DIR.mkdir(exist_ok=True)
    # Byte-compile first so no child's setup_s includes writing .pyc files.
    subprocess.run([sys.executable, "-m", "compileall", "-q", str(SRC)], check=True,
                   stdout=subprocess.DEVNULL, timeout=60)
    try:
        with tempfile.TemporaryDirectory(dir=OUT_DIR, prefix="work-") as tmp:
            workdir = Path(tmp)
            if args.trace:
                spans = OUT_DIR / f"{args.workload}.spans.json.gz"
                children = [_run_child(args, 0, workdir, deadline, seconds=0,
                                       traced_seconds=args.seconds, spans=spans)]
            else:
                children, cold, cold_spent = [], 0, 0.0
                for i in range(CHILDREN):
                    children.append(_run_child(args, i, workdir, deadline,
                                               seconds=args.seconds / CHILDREN))
                    while (cold < MAX_COLD_CHILDREN
                           and cold_spent < COLD_SHARE * args.seconds * (i + 1) / CHILDREN):
                        t0 = time.monotonic()
                        children.append(_run_child(args, COLD_STREAMS + cold, workdir, deadline,
                                                   seconds=0))
                        cold_spent += time.monotonic() - t0
                        cold += 1
    except BenchError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    if any(c["tracer_loaded"] for c in children):
        print("error: the tracer was loaded during untraced passes", file=sys.stderr)
        return 1

    attempted = sum(c["attempted"] for c in children)
    failed = sum(c["failed"] for c in children)
    record = {"environment": environment(args, children[0]["sizes"]),
              "wall_s": time.monotonic() - started,
              "attempted": attempted, "failed": failed,
              "failure_samples": [m for c in children for m in c["failure_samples"]][:5]}
    if args.trace:
        from tracer import metric_units  # the untraced path never loads the tracer

        units = metric_units()
        values = children[0]["layers"]
        record["span_count"] = children[0]["span_count"]
        record["traced_passes"] = len(children[0]["traced_s"])
    else:
        units = E2E_UNITS
        values, detail = end_to_end(children)
        record.update(detail)
        record["pass_seconds"] = {"cold": [c["cold_s"] for c in children],
                                  "warm": [c["warm_s"] for c in children if c["warm_s"]]}
        record["probe_seconds"] = {"setup": [c["setup_probe_s"] for c in children],
                                   "passes": [c["probe_s"] for c in children]}
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
    record["metrics"] = metrics
    (OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1) + "\n")

    env = record["environment"]
    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds:g}  trace {args.trace}")
    print(f"  python {env['python']}  numpy {env['numpy']}  blas {env['blas']}  threads 1  "
          f"nproc {env['nproc']}  cpu {env['cpu_model']}  git {env['git_sha']}")
    if not args.trace:
        print(f"  speed probe p50 {1e3 * record['unscaled']['probe_p50_s']:.4g} ms, "
              f"scaled to {1e3 * probe.REFERENCE_S:g} ms")
    for name, m in metrics.items():
        note = ""
        if name == "pass_tail_s":
            note = (f"  (p{record['tail_percentile']:.1f} of {record['warm_passes']} warm passes, "
                    f"{record['tail_samples_beyond']} beyond)")
        elif name == "work_per_s":
            note = f"  ({record['work_unit']} per second)"
        if name in record.get("unscaled", {}):
            note += f"  (unscaled {record['unscaled'][name]:.6g} s)"
        print(f"  {name:<34} {m['value']:.6g} {m['unit']}{note}")
    print(f"  {'failed_ratio':<34} {failed / attempted:.6g} ratio  ({failed} failed of {attempted} ops)")
    for msg in record["failure_samples"]:
        print(f"  FAIL {msg}", file=sys.stderr)
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
