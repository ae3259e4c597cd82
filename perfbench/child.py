"""One benchmark child process: timed import, one cold pass, then warm passes.

run.py starts every child in a fresh interpreter, with BLAS and OpenMP
threads pinned to 1 and the checkout's src/ on PYTHONPATH:

    python3 perfbench/child.py --workload figures --seed 1 --child 0 \\
        --seconds 8 --src SRC --workdir DIR --result FILE \\
        [--traced-seconds 8 --spans FILE]

It times the speed probe (probe.py) right before and right after the import,
the cold pass and each warm pass, and reports those probe times beside the
raw times; run.py scales each time by them.  With --seconds 0 the child stops after its cold
pass.  It writes one JSON
document to --result.  With --traced-seconds it then imports the tracer and,
for that long, runs untraced and traced passes in turn, installing the
wrappers before each traced pass and removing them after it, so speed drift
cancels in their ratio.  Untraced runs never import the tracer.
"""

from __future__ import annotations

import sys
import time

import probe

# One probe run varies by about 12% from the next, a warm pass's time by
# less.  Warm passes share their probes with their neighbours; the import and
# the cold pass, one sample per child, get the mean of several probe runs.
SETUP_PROBES = 3
COLD_PROBES = 5


def _parse(argv):
    import argparse

    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--child", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--src", required=True, help="the src/ directory weyl_uncert must come from")
    p.add_argument("--workdir", required=True)
    p.add_argument("--result", required=True)
    p.add_argument("--traced-seconds", type=float, default=0.0)
    p.add_argument("--spans", default=None)
    return p.parse_args(argv)


def _loop(harness, workload, seconds: float, probes: list) -> list:
    """Passes until ``seconds`` have elapsed; at least one unless ``seconds`` is 0.
    Each pass is followed by a speed probe, appended to ``probes``."""
    passes = []
    end = time.perf_counter() + seconds
    while (seconds > 0 and not passes) or time.perf_counter() < end:
        passes.append(harness.run_pass(workload.pass_ops()))
        probes.append(probe.probe())
    return passes


def _alternate(harness, workload, seconds: float, rec, modules: dict) -> tuple[list, list]:
    """Untraced and traced passes in turn until ``seconds`` have elapsed; at least one each."""
    untraced, traced = [], []
    end = time.perf_counter() + seconds
    while not traced or time.perf_counter() < end:
        untraced.append(harness.run_pass(workload.pass_ops()))
        rec.begin_pass(len(traced))
        with rec.installed(modules):
            traced.append(harness.run_pass(workload.pass_ops(), rec))
    return untraced, traced


def main(argv=None) -> int:
    # Only sys, time and the probe are loaded before the clock starts, so
    # setup_s covers every module the package imports.
    setup_probe_s = [probe.python_probe(SETUP_PROBES)]
    t0 = time.perf_counter()
    import weyl_uncert
    from weyl_uncert import cli  # noqa: F401  every CLI call needs it
    setup_s = time.perf_counter() - t0
    setup_probe_s.append(probe.python_probe(SETUP_PROBES))

    import json
    import resource
    import statistics
    from pathlib import Path

    args = _parse(argv)
    src = Path(args.src).resolve()
    if Path(weyl_uncert.__file__).resolve().parents[1] != src:
        print(f"error: weyl_uncert was imported from {weyl_uncert.__file__}, not {src}",
              file=sys.stderr)
        return 2

    import harness
    import workloads

    workload = workloads.make(args.workload, args.seed, args.child, Path(args.workdir))
    # Probes bracket every pass: probe_s[i] and probe_s[i + 1] were timed
    # right before and right after pass i (the cold pass is pass 0).
    probe_s = [probe.probe(COLD_PROBES)]
    cold = harness.run_pass(workload.pass_ops())
    probe_s.append(probe.probe(COLD_PROBES))
    warm = _loop(harness, workload, args.seconds, probe_s)
    tracer_loaded = "tracer" in sys.modules
    peak_rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    doc = {
        "setup_s": setup_s,
        "setup_probe_s": setup_probe_s,
        "cold_s": cold.seconds,
        "warm_s": [p.seconds for p in warm],
        "probe_s": probe_s,
        "warm_work": sum(p.work for p in warm),
        "peak_rss_kib": peak_rss_kib,
        "tracer_loaded": tracer_loaded,
        "work_unit": workload.work_unit,
    }

    runs = [cold, *warm]
    if args.traced_seconds > 0:
        import tracer
        from weyl_uncert import analysis, families, fock, numerics, spin, verify

        modules = {"cli": cli, "analysis": analysis, "families": families, "fock": fock,
                   "numerics": numerics, "spin": spin, "verify": verify}
        rec = tracer.Recorder()
        untraced, traced = _alternate(harness, workload, args.traced_seconds, rec, modules)
        layers = tracer.layer_metrics(rec, {i: p.seconds for i, p in enumerate(traced)})
        layers["trace.overhead_ratio"] = (statistics.median(p.seconds for p in traced)
                                          / statistics.median(p.seconds for p in untraced))
        doc["traced_s"] = [p.seconds for p in traced]
        doc["untraced_s"] = [p.seconds for p in untraced]
        doc["layers"] = layers
        doc["span_count"] = len(rec.start)
        if args.spans:
            rec.write(args.spans)
        runs += untraced + traced

    failures = [msg for p in runs for msg in p.failures]
    doc["attempted"] = sum(p.attempted for p in runs)
    doc["failed"] = len(failures)
    doc["failure_samples"] = failures[:5]
    doc["sizes"] = workload.sizes
    Path(args.result).write_text(json.dumps(doc))
    return 0


if __name__ == "__main__":
    sys.exit(main())
