"""Run the benchmark repeatedly and report how steady it is.

    python3 perfbench/steady.py [--first-seed 1] [--out FILE]

Runs each workload of BENCHMARK.json 10 times untraced, with the seeds
--first-seed, --first-seed + 1, ..., then once traced.  For every end-to-end
metric it prints the median, the quartiles (statistics.quantiles with n=4)
and the spread, (q3 - q1) / median, beside the metric's bound from
BENCHMARK.json; the spread should stay below a third of the bound.  Every run checks its outputs; the script
exits 1 if any run fails or reports a wrong output.  With --out it also
writes the summary as JSON, one point of the bench trajectory.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUNS = 10


def _run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd[1:])} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summarize(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"values": values, "median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else None}


def main(argv=None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--first-seed", type=int, default=1)
    p.add_argument("--out", type=Path, default=None)
    args = p.parse_args(argv)

    seconds = bench["run_seconds"]
    bounds = {m["name"]: m for m in bench["end_to_end"]}
    summary = {"run_seconds": seconds, "runs": RUNS, "first_seed": args.first_seed,
               "workloads": {}}
    ok = True
    for workload in (w["name"] for w in bench["workloads"]):
        results = [_run(workload, args.first_seed + i, seconds, 0) for i in range(RUNS)]
        traced = _run(workload, args.first_seed, seconds, 1)
        ok &= all(r["correct"] for r in results + [traced])
        attempted = sum(r["attempted"] for r in results)
        failed = sum(r["failed"] for r in results)
        print(f"{workload}: {RUNS} runs, {failed} failed of {attempted} ops")
        record = ROOT / ".perfbench-out" / f"{workload}-seed{args.first_seed}-trace0.json"
        entry = {"environment": json.loads(record.read_text())["environment"],
                 "attempted": attempted, "failed": failed, "metrics": {},
                 "per_layer": {k: v["value"] for k, v in traced["metrics"].items()}}
        for name, spec in bounds.items():
            s = summarize([r["metrics"][name]["value"] for r in results])
            s["unit"] = spec["unit"]
            s["bound"] = spec["bound"]
            entry["metrics"][name] = s
            flag = "" if s["spread"] is not None and s["spread"] < spec["bound"] / 3 else "  UNSTEADY"
            print(f"  {name:<14} median {s['median']:.6g} {spec['unit']}  "
                  f"q1 {s['q1']:.6g}  q3 {s['q3']:.6g}  spread {s['spread']:.4f}  "
                  f"bound {spec['bound']}{flag}")
        summary["workloads"][workload] = entry
    if args.out:
        args.out.write_text(json.dumps(summary, indent=1) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
