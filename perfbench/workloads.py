"""The benchmark's workloads: figures, verify and large.

Each workload turns the benchmark seed into a stream of passes; a pass is a
fixed list of public calls into weyl_uncert (CLI commands run in-process, or
library functions), each with the check of its output.  The program sees
only the inputs generated here.

Why each workload was chosen (also recorded in BENCHMARK.json):

* figures: many rows of ``families.build`` -> ``fock.char_set`` ->
  ``fock.report`` -> Gram step, the path a scalar Gram kernel or batched
  scans act on.  It never touches ``spin`` or ``fock.phase_distribution``,
  so changes there should leave it unchanged.
* verify: the many-tiny-calls regime of ``weyl-uncert verify``, dominated
  by per-call overhead in ``spin`` at d <= 64 with its caches warm.
* large: few calls on working sets larger than cache -- the phase density
  at n_max = 16111, spin reports at d = 1024, scans near xi -> 1 -- where
  O(n M) -> FFT and O(d^2) -> O(d) changes show.
"""

from __future__ import annotations

import json
import math
import os
import re
from pathlib import Path

import numpy as np

from harness import CheckFailed, CliOutput, Op, check_output, run_cli
from weyl_uncert import cli, families, fock, spin

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"

_DET_TOL = -1e-10
_BOUND_TOL = 1e-9
_DEFECT_TOL = 1e-12
_CYCLIC_TOL = 1e-10
_DENSITY_TOL = 1e-9
# The checks below are written as "not (value within tolerance)" so NaN fails.


class FixedCommand:
    """A CLI command whose output is compared with a recorded reference."""

    def __init__(self, name: str, argv: str, fmt: str):
        self.name = name
        self.argv = argv.split()
        self.fmt = fmt

    @property
    def reference(self) -> Path:
        return REFERENCE_DIR / f"{self.name}.{self.fmt}"


FIGURES_COMMANDS = (
    *(FixedCommand(f"figure{i}", f"figure --id {i}", "csv") for i in (1, 2, 3, 4)),
    FixedCommand(
        "extremum_bessel",
        "extremum --family bessel:lambda=1 --param lambda --functional U --kind min "
        "--from 0.4 --to 1.4",
        "json",
    ),
    FixedCommand(
        "scan_phase_coherent",
        "scan --family phase-coherent:xi=0.49 --param xi --from 0.01 --to 0.995 --steps 99",
        "csv",
    ),
)

# Both scans need n_max up to ~16k, above the default cap of 4096; the large
# workload sets WEYL_UNCERT_MAX_NMAX to this value in its process.
LARGE_NMAX_CAP = 20000
LARGE_COMMANDS = (
    FixedCommand(
        "scan_phase_coherent_near1",
        "scan --family phase-coherent:xi=0.99 --param xi --from 0.99 --to 0.999 --steps 24 "
        "--format json",
        "json",
    ),
    FixedCommand(
        "scan_intermediate_alpha2",
        "scan --family intermediate:alpha2=0.5,n=3,xi=0.999 --param alpha2 --from 0.1 "
        "--to 0.9 --steps 16",
        "csv",
    ),
)

LARGE_DENSITY_SPEC = "phase-coherent:xi=0.999"  # n_max = 16111
LARGE_DENSITY_POINTS = 32768  # > 2 n_max, so the rectangle rule is exact
# Sized so spin and the phase density each take over a quarter of a pass.
LARGE_SPIN_REPORTS = {256: 16, 1024: 24}
LARGE_CYCLIC_DIMS = (256, 1024)
# Every distinct (d, k mod 2d) key puts a dense d x d matrix (16 MiB at
# d = 1024) into spin's lru cache, so the keys are few and fixed per child.
LARGE_WEYL_DIM = 1024
LARGE_WEYL_KEYS = 2

VERIFY_SAMPLES = 100
VERIFY_COUNTS = {"spin": 2609, "fock": 602, "families": 168}
_VERIFY_LINE = re.compile(r"^(\w+): (\d+) checks, (\d+) failures \[(ok|FAILED)\]$", re.M)


def _cli_op(cmd: FixedCommand, workdir: Path, work_of) -> Op:
    """Run a fixed command with --out into ``workdir`` and compare with its reference."""
    out_path = workdir / f"{cmd.name}.{cmd.fmt}"
    argv = [*cmd.argv, "--out", str(out_path)]
    ref = cmd.reference.read_text()

    def check(res: CliOutput) -> float:
        if res.code != 0:
            raise CheckFailed(f"exit code {res.code}: {res.stderr.strip()}")
        text = out_path.read_text()
        out_path.unlink()  # so a later call that writes nothing cannot pass on this file
        check_output(text, ref, cmd.fmt)
        return work_of(text, cmd.fmt)

    return Op(cmd.name, lambda: run_cli(cli, argv), check)


def _rows(text: str, fmt: str) -> float:
    """Output rows; an extremum's objective evaluations count as rows."""
    if fmt == "csv":
        return float(text.count("\n") - 1)
    doc = json.loads(text)
    if "rows" in doc:
        return float(len(doc["rows"]))
    # 64 coarse-grid points, two golden-section starts, one per iteration, the final point.
    return float(64 + 2 + doc["result"]["iterations"] + 1)


def _one_op(_text: str, _fmt: str) -> float:
    return 1.0


class Figures:
    """figure --id 1..4, one extremum and one scan; the seed shuffles their order."""

    name = "figures"
    work_unit = "rows"

    def __init__(self, rng: np.random.Generator, workdir: Path):
        self.rng = rng
        self.ops = [_cli_op(cmd, workdir, _rows) for cmd in FIGURES_COMMANDS]
        self.sizes = {
            "commands": [" ".join(cmd.argv) for cmd in FIGURES_COMMANDS],
            "n_max_cap": families.DEFAULT_TRUNCATION_CAP,
        }

    def pass_ops(self) -> list[Op]:
        return [self.ops[i] for i in self.rng.permutation(len(self.ops))]


class Verify:
    """verify --suite all --samples 100, with a fresh seed drawn for each pass."""

    name = "verify"
    work_unit = "checks"

    def __init__(self, rng: np.random.Generator, workdir: Path):
        self.rng = rng
        self.sizes = {"samples": VERIFY_SAMPLES, "suite": "all", "checks": VERIFY_COUNTS}

    def pass_ops(self) -> list[Op]:
        seed = int(self.rng.integers(0, 2**31))
        argv = ["verify", "--suite", "all", "--samples", str(VERIFY_SAMPLES), "--seed", str(seed)]

        def check(res: CliOutput) -> float:
            if res.code != 0:
                raise CheckFailed(f"--seed {seed}: exit code {res.code}: {res.stdout[-500:]}{res.stderr}")
            found = {m[1]: (int(m[2]), int(m[3]), m[4]) for m in _VERIFY_LINE.finditer(res.stdout)}
            want = {name: (count, 0, "ok") for name, count in VERIFY_COUNTS.items()}
            if found != want:
                raise CheckFailed(f"--seed {seed}: suite summary {found}, expected {want}")
            return float(sum(VERIFY_COUNTS.values()))

        return [Op("verify", lambda: run_cli(cli, argv), check)]


class Large:
    """Few large calls: phase density, spin at d = 256 and 1024, scans near xi -> 1."""

    name = "large"
    work_unit = "ops"

    def __init__(self, rng: np.random.Generator, workdir: Path):
        os.environ[families.TRUNCATION_CAP_ENV] = str(LARGE_NMAX_CAP)
        self.rng = rng
        self.grid = np.linspace(-math.pi, math.pi, LARGE_DENSITY_POINTS, endpoint=False)
        self.first_moment = np.exp(1j * self.grid)
        d = LARGE_WEYL_DIM
        self.weyl_keys = [int(k) + 1 for k in rng.choice(2 * d, LARGE_WEYL_KEYS, replace=False)]
        self.scan_ops = [_cli_op(cmd, workdir, _one_op) for cmd in LARGE_COMMANDS]
        self.sizes = {
            "phase_density": {"spec": LARGE_DENSITY_SPEC, "n_max": None, "M": LARGE_DENSITY_POINTS},
            "spin_reports_per_pass": {str(k): v for k, v in LARGE_SPIN_REPORTS.items()},
            "cyclic_phase_dims": list(LARGE_CYCLIC_DIMS),
            "weyl_defect": {"d": d, "k": self.weyl_keys},
            "scans": [" ".join(cmd.argv) for cmd in LARGE_COMMANDS],
            "scan_n_max_cap": LARGE_NMAX_CAP,
        }

    def _state(self, d: int) -> np.ndarray:
        c = self.rng.standard_normal(d) + 1j * self.rng.standard_normal(d)
        return c / np.linalg.norm(c)

    def _pair(self, d: int) -> tuple[int, int]:
        k, ell = self.rng.integers(1, 2 * d + 1, size=2)
        return int(k), int(ell)

    def pass_ops(self) -> list[Op]:
        # The phase density comes first, as a one-shot caller would run it.
        # Its first call in a process that made the grid before the state (as
        # here) takes about 4 s more than later calls, with 1.8M page faults
        # around its 512 KiB Horner temporaries; cold_s carries that cost.
        ops = [Op("phase_density", self._density, self._check_density)]
        for d, count in LARGE_SPIN_REPORTS.items():
            ops += [_spin_report_op(d, self._state(d), *self._pair(d)) for _ in range(count)]
        ops += [_cyclic_op(d, self._state(d), *self._pair(d)) for d in LARGE_CYCLIC_DIMS]
        d = LARGE_WEYL_DIM
        ops += [_weyl_op(d, k, int(self.rng.integers(1, 2 * d + 1))) for k in self.weyl_keys]
        return [*ops, *self.scan_ops]

    def _density(self):
        state = families.build(families.parse_spec(LARGE_DENSITY_SPEC), LARGE_NMAX_CAP)
        return state, fock.phase_distribution(state, self.grid)

    def _check_density(self, out) -> float:
        state, density = out
        step = 2.0 * math.pi / self.grid.size
        total = float(np.sum(density)) * step
        if not abs(total - 1.0) <= _DENSITY_TOL:
            raise CheckFailed(f"phase density integrates to {total!r}")
        moment = complex(np.sum(self.first_moment * density)) * step
        want = fock.char_set(state, 1, math.pi).phase_char.conjugate()
        if not abs(moment - want) <= _DENSITY_TOL:
            raise CheckFailed(f"k = 1 moment {moment!r} differs from char_set {want!r}")
        self.sizes["phase_density"]["n_max"] = state.n_max
        return 1.0


def _spin_report_op(d: int, amps: np.ndarray, k: int, ell: int) -> Op:
    system = spin.SpinSystem(d)

    def check(rep) -> float:
        where = f"d={d} k={k} l={ell}"
        if not min(rep.det_plus, rep.det_minus) >= _DET_TOL:
            raise CheckFailed(f"{where}: Gram determinants {rep.det_plus!r}, {rep.det_minus!r}")
        if not (rep.u <= rep.bound + _BOUND_TOL and rep.v <= rep.bound / 2 + _BOUND_TOL):
            raise CheckFailed(f"{where}: U={rep.u!r} V={rep.v!r} above bound {rep.bound!r}")
        return 1.0

    return Op(f"spin_report_d{d}", lambda: spin.report(spin.QuditState(system, amps), k, ell), check)


def _cyclic_op(d: int, amps: np.ndarray, k: int, ell: int) -> Op:
    system = spin.SpinSystem(d)
    want = np.exp(-2j * math.pi * ((k * ell) % d) / d)

    def check(z: complex) -> float:
        if not abs(z - want) <= _CYCLIC_TOL:
            raise CheckFailed(f"d={d} k={k} l={ell}: phase {z!r}, expected {want!r}")
        return 1.0

    return Op(f"cyclic_phase_d{d}", lambda: spin.cyclic_phase(spin.QuditState(system, amps), k, ell), check)


def _weyl_op(d: int, k: int, ell: int) -> Op:
    system = spin.SpinSystem(d)

    def check(defect: float) -> float:
        if not defect <= _DEFECT_TOL:
            raise CheckFailed(f"d={d} k={k} l={ell}: Weyl defect {defect!r}")
        return 1.0

    return Op(f"weyl_defect_d{d}", lambda: spin.weyl_defect(system, k, ell), check)


WORKLOADS = {w.name: w for w in (Figures, Verify, Large)}


def make(name: str, seed: int, child: int, workdir: Path):
    """The named workload; child ``child`` of a run draws from its own stream of ``seed``."""
    return WORKLOADS[name](np.random.default_rng([seed, child]), workdir)
