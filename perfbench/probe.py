"""The speed probe: a fixed piece of work that measures how fast the machine runs now.

The benchmark's machine is shared, and its speed drifts: a fixed loop can
take a third more or less time from one minute to the next, with CPU time
equal to wall time.  That drift is larger than the benchmark's bounds.  So a
child times this probe right before and right after each thing it times
(the import, the cold pass and every warm pass), and run.py scales each time
by REFERENCE_S / (mean of those two probe times): the time the same work
would take on a machine where the probe takes exactly REFERENCE_S.  The
probe does not call weyl_uncert, so a slower library still reads slower.

The probe mixes the kinds of work the workloads do: a pure Python loop,
numpy calls on small arrays (per-call overhead) and on 64 KiB arrays.
python_probe() is the pure Python part alone; it needs no import, so it can
run before the timed import of weyl_uncert.

This module loads nothing but ``time`` at import, so loading it before the
timed import of weyl_uncert leaves setup_s unchanged.
"""

import time

# Probe times on the machine the reference numbers were taken on (an Intel
# Xeon VM with 2 vCPUs), rounded.  Only their ratio to a measured probe
# matters; fixing them keeps the scaled times near that machine's seconds.
PYTHON_REFERENCE_S = 0.005
REFERENCE_S = 0.013

_SMALL = 64
# Every array the probe makes stays below glibc's default mmap threshold
# (128 KiB).  Freeing a larger one raises that threshold for the rest of the
# process, which changes how the library's own large temporaries are
# allocated: a probe that freed a 2 MiB array took 3 s and 1.8M page faults
# out of the first phase density call of `large`.
_CHUNK = 1 << 12  # 64 KiB of complex128
_CHUNKS = 32


def _python_work() -> int:
    table = {}
    total = 0
    for i in range(24000):
        table[i & 255] = i
        total += table.get((i * 7) & 255, 1) % 13
    return total


def _numpy_work(np) -> float:
    a = np.linspace(0.0, 1.0, _SMALL)
    for _ in range(200):
        a = np.abs(np.exp(1j * a)).real * 0.5 + a * 0.5
    x = np.linspace(0.0, 1.0, _CHUNK)
    total = 0.0
    for _ in range(_CHUNKS):
        z = np.exp(1j * x)
        z *= z
        total += float(z[-1].real)
    return float(a[0]) + total


def python_probe(repeats: int = 1) -> float:
    """Mean seconds the pure Python part of the probe takes now, over ``repeats`` runs."""
    t0 = time.perf_counter()
    for _ in range(repeats):
        _python_work()
    return (time.perf_counter() - t0) / repeats


def probe(repeats: int = 1) -> float:
    """Mean seconds the whole probe takes now, over ``repeats`` runs."""
    import numpy

    t0 = time.perf_counter()
    for _ in range(repeats):
        _python_work()
        _numpy_work(numpy)
    return (time.perf_counter() - t0) / repeats


def scaled(seconds: float, probe_s: float, reference_s: float = REFERENCE_S) -> float:
    """``seconds`` as it would read on a machine where the probe takes ``reference_s``."""
    return seconds * reference_s / probe_s
