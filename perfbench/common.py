"""Environment, host fingerprint and the results ledger.

Call :func:`pin_process` before NumPy loads: it pins the BLAS thread
count through the environment, which BLAS reads once when it loads, and
pins the allocator settings before the large allocations start.
"""

from __future__ import annotations

import ctypes
import json
import os
import pathlib
import platform
import resource
import subprocess
import sys
import time

__all__ = ["BENCH_DIR", "ROOT", "SETTINGS", "OUT_DIR", "BLAS_THREADS",
           "pin_process", "require_sources", "fingerprint", "append_ledger",
           "cpu_times", "peak_rss_mb", "HostSpeed", "SetupClock"]

BENCH_DIR = pathlib.Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SETTINGS = json.loads((BENCH_DIR / "settings.json").read_text())
# Everything a run writes lives here (ignored by git).
OUT_DIR = ROOT / ".perfbench"

BLAS_THREADS = 1
# glibc mallopt parameters and the values pinned (see _pin_allocator).
M_MMAP_THRESHOLD, MMAP_THRESHOLD_BYTES = -3, 128 * 1024
M_ARENA_MAX, ARENA_MAX = -8, 2


def pin_process() -> None:
    """Pin the BLAS thread count and the allocator; call before NumPy
    loads, since BLAS reads its thread count once, at load."""
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)
    _pin_allocator()


def _pin_allocator() -> None:
    """Fix glibc malloc's mmap threshold and arena count.

    By default glibc raises its mmap threshold as large blocks are freed
    and gives threads their own arenas, so whether freed activations go
    back to the OS depends on allocation order across threads; peak RSS
    then lands in one of two modes ~35 MB apart from run to run.  Fixed
    values make it repeatable.  No-op off glibc.
    """
    try:
        libc = ctypes.CDLL("libc.so.6")
        mallopt = libc.mallopt
    except (OSError, AttributeError):
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    mallopt(M_MMAP_THRESHOLD, MMAP_THRESHOLD_BYTES)
    mallopt(M_ARENA_MAX, ARENA_MAX)


def require_sources() -> None:
    """Make ``src/repro`` importable, or exit 2 when it is absent."""
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print("perfbench: src/repro not found next to the benchmark; run "
              "from the root of a full checkout", file=sys.stderr)
        raise SystemExit(2)
    sys.path.insert(0, str(ROOT / "src"))


def _blas_vendor() -> str:
    import numpy as np

    try:
        config = np.show_config(mode="dicts")
        blas = config["Build Dependencies"]["blas"]
        return f"{blas.get('name', '?')} {blas.get('version', '?')}"
    except (TypeError, KeyError):
        return "unknown"


def _git_sha() -> str:
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def fingerprint() -> dict:
    """Host facts a result is only comparable under (sha excluded)."""
    import numpy as np
    import scipy

    return {
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
        "blas_vendor": _blas_vendor(),
        "blas_threads": BLAS_THREADS,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
    }


def append_ledger(record: dict) -> pathlib.Path:
    """Append one run to ``.perfbench/ledger.jsonl``, keyed by git sha."""
    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / "ledger.jsonl"
    entry = {"sha": _git_sha(), "unix": time.time(),
             "fingerprint": fingerprint(), **record}
    with open(path, "a", encoding="utf-8") as handle:
        handle.write(json.dumps(entry, sort_keys=True) + "\n")
    return path


def cpu_times() -> tuple[int, int] | None:
    """``(steal, total)`` jiffies from ``/proc/stat``, where it exists."""
    try:
        with open("/proc/stat", encoding="ascii") as handle:
            fields = [int(v) for v in handle.readline().split()[1:]]
    except (OSError, ValueError):
        return None
    return (fields[7] if len(fields) > 7 else 0), sum(fields)


def peak_rss_mb() -> float:
    """Peak resident set of the largest single process of the run: this
    one or a child it has waited for, such as a data-parallel worker
    (Linux reports KiB)."""
    return max(resource.getrusage(who).ru_maxrss for who in (
        resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN)) / 1024.0


class HostSpeed:
    """Times a fixed unit of NumPy and Python work that no program code
    runs, to scale measured times to one reference host speed.

    On a shared VM the host's speed drifts by up to ~2x, over seconds
    and over minutes, and the program's own times follow it.  A probe
    taken next to a measured stretch (between training steps, between
    serve phases, before a set-up) times the same drift; multiplying the
    stretch by ``reference_ms / probe_ms`` reports it at the reference
    speed, so two runs of the same code agree even when the host was
    busy during one of them.  The unit mixes what a training or serving
    step spends time on: small float32 GEMMs, an elementwise
    transcendental and Python-level bookkeeping.

    ``REFERENCE_MS`` is about what the unit takes between training steps
    at a typical moment of a 2-vCPU x86_64 host, so scaled figures read
    close to raw ones there.  It is the same on both sides of every
    comparison; changing it rescales every recorded time.
    """

    REFERENCE_MS = 0.33

    def __init__(self, reference_ms: float = REFERENCE_MS):
        import numpy as np

        rng = np.random.default_rng(0)
        self._x = rng.standard_normal((256, 64)).astype(np.float32)
        self._w = (rng.standard_normal((64, 64)) * 0.125).astype(np.float32)
        self._tanh = np.tanh
        self.reference_ms = reference_ms

    def _unit(self) -> float:
        h, total = self._x, 0.0
        for _ in range(8):
            h = self._tanh(h @ self._w)
            total += float(h[0, 0])
        table = {}
        for i in range(300):
            table[i] = i * 0.5
        return total + len(table)

    def probe(self, units: int) -> float:
        """Mean milliseconds per unit over ``units`` units run back to
        back.  A mean, not a median: a preemption or an interrupt that
        lands in a probe is host slowness the program meets as well."""
        started = time.perf_counter()
        for _ in range(units):
            self._unit()
        return (time.perf_counter() - started) * 1e3 / units

    def scale(self, probe_ms: float) -> float:
        """Factor turning a time measured at ``probe_ms`` per unit into
        the time it would take at the reference speed."""
        return self.reference_ms / probe_ms

    def around(self, run, units: int):
        """``run()`` between two probes of ``units`` units; returns its
        result and the scale from the mean of the two probes."""
        before_ms = self.probe(units)
        result = run()
        after_ms = self.probe(units)
        return result, self.scale((before_ms + after_ms) / 2.0)


class SetupClock:
    """Times a set-up operation, repeated at points spread over the run.

    Repeats taken back to back all land in one fast or slow moment of
    the host, so a workload can also call :meth:`sample` between
    measuring phases, outside every timed region, and report the median
    over the whole run.  Each repeat is bracketed by host-speed probes
    and scaled by their mean to the reference speed (:class:`HostSpeed`);
    ``raw`` keeps the times as measured.  ``setup(repeat)`` returns the
    resource it set up; ``teardown`` releases a sampled one.
    """

    probe_units = 32

    def __init__(self, setup, teardown, speed: HostSpeed):
        self.setup = setup
        self.teardown = teardown
        self.speed = speed
        self.times: list[float] = []
        self.raw: list[float] = []

    def once(self):
        """Set up one resource, timed, and return it to the caller."""
        def timed():
            started = time.perf_counter()
            resource_ = self.setup(len(self.times))
            return resource_, time.perf_counter() - started

        (resource_, elapsed), scale = self.speed.around(timed,
                                                        self.probe_units)
        self.raw.append(elapsed)
        self.times.append(elapsed * scale)
        return resource_

    def sample(self, count: int) -> None:
        for _ in range(count):
            self.teardown(self.once())
