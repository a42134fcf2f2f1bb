"""Shared pieces of the benchmark: paths, seeded inputs, timing, process helpers.

Importing this module fixes the BLAS and OpenMP pools to one thread before
NumPy is loaded, so every workload runs one client on one thread.
"""

from __future__ import annotations

import json
import os
import resource
import selectors
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BENCH = Path(__file__).resolve().parent
WORK = ROOT / ".perfbench-work"
SETUP_REPEATS = 3       # fresh interpreters per run that set-up time is taken from
CHILD_TIMEOUT_S = 170.0  # a child still running then is killed


def program_present() -> bool:
    return (SRC / "wulffkit" / "__init__.py").is_file()


def child_env() -> dict:
    """Environment for fresh interpreters: the program from source, one BLAS
    thread, and no output-directory override."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env.pop("WULFFKIT_OUT", None)
    return env


def add_src_to_path() -> None:
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


# ----------------------------------------------------------------- seeded input

def rotation(rng, dim: int):
    """Haar-random rotation in SO(dim) (QR of a Gaussian with signs fixed)."""
    import numpy as np
    q, r = np.linalg.qr(rng.standard_normal((dim, dim)))
    q = q * np.sign(np.diag(r))[None, :]
    if np.linalg.det(q) < 0:
        q[:, 0] = -q[:, 0]
    return q


# ----------------------------------------------------------------- results

@dataclass
class PassReport:
    """What the checks found in one pass.

    ops: operations attempted; failed: operations that raised or, for the CLI
    probes, did not behave as the contract says; problems: check violations;
    rel_errors: errors against the independent references (relative, or
    absolute residuals where the exact value is 0); bars: relative error bars
    the program attached to its results.
    """
    ops: int = 0
    failed: int = 0
    problems: list = field(default_factory=list)
    rel_errors: list = field(default_factory=list)
    bars: list = field(default_factory=list)
    extra: dict = field(default_factory=dict)

    def expect(self, ok: bool, message: str) -> None:
        if not ok:
            self.problems.append(message)


def attempt(fn):
    """fn() or, if it raises, the exception (counted as a failed operation)."""
    try:
        return fn()
    except Exception as exc:
        return exc


def digits(values) -> float:
    """-log10 of the largest value (floored at 1e-17 so exact zeros stay finite)."""
    import math
    worst = max(float(v) for v in values)
    return -math.log10(max(worst, 1e-17))


# ----------------------------------------------------------------- timing

# reference-kernel time that defines the benchmark's unit of time (see normalized_s)
REFERENCE_KERNEL_S = 2.0e-3
KERNEL_REPS = 12        # kernel runs per sample; the sample is their median


def reference_kernel_s() -> float:
    """Median time of a fixed pure-Python loop: the machine's current speed.

    Sampled on the benchmark's own thread between timed pieces of work.
    """
    times = []
    for _ in range(KERNEL_REPS):
        t0 = time.perf_counter()
        acc = 0
        for i in range(20_000):
            acc += i * i % 7
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def normalized_s(elapsed: float, ref_before: float, ref_after: float) -> float:
    """elapsed, rescaled to a machine on which the reference kernel takes
    REFERENCE_KERNEL_S."""
    return elapsed * REFERENCE_KERNEL_S / (0.5 * (ref_before + ref_after))


class Stopwatch:
    """Times units of work; with normalize, rescales each by the reference
    kernel timed on the same thread just before and just after it.

    The host's speed drifts by tens of percent over seconds, so the kernel
    is sampled at every unit boundary (a unit is one program call or group
    of calls of a few tenths of a second).  `normalized` and `raw` add up
    the units timed since the last reset(); without normalize they agree.
    """

    def __init__(self, normalize: bool):
        self.normalize = normalize
        self.reset()

    def _kernel(self) -> float:
        return reference_kernel_s() if self.normalize else REFERENCE_KERNEL_S

    def reset(self) -> None:
        """Start a new pass: zero the sums and take a fresh kernel sample."""
        self.raw = 0.0
        self.normalized = 0.0
        self.ref = self._kernel()

    def __call__(self, fn):
        t0 = time.perf_counter()
        result = fn()
        elapsed = time.perf_counter() - t0
        ref_after = self._kernel()
        self.raw += elapsed
        self.normalized += normalized_s(elapsed, self.ref, ref_after)
        self.ref = ref_after
        return result


def peak_rss_mb_self() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run_child(argv: list[str]) -> tuple[int, str, str, float]:
    """Run a fresh interpreter and reap it with wait4 to read its own peak RSS.

    Returns (exit code, stdout, stderr, peak RSS in MiB).
    """
    deadline = time.perf_counter() + CHILD_TIMEOUT_S
    with open(os.devnull, "rb") as devnull:
        proc = subprocess.Popen(argv, cwd=str(ROOT), env=child_env(), stdin=devnull,
                                stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    out_chunks, err_chunks = [], []
    sel = selectors.DefaultSelector()
    sel.register(proc.stdout, selectors.EVENT_READ, out_chunks)
    sel.register(proc.stderr, selectors.EVENT_READ, err_chunks)
    open_streams = 2
    while open_streams:
        remaining = deadline - time.perf_counter()
        if remaining <= 0:
            proc.kill()
            break
        for key, _ in sel.select(timeout=remaining):
            chunk = os.read(key.fileobj.fileno(), 65536)
            if chunk:
                key.data.append(chunk)
            else:
                sel.unregister(key.fileobj)
                open_streams -= 1
    sel.close()
    _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    proc.stdout.close()
    proc.stderr.close()
    return (proc.returncode, b"".join(out_chunks).decode(), b"".join(err_chunks).decode(),
            usage.ru_maxrss / 1024.0)


def measure_setup(workload: str, seed: int) -> tuple[list[float], list[float]]:
    """Set-up time from fresh interpreters: spawn to 'inputs built'.

    Each child imports wulffkit.cli, builds the workload's inputs and prints
    one JSON line; the parent's clock stops when that line arrives, so
    interpreter start-up counts and interpreter tear-down does not.
    Returns (set-up seconds, import seconds) per child.
    """
    setups, imports = [], []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, str(BENCH / "setup_child.py"), workload, str(seed)],
            cwd=str(ROOT), env=child_env(), stdout=subprocess.PIPE, text=True)
        try:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - t0
            code = proc.wait(timeout=60)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
            proc.stdout.close()
        if code != 0 or not line:
            raise RuntimeError(f"set-up child for {workload} exited with {code}")
        setups.append(elapsed)
        imports.append(float(json.loads(line)["import_s"]))
    return setups, imports


def median(values) -> float:
    return float(statistics.median(values))
