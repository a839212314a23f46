"""The machine and provenance record written into every result."""

from __future__ import annotations

import ctypes
import hashlib
import os
import platform
import statistics
import subprocess
import time
from pathlib import Path

import numpy as np

_THREAD_GETTERS = ("openblas_get_num_threads", "openblas_get_num_threads64_",
                   "scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads")


def _blas_threads() -> int | None:
    """The loaded OpenBLAS library's thread count, if it can be asked."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as handle:
            paths = {line.split()[-1] for line in handle if "openblas" in line.lower()}
    except OSError:
        return None
    for path in sorted(paths):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in _THREAD_GETTERS:
            if hasattr(lib, symbol):
                getter = getattr(lib, symbol)
                getter.restype = ctypes.c_int
                return int(getter())
    return None


def _git_commit(root: Path) -> str | None:
    """HEAD's commit; None outside a git checkout or without git."""
    if not (root / ".git").exists():  # never report the commit of an enclosing repository
        return None
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def _blas_build() -> dict:
    """The BLAS numpy was built against, as numpy reports it."""
    try:
        return np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):  # numpy before 1.26 has no ``mode``
        return {}


def _source_record(src: Path) -> dict:
    """Non-blank line count and a content hash of the package sources."""
    digest = hashlib.sha256()
    lines = 0
    for path in sorted(src.rglob("*.py")):
        text = path.read_bytes()
        digest.update(path.relative_to(src).as_posix().encode("utf-8") + b"\0" + text)
        lines += sum(1 for line in text.decode("utf-8").splitlines() if line.strip())
    return {"src_nonblank_lines": lines, "src_sha256": digest.hexdigest()}


def record(root: Path, seed: int) -> dict:
    blas = _blas_build()
    return {
        "cores": os.cpu_count(),
        "cores_usable": len(os.sched_getaffinity(0)),
        "blas": {"name": blas.get("name"), "version": blas.get("version"), "threads": _blas_threads()},
        "python": platform.python_version(),
        "numpy": np.__version__,
        "git_commit": _git_commit(root),
        "seed": seed,
        **_source_record(root / "src"),
    }


class HostGauge:
    """How much slower than its best the host runs, from a fixed reference loop.

    On a shared host the same work can take half again as long for spells of
    seconds to minutes.  The gauge times short bursts of fixed numpy and
    Python work that owes nothing to the package and calls no BLAS, so a
    change to the package's BLAS use or threading cannot move it.  Bursts
    are taken between the benchmark's timed units, never inside one.

    Reference bursts are taken at fixed points of a run (around each
    training epoch and decoder set-up, and in the first decode rounds, which
    always run), a fixed number of them whatever the program's speed; the
    fastest of them is the host at full speed.  Dividing a unit's time by the
    slowdown its nearby bursts show gives its time at full speed.
    """

    def __init__(self):
        rng = np.random.default_rng(0)
        self._matrix, self._vector = rng.random((100, 300)), rng.random(300)
        self._windows, self._filters = rng.random((5, 500)), rng.random((500, 100))
        self.reference: list[float] = []

    def _piece(self) -> None:
        hidden = np.tanh(np.einsum("ij,j->i", self._matrix, self._vector))
        pooled = np.tanh(np.einsum("ij,jk->ik", self._windows, self._filters)).max(axis=0)
        cells = {i: float(v) for i, v in enumerate(hidden[:16])}
        sum(cells.values()) + float(pooled.sum())

    def burst(self, reference: bool = False) -> float:
        """Time one burst (about a millisecond), after an untimed piece that warms the caches."""
        self._piece()
        started = time.perf_counter()
        for _ in range(10):
            self._piece()
        elapsed = time.perf_counter() - started
        if reference:
            self.reference.append(elapsed)
        return elapsed

    def pace(self, count: int = 7) -> float:
        """The median of ``count`` reference bursts: how fast the host runs now."""
        return statistics.median(self.burst(reference=True) for _ in range(count))

    def at_full_speed(self, seconds: float, pace: float) -> float:
        """``seconds`` measured while bursts took ``pace``, scaled to the fastest reference burst."""
        return seconds * min(self.reference) / pace
