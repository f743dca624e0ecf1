"""The environment a result was measured in, recorded with every result."""

from __future__ import annotations

import ctypes
import hashlib
import os
import platform
from pathlib import Path

import numpy as np

# Symbols that report OpenBLAS's thread count, by build flavour.
_BLAS_THREAD_SYMBOLS = (
    "scipy_openblas_get_num_threads64_",
    "scipy_openblas_get_num_threads",
    "openblas_get_num_threads64_",
    "openblas_get_num_threads",
)


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _blas() -> dict:
    info = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    record = {"name": info.get("name"), "version": info.get("version"), "threads": None}
    try:
        with open("/proc/self/maps") as f:
            libs = sorted({
                line.split()[-1] for line in f
                if "blas" in line.lower() and line.split()[-1].startswith("/")
            })
    except OSError:
        libs = []
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in _BLAS_THREAD_SYMBOLS:
            if hasattr(lib, symbol):
                fn = getattr(lib, symbol)
                fn.argtypes = []
                fn.restype = ctypes.c_int
                record["threads"] = fn()
                record["library"] = os.path.basename(path)
                return record
    return record


def _commit(root: Path):
    """The commit checked out, read from ``.git`` without running git.

    None when the checkout has no ``.git`` directory or its HEAD does not
    resolve (an unborn branch).
    """
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
    except OSError:
        return None
    if not head.startswith("ref:"):
        return head or None  # a detached HEAD holds the commit itself
    ref = head[len("ref:"):].strip()
    try:
        return (git / ref).read_text().strip()
    except OSError:
        pass
    try:
        packed = (git / "packed-refs").read_text().splitlines()
    except OSError:
        return None
    for line in packed:
        commit, _, name = line.partition(" ")
        if name == ref:
            return commit
    return None


def _source_digest(root: Path) -> str:
    """sha256 over the package sources: identifies the code without git."""
    h = hashlib.sha256()
    for path in sorted((root / "src" / "crossloc").glob("*.py")):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def record(root: Path) -> dict:
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": _blas(),
        "process_threads": len(os.listdir("/proc/self/task")) if os.path.isdir("/proc/self/task") else None,
        "commit": _commit(root),
        "src_sha256": _source_digest(root),
    }
