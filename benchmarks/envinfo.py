"""The environment a benchmark result was taken in, and how two of them differ.

MLP training reproduces bit for bit only on one machine and BLAS build, and
timings compare only at the same thread count, so every result carries this
record and a comparison across differing records is flagged.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import platform
from pathlib import Path

import numpy as np

# Fields that must agree for two results to be compared.
COMPARED = ("nproc", "cpu_model", "python", "numpy", "blas", "blas_threads", "thread_env")


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _openblas():
    """(config string, thread count) of the OpenBLAS numpy loaded, or (None, None)."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            path = next((line.split()[-1] for line in fh if "openblas" in line), None)
    except OSError:
        path = None
    if path is None:
        return None, None
    lib = ctypes.CDLL(path)
    for prefix in ("scipy_openblas", "openblas"):
        for suffix in ("64_", ""):
            get_config = getattr(lib, f"{prefix}_get_config{suffix}", None)
            get_threads = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
            if get_config is not None and get_threads is not None:
                get_config.restype = ctypes.c_char_p
                get_threads.restype = ctypes.c_int
                return get_config().decode(), int(get_threads())
    return None, None


def _git_commit(root: Path) -> str | None:
    """HEAD of the repository at root, read from .git without running git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_file = git / ref
        if ref_file.exists():
            return ref_file.read_text(encoding="utf-8").strip()
        for line in (git / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def source_digest(src: Path) -> str:
    """sha256 over the names and bytes of the Python files under src: the code
    identity of a checkout that is not a git repository."""
    h = hashlib.sha256()
    for path in sorted(src.rglob("*.py")):
        h.update(path.relative_to(src).as_posix().encode() + b"\0")
        h.update(path.read_bytes())
    return h.hexdigest()


def collect(root: Path, seed: int) -> dict:
    blas, blas_threads = _openblas()
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": blas_threads,
        "thread_env": {k: v for k, v in sorted(os.environ.items())
                       if k.endswith("_NUM_THREADS")},
        "git_commit": _git_commit(root),
        "source_sha256": source_digest(root / "src" / "chanchart"),
        "seed": seed,
    }


def differences(a: dict, b: dict) -> list[str]:
    """The compared fields on which two environment records disagree."""
    return [k for k in COMPARED if a.get(k) != b.get(k)]
