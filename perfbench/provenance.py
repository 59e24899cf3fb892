"""Machine, build and input provenance recorded with every result."""

from __future__ import annotations

import hashlib
import importlib.util
import os
import platform
import subprocess
from pathlib import Path

# run.py pins these before numpy is first imported, so numpy is imported
# lazily here.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


def loadavg() -> list[float] | None:
    try:
        return [float(v) for v in Path("/proc/loadavg").read_text().split()[:3]]
    except OSError:
        return None


def _blas() -> dict:
    import numpy as np
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):  # numpy < 2 has no dict mode
        return {"name": None, "version": None}
    return {"name": deps.get("name"), "version": deps.get("version"),
            "configuration": deps.get("openblas configuration")}


def _git_commit(root: Path) -> str | None:
    """HEAD of the repository rooted at `root`; None outside a git checkout
    (or when `root` only sits inside some other repository)."""
    try:
        out = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=root,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    lines = out.stdout.split()
    if out.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != root.resolve():
        return None
    return lines[1]


def _source_digest(src: Path) -> str:
    """SHA-256 over the program's source files, which identifies the code
    even in a checkout that is not a git repository."""
    h = hashlib.sha256()
    for path in sorted(src.rglob("*.py")):
        h.update(str(path.relative_to(src)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def collect(root: Path, src: Path, seed: int) -> dict:
    import numpy as np
    return {
        "seed": seed,
        "git_commit": _git_commit(root),
        "source_sha256": _source_digest(src),
        "nproc": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": _blas(),
        "blas_thread_env": {v: os.environ.get(v) for v in BLAS_THREAD_VARS},
        "threadpoolctl_importable": importlib.util.find_spec("threadpoolctl") is not None,
    }

