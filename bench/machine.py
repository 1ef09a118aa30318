"""Facts about the machine and the code, recorded with every result."""

from __future__ import annotations

import os
import platform
import subprocess
import sys
from pathlib import Path

THREAD_ENV = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)

# What the benchmark cannot control, so every figure carries this drift.
LIMITS = (
    "no CPU pinning, no frequency-governor control and no page-cache drops: "
    "the benchmark changes no machine setting, so run-to-run drift from other "
    "tenants is reduced only by repeating work and reporting medians"
)


def git_commit(root: Path) -> str | None:
    """HEAD's commit; None where `root` is not a git checkout or git is missing.

    The `.git` test keeps git from reporting an enclosing repository's HEAD.
    """
    if not (root / ".git").exists():
        return None
    try:
        proc = subprocess.run(["git", "-C", str(root), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30, check=False)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def facts(root: Path) -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        blas = None
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": blas,
        "thread_env": {k: os.environ.get(k) for k in THREAD_ENV},
        "git_commit": git_commit(root),
        "limits": LIMITS,
    }
