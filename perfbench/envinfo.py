"""What the run found about its environment. It reads and sets nothing else.

The estimates and their timing depend on the BLAS thread count, so every
result records both OpenBLAS pools (numpy's ``scipy_openblas64_`` and
scipy's ``scipy_openblas``), the CPU count, the versions, the git commit
and any threading variables present in the environment.
"""

from __future__ import annotations

import ctypes
import os
import platform
import re
from pathlib import Path

import numpy as np
import scipy
import scipy.linalg  # noqa: F401  (loads scipy's OpenBLAS)

_ENV_PATTERN = re.compile(r"^(OPENBLAS|OMP|MKL|GOTO|BLIS|VECLIB|NUMEXPR|BLAS)")

# (package, library glob, thread-count getter)
_POOLS = (
    ("numpy", "libscipy_openblas64_*.so*", "scipy_openblas_get_num_threads64_"),
    ("scipy", "libscipy_openblas-*.so*", "scipy_openblas_get_num_threads"),
)


def blas_pools() -> dict:
    """Thread count of each OpenBLAS pool, read through ctypes.

    The libraries ship in ``<site-packages>/<package>.libs``; they are
    already loaded by the imports above, so opening them again returns the
    loaded copies.
    """
    pools = {}
    for package, pattern, getter in _POOLS:
        mod = np if package == "numpy" else scipy
        libs_dir = Path(mod.__file__).resolve().parent.parent / f"{package}.libs"
        found = sorted(libs_dir.glob(pattern))
        entry = {"library": found[0].name if found else None, "threads": None}
        if found:
            fn = getattr(ctypes.CDLL(str(found[0])), getter, None)
            if fn is not None:
                fn.argtypes = []
                fn.restype = ctypes.c_int
                entry["threads"] = int(fn())
        pools[package] = entry
    return pools


def git_sha(root: Path) -> str | None:
    """HEAD of ``root``'s own repository, or None when it is not one."""
    git = Path(root) / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.is_file():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        return None
    return None


def environment(root: Path) -> dict:
    return {
        "blas_pools": blas_pools(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "git_sha": git_sha(root),
        "threading_env": {k: v for k, v in sorted(os.environ.items()) if _ENV_PATTERN.match(k)},
    }
