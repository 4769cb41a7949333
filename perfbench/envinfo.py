"""The environment and host-speed record written with every result."""

from __future__ import annotations

import ctypes
import hashlib
import os
import platform
import subprocess
from pathlib import Path
from time import perf_counter


def _blas() -> dict:
    import numpy as np

    info = np.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    out = {"name": info.get("name", "unknown"), "version": info.get("version", "unknown"),
           "threads": os.environ.get("OPENBLAS_NUM_THREADS", "default")}
    # ask the loaded OpenBLAS itself how many threads it uses
    try:
        maps = Path("/proc/self/maps").read_text()
    except OSError:
        return out
    libs = {line.split()[-1] for line in maps.splitlines() if "openblas" in line.lower()}
    for lib in sorted(libs):
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                out["threads"] = int(fn())
                return out
    return out


def _revision(root: Path) -> str:
    if not (root / ".git").exists():
        return "unknown (not a git checkout)"
    try:
        res = subprocess.run(["git", "-C", str(root), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return res.stdout.strip() or "unknown"


def source_digest(root: Path) -> str:
    """sha256 over the program's source files, for checkouts without git."""
    h = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        h.update(str(path.relative_to(root)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def environment(root: Path, seed: int) -> dict:
    import numpy as np

    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": _blas(),
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "platform": platform.platform(),
        "git_revision": _revision(root),
        "src_sha256": source_digest(root),
        "seed": seed,
    }


def calibrate() -> dict:
    """A fixed pure-Python loop and a fixed float64 matmul, timed in this
    process; the same code reads slower when the host is slower."""
    import numpy as np

    t0 = perf_counter()
    acc = 0
    for i in range(300_000):
        acc += i * i % 7
    t1 = perf_counter()
    a = np.arange(256 * 256, dtype=np.float64).reshape(256, 256) / 65536.0
    for _ in range(20):
        a = a @ a
        a /= np.abs(a).max()
    t2 = perf_counter()
    return {"python_loop_s": t1 - t0, "matmul_s": t2 - t1}
