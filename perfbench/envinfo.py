"""Environment block recorded in every benchmark result."""

import ctypes
import glob
import hashlib
import importlib.util
import os
import platform
import subprocess
from pathlib import Path

# Entry points of the OpenBLAS builds numpy ships or links against.
_BLAS_THREAD_SYMBOLS = (
    "scipy_openblas_get_num_threads64_",
    "scipy_openblas_get_num_threads",
    "openblas_get_num_threads64_",
    "openblas_get_num_threads",
)


def nproc() -> int:
    """CPUs this process may run on (what `nproc` prints)."""
    return len(os.sched_getaffinity(0))


def _cache_bytes() -> dict:
    """L1d/L2/L3 sizes as reported by getconf; None where unknown."""
    wanted = {"LEVEL1_DCACHE_SIZE": "l1d", "LEVEL2_CACHE_SIZE": "l2",
              "LEVEL3_CACHE_SIZE": "l3"}
    out = dict.fromkeys(wanted.values())
    try:
        text = subprocess.run(["getconf", "-a"], capture_output=True, text=True,
                              timeout=10, check=False).stdout
    except (OSError, subprocess.TimeoutExpired):
        return out
    for line in text.splitlines():
        parts = line.split()
        if len(parts) == 2 and parts[0] in wanted and parts[1].isdigit():
            out[wanted[parts[0]]] = int(parts[1])
    return out


def _blas(numpy) -> dict:
    """BLAS library numpy was built against and its live thread count."""
    info = {"name": None, "version": None, "threads": None}
    try:
        dep = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info["name"], info["version"] = dep.get("name"), dep.get("version")
    except (KeyError, TypeError):
        pass
    site = Path(numpy.__file__).resolve().parent.parent
    for lib_path in sorted(glob.glob(str(site / "numpy.libs" / "*openblas*"))):
        lib = ctypes.CDLL(lib_path)
        for symbol in _BLAS_THREAD_SYMBOLS:
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                info["threads"] = int(fn())
                return info
    return info


def _git_sha(root: Path):
    if not (root / ".git").exists():
        return None
    try:
        res = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                             capture_output=True, text=True, timeout=10,
                             check=False)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return res.stdout.strip() or None


def source_digest(src: Path) -> str:
    """SHA-256 over the package sources, identifying the code measured
    even where the checkout is not a git repository."""
    h = hashlib.sha256()
    for path in sorted(src.rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            h.update(str(path.relative_to(src)).encode())
            h.update(path.read_bytes())
    return h.hexdigest()


def environment(root: Path, seed: int) -> dict:
    import numpy
    from semproto import backend

    cpus = nproc()
    blas = _blas(numpy)
    blas["threads_within_nproc"] = (None if blas["threads"] is None
                                    else blas["threads"] <= cpus)
    return {
        "nproc": cpus,
        "cache_bytes": _cache_bytes(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas,
        "backend": backend.active_backend(),
        "numba_importable": importlib.util.find_spec("numba") is not None,
        "git_sha": _git_sha(root),
        "src_sha256": source_digest(root / "src" / "semproto"),
        "seed": seed,
    }
