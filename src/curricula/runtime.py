"""What this process runs on: numpy, the BLAS it is built on, the BLAS's
kernel set (its core) and thread count, and the CPUs the process may use.

The BLAS kernels decide the rounding of every product, so the golden bits
of a run are pinned per `Environment.key()`; the thread count and the CPUs
decide how many chunks inference runs at once. `environment()` reads all of
it once per process, on first use, never at import.
"""

from __future__ import annotations

import ctypes
import functools
import os
from dataclasses import dataclass
from pathlib import Path

import numpy as np


@dataclass(frozen=True)
class Environment:
    numpy: str
    blas: str  # "<name> <version>", or "unknown"
    core: str | None  # the BLAS's kernel set, None when it cannot be read
    blas_threads: int | None  # None when it cannot be read
    cpus: int  # CPUs this process may run on

    def key(self) -> str:
        """numpy version, BLAS name and version, and the BLAS core."""
        return f"numpy {self.numpy} | {self.blas} | {self.core or 'unknown'}"


def openblas_info(path) -> tuple[str, int] | None:
    """(core, thread count) of the scipy-openblas library at `path`, or None
    when it cannot be loaded or lacks either symbol."""
    try:
        lib = ctypes.CDLL(str(path))
        corename = lib.scipy_openblas_get_corename64_
        threads = lib.scipy_openblas_get_num_threads64_
    except (OSError, AttributeError):
        return None
    corename.argtypes, corename.restype = [], ctypes.c_char_p
    threads.argtypes, threads.restype = [], ctypes.c_int
    return corename().decode(), threads()


@functools.cache
def environment() -> Environment:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):  # numpy < 1.26 prints its config only
        blas = "unknown"
    libs = Path(np.__file__).parent.parent / "numpy.libs"  # a Linux wheel's
    infos = [openblas_info(lib) for lib in sorted(libs.glob("*openblas*"))]
    core, threads = next((i for i in infos if i is not None), (None, None))
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # not on Linux
        cpus = os.cpu_count() or 1
    return Environment(np.__version__, blas, core, threads, cpus)
