"""The one-line host header that the snapshot tools print first.

Matrix products, and so the last digits of some payoffs, depend on the BLAS
kernel that runs them. The header names numpy's version, the BLAS build, the
core that OpenBLAS picked at run time and the environment variables that
steer that choice, so a diff between two hosts shows the kernel first.
"""

from __future__ import annotations

import ctypes
import glob
import os


def _openblas_core(np) -> str:
    """The core name from numpy's bundled OpenBLAS, or "unknown"."""
    libs = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for path in sorted(glob.glob(os.path.join(libs, "libscipy_openblas*"))):
        try:
            corename = ctypes.CDLL(path).scipy_openblas_get_corename64_
        except (OSError, AttributeError):
            continue
        corename.restype = ctypes.c_char_p
        return corename().decode()
    return "unknown"


def host_line(np) -> str:
    """numpy, BLAS build, OpenBLAS run-time core and its environment, on one line."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    env = ", ".join(
        f"{name}={os.environ.get(name, 'unset')}" for name in ("OPENBLAS_CORETYPE", "OPENBLAS_NUM_THREADS")
    )
    return (
        f"# host: numpy {np.__version__}, blas {blas['name']} {blas['version']}, "
        f"openblas core {_openblas_core(np)}, {env}"
    )
