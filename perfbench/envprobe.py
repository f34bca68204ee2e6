"""Print the numerical environment `ehtlab` runs in as one JSON object.

Python, numpy and mpmath versions, the BLAS library numpy was built against,
and the thread count that library reports. Run in a fresh process so the
figures are the ones an `ehtlab run` process sees.
"""

from __future__ import annotations

import ctypes
import json
import platform

import mpmath
import numpy as np


def blas_threads() -> int | None:
    """Threads OpenBLAS will use, asked from the loaded library itself."""
    with open("/proc/self/maps") as fh:
        libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    for lib in sorted(libs):
        handle = ctypes.CDLL(lib)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def main() -> None:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    print(json.dumps({
        "python": platform.python_version(),
        "numpy": np.__version__,
        "mpmath": mpmath.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
    }))


if __name__ == "__main__":
    main()
