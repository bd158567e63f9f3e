"""Numba acceleration switch.

Hot kernels in this package exist in two versions: a numba @njit build and a
pure-numpy build.  The active path is chosen once at import time from the
AMPHISENSE_NUMBA environment variable ("0"/"false"/"off" selects the numpy
path).  Both versions are importable regardless of the switch so they can be
cross-checked and benchmarked against each other.
"""

import os

ENV_FLAG = "AMPHISENSE_NUMBA"

try:
    from numba import njit as _njit

    NUMBA_AVAILABLE = True
except ImportError:  # numba is an optional extra
    _njit = None
    NUMBA_AVAILABLE = False


def _env_wants_numba():
    val = os.environ.get(ENV_FLAG, "1").strip().lower()
    return val not in ("0", "false", "off", "no")


USE_NUMBA = NUMBA_AVAILABLE and _env_wants_numba()


def jit(fn):
    """Compile fn with numba when available, else return it unchanged.

    Used for kernels whose single source works under both interpreters.
    """
    if NUMBA_AVAILABLE:
        return _njit(cache=True)(fn)
    return fn
