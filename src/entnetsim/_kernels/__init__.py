"""Kernel backend selection.

The hot inner loops over tag streams (dead-time pruning, coincidence
matching, correlation histogramming) exist twice: a compiled Cython
extension (_ckernels) and a pure NumPy fallback (_pykernels) with
identical semantics. The compiled backend is preferred when importable;
set ENTNETSIM_KERNELS=python to force the fallback (or =compiled to
require the extension).
"""

from __future__ import annotations

import os

from . import _pykernels

_choice = os.environ.get("ENTNETSIM_KERNELS", "auto").lower()

if _choice == "python":
    _impl = _pykernels
elif _choice == "compiled":
    from . import _ckernels as _impl
else:
    try:
        from . import _ckernels as _impl
    except ImportError:
        _impl = _pykernels

BACKEND = _impl.BACKEND_NAME
dead_time_prune = _impl.dead_time_prune
greedy_match = _impl.greedy_match
correlation_histogram = _impl.correlation_histogram
