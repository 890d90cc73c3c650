"""Exact linear-algebra kernels with a compiled fast path.

Importing prefers the Cython extension; set GENPOS_PURE_KERNELS=1 to force
the pure-Python implementations (used by the benchmark and parity tests).
Both backends export int_det, int_rank, gp_extends with identical semantics.
"""

import os

if os.environ.get("GENPOS_PURE_KERNELS") == "1":
    from genpos._kernels.pure import gp_extends, int_det, int_rank

    BACKEND = "pure"
else:
    try:
        from genpos._kernels._fastrank import (  # type: ignore[no-redef]
            gp_extends,
            int_det,
            int_rank,
        )

        BACKEND = "cython"
    except ImportError:
        from genpos._kernels.pure import (  # type: ignore[no-redef]
            gp_extends,
            int_det,
            int_rank,
        )

        BACKEND = "pure"

__all__ = ["int_det", "int_rank", "gp_extends", "BACKEND", "backend_name"]


def backend_name():
    """Name of the kernel backend selected at import: 'cython' or 'pure'."""
    return BACKEND
