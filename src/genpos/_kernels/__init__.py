"""Exact integer linear-algebra kernels: int_det, int_rank and gp_extends,
re-exported from genpos._kernels.pure."""

from genpos._kernels.pure import gp_extends, int_det, int_rank

__all__ = ["int_det", "int_rank", "gp_extends"]
