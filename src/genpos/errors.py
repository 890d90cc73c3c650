"""Shared exception types."""


class GenposError(Exception):
    """Base class for library errors."""


class DimensionMismatch(GenposError, ValueError):
    """Points of different ambient dimensions were mixed in one operation."""


class BudgetExceeded(GenposError, RuntimeError):
    """An enumeration or search exceeded its configured resource budget."""


class OracleError(GenposError, RuntimeError):
    """An independence oracle broke a matroid guarantee mid-computation."""


class ConstructionError(GenposError, RuntimeError):
    """A deterministic construction failed verification for every retry;
    rerun with a different seed parameter."""


class DocumentError(GenposError, ValueError):
    """A JSON document did not match the expected schema."""
