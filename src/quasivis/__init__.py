"""Exact-arithmetic toolkit for visible points of cut-and-project sets."""

__version__ = "0.1.0"

from .quadfield import (  # noqa: F401
    FieldDesc,
    QuadInt,
    field,
    fundamental_unit,
)
