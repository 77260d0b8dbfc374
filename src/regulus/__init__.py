"""Exact q-series engine and congruence verifier for regular multipartitions."""

from .series import (
    ZZ,
    CoefficientRing,
    TruncatedSeries,
    Zmod,
    dilate,
    eta_quotient,
    euler_E,
    invert,
    mul,
    power,
    regular_quotient,
    series,
)

__all__ = [
    "ZZ",
    "CoefficientRing",
    "TruncatedSeries",
    "Zmod",
    "dilate",
    "eta_quotient",
    "euler_E",
    "invert",
    "mul",
    "power",
    "regular_quotient",
    "series",
]

__version__ = "0.1.0"
