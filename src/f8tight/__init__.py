"""Exact counting and enumeration of tight contact structures on surgeries
on the figure-eight knot."""

from .cfrac import Form, neg_cfrac, phi, psi
from .classification import (
    CountKind,
    classify,
    coefficients_between,
    enumerate_structures,
    geometry_of,
    tight_count,
)
from .slope import Slope, parse_slope
from .surgery_enum import smooth_framing_check
from .tight_counts import solid_torus_count, solid_torus_spec
from .torus_dynamics import (
    AttachSide,
    BypassMove,
    SlopeWindow,
    bypass_step,
    slopes_in_window,
    thicken_path,
)

__all__ = [
    "AttachSide",
    "BypassMove",
    "CountKind",
    "Form",
    "Slope",
    "SlopeWindow",
    "bypass_step",
    "classify",
    "coefficients_between",
    "enumerate_structures",
    "geometry_of",
    "neg_cfrac",
    "parse_slope",
    "phi",
    "psi",
    "slopes_in_window",
    "smooth_framing_check",
    "solid_torus_count",
    "solid_torus_spec",
    "thicken_path",
    "tight_count",
]
