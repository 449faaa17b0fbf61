"""weblin: linearizability tests and numerical linearization of planar d-webs.

A d-web (d >= 4) on a plane domain is given by web functions: f for the
third foliation and g4..gd for the rest, the first two foliations being the
coordinate lines.  The package decides linearizability by building the
relevant differential invariants symbolically and testing them for identical
vanishing at random sample points, then (for linearizable webs) integrates
the flat connection numerically and produces coordinates in which every leaf
is a straight line.  The linearizer, and numpy with it, loads on first use
of one of its names here, so a verdict never imports numpy.
"""
from .expr import (Expr, parse, format_expr, simplify, derive, substitute,
                   evaluate, dag_size)
from .calculus import (WebSpec, Rect, web_K, basic_invariant, mu,
                       sample_points)
from .invariants import (InvariantReport, ZeroTestPolicy, zero_test,
                         I1_of_mu, I2_of_mu, J_alpha, check_dweb)
from .covariant import (WeightedScalar, delta, commutator_residual,
                        prolong_a, K1_closed_residual, K2_closed_residual)

__version__ = "0.1.0"

_LINEARIZER_NAMES = ("GridSpec", "LinearizationResult", "NotLinearizableError",
                     "flat_coordinates", "straightness_report", "render_svg")


def __getattr__(name: str):  # PEP 562: called for names not found above
    if name in _LINEARIZER_NAMES:
        import importlib
        return getattr(importlib.import_module(".linearizer", __name__), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
