"""weblin: linearizability tests and numerical linearization of planar d-webs.

A d-web (d >= 4) on a plane domain is given by web functions: f for the
third foliation and g4..gd for the rest, the first two foliations being the
coordinate lines.  The package decides linearizability by building the
relevant differential invariants symbolically and testing them for identical
vanishing at random sample points, then (for linearizable webs) integrates
the flat connection numerically and produces coordinates in which every leaf
is a straight line.
"""
from .expr import (Expr, parse, format_expr, simplify, derive, substitute,
                   evaluate, dag_size)
from .calculus import (WebSpec, Rect, web_K, basic_invariant, mu,
                       sample_points)
from .invariants import (InvariantReport, ZeroTestPolicy, zero_test,
                         I1_of_mu, I2_of_mu, I_fp, J_alpha, check_dweb)
from .covariant import (WeightedScalar, delta, commutator_residual,
                        prolong_a, K1_closed_residual, K2_closed_residual)
from .linearizer import (GridSpec, LinearizationResult,
                         NotLinearizableError, flat_coordinates,
                         straightness_report, render_svg)

__version__ = "0.1.0"
