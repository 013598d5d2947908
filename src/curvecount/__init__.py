"""Exact-arithmetic toolkit for curve-counting invariant tables.

The pieces: truncated Laurent/power series over rationals (series), Bernoulli
numbers (bernoulli), invariant tables and their file formats (tables), the
GW/GV/PT/DT transforms with threshold vanishing (transforms), closed-form
genus bounds and extremal values (bounds), tilt-stability wall geometry
(walls), and the holomorphic-ambiguity linear solves (bcov).  The
``curvecount`` command in cli drives everything from files.

Everything computes over fractions.Fraction; no floating point touches any
decision path, and every series carries an explicit exponent window so that
"unknown above truncation" never silently becomes zero.
"""

from __future__ import annotations

from .bernoulli import bernoulli
from .bounds import (
    BoundReport,
    ThreefoldProfile,
    bound_function_properties,
    bps_threshold,
    castelnuovo_corollary_check,
    extremal_gv,
    extremal_moduli_euler,
    genus_bound_divisor,
    genus_bound_general,
    genus_bound_hypersurface,
    genus_bound_nonhyperplane,
    max_vanishing_degree,
)
from .bcov import (
    ConifoldFrame,
    HolomorphicAmbiguity,
    assemble_fg,
    castelnuovo_solve,
    gap_solve,
    regularity_indices,
    resolution_plan,
)
from .series import (
    BivariateSeries,
    LaurentSeries,
    VariableMismatchError,
    WindowError,
    series_compose,
    series_exp,
    series_invert,
    series_log,
    series_mul,
    series_reversion,
)
from .tables import GvTable, GwTable, PtTable, TruncationError
from .transforms import (
    apply_castelnuovo_vanishing,
    connected_vanishing_check,
    gv_to_gw,
    gv_to_pt_connected,
    gw_to_gv,
    integrality_check,
    pt_connected_to_table,
    pt_table_to_connected,
    pt_to_dt,
)
from .walls import (
    ChernCharacter,
    DestabilizerCandidate,
    WallLocus,
    bg_quadratic,
    discriminant,
    enumerate_destabilizers,
    extremal_wall_analysis,
    genus_bound_from_Q,
    genus_decomposition,
    ideal_wall_circle,
    numerical_wall,
    quintic_domain_check,
    rank_bound_check,
    slope_tilt,
    twist,
)

__version__ = "0.1.0"
