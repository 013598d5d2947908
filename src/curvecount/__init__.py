"""Exact-arithmetic toolkit for curve-counting invariant tables.

The pieces, each imported from its own submodule: truncated Laurent/power
series over rationals (``curvecount.series``), Bernoulli numbers
(``.bernoulli``), invariant tables and their file formats (``.tables``), the
GW/GV/PT/DT transforms with threshold vanishing (``.transforms``), closed-form
genus bounds and extremal values (``.bounds``), tilt-stability wall geometry
(``.walls``), and the holomorphic-ambiguity linear solves (``.bcov``).  The
package re-exports none of their names, so an import loads only the modules
it reaches.  The ``curvecount`` command in ``.cli`` drives everything from
files.

Everything computes over fractions.Fraction; no floating point touches any
decision path, and every series carries an explicit exponent window so that
"unknown above truncation" never silently becomes zero.
"""

__version__ = "0.1.0"
