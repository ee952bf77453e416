"""Reference operations that only the tests use.

Each is the plain statement of what a faster or more general path in
``plasmeq`` computes, kept here as the oracle that path is checked against:

- ``residual_fields``: every residual on the whole interior grid in one
  window, the reference for the windowed, mask-boxed
  ``equilibria.residual_norms``;
- ``cross``: the pointwise cross product of two vector fields;
- ``total_derivative``: D_x along one independent, the one-variable case of
  ``Context.total_derivatives``.
"""

from __future__ import annotations

import numpy as np

from plasmeq.equilibria import CGLState, _require_residual_room, _window_residuals
from plasmeq.expr import Context, Expr, Symbol
from plasmeq.fields import ScalarGrid, VectorGrid


def residual_fields(state: CGLState, system: str) -> dict[str, ScalarGrid | VectorGrid]:
    """Each residual of ``system`` on the interior grid, with central
    differences: equations of the bundled ``.pde`` files that the symbolic
    half reads, left minus right side.  ``mhd`` and ``cgl`` bind them to the
    state's fields; ``alt`` (tau < 1 only) binds ``mhd_static.pde`` to the
    isotropic image B' = sqrt(1 - tau) B, P' = p_perp + tau |B|^2 / 2, and
    adds B . grad of tau and of P' (``label_advection``)."""
    _require_residual_room(state, system)
    return _window_residuals(state, system, 0, state.grid.counts[0])


def cross(a: VectorGrid, b: VectorGrid) -> VectorGrid:
    if a.grid != b.grid:
        raise ValueError("cross product requires matching grids")
    ax, ay, az = a.values
    bx, by, bz = b.values
    return VectorGrid(a.grid, np.stack([ay * bz - az * by, az * bx - ax * bz, ax * by - ay * bx]))


def total_derivative(ctx: Context, e: Expr, x: Symbol | str) -> Expr:
    """Total derivative D_x: the one-variable case of ``total_derivatives``."""
    (d,) = ctx.total_derivatives(e, (x,)).values()
    return d
