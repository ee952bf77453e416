"""Workbench for static plasma-equilibrium symmetry analysis and exact
anisotropic equilibria: a small exact expression kernel, a point-symmetry
determining-equation engine, finite-difference field verification, the
localized spherical-vortex equilibrium and its anisotropic transforms, and
flux-function solvers for axially and helically symmetric configurations.
"""

__version__ = "0.1.0"

# the governing systems whose residuals ``equilibria.residual_fields``
# evaluates on sampled states; defined here so that ``cli`` and
# ``equilibria`` name them without importing the symbolic kernel
RESIDUAL_SYSTEMS = ("mhd", "cgl", "alt")
