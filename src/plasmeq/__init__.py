"""Workbench for static plasma-equilibrium symmetry analysis and exact
anisotropic equilibria: a small exact expression kernel, a point-symmetry
determining-equation engine, finite-difference field verification, the
localized spherical-vortex equilibrium and its anisotropic transforms, and
flux-function solvers for axially and helically symmetric configurations.
"""

__version__ = "0.1.0"

# the governing systems whose residuals ``equilibria.residual_norms``
# evaluates on sampled states; defined here so that ``cli`` and
# ``equilibria`` name them without importing the symbolic kernel
RESIDUAL_SYSTEMS = ("mhd", "cgl", "alt")


def data_text(name: str) -> str:
    """The text of ``name``, a file bundled in ``plasmeq/data``."""
    from importlib import resources

    # anchored at this package, so that no ``plasmeq.data`` module is imported
    return (resources.files(__name__) / "data" / name).read_text()
