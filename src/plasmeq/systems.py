"""Bundled equilibrium systems and their catalogue of known generators.

The PDE declarations and the generators both live in ``plasmeq/data`` as
plain text in the expression grammar.  ``load_system`` returns a ready
``PdeSystem``; the catalogue loaders read the bundled ``.gen`` files with
``lie.parse_generator``, the reader that ``lie verify`` runs, so each known
generator is written down once, in the file a user verifies.
"""

from __future__ import annotations

from . import data_text
from .expr import Expr
from .lie import CandidateGenerator, PdeSystem, parse_generator

__all__ = [
    "load_system",
    "pressure_anisotropy_scaling",
    "line_function_generator",
    "classical_generators",
]

# catalogue label -> generator file, by the pressure variable of the system
_CATALOGUE = {
    "P": {
        "translations": "mhd_translations.gen",
        "rotations": "mhd_rotations.gen",
        "space_scaling": "space_scaling.gen",
        "field_scaling": "mhd_field_scaling.gen",
    },
    "pperp": {
        "translations": "cgl_translations.gen",
        "rotations": "mhd_rotations.gen",
        "space_scaling": "space_scaling.gen",
        "field_scaling": "cgl_field_scaling.gen",
        "pressure_anisotropy_scaling": "cgl_pressure_anisotropy_scaling.gen",
        "line_function": "cgl_line_function.gen",
    },
}


def load_system(name: str) -> PdeSystem:
    """Load a bundled system: ``mhd``, ``cgl`` or ``cgl_closed``."""
    files = {
        "mhd": "mhd_static.pde",
        "cgl": "cgl_static.pde",
        "cgl_closed": "cgl_static_closed.pde",
    }
    try:
        return PdeSystem.from_text(data_text(files[name]))
    except KeyError:
        raise ValueError(f"unknown bundled system {name!r}; choose from {sorted(files)}") from None


def _load(system: PdeSystem, label: str) -> CandidateGenerator:
    """The catalogue generator ``label`` of a system whose pressure is P or pperp."""
    names = {u.name for u in system.context.dependents}
    files = next((files for pressure, files in _CATALOGUE.items() if pressure in names), {})
    if label not in files:
        raise ValueError(f"the generator catalogue has no {label!r} entry for this system")
    return parse_generator(system.context, data_text(files[label]), label)


def classical_generators(system: PdeSystem) -> list[CandidateGenerator]:
    """Translations, rotations and both scalings for any bundled system."""
    return [_load(system, label) for label in ("translations", "rotations", "space_scaling", "field_scaling")]


def pressure_anisotropy_scaling(system: PdeSystem) -> CandidateGenerator:
    """Rescaling of (pperp + B^2/2) against (1 - tau); anisotropic systems only."""
    return _load(system, "pressure_anisotropy_scaling")


def line_function_generator(system: PdeSystem, multiplier: Expr | str = "1") -> CandidateGenerator:
    """The field-line transform family of the anisotropic system: the unit
    generator of ``cgl_line_function.gen`` times ``multiplier``, an
    expression in quantities constant on field lines (``tau`` and
    ``pperp + tau*B^2/2``)."""
    unit = _load(system, "line_function")
    F = system.context.parse(multiplier) if isinstance(multiplier, str) else multiplier
    return CandidateGenerator(
        unit.context, {x: F * v for x, v in unit.xi.items()}, {u: F * v for u, v in unit.eta.items()}, unit.label
    )
