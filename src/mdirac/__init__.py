"""Dirac-bracket dynamics on momentum levels and Birkhoff normal forms
computed on symplectic slices.

Subpackages
-----------
poly
    Truncated polynomial algebra, Poisson brackets, Lie transforms.
smooth
    Polynomial scalar/vector maps with exact jets; finite-difference
    Jacobian oracle.
dirac
    Constraint sets, Dirac matrix/projection/bracket, diagnostics.
symmetry
    Group actions, momentum maps, slices, locked inertia, drift tests.
birkhoff
    Darboux frames, constraint-compatible charts, normal forms.
models
    Double spherical pendulum, Neumann system, separable constrained
    oscillator, Kustaanheimo-Stiefel diagnostic model.
dynamics
    Fixed-step integrators, conservation monitors, flow comparison.
experiments
    Registered experiment battery returning JSON-ready reports.
cli
    Command-line runner: experiments from JSON configs, reports, CSVs.
"""

__version__ = "0.1.0"

from .poly import (  # noqa: F401
    TruncatedPoly,
    PoissonStructure,
    CanonicalStructure,
    StructuredStructure,
    poisson_bracket,
    lie_transform,
)
