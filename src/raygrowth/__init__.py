"""Growth of potentials with masses on a ray: indicators, kernels, transforms.

A numerical library around one circle of ideas: a potential in dimension
n >= 3 whose generating mass lives on the negative axis has a directional
growth indicator expressible through associated Legendre functions on the
cut; the Mellin transform of the generating kernel gives that expression in
closed form; the zeros of the angular factor are the finitely many
directions where growth information cannot be transferred; and a direct
quadrature simulator provides the independent check for all of it.

Modules: :mod:`raygrowth.specfun` (gamma, 2F1, Legendre on the cut),
:mod:`raygrowth.kernels`, :mod:`raygrowth.mellin`, :mod:`raygrowth.indicator`,
:mod:`raygrowth.potential`, :mod:`raygrowth.cli`.
"""

__version__ = "0.1.0"

from .errors import (
    ConvergenceError,
    CountMismatchError,
    DomainError,
    ExceptionalAngleError,
    OutOfRangeError,
    ParseError,
    PoleError,
    RayGrowthError,
    StripViolationError,
)
from .kernels import ProblemParams
from .mellin import MellinResult, MellinStrip, QuadratureSpec
from .potential import Atomic, MassModel, Perturbed, PowerLaw, SlowlyVarying, SweepResult

__all__ = [
    "__version__",
    "Atomic",
    "ConvergenceError",
    "CountMismatchError",
    "DomainError",
    "ExceptionalAngleError",
    "MassModel",
    "MellinResult",
    "MellinStrip",
    "OutOfRangeError",
    "ParseError",
    "Perturbed",
    "PoleError",
    "PowerLaw",
    "ProblemParams",
    "QuadratureSpec",
    "RayGrowthError",
    "SlowlyVarying",
    "StripViolationError",
    "SweepResult",
]
