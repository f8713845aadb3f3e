"""Finite-precision p-adic machinery for weight families of modular symbols.

Submodules:
  padic       p-adic integers with precision bookkeeping, weight characters
  matrices    exact 2x2 integer matrices and the p-stabilized matrix monoid
  sympow      symmetric-power actions and their interpolation in the weight
  iwasawa     analytic functions on the weight space, family action
  gamma1      cosets and free bases for Gamma_1(N)
  linalg      matrix algebra over Z/p^r (canonical forms, solving, charpoly)
  cohomology  cocycles, H^1 presentations, Hecke operators
  slope       Newton polygons, slope splitting
  qexp        q-expansions, Eisenstein series, Hecke action on coefficients
  verify      randomized checks of the contracts, shared by the CLI and tests
  errors      the PwlError taxonomy
  cli         command-line front end
"""

__version__ = "0.1.0"

from .errors import PwlError
from .padic import PrecInt, Weight, binom, unit_project, pow_unit, eval_char

__all__ = [
    "PwlError",
    "PrecInt",
    "Weight",
    "binom",
    "unit_project",
    "pow_unit",
    "eval_char",
    "__version__",
]
