"""Finite-precision p-adic machinery for weight families of modular symbols.

Submodules:
  padic       primality and p-adic valuations
  matrices    exact 2x2 integer matrices, the one matrix type
  sympow      symmetric-power vectors and their matrix action
  iwasawa     the weight space: p-adic integers with precision, weight
              characters, the interpolated action, family cocycles
  gamma1      cosets and free bases for Gamma_H(N), Gamma_1(N) the default
  packed      vectors as the fields of one int, poly_mul, mat_vec
  linalg      matrix algebra over Z/p^r (canonical forms, solving, charpoly)
  cohomology  H^1 presentations and Hecke matrices
  shapiro     Hecke charpolys as products of nebentypus blocks
  slope       Newton polygons, slope splitting
  qexp        q-expansions, Eisenstein series, Hecke action on coefficients
  verify      randomized checks of the contracts, shared by the CLI and tests
  errors      the PwlError taxonomy
  cli         command-line front end
"""

__version__ = "0.1.0"

from .errors import PwlError

__all__ = ["PwlError", "__version__"]
