"""Elastic scattering for the planar nonlinear Schrodinger equation.

Computes the on-shell scattering matrix of a short-range potential plus
a power self-interaction by expanding the radial wave function in an
oscillator (or Laguerre) basis, truncating the interior problem, and
iterating the cubic-or-higher coupling perturbatively from the linear
solution.
"""

from .solver import ScatteringResult, scan

__all__ = ["ScatteringResult", "scan"]

__version__ = "0.1.0"
