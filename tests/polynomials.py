"""Seeded random polynomials, the corpus generator's polynomial family drawn
from a seed alone, and a fixed polynomial shaped like the benchmark's sampled
one."""

import numpy as np

from funcdecomp.axioms import _random_polynomial
from funcdecomp.core import seeded_rng

# A polynomial shaped like the benchmark's sampled one: eight terms on
# disjoint supports of 1 to 6 of the 40 variables, every factor a power of
# one variable.
SAMPLED_POLYNOMIAL = (
    "1.8 - 1.5*max(x22,0)^2 + 3.5*max(x15,0)^1*max(x36,0)^3 + 0.42*x5^1*x31^3"
    " + 1.6*x1^1*x7^2*x27^2 + 0.28*x14^2*x23^1*x38^3"
    " + 1.37*x19^1*max(x30,0)^3*max(-x39,0)^3*x40^1"
    " - 1.37*max(x2,0)^2*x3^1*max(-x4,0)^3*max(-x9,0)^3*max(x13,0)^1"
    " - 5.4*max(x12,0)^1*max(x17,0)^3*x18^1*max(x26,0)^2*x29^3*max(-x32,0)^3")
SAMPLED_POINT = tuple(float(s * m) for s, m in zip(
    np.random.default_rng(4).choice([-1.0, 1.0], size=40),
    np.random.default_rng(5).uniform(0.5, 1.5, size=40)))


def random_polynomial(d, seed, degree=4, n_terms=5, coeff_range=(-3.0, 3.0),
                      allow_constant=False):
    """Seeded random polynomial; without a constant term it vanishes at the
    origin and every decomposition method applies."""
    return _random_polynomial(d, seeded_rng(seed, 0x90), degree, n_terms, coeff_range,
                              allow_constant)
