"""Seeded random polynomials: the corpus generator's polynomial family,
drawn from a seed alone."""

from funcdecomp.axioms import _random_polynomial
from funcdecomp.core import seeded_rng


def random_polynomial(d, seed, degree=4, n_terms=5, coeff_range=(-3.0, 3.0),
                      allow_constant=False):
    """Seeded random polynomial; without a constant term it vanishes at the
    origin and every decomposition method applies."""
    return _random_polynomial(d, seeded_rng(seed, 0x90), degree, n_terms, coeff_range,
                              allow_constant)
