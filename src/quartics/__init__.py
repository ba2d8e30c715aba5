"""Exact finite-field Fourier analysis of singular binary quartic forms.

Layout: ffarith (prime-field primitives), forms (quartic forms, invariants,
splitting types, Q-factorization), schemes (projective point counts and the
geometric decomposition), elliptic (Weierstrass models, traces, (2,2)-forms),
fourier (the transform: exact oracle and closed form), experiments (box sums,
family lattice counts, the census), cli (command-line front end), with
vectorized/intfactor as internal engines.
"""

__version__ = "0.1.0"
