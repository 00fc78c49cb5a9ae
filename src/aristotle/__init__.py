"""Symplectic realization of the centrally extended one-dimensional static group.

The package builds the chain from group law to dynamics: structure constants
and dimensional bookkeeping (``algebra``), the base and extended group laws
with their cocycles and charts (``group``), the coadjoint action, orbit chart
and Poisson structure (``orbit``), the exact flow and trajectory sampler
(``dynamics``), and a seeded verification suite over all of it (``verify``).
The package root re-exports nothing: import each name from its module.
"""

__version__ = "0.1.0"
