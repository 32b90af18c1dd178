"""Unordered Q-tuples, the bi-Lipschitz embedding of their metric space into
Euclidean space, almost projections onto the embedded cone, Q-valued grid
fields, and the excess/maximal-function pipeline for graph currents.

Modules
-------
qspace    metric space of unordered Q-tuples (matching metric, W1,
          separation and diameter)
coneproj  small convex solvers: isotonic projections, cone projections,
          constrained Chebyshev-type extension values
embed     direction frames, the embedding xi, the face lattice of its image
roproj    constant ladders, the radial collapse map, the cascade retraction
          and its extensions to a neighborhood and to all of space
qfield    Q-valued functions on uniform grids: energies, extensions,
          mollification, retraction onto the cone
currents  graph currents: mass, excess, maximal function, BV functional,
          Lipschitz approximation, competitor construction
probes    empirical estimates: Dirichlet minimizers, reverse Hoelder,
          gradient integrability, harmonic approximation, persistence
cli       command line driver producing reproducible run artifacts
"""

__version__ = "0.1.0"
