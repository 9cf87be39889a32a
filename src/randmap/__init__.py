"""randmap: random-map representations of Markov kernels via optimal transport.

Modules
-------
geometry   torus/box grids, the shared interpolation/deposit stencil, distances
measures   measure representations, moments, pushforwards, Wasserstein metrics
transport  exact/entropic coupling solvers, monotone and Brenier maps, duality
moser      Moser coupling on the flat torus (Poisson solve, flow integration)
kernel     kernel families, representation builders, statistical verification
lift       exponential-map and trivial-bundle lifting between manifolds and R^k
cli        config-driven experiment runner
"""

__version__ = "0.1.0"
