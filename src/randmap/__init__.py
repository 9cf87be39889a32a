"""randmap: random-map representations of Markov kernels via optimal transport.

Modules
-------
geometry   torus/box grids, interpolation and deposit on them, distances, costs
measures   measure representations, the one measure reader and CSV writer,
           grid pushforwards, Wasserstein metrics
transport  exact/entropic coupling solvers, monotone and Brenier maps
moser      Moser coupling on the flat torus (Poisson solve, 1D closed form, 2D RK4)
kernel     kernel families, representation builders, statistical verification
lift       exponential-map charts of the circle, torus and sphere
cli        config-driven experiment runner
"""

__version__ = "0.1.0"
