"""Laboratory for the algebraic treatment of a real scalar field: symbolic
commutation-relation algebra, quasifree states, Gaussian phase-space checks,
lattice propagators, vacuum two-point kernels, normal ordering, and the
point-split stress tensor."""

__version__ = "0.1.0"
