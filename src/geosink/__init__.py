"""Entropic optimal transport on the flat torus and the round sphere.

The package solves the entropically regularized transport problem with
regularization 1/k by the scaling (Sinkhorn) iteration, applying the
kernel as the exact circulant product on the 1-D torus lattice, through
FFT circular convolution on the 2-D and 3-D lattices and through
spherical harmonic transforms on equiangular sphere grids, with one exact
log-domain backend (on a grid, over windows of one table) as the reference
at every scale. A finite-difference solver for the parabolic Monge-Ampere
flow provides an independent PDE route to the same limiting potentials, and
small-instance oracles (exact circle transport, dense fixed points) pin the
numbers down.

Each name is imported from the submodule that defines it. Importing the
package, or geosink.cli, loads no numpy: the CLI's --threads must take
effect before the BLAS pools start.
"""

__version__ = "0.1.0"
