"""Sinc-DVR spectra of 1-D Hamiltonians, for the tests.

    H = -(1/D) d^2/dx^2 + V(x)

on a uniform grid.  The kinetic matrix is the Colbert-Miller sinc
discrete-variable representation (J. Chem. Phys. 96, 1982 (1992)),
which converges exponentially in the grid step for states that have
decayed at the grid's ends.  Test modules import this file; pytest does
not collect it.
"""

import numpy as np
import scipy.linalg


def sinc_dvr_kinetic(n, h, D):
    """n x n matrix of -(1/D) d^2/dx^2 on a grid of step h:
    (-1)^(i-j)/(D h^2) * (pi^2/3 if i = j else 2/(i-j)^2)."""
    k = np.subtract.outer(np.arange(n), np.arange(n))
    t = 2.0 / np.where(k == 0, 1, k) ** 2.0
    np.fill_diagonal(t, np.pi ** 2 / 3.0)
    return np.where(k % 2, -t, t) / (D * h * h)


def _hamiltonian(x, V, D):
    return sinc_dvr_kinetic(x.size, x[1] - x[0], D) + np.diag(V)


def lowest_levels(x, V, D, k):
    """The k lowest eigenvalues of H on the uniform grid x, with V the
    potential sampled on x, by one dense symmetric solve."""
    return np.linalg.eigvalsh(_hamiltonian(x, V, D))[:k]


def lowest_states(x, V, D, k):
    """The k lowest eigenvalues of H and their unit eigenvectors (as
    columns, sampled on x): the squared entries of a column are its
    state's weights at the grid points.  Only those k are computed."""
    return scipy.linalg.eigh(_hamiltonian(x, V, D), subset_by_index=[0, k - 1])
