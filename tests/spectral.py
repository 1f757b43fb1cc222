"""Sinc-DVR spectra of 1-D Hamiltonians, for the tests.

    H = -(1/D) d^2/dx^2 + V(x)

on a uniform grid.  The kinetic matrix is the Colbert-Miller sinc
discrete-variable representation (J. Chem. Phys. 96, 1982 (1992)),
which converges exponentially in the grid step for states that have
decayed at the grid's ends.  ``two_chain_levels`` builds on it the
spectrum of the two-chain Hamiltonian, and ``two_chain_mean_phase`` the
<Phi> of its ground state.  Test modules import this file;
pytest does not collect it.
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


def _two_chain_hamiltonians(p, phi, theta, h, chi_max, m):
    """The matrices of two_chain_levels' Hamiltonian, one per theta of a
    1-D sequence, in the basis of the m lowest states of h_chi at each
    node of the uniform Phi grid phi, on a sinc-DVR chi grid of step h
    over |chi| <= chi_max."""
    chi = h * np.arange(-(chi_max // h), chi_max // h + 1)
    h_chi = sinc_dvr_kinetic(chi.size, h, p.D1) + np.diag(
        0.5 * p.E2 * chi ** 2 + p.delta_prime * (1.0 - np.cos(chi)))
    e, c = np.linalg.eigh(h_chi - 2.0 * p.E1 * np.cos(phi)[:, None, None]
                          * np.diag(np.cos(0.5 * chi)))
    c = c[:, :, :m].transpose(0, 2, 1).reshape(phi.size * m, chi.size)
    # channel overlaps between Phi nodes times the Phi kinetic matrix
    full = (c @ c.T) * np.kron(sinc_dvr_kinetic(phi.size, h, 4.0 * p.D1),
                               np.ones((m, m)))
    v = 2.0 * p.E2 * (phi - np.asarray(theta, dtype=float)[:, None]) ** 2
    diag = e[:, :m].ravel() + 2.0 * p.E1 + np.repeat(v, m, axis=1)
    return (full + np.diag(d) for d in diag)


def two_chain_levels(p, theta, h, phi_max, chi_max, m):
    """Ascending levels of the two-chain Hamiltonian of cdwlab.variational,
    one row per theta of a 1-D sequence, by sequential diagonalisation
    (Bacic & Light, J. Chem. Phys. 85, 4594 (1986)) in Phi = (phi1 +
    phi2)/2 and chi = phi1 - phi2: H = -1/(4 D1) d^2/dPhi^2 + 2 E1 +
    2 E2 (Phi - theta)^2 + h_chi(Phi), h_chi(Phi) = -(1/D1) d^2/dchi^2
    + E2 chi^2/2 + delta' (1 - cos chi) - 2 E1 cos(Phi) cos(chi/2).  The
    basis is the m lowest states of h_chi at each Phi node, on sinc-DVR grids
    of step h over |Phi| <= phi_max and |chi| <= chi_max; theta enters
    only the diagonal, so the channels are built once for every theta."""
    phi = h * np.arange(-(phi_max // h), phi_max // h + 1)
    return np.array([np.linalg.eigvalsh(a) for a in
                     _two_chain_hamiltonians(p, phi, theta, h, chi_max, m)])


def two_chain_mean_phase(p, theta, h, phi_half, chi_max, m):
    """<Phi> in the ground state of two_chain_levels' Hamiltonian at one
    theta, on the Phi grid theta + k h, |k h| <= phi_half: the lowest
    state's weights at the Phi nodes, summed over its channels, times
    the nodes."""
    phi = theta + h * np.arange(-(phi_half // h), phi_half // h + 1)
    a, = _two_chain_hamiltonians(p, phi, [theta], h, chi_max, m)
    c = scipy.linalg.eigh(a, subset_by_index=[0, 0])[1]
    return float(phi @ (c * c).reshape(phi.size, m).sum(axis=1))
