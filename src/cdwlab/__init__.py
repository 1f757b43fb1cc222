"""cdwlab: charge-density-wave soliton transport laboratory.

Submodules (each loads on its first import, not with the package, so a
run pays only for the libraries its experiment reaches):
    model       physical parameters and potential-energy expressions
    evolver     finite-difference Schrodinger evolution on the phase grid
    sinegordon  pendulum chain, kinks and the thin-wall pair profile
    variational two-chain Gaussian-comb ground-state minimization
    tunneling   closed-form tunneling currents and Fourier cross-checks
    curves      CSV-backed result tables
    cli         the cdw-lab command line entry point
"""

__version__ = "0.1.0"
