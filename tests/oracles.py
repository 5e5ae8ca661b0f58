"""Physical-space oracles: quadrature, divergence, gradient, mean removal and
the transverse energy, on the y-node values of fields, and the states in
physical space of a run's y-modes (a record's `final_modes`).

They use only grid's public derivative operators (ddz_array, ddy_array),
the grid's quadrature weights and numpy, never the mode-space norm engine
of stripwave.energy, so a test that compares the ledger with them compares
two independent evaluations of one quantity.  ddz, ddy and zero_field are
the field forms of those operators and of an empty field.
"""

import numpy as np

from stripwave.grid import ScalarField, VectorField, ddy_array, ddz_array, y_values
from stripwave.transforms import ColeHopfState, PerturbationState


def zero_field(g) -> ScalarField:
    return ScalarField(g, np.zeros((g.n_z, g.n_y)))


def ddz(f: ScalarField) -> ScalarField:
    return ScalarField(f.grid, ddz_array(f.values, f.grid.dz))


def ddy(f: ScalarField) -> ScalarField:
    return ScalarField(f.grid, ddy_array(f.values, f.grid))


def integrate(f: ScalarField, weighted: bool = False) -> float:
    """Integral over the strip: trapezoid in z (matching the 2nd-order
    differences) times the rectangle rule in y, exact over a full period;
    weighted applies w(z_i) per row."""
    g = f.grid
    rows = g.trapz_weights * g.weight if weighted else g.trapz_weights
    return float(rows @ f.values.sum(axis=1)) * g.dy


def gradient(f: ScalarField) -> VectorField:
    g = f.grid
    return VectorField(ScalarField(g, ddz_array(f.values, g.dz)),
                       ScalarField(g, ddy_array(f.values, g)))


def divergence(v: VectorField) -> ScalarField:
    g = v.grid
    return ScalarField(g, ddz_array(v.z.values, g.dz) + ddy_array(v.y.values, g))


def remove_mean_in_y(f: ScalarField) -> ScalarField:
    """Subtract the per-z y-average; an idempotent projector."""
    return ScalarField(f.grid, f.values - f.values.mean(axis=1, keepdims=True))


def transverse_energy(state) -> float:
    """Q = ||n_y||^2 + ||q_y||^2 of a ColeHopfState.

    Each field's per-z y-mean is removed first: it carries no y-derivative,
    and without it the value stays accurate relative to the fluctuation even
    on top of an O(1) background.
    """
    total = 0.0
    for f in (state.n, state.q.z, state.q.y):
        fy = ddy_array(remove_mean_in_y(f).values, f.grid)
        total += integrate(ScalarField(f.grid, fy * fy))
    return total


def perturbation_state(grid, modes) -> PerturbationState:
    """(phi, psi) on the y-nodes of the (phi_z, phi_y, psi) y-modes."""
    phi_z, phi_y, psi = (ScalarField(grid, y_values(x, grid)) for x in modes)
    return PerturbationState(phi=VectorField(phi_z, phi_y), psi=psi)


def cole_hopf_state(profile, modes) -> ColeHopfState:
    """(n, q) = (N + a, P + b) on the y-nodes of the nq deviation's
    (a, b_z, b_y) y-modes from the wave `profile`."""
    g = profile.grid
    a, bz, by = (y_values(x, g) for x in modes)
    return ColeHopfState(n=ScalarField(g, profile.N[:, None] + a),
                         q=VectorField(ScalarField(g, profile.P_z[:, None] + bz),
                                       ScalarField(g, by)))
