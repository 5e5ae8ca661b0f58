"""The Cole-Hopf transform between the chemical and its log-gradient, and
the perturbation variables with their initial data.

The chemical c maps to q = -grad(c)/c = -grad(log c), which removes the 1/c
singularity of the chemotactic flux and is invertible up to one anchor
value of c as long as q is curl-free; the density n passes through as it
is.  Perturbations of a wave profile are carried as a vector potential and
a log-deviation:

    n = N + div(phi),      c = C exp(-psi),      q = P + grad(psi).

The steppers (evolve) and the energy ledger (energy) work on the y-modes
(grid.y_modes) of (phi_z, phi_y, psi), which make_initial_perturbation
returns and a run's records keep; log_gradient_deviation takes them to the
y-modes of the (n, q) deviation (n - N, q - P) = (div phi, grad psi) that
the (n, q) system steps.  No program path assembles (n, c) from them.
perturbation_y_means reads the y-means straight from the modes' k = 0
columns.
"""

from __future__ import annotations

import numpy as np

from .config import check_rules
from .grid import (
    Grid,
    ScalarField,
    VectorField,
    ddy_array,
    ddz_array,
    y_modes,
    y_values,
)


class TransformError(ValueError):
    """Input state violates a transform precondition."""


def cole_hopf_forward(c: ScalarField) -> VectorField:
    """q = -(c_z/c, c_y/c), the mirror of cole_hopf_inverse; rejects
    non-positive c with its location."""
    g, v = c.grid, c.values
    if np.any(v <= 0.0):
        i, j = np.unravel_index(np.argmin(v), v.shape)
        raise TransformError(
            f"c must be positive for the log-gradient transform; "
            f"min c = {v[i, j]:.6g} at (z, y) = ({g.z[i]:.6g}, {g.y[j]:.6g})")
    qz = ScalarField(g, -ddz_array(v, g.dz) / v)
    qy = ScalarField(g, -ddy_array(v, g) / v)
    return VectorField(qz, qy)


def curl(q: VectorField) -> ScalarField:
    """Scalar curl d_y q_z - d_z q_y; vanishes for gradients."""
    g = q.grid
    return ScalarField(g, ddy_array(q.z.values, g) - ddz_array(q.y.values, g.dz))


def _partial_integral_y(values: np.ndarray, grid: Grid) -> np.ndarray:
    """Antiderivative in y from y = 0, exact for resolved Fourier modes.

    A trapezoid rule here would cap the inverse transform at O(dy^2) and make
    the forward-inverse round trip unreachable at tight tolerances, so the
    periodic leg integrates mode-by-mode: a_m (e^{i k_m y} - 1)/(i k_m) plus
    a_0 y for the mean.
    """
    modes = y_modes(values)
    factors = np.zeros_like(modes)
    factors[:, 1:] = modes[:, 1:] / (1j * grid.wavenumbers_y[1:])
    osc = y_values(factors, grid)
    return osc - osc[:, :1] + modes[:, :1].real * grid.y


def cole_hopf_inverse(q: VectorField, c_anchor: float, anchor_z: float) -> ScalarField:
    """Reconstruct c from q = -grad(log c) and one anchor value.

    Integrates q along the L-shaped path (anchor_z, 0) -> (z, 0) -> (z, y):
    trapezoid along z (with a sub-segment correction from anchor_z to the
    nearest node), spectral partial integration along the periodic leg.
    Requires q to be curl-free (path independence) up to the stated
    tolerance.
    """
    if c_anchor <= 0.0:
        raise TransformError(f"c_anchor must be positive, got {c_anchor}")
    g = q.grid
    cmax = float(np.max(np.abs(curl(q).values)))
    if cmax >= 1e-6 * q.max_abs() + 1e-10:
        raise TransformError(
            f"q is not a gradient: max |curl q| = {cmax:.3g} exceeds "
            f"1e-6 * |q|_inf + 1e-10 = {1e-6 * q.max_abs() + 1e-10:.3g}")
    if not (-g.L_z <= anchor_z <= g.L_z):
        raise TransformError(f"anchor_z = {anchor_z} outside [-L_z, L_z]")

    ia = int(np.argmin(np.abs(g.z - anchor_z)))
    qz0 = q.z.values[:, 0]  # z-leg runs along the y = 0 row

    # cumulative trapezoid along z from the nearest node, then a trapezoid
    # sub-segment from the true anchor to that node
    seg = 0.5 * (qz0[1:] + qz0[:-1]) * g.dz
    cum = np.concatenate(([0.0], np.cumsum(seg)))
    q_at_anchor = float(np.interp(anchor_z, g.z, qz0))
    correction = 0.5 * (q_at_anchor + qz0[ia]) * (g.z[ia] - anchor_z)
    line_z = cum - cum[ia] + correction

    line_y = _partial_integral_y(q.y.values, g)

    log_c = np.log(c_anchor) - (line_z[:, None] + line_y)
    return ScalarField(g, np.exp(log_c))


def _bump(x: np.ndarray) -> np.ndarray:
    """C-infinity bump exp(1 - 1/(1 - x^2)) on (-1, 1), zero outside."""
    out = np.zeros_like(x)
    inside = np.abs(x) < 1.0
    xi = x[inside]
    out[inside] = np.exp(1.0 - 1.0 / (1.0 - xi**2))
    return out


def _bump_d1(x: np.ndarray) -> np.ndarray:
    out = _bump(x)
    inside = np.abs(x) < 1.0
    xi = x[inside]
    out[inside] *= -2.0 * xi / (1.0 - xi**2) ** 2
    return out


def make_initial_perturbation(
    grid: Grid,
    amplitude: float,
    seed: int,
    mean_zero_y: bool = False,
    eps: float = 0.0,
) -> tuple:
    """Deterministic smooth initial data with a prescribed energy budget:
    the y-modes (grid.y_modes) of (phi_z, phi_y, psi).

    Fields are sums of compactly supported z-bumps times low y-Fourier modes
    with seeded coefficients.  The phi components use bump derivatives in z
    (suppresses the slowly-decaying long-wave content), psi uses plain bumps.
    The whole state is scaled so the combined weighted measure

        ||phi||_{H^3_w}^2 + ||psi||_{H^3}^2 + ||grad psi||_{H^2_w}^2

    equals `amplitude` (which must be positive) exactly; with mean_zero_y
    the per-z y-averages are projected out first.  eps is accepted and
    ignored: the state does not depend on the wave, and the keyword stays
    only for callers that pass it (the benchmark's set-up probe).
    """
    from .energy import ledger_row

    check_rules("init", {"amplitude": amplitude, "seed": seed}, error=TransformError)
    rng = np.random.default_rng(seed)
    zw = 4.0  # bump half-width; well inside the strip and well resolved
    centers = rng.uniform(-2.0, 2.0, size=3)
    modes = (0, 1, 2) if not mean_zero_y else (1, 2)

    def build(use_derivative_shape):
        v = np.zeros((grid.n_z, grid.n_y))
        shape_fn = _bump_d1 if use_derivative_shape else _bump
        for zc in centers:
            x = (grid.z - zc) / zw
            profile_z = shape_fn(x)
            m = int(rng.choice(modes))
            phase = rng.uniform(0.0, 2.0 * np.pi)
            coef = rng.normal()
            v += coef * np.outer(profile_z, np.cos(2 * np.pi * m * grid.y / grid.lam + phase))
        return v

    values = [build(True), build(True), build(False)]  # phi_z, phi_y, psi
    if mean_zero_y:
        values = [v - v.mean(axis=1, keepdims=True) for v in values]
    measured = ledger_row(grid, [y_modes(v) for v in values], 0.0, 0.0).M_inst
    if measured <= 0.0:
        raise TransformError("degenerate random draw produced an empty state")
    scale = np.sqrt(amplitude / measured)
    return tuple(y_modes(v * scale) for v in values)


def log_gradient_deviation(modes, grid: Grid) -> tuple:
    """The y-modes of the (n, q) deviation (a, b_z, b_y) = (div phi, grad psi)
    of the perturbation whose y-modes (phi_z, phi_y, psi) are `modes`:
    (D_z phi_z + ik phi_y, D_z psi, ik psi), with D_z the z difference of
    grid.ddz_array and ik the y-derivative of grid.ddy_wavenumbers."""
    phi_z, phi_y, psi = modes
    ik = 1j * grid.ddy_wavenumbers
    return ddz_array(phi_z, grid.dz) + ik * phi_y, ddz_array(psi, grid.dz), ik * psi


def perturbation_y_means(modes) -> float:
    """Largest per-z y-average over the y-modes of every field: the largest
    |x[:, 0].real|, the k = 0 column being the y-mean (grid.y_modes)."""
    return max(float(np.max(np.abs(x[:, 0].real))) for x in modes)
