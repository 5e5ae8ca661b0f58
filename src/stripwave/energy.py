"""Weighted Sobolev norms, energy ledgers, and decay-rate fitting.

The central measure of a perturbation (phi, psi) is

    M_inst = ||phi||_{H^3_w}^2 + ||psi||_{H^3}^2 + ||grad psi||_{H^2_w}^2

together with the running sup M_sup and the accumulated dissipation
integrals D_phi = int ||grad phi||_{H^3_w}^2 dt, D_psi = int ||grad
psi||_{H^2_w}^2 dt, and (for chemical diffusion eps > 0) D_psi4 =
eps int ||grad^4 psi||_{H^0_w}^2 dt.  Norms follow the definition

    ||f||_{H^k_w}^2 = sum_{i+j<=k} int |d_z^i d_y^j f|^2 w(z) dz dy

evaluated by Parseval over the y-modes of f (grid.y_modes, whose k = 0
column is the y-mean): z central differences applied to the modes (d_z acts
on columns and d_y on rows, so the two commute), then the trapezoid weights
in z contracted with the Parseval multiplicity of each bin and k_m^{2j} in
y.  As in ddy_array the Nyquist bin has zero derivative, so it drops out of
every term with j >= 1.  grad^4 means the five mixed fourth-order
derivatives, each counted once.

The engine works on modes throughout: ledger_row and transverse_norm_sq
(the (n, q) ledger's Q) take the y-modes the stepper holds, so a row makes
no transform.  The ledger's C0_running column, (M_sup + D_phi + D_psi +
D_psi4) / M0, is the smallest constant that closes the energy inequality
so far.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import FIT_SAMPLES
from .grid import Grid, ddz_array, write_csv

LEDGER_COLUMNS = (
    "t", "H3w_phi", "H3_psi", "H2w_grad_psi", "M_inst", "M_sup",
    "D_phi", "D_psi", "D_psi4", "Q", "mass", "C0_running",
)


class EnergyError(ValueError):
    pass


def _powers(modes: np.ndarray, grid: Grid, depth: int) -> dict:
    """z-power per y-bin of f and its first `depth` z-derivatives, from f's
    y-modes: power[weighted][i] = sum_z rows(z) |d_z^i f^(z, k)|^2 with rows
    the trapezoid weights, times w(z) when weighted.  Each derivative is
    contracted as soon as it is formed and dropped after the next one, so
    two levels are held at a time."""
    rows = {False: grid.trapz_weights, True: grid.trapz_weights * grid.weight}
    power = {False: [], True: []}
    level = modes
    for i in range(depth + 1):
        if i:
            level = ddz_array(level, grid.dz)
        square = level.real**2 + level.imag**2
        for weighted, r in rows.items():
            power[weighted].append(r @ square)
    return power


def _norm_sq(power: dict, grid: Grid, pairs, weighted: bool = False) -> float:
    """Sum over (i, j) in pairs of int w |d_z^i d_y^j f|^2, from f's powers."""
    bins = grid.rfft_multiplicity * grid.lam
    k2 = grid.ddy_wavenumbers**2  # k2**0 = 1 keeps the Nyquist bin for j = 0
    return float(sum(power[weighted][i] @ (bins * k2**j) for i, j in pairs))


def _sobolev_pairs(k: int) -> list:
    """The terms (i, j), i + j <= k, of ||f||_{H^k}^2."""
    return [(i, j) for j in range(k + 1) for i in range(k + 1 - j)]


def _gradient_pairs(k: int) -> list:
    """The terms of ||grad f||_{H^k}^2 = ||d_z f||_{H^k}^2 + ||d_y f||_{H^k}^2."""
    base = _sobolev_pairs(k)
    return [(i + 1, j) for i, j in base] + [(i, j + 1) for i, j in base]


_FOURTH = [(4 - j, j) for j in range(5)]


@dataclass(frozen=True)
class LedgerRow:
    """Instantaneous energy quantities at one recorded time."""

    t: float
    H3w_phi: float
    H3_psi: float
    H2w_grad_psi: float
    M_inst: float
    grad_phi_H3w: float   # D_phi integrand
    psi4_w: float          # D_psi4 integrand (already eps-multiplied)
    Q: float
    mass: float
    curl: float = 0.0      # nq only: max |curl b| on the y-nodes


def ledger_row(g: Grid, modes, t: float, eps: float) -> LedgerRow:
    """Evaluate every ledger quantity at time t of the perturbation on grid
    g whose y-modes (phi_z, phi_y, psi) are `modes`, as the stepper holds
    them and make_initial_perturbation returns them.

    Q is the transverse energy of the assembled log-gradient variables,
    ||n_y||^2 + ||q_y||^2 = ||(div phi)_y||^2 + ||(grad psi)_y||^2, since the
    wave itself carries no y-dependence.  mass is int(n - N) = int(div phi).
    No column needs a transform: the modes of div phi are D_z phi_z^ + i k
    phi_y^, and mass is their k = 0 column.
    """
    phi_z = _powers(modes[0], g, 4)
    phi_y = _powers(modes[1], g, 4)
    psi = _powers(modes[2], g, 4 if eps > 0 else 3)
    h3, grad_h3 = _sobolev_pairs(3), _gradient_pairs(3)
    h3w_phi = _norm_sq(phi_z, g, h3, True) + _norm_sq(phi_y, g, h3, True)
    h3_psi = _norm_sq(psi, g, h3)
    h2w_grad_psi = _norm_sq(psi, g, _gradient_pairs(2), True)
    grad_phi = _norm_sq(phi_z, g, grad_h3, True) + _norm_sq(phi_y, g, grad_h3, True)
    psi4 = eps * _norm_sq(psi, g, _FOURTH, True) if eps > 0 else 0.0

    div_phi = ddz_array(modes[0], g.dz) + 1j * g.ddy_wavenumbers * modes[1]
    q_trans = (_norm_sq(_powers(div_phi, g, 0), g, [(0, 1)])
               + _norm_sq(psi, g, [(1, 1), (0, 2)]))
    return LedgerRow(
        t=t,
        H3w_phi=h3w_phi,
        H3_psi=h3_psi,
        H2w_grad_psi=h2w_grad_psi,
        M_inst=h3w_phi + h3_psi + h2w_grad_psi,
        grad_phi_H3w=grad_phi,
        psi4_w=psi4,
        Q=q_trans,
        mass=float(g.trapz_weights @ div_phi[:, 0].real) * g.lam,
    )


class EnergyLedger:
    """Time series of energy rows with running sup and trapezoid integrals.

    Columns (CSV order): t, H3w_phi, H3_psi, H2w_grad_psi, M_inst, M_sup,
    D_phi, D_psi, D_psi4, Q, mass, C0_running.
    """

    def __init__(self):
        self.rows: list[dict] = []

    def append(self, row: LedgerRow) -> dict:
        if self.rows:
            prev = self.rows[-1]
            if row.t <= prev["t"]:
                raise EnergyError(f"times must increase: {row.t} after {prev['t']}")
            dt = row.t - prev["t"]
            d_phi = prev["D_phi"] + 0.5 * dt * (prev["grad_phi_H3w"] + row.grad_phi_H3w)
            d_psi = prev["D_psi"] + 0.5 * dt * (prev["H2w_grad_psi"] + row.H2w_grad_psi)
            d_psi4 = prev["D_psi4"] + 0.5 * dt * (prev["psi4_w"] + row.psi4_w)
            m_sup = max(prev["M_sup"], row.M_inst)
            m0 = self.rows[0]["M_inst"]
        else:
            d_phi = d_psi = d_psi4 = 0.0
            m_sup = row.M_inst
            m0 = row.M_inst
        entry = {**vars(row), "M_sup": m_sup, "D_phi": d_phi, "D_psi": d_psi,
                 "D_psi4": d_psi4,
                 "C0_running": ((m_sup + d_phi + d_psi + d_psi4) / m0) if m0 > 0 else 0.0}
        self.rows.append(entry)
        return entry

    @property
    def M0(self) -> float:
        return self.rows[0]["M_inst"] if self.rows else 0.0

    def column(self, name: str) -> np.ndarray:
        return np.array([r[name] for r in self.rows])

    def last(self) -> dict:
        return self.rows[-1]

    def to_csv(self, path) -> None:
        write_csv(path, LEDGER_COLUMNS, ([r[c] for c in LEDGER_COLUMNS] for r in self.rows))


def transverse_norm_sq(grid: Grid, *modes) -> float:
    """Sum of the unweighted ||d_y f||^2 over fields given by their y-modes."""
    return sum(_norm_sq(_powers(vh, grid, 0), grid, [(0, 1)]) for vh in modes)


def fit_exponential_decay(times, values, window) -> tuple[float, float]:
    """Least-squares log-linear fit of values ~ A e^{-c t} on a time window.

    Returns (c, r_squared) with c = -slope (positive for decaying data).
    Requires at least FIT_SAMPLES (10) strictly positive samples inside the
    window; a constant series fits with rate 0 and r_squared reported as 0.
    """
    times = np.asarray(times, dtype=float)
    values = np.asarray(values, dtype=float)
    t0, t1 = window
    mask = (times >= t0) & (times <= t1)
    if np.count_nonzero(mask) < FIT_SAMPLES:
        raise EnergyError(f"need >= {FIT_SAMPLES} samples in window [{t0}, {t1}], "
                          f"got {np.count_nonzero(mask)}")
    tw, vw = times[mask], values[mask]
    if np.any(vw <= 0.0):
        raise EnergyError("values must be positive on the fit window")
    logs = np.log(vw)
    slope, intercept = np.polyfit(tw, logs, 1)
    pred = slope * tw + intercept
    ss_res = float(np.sum((logs - pred) ** 2))
    ss_tot = float(np.sum((logs - logs.mean()) ** 2))
    r_sq = 0.0 if ss_tot == 0.0 else 1.0 - ss_res / ss_tot
    return float(-slope), float(r_sq)
