"""Moving-frame time integration of the perturbation systems.

Three systems are advanced in the frame z = x - s t:

  A. nonlinear, zero chemical diffusion:
       phi_t - s phi_z - lap phi = N grad psi + P div phi + (div phi) grad psi
       psi_t - s psi_z           = div phi
  B. linearized, chemical diffusion eps > 0:
       phi_t - s phi_z - lap phi     = N grad psi + P div phi
       psi_t - s psi_z - eps lap psi = -2 eps P . grad psi + div phi
  C. full log-gradient system for (n, q), evolved as the exact deviation
     (a, b) = (n - N, q - P) from the wave so that the wave itself is a
     fixed point of the discrete flux form:
       a_t - s a_z - lap a     = div(N b + a P + a b)
       b_t - s b_z - eps lap b = -2 eps [(P.grad) b + (b.grad) P + (b.grad) b]
                                 + grad a

Splitting: every Laplacian is implicit (per-y-Fourier-mode symmetric
tridiagonal solves in z); transport, coupling, and nonlinear terms are
explicit.  One IMEX core advances all three systems with either scheme,
first-order IMEX (imex1) or SBDF2 (Ascher, Ruuth & Wetton, SIAM J. Numer.
Anal. 32, 1995); a system supplies only its explicit tendency, the implicit
solve of each of its arrays, and its ledger row.  phi and the (n, q)
deviations are clamped to zero at z = +-L_z.  psi is clamped only at the
inflow end z = +L_z when it carries no diffusion: its transport is upwinded
toward the outflow at z = -L_z, where a Dirichlet pin would inject spurious
boundary kinks into the H^3 ledger.

System C additionally keeps the per-z y-mean and the y-fluctuation of each
deviation field in separate arrays, with cross products assembled per part.
Rounding noise then stays proportional to each part's own magnitude, which
lets the transverse energy decay through hundreds of e-foldings instead of
flooring at unit roundoff of the O(1) background.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import asdict, dataclass, field

import numpy as np
from scipy.linalg import cho_solve_banded, cholesky_banded

from .config import ConfigError, check_rules
from .energy import EnergyLedger, LedgerRow, ledger_row, transverse_norm_sq
from .grid import ScalarField, VectorField, ddy_array, ddz_array
from .transforms import ColeHopfState, PerturbationState, perturbation_y_means
from .waves import WaveProfile


class IntegratorBlowup(RuntimeError):
    """Raised when a run produces non-finite values or runaway energy."""

    def __init__(self, message, time):
        super().__init__(f"{message} at t = {time:.6g}")
        self.time = time


@dataclass(frozen=True)
class IntegratorConfig:
    """Time-stepping parameters.

    dt must respect the explicit-transport restriction
    dt <= cfl_safety * dz / v_max with v_max = max(|s|, sqrt(max N)); run()
    validates this against the actual profile.  transport selects the psi
    advection stencil ("upwind" default; "central" pairs with sbdf2 for
    second order).  snapshot_every = 0 disables field snapshots.
    """

    dt: float
    t_end: float
    scheme: str = "imex1"
    cfl_safety: float = 0.9
    record_every: int = 1
    transport: str = "upwind"
    frame: str = "moving"
    curl_projection: bool = False
    snapshot_every: int = 0
    blowup_factor: float = 1e6

    def __post_init__(self):
        problems = (check_rules("integrator", asdict(self))
                    + check_rules("output", {"snapshot_every": self.snapshot_every}))
        if problems:
            raise ConfigError(problems)


@dataclass
class TrajectoryRecord:
    """Recorded times, energy ledger, and optional snapshots of one run."""

    system: str
    config: IntegratorConfig
    times: list = field(default_factory=list)
    ledger: EnergyLedger = field(default_factory=EnergyLedger)
    snapshots: list = field(default_factory=list)
    final_state: object = None
    final_deviation: object = None
    blowup: bool = False
    blowup_time: float | None = None
    curl_max: float = 0.0


class _ModeDiffusionSolver:
    """Pre-factored solves of (alpha I - coef (d_zz - k^2)) x = b per y-mode.

    Interior rows carry the 3-point stencil; boundary rows are Dirichlet
    pins (x = 0 at z = +-L_z).  The matrices are symmetric positive
    definite, factored once with banded Cholesky.
    """

    def __init__(self, grid, coef: float, alpha: float = 1.0):
        self.grid = grid
        n_int = grid.n_z - 2
        inv_dz2 = 1.0 / grid.dz**2
        self.factors = []
        for k in grid.wavenumbers_y:
            ab = np.zeros((2, n_int))
            ab[0, 1:] = -coef * inv_dz2
            ab[1, :] = alpha + coef * (2.0 * inv_dz2 + k**2)
            self.factors.append((cholesky_banded(ab), False))

    def solve_modes(self, rh: np.ndarray) -> np.ndarray:
        """rh (n_z - 2, n_y // 2 + 1): interior rfft coefficients, solved per mode."""
        out_h = np.empty_like(rh)
        for m, fac in enumerate(self.factors):
            col = rh[:, m]
            sol = cho_solve_banded(fac, np.column_stack([col.real, col.imag]))
            out_h[:, m] = sol[:, 0] + 1j * sol[:, 1]
        return out_h

    def solve_field(self, rhs: np.ndarray) -> np.ndarray:
        """rhs (n_z, n_y) physical; returns solution with zero boundary rows."""
        out = np.zeros_like(rhs)
        out[1:-1, :] = np.fft.irfft(self.solve_modes(np.fft.rfft(rhs[1:-1, :], axis=1)),
                                    n=self.grid.n_y, axis=1)
        return out

    def solve_mean(self, rhs: np.ndarray) -> np.ndarray:
        """rhs (n_z,) y-independent; same operator at k = 0."""
        out = np.zeros_like(rhs)
        out[1:-1] = cho_solve_banded(self.factors[0], rhs[1:-1])
        return out


def _inflow_pinned(alpha: float):
    """Implicit solve of an undiffused field: alpha x = rhs, with the inflow
    row z = +L_z pinned and the outflow row left free."""
    def solve(rhs):
        out = rhs / alpha
        out[-1, :] = 0.0
        return out
    return solve


class _ImexCore:
    """imex1 / SBDF2 steps of a system over its (array, solve) pairs.

    With D the implicit diffusion and f the explicit tendency,
        imex1:  (1 - dt D) u' = u + dt f(u)
        SBDF2:  (1.5 - dt D) u' = 2 u - u_old / 2 + dt (2 f(u) - f(u_old)),
    SBDF2 taking one imex1 step to build its history.
    """

    def __init__(self, system, dt: float, scheme: str):
        self.system = system
        self.dt = dt
        self.sbdf2 = scheme == "sbdf2"
        self.solves_1 = system.solves(dt, 1.0)
        self.solves_15 = system.solves(dt, 1.5) if self.sbdf2 else None
        self._prev = None  # (arrays, tendencies) of the previous step

    def step(self, u: tuple) -> tuple:
        dt = self.dt
        tend = self.system.explicit_tendency(u)
        if self._prev is None:
            rhs = [x + dt * f for x, f in zip(u, tend)]
            solves = self.solves_1
        else:
            u_old, tend_old = self._prev
            rhs = [2.0 * x - 0.5 * xo + dt * (2.0 * f - fo)
                   for x, xo, f, fo in zip(u, u_old, tend, tend_old)]
            solves = self.solves_15
        if self.sbdf2:
            self._prev = (u, tend)
        return self.system.settle(tuple(solve(r) for solve, r in zip(solves, rhs)))


def _upwind_right(v: np.ndarray, dz: float) -> np.ndarray:
    """One-sided difference toward +z for leftward transport (speed -s)."""
    out = np.empty_like(v)
    out[:-1] = (v[1:] - v[:-1]) / dz
    out[-1] = 0.0  # inflow row is pinned, never advanced
    return out


def _check_finite(arrays, t):
    for a in arrays:
        if not np.all(np.isfinite(a)):
            raise IntegratorBlowup("non-finite field values", t)


# ---------------------------------------------------------------------------
# Systems A and B: perturbation (phi, psi)
# ---------------------------------------------------------------------------

class _PerturbationSystem:
    """Systems A (linear=False, eps = 0) and B (linear=True, eps > 0) as
    arrays (phi1, phi2, psi)."""

    guard = ("M_inst", "energy exceeded {:g} x M0")
    curl_max = 0.0

    def __init__(self, profile: WaveProfile, transport: str, linear: bool):
        eps = profile.params.eps
        if linear and eps <= 0.0:
            raise ValueError("linear_eps requires a profile with eps > 0")
        if not linear and eps != 0.0:
            raise ValueError("nonlinear0 requires an eps = 0 profile")
        self.profile = profile
        self.g = profile.grid
        self.transport = transport
        self.linear = linear
        self.eps = eps
        self.s = profile.params.s
        self.N = profile.N[:, None]
        self.P = profile.P_z[:, None]

    def arrays(self, state: PerturbationState) -> tuple:
        return (state.phi.z.values.copy(), state.phi.y.values.copy(),
                state.psi.values.copy())

    def state(self, u, t) -> PerturbationState:
        g = self.g
        return PerturbationState(
            phi=VectorField(ScalarField(g, u[0]), ScalarField(g, u[1])),
            psi=ScalarField(g, u[2]), t=t, eps=self.eps)

    def solves(self, dt, alpha):
        phi = _ModeDiffusionSolver(self.g, dt, alpha).solve_field
        psi = (_ModeDiffusionSolver(self.g, self.eps * dt, alpha).solve_field
               if self.eps > 0 else _inflow_pinned(alpha))
        return phi, phi, psi

    def explicit_tendency(self, u):
        g, s = self.g, self.s
        phi1, phi2, psi = u
        dz_phi1 = ddz_array(phi1, g.dz)
        dz_phi2 = ddz_array(phi2, g.dz)
        dy_phi2 = ddy_array(phi2, g)
        dz_psi = ddz_array(psi, g.dz)
        dy_psi = ddy_array(psi, g)
        div = dz_phi1 + dy_phi2

        a1 = s * dz_phi1 + self.N * dz_psi + self.P * div
        a2 = s * dz_phi2 + self.N * dy_psi
        if not self.linear:
            a1 = a1 + div * dz_psi
            a2 = a2 + div * dy_psi

        transport = (_upwind_right(psi, g.dz) if self.transport == "upwind"
                     else ddz_array(psi, g.dz))
        a_psi = s * transport + div
        if self.linear:
            a_psi = a_psi - 2.0 * self.eps * self.P * dz_psi
        return a1, a2, a_psi

    def settle(self, u):
        return u

    def row(self, u, t) -> LedgerRow:
        return ledger_row(self.state(u, t), self.profile, self.eps)


def _warn_if_biased(state: PerturbationState) -> None:
    drift = perturbation_y_means(state)
    if drift > 1e-12:
        warnings.warn(f"input y-means reach {drift:.3g}; the linearized system "
                      "assumes mean-zero data", stacklevel=3)


def _step_once(system, state, dt: float, scheme: str = "imex1"):
    u = _ImexCore(system, dt, scheme).step(system.arrays(state))
    t = state.t + dt
    _check_finite(u, t)
    return system.state(u, t)


def step_nonlinear_eps0(state: PerturbationState, profile: WaveProfile,
                        dt: float, scheme: str = "imex1",
                        transport: str = "upwind") -> PerturbationState:
    """One IMEX step of the nonlinear zero-diffusion perturbation system."""
    return _step_once(_PerturbationSystem(profile, transport, linear=False),
                      state, dt, scheme)


def step_linear_eps(state: PerturbationState, profile: WaveProfile,
                    dt: float, scheme: str = "imex1",
                    transport: str = "upwind") -> PerturbationState:
    """One IMEX step of the linearized system with chemical diffusion."""
    system = _PerturbationSystem(profile, transport, linear=True)
    _warn_if_biased(state)
    return _step_once(system, state, dt, scheme)


# ---------------------------------------------------------------------------
# System C: (n, q) deviations with mean/fluctuation split
# ---------------------------------------------------------------------------

def _ymean(v):
    return v.mean(axis=1)


def _fluct(v):
    return v - v.mean(axis=1, keepdims=True)


@dataclass
class _NqDeviation:
    """Deviation (a, b) = (n - N, q - P) split into y-mean and fluctuation."""

    a0: np.ndarray    # (n_z,)
    af: np.ndarray    # (n_z, n_y)
    b0z: np.ndarray
    bfz: np.ndarray
    b0y: np.ndarray
    bfy: np.ndarray
    t: float

    def arrays(self):
        return (self.a0, self.af, self.b0z, self.bfz, self.b0y, self.bfy)

    @classmethod
    def from_full(cls, a, bz, by, t):
        return cls(a0=_ymean(a), af=_fluct(a), b0z=_ymean(bz), bfz=_fluct(bz),
                   b0y=_ymean(by), bfy=_fluct(by), t=t)

    def full(self):
        return (self.a0[:, None] + self.af,
                self.b0z[:, None] + self.bfz,
                self.b0y[:, None] + self.bfy)


def _split_product(m0_a, fl_a, m0_b, fl_b):
    """(m0_a + fl_a)(m0_b + fl_b) split into (mean, fluctuation) parts;
    m0_b = None marks a second factor without y-mean."""
    cross = fl_a * fl_b
    cross_mean = _ymean(cross)
    if m0_b is None:
        return cross_mean, m0_a[:, None] * fl_b + cross - cross_mean[:, None]
    mean = m0_a * m0_b + cross_mean
    fluct = (m0_a[:, None] * fl_b + fl_a * m0_b[:, None]
             + cross - cross_mean[:, None])
    return mean, fluct


class _NqSystem:
    """Deviation form of the (n, q) system as arrays
    (a0, af, b0z, bfz, b0y, bfy).

    Products among mean and fluctuating parts are assembled per part so the
    wave is an exact discrete fixed point and rounding stays relative to
    each component.  In the lab frame the transport terms drop and the wave
    slides out from under the sampled profile, which appears as the exact
    source (-s N', -s P', 0).
    """

    guard = ("Q", "transverse energy exceeded {:g} x Q0")

    def __init__(self, profile: WaveProfile, eps: float, frame: str = "moving",
                 curl_projection: bool = False):
        if eps <= 0.0:
            raise ValueError(f"the (n, q) stepper requires eps > 0, got {eps}")
        self.profile = profile
        self.g = profile.grid
        self.eps = eps
        self.frame = frame
        self.s = profile.params.s
        self.N = profile.N
        self.P = profile.P_z
        self.dN = ddz_array(profile.N, self.g.dz)
        self.dP = ddz_array(profile.P_z, self.g.dz)
        # factors (k^2 - d_zz) for the Helmholtz projection
        self.projector = (_ModeDiffusionSolver(self.g, 1.0, alpha=0.0)
                          if curl_projection else None)
        self.curl_max = 0.0
        self._warned = False

    def arrays(self, state) -> tuple:
        return _nq_deviation_from_state(state, self.profile).arrays()

    def state(self, u, t) -> ColeHopfState:
        return _nq_state(_NqDeviation(*u, t=t), self.profile)

    def solves(self, dt, alpha):
        a = _ModeDiffusionSolver(self.g, dt, alpha)
        b = _ModeDiffusionSolver(self.g, self.eps * dt, alpha)
        return (a.solve_mean, a.solve_field, b.solve_mean, b.solve_field,
                b.solve_mean, b.solve_field)

    def explicit_tendency(self, u):
        g, s, eps = self.g, self.s, self.eps
        dz = g.dz
        a0, af, b0z, bfz, b0y, bfy = u

        # fluxes G = N b + P a + a b, per component and part
        ab_z_m, ab_z_f = _split_product(a0, af, b0z, bfz)
        ab_y_m, ab_y_f = _split_product(a0, af, b0y, bfy)
        Gz_m = self.N * b0z + self.P * a0 + ab_z_m
        Gz_f = self.N[:, None] * bfz + self.P[:, None] * af + ab_z_f
        Gy_m = self.N * b0y + ab_y_m
        Gy_f = self.N[:, None] * bfy + ab_y_f

        ta0 = ddz_array(Gz_m, dz)
        taf = ddz_array(Gz_f, dz) + ddy_array(Gy_f, g)

        # b advection: (P.grad) b + (b.grad) P + (b.grad) b, times -2 eps
        dz_b0z, dz_bfz = ddz_array(b0z, dz), ddz_array(bfz, dz)
        dz_b0y, dz_bfy = ddz_array(b0y, dz), ddz_array(bfy, dz)
        dy_bfz, dy_bfy = ddy_array(bfz, g), ddy_array(bfy, g)

        advz_m, advz_f = _split_product(b0z, bfz, dz_b0z, dz_bfz)
        cz_m, cz_f = _split_product(b0y, bfy, None, dy_bfz)
        advy_m, advy_f = _split_product(b0z, bfz, dz_b0y, dz_bfy)
        cy_m, cy_f = _split_product(b0y, bfy, None, dy_bfy)

        tb0z = -2.0 * eps * (self.P * dz_b0z + b0z * self.dP + advz_m + cz_m) \
            + ddz_array(a0, dz)
        tbfz = -2.0 * eps * (self.P[:, None] * dz_bfz + bfz * self.dP[:, None]
                             + advz_f + cz_f) + ddz_array(af, dz)
        tb0y = -2.0 * eps * (self.P * dz_b0y + advy_m + cy_m)
        tbfy = -2.0 * eps * (self.P[:, None] * dz_bfy + advy_f + cy_f) \
            + ddy_array(af, g)

        if self.frame == "moving":
            ta0 = ta0 + s * ddz_array(a0, dz)
            taf = taf + s * ddz_array(af, dz)
            tb0z = tb0z + s * dz_b0z
            tbfz = tbfz + s * dz_bfz
            tb0y = tb0y + s * dz_b0y
            tbfy = tbfy + s * dz_bfy
        else:
            # static profile in the lab frame: the wave translates beneath it
            ta0 = ta0 - s * self.dN
            tb0z = tb0z - s * self.dP
        return ta0, taf, tb0z, tbfz, tb0y, tbfy

    def settle(self, u):
        # drain rounding-level y-means out of the fluctuation channel; left
        # in place they freeze at the scale of past fluctuations and their
        # FFT roundoff re-seeds the decaying transverse modes
        a0, af, b0z, bfz, b0y, bfy = u
        for m0, fl in ((a0, af), (b0z, bfz), (b0y, bfy)):
            drift = fl.mean(axis=1)
            m0 += drift
            fl -= drift[:, None]
        return u if self.projector is None else self._project(u)

    def _project(self, u):
        """Helmholtz projection of the fluctuating b onto gradients.

        Solves (d_zz - k^2) chi = div b per mode k != 0 with Dirichlet ends
        and replaces b by grad chi; the y-mean transverse component b0y has
        no periodic potential and is dropped entirely.
        """
        g = self.g
        a0, af, b0z, bfz, b0y, bfy = u
        div = ddz_array(bfz, g.dz) + ddy_array(bfy, g)
        dh = np.fft.rfft(div[1:-1, :], axis=1)
        dh[:, 0] = 0.0  # the fluctuation carries no k = 0 content
        chi = np.zeros_like(div)
        chi[1:-1, :] = np.fft.irfft(self.projector.solve_modes(-dh), n=g.n_y, axis=1)
        return (a0, af, b0z, ddz_array(chi, g.dz), np.zeros_like(b0y),
                ddy_array(chi, g))

    def row(self, u, t) -> LedgerRow:
        g = self.g
        a0, af, _, bfz, b0y, bfy = u
        q_trans = transverse_norm_sq(g, af, bfz, bfy)
        mass = float(g.trapz_weights @ a0) * g.lam + 0.0  # fluctuation integrates to zero

        curl = float(np.max(np.abs(ddy_array(bfz, g)
                                   - ddz_array(b0y[:, None] + bfy, g.dz))))
        self.curl_max = max(self.curl_max, curl)
        if curl > 1e-4 and not self._warned:
            warnings.warn(f"curl drift reached {curl:.3g}; enable curl_projection "
                          "to re-gauge", stacklevel=3)
            self._warned = True
        return LedgerRow(t=t, H3w_phi=0.0, H3_psi=0.0, H2w_grad_psi=0.0,
                         M_inst=0.0, grad_phi_H3w=0.0, psi4_w=0.0,
                         Q=q_trans, mass=mass)


def _nq_deviation_from_state(state, profile: WaveProfile) -> _NqDeviation:
    """Build the split deviation from a ColeHopfState or PerturbationState."""
    if isinstance(state, ColeHopfState):
        a = state.n.values - profile.N[:, None]
        bz = state.q.z.values - profile.P_z[:, None]
        by = state.q.y.values.copy()
        return _NqDeviation.from_full(a, bz, by, state.t)
    if isinstance(state, PerturbationState):
        from .grid import divergence, gradient

        a = divergence(state.phi).values
        grad_psi = gradient(state.psi)
        return _NqDeviation.from_full(a, grad_psi.z.values, grad_psi.y.values,
                                      state.t)
    raise TypeError(f"cannot build (n, q) deviation from {type(state)!r}")


def _nq_state(d: _NqDeviation, profile: WaveProfile) -> ColeHopfState:
    g = profile.grid
    a, bz, by = d.full()
    return ColeHopfState(
        n=ScalarField(g, profile.N[:, None] + a),
        q=VectorField(ScalarField(g, profile.P_z[:, None] + bz),
                      ScalarField(g, by)),
        t=d.t)


def step_nq(state: ColeHopfState, dt: float, eps: float,
            profile: WaveProfile = None, frame: str = "moving") -> ColeHopfState:
    """One IMEX step of the (n, q) system.

    The wave profile supplies the far-field clamp values (the deviation from
    the wave is pinned to zero at z = +-L_z) and the exact-perturbation flux
    form; it must be provided.
    """
    if profile is None:
        raise ValueError("step_nq needs the wave profile for far-field clamps")
    return _step_once(_NqSystem(profile, eps, frame=frame), state, dt)


# ---------------------------------------------------------------------------
# Run loop
# ---------------------------------------------------------------------------

SYSTEMS = ("nonlinear0", "linear_eps", "nq")


def _steps_for(config: IntegratorConfig) -> int:
    if config.t_end == 0.0:
        return 0
    n = round(config.t_end / config.dt)
    if abs(n * config.dt - config.t_end) > 1e-9 * max(1.0, config.t_end):
        n = math.ceil(config.t_end / config.dt)
    return max(int(n), 1)


def _validate_cfl(config: IntegratorConfig, profile: WaveProfile):
    v_max = max(abs(profile.params.s), math.sqrt(float(np.max(profile.N))), 1e-12)
    limit = config.cfl_safety * profile.grid.dz / v_max
    if config.dt > limit * (1 + 1e-12):
        raise ConfigError([
            f"dt = {config.dt:.4g} violates the transport restriction "
            f"dt <= cfl_safety * dz / v_max = {limit:.4g}"])


def run(system: str, init, profile: WaveProfile,
        config: IntegratorConfig) -> TrajectoryRecord:
    """Advance one system to t_end, recording the energy ledger.

    Records at steps {0, record_every, 2*record_every, ...} and always at
    the final step; halts early on blowup (non-finite values, or M_inst,
    for nq the transverse energy Q, above blowup_factor times its initial
    value), returning the partial record with the blowup flag set.
    """
    if system not in SYSTEMS:
        raise ValueError(f"unknown system {system!r}; expected one of {SYSTEMS}")
    _validate_cfl(config, profile)
    if system == "nq":
        model = _NqSystem(profile, profile.params.eps, frame=config.frame,
                          curl_projection=config.curl_projection)
    else:
        model = _PerturbationSystem(profile, config.transport,
                                    linear=system == "linear_eps")
        if system == "linear_eps":
            _warn_if_biased(init)
    core = _ImexCore(model, config.dt, config.scheme)
    record = TrajectoryRecord(system=system, config=config)
    n_steps = _steps_for(config)
    guard, guard_text = model.guard

    def record_row(u, t):
        row = model.row(u, t)
        record.ledger.append(row)
        record.times.append(t)
        # snapshot every snapshot_every-th recorded row
        if config.snapshot_every and (len(record.times) - 1) % config.snapshot_every == 0:
            record.snapshots.append((t, model.state(u, t)))
        return getattr(row, guard)

    u = model.arrays(init)
    t = 0.0
    level0 = record_row(u, t)
    try:
        for i in range(1, n_steps + 1):
            u = core.step(u)
            t = i * config.dt
            _check_finite(u, t)
            if i % config.record_every == 0 or i == n_steps:
                level = record_row(u, t)
                if level0 > 0 and level > config.blowup_factor * level0:
                    raise IntegratorBlowup(guard_text.format(config.blowup_factor), t)
    except IntegratorBlowup as exc:
        record.blowup = True
        record.blowup_time = exc.time
    record.final_state = model.state(u, t)
    record.curl_max = model.curl_max
    if system == "nq":
        record.final_deviation = _NqDeviation(*u, t=t)
    return record
