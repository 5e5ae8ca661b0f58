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

Every linear term has z-only coefficients, so it acts on one transverse
mode at a time.  The stepper therefore holds each field as its rfft y-modes
(grid.y_modes), z-major with shape (n_z, n_y/2 + 1): d/dy is a
multiplication by i k, z differences act on the columns, and a field's
k = 0 column is its per-z y-mean.  Within a step only the quadratic terms
visit the y-nodes (_Products).  The records of a run hold its final state
and its snapshots in this format too (TrajectoryRecord), so no state in
physical space is formed here: that is left to the writers of artifacts
that need node values.

Splitting: every Laplacian is implicit; transport, coupling, and nonlinear
terms are explicit.  The per-mode diffusion matrices are symmetric
tridiagonal in z; stacked along one diagonal they form a single
tridiagonal system with one real LDL^T factor (LAPACK dpttrf).  A field's
complex y-modes are one right-hand side column of one tridiagonal solve
(zpttrs), called directly.  Both come from scipy's f2py LAPACK extension,
loaded from its file when the first diffusion solver is built (_lapack)
rather than imported through scipy.linalg, so importing stripwave loads no
scipy and a run that steps loads that one module, not the 85 of
scipy.linalg.  Each of the three systems is one object per time loop
(_System) that steps itself with either scheme, first-order IMEX (imex1)
or SBDF2 (Ascher, Ruuth & Wetton, SIAM J. Numer. Anal. 32, 1995), and
counts its work in one RunCounters; a system states only its explicit
tendency, the diffusion of each of its arrays, and its ledger row.  phi
and the (n, q) deviations are clamped to zero at z = +-L_z.  psi is
clamped only at the inflow end z = +L_z when it carries no diffusion: its
transport is upwinded toward the outflow at z = -L_z, where a Dirichlet
pin would inject spurious boundary kinks into the H^3 ledger.

In system C the y-mean column and the fluctuation modes never mix through a
linear term, and _Products multiplies the two parts separately.  Rounding
noise then stays proportional to each part's own magnitude, which lets the
transverse energy decay through hundreds of e-foldings instead of flooring
at unit roundoff of the O(1) background.

run steps its time loop, its ledger rows included, with subnormal numbers
flushed to zero (_subnormals_flushed, the package's second wrapper of
foreign code after _lapack): the perturbations' z-tails decay through the
subnormal range, where every pass over them would take a microcode assist,
and read 0 instead.  A value that took a flushed tail as input moves by
less than about 1e-305, so a ledger value above about 1e-290 moves by an
ulp at most; the (n, q) fluctuation, stepped at true scale, reads 0 once
it decays below 2.2e-308 itself.  The wave build and the writers of
artifacts run in IEEE arithmetic.

An imex1 step allocates only the arrays it returns.  Each system, each
diffusion solver and each _Products own their scratch arrays, allocated
once from the grid when they are made and reused by every step:
derivatives, fluxes, the y-node values of the product factors, the
mode-major right-hand side of the banded solve.  Products and sums are
formed in place with ufunc out= arguments, in the order of the plain
expressions (a + b + c as (a + b) + c, a scalar times a sum as the sum
scaled in place), so every value is bit for bit that of a fresh array per
intermediate.  No returned array aliases a buffer: the tendencies are fresh
arrays, an imex1 step forms each right-hand side in its tendency and an
SBDF2 step in a fresh array, and solves it in place, so the records and the
SBDF2 history keep arrays no later step writes.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import importlib.machinery
import importlib.util
import math
import os
import sys
import time
import warnings
from dataclasses import asdict, dataclass, field, replace

import numpy as np

from .config import ConfigError, check_rules
from .energy import EnergyLedger, LedgerRow, ledger_row, transverse_norm_sq
from .grid import ddz_array, y_fluctuation_values, y_modes, y_values
from .transforms import ColeHopfState, PerturbationState, perturbation_y_means
from .waves import WaveProfile


# The energy guard of `run`: a recorded M_inst (for nq the transverse
# energy Q) above this many times its initial value is a blowup.
BLOWUP_FACTOR = 1e6


class IntegratorBlowup(RuntimeError):
    """Raised when a run produces non-finite values or runaway energy.

    `reason` is the message without the time, as `run` records it.
    """

    def __init__(self, message, time):
        super().__init__(f"{message} at t = {time:.6g}")
        self.reason = message
        self.time = time


@dataclass(frozen=True)
class IntegratorConfig:
    """Time-stepping parameters.

    dt must respect the explicit-transport restriction
    dt <= cfl_safety * dz / v_max with v_max = max(|s|, sqrt(max N)); run()
    validates this against the actual profile.  transport selects the psi
    advection stencil ("upwind" default, or "central") and steers only
    nonlinear0 and linear_eps.  At eps = 0 psi has no diffusion to damp a
    central difference, and nonlinear0 blows up under either scheme on the
    stability0 config (the CLI refuses the pairing); linear_eps, whose psi
    diffuses, runs with it under either scheme.  Every system runs in the
    moving frame, and nq steps its deviation b = q - P as it is, so no
    field selects a frame or re-gauges q.  run ignores the keys that its
    system does not read, so one config may drive several systems; the CLI
    holds such keys at their defaults, and the whole [integrator] for the
    experiments that step no configured run (wave, convergence;
    config.EXPERIMENTS).  snapshot_every = 0 disables field snapshots.
    """

    dt: float
    t_end: float
    scheme: str = "imex1"
    cfl_safety: float = 0.9
    record_every: int = 1
    transport: str = "upwind"
    snapshot_every: int = 0

    def __post_init__(self):
        problems = (check_rules("integrator", asdict(self))
                    + check_rules("output", {"snapshot_every": self.snapshot_every}))
        if problems:
            raise ConfigError(problems)


@dataclass
class RunCounters:
    """The work of one `run` loop when a record closed, one manifest
    `counters` entry.

    The loop's system holds one record that its solvers and steps add to
    (_System), and `run` closes a record on a copy of it.  `steps`, `rows`
    and `solves` count the steps taken, the ledger rows computed and the
    banded diffusion solves made; `factorizations` counts the banded
    solvers the loop built, each factored once.  `build_s`, `tendency_s`,
    `solve_s` and `row_s` are the perf_counter seconds spent building the
    system and its solvers before the first step (the first run of a
    process loads the LAPACK extension there), in explicit tendencies, in
    right-hand sides with their implicit solves, and in ledger rows.
    `dt_over_transport_limit` is dt over the explicit-transport limit
    cfl_safety * dz / v_max (IntegratorConfig), the run's CFL margin.
    """

    steps: int = 0
    rows: int = 0
    solves: int = 0
    factorizations: int = 0
    build_s: float = 0.0
    tendency_s: float = 0.0
    solve_s: float = 0.0
    row_s: float = 0.0
    dt_over_transport_limit: float | None = None


@dataclass
class TrajectoryRecord:
    """Energy ledger and snapshots of one run; its rows give `times` and `curl_max`.

    `final_modes` is the state at the last step as the y-modes of the
    system's arrays (grid.y_modes: z-major, k = 0 column = the y-mean):
    (phi_z, phi_y, psi) for nonlinear0 and linear_eps, and for nq the
    deviation (a, b_z, b_y) = (n - N, q - P) from the wave.  `snapshots`
    holds (t, modes) pairs of the same format.  These are the loop's own
    arrays, which no later step writes; grid.y_values gives their y-node
    values.

    A record that ended on a blowup holds its time and its reason, the
    message of the IntegratorBlowup without the time; `blowup` says whether
    it did.  `head` is the record to an earlier horizon that
    `run(..., head=T)` fills in the same time loop.  `counters` is the
    loop's work when this record closed.
    """

    system: str
    config: IntegratorConfig
    ledger: EnergyLedger = field(default_factory=EnergyLedger)
    snapshots: list = field(default_factory=list)
    final_modes: tuple | None = None
    blowup_time: float | None = None
    blowup_reason: str | None = None
    head: TrajectoryRecord | None = None
    counters: RunCounters = field(default_factory=RunCounters)

    @property
    def blowup(self) -> bool:
        return self.blowup_reason is not None

    @property
    def times(self) -> list:
        return [row["t"] for row in self.ledger.rows]

    @property
    def curl_max(self) -> float:
        return max([0.0] + [row["curl"] for row in self.ledger.rows])


def _mode_array(grid) -> np.ndarray:
    """An uninitialised array of one field's y-modes on grid."""
    return np.empty((grid.n_z, grid.n_y // 2 + 1), dtype=complex)


@functools.cache
def _lapack():
    """scipy's f2py LAPACK extension, the module scipy.linalg._flapack that
    holds dpttrf and zpttrs, loaded from its file on the first call.

    Only a diffusion solver needs it, so importing stripwave loads no scipy.
    The file is found in the linalg directory of the scipy package, for any
    platform's extension suffix, and loaded without running
    scipy/__init__.py or importing scipy.linalg: one module in 5-10 ms, not
    85 in about 0.3 s and 25 MB.  Loaded under its own name, it is the
    module that a later `import scipy.linalg` finds, so its routines are
    scipy.linalg.lapack's.  A scipy without the file raises ImportError
    naming the directory searched, before any step.
    """
    linalg = os.path.join(importlib.util.find_spec("scipy").submodule_search_locations[0],
                          "linalg")
    found = importlib.machinery.PathFinder.find_spec("_flapack", [linalg])
    if found is None:
        raise ImportError(f"scipy's LAPACK extension _flapack is not in {linalg}")
    spec = importlib.util.spec_from_file_location("scipy.linalg._flapack", found.origin)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def lapack_file() -> str | None:
    """The file name of the LAPACK extension this process has loaded
    (_lapack), or None before its first diffusion solver."""
    return os.path.basename(_lapack().__file__) if _lapack.cache_info().currsize else None


# MXCSR's flush-to-zero (bit 15) and denormals-are-zero (bit 6) bits; in
# glibc's 32-byte x86-64 fenv_t, MXCSR is the last 4 bytes.
_FTZ_DAZ = 0x8040
_FENV_BYTES = 32
# libm's (fegetenv, fesetenv) once a time loop found that they flush
# subnormals, False once one found that they do not; None before the first
_fenv = None


def arithmetic() -> str | None:
    """The arithmetic this process's time loops ran in: "flushed" (subnormal
    inputs and results read 0, _subnormals_flushed) or "ieee"; None before
    the first loop."""
    return None if _fenv is None else "flushed" if _fenv else "ieee"


@contextlib.contextmanager
def _subnormals_flushed():
    """Runs its block with MXCSR's FTZ and DAZ bits set, and on every exit
    restores the caller's floating-point environment as fesetenv sets it:
    the control modes, the exception flags and all of MXCSR.  The block
    runs in IEEE arithmetic on any platform but glibc on x86-64 Linux, and
    wherever a subnormal product does not read 0 with the bits set.

    Subnormal values (below 2.2e-308) cost a microcode assist in every
    numpy pass, BLAS product and LAPACK sweep that touches them on x86, and
    the perturbations' z-tails diffuse down through that range.  Flushed,
    those tails read 0; a value above about 1e-290 moves by an ulp at most
    (README).
    """
    global _fenv
    if _fenv is None:
        try:
            _fenv = sys.platform == "linux" and os.uname().machine == "x86_64" and (
                os.confstr("CS_GNU_LIBC_VERSION") or "").startswith("glibc")
        except (ValueError, OSError):  # a libc that does not know the name
            _fenv = False
        if _fenv:
            libm = ctypes.CDLL("libm.so.6")
            _fenv = libm.fegetenv, libm.fesetenv
            for f in _fenv:
                f.argtypes, f.restype = [ctypes.c_void_p], ctypes.c_int
    saved = np.zeros(_FENV_BYTES // 4, np.uint32)  # MXCSR is the last word
    if _fenv and _fenv[0](saved.ctypes.data):
        _fenv = False
    if not _fenv:
        yield
        return
    set_env = _fenv[1]
    flushed = saved.copy()
    flushed[-1] |= _FTZ_DAZ
    set_env(flushed.ctypes.data)
    if np.float64(2.0**-1060) * 1.0:  # the bits did not take: IEEE from here on
        _fenv = False
    try:
        yield
    finally:
        set_env(saved.ctypes.data)


def cholesky_banded(d: np.ndarray, e: np.ndarray):
    """LAPACK dpttrf: the LDL^T factor (d, e, info) of the symmetric
    tridiagonal matrix with diagonal d and off-diagonal e.

    A module-level name so that the benchmark tracer (benchmarks/traced.py)
    can count factorizations by wrapping it, as it counts solves on
    cho_solve_banded and KPP solves on waves.solve_ivp.
    """
    return _lapack().dpttrf(d, e)


def cho_solve_banded(factor: tuple, b: np.ndarray) -> np.ndarray:
    """LAPACK zpttrs: solves the factored tridiagonal system for the complex
    column b in place (a contiguous b is overwritten) and returns it.

    A module-level name so that the benchmark tracer counts solves by
    wrapping it (see cholesky_banded).
    """
    return _lapack().zpttrs(*factor, b, overwrite_b=1)[0]


class _ModeDiffusionSolver:
    """Solves (alpha I - coef (d_zz - k^2)) x = b for every y-mode at once.

    Interior rows carry the 3-point stencil; boundary rows are Dirichlet
    pins (x = 0 at z = +-L_z).  Each mode's matrix is symmetric positive
    definite and tridiagonal; the modes are stacked one block after another
    along a single diagonal, and the off-diagonal entry between two blocks
    is an exact 0, so one real LDL^T factor (dpttrf) holds them all and the
    solve of every block is bitwise that of its own matrix.  A factor with
    a non-positive pivot raises numpy.linalg.LinAlgError naming its y-mode
    and its z row among the mode's n_z - 2 interior rows.

    A field's complex y-modes are one right-hand side column, solved as
    they are by one zpttrs call; the factor's off-diagonal is kept complex,
    as zpttrs reads it, so no call converts it.  The solver owns one
    mode-major right-hand side of shape (modes, n_int), which the solve
    overwrites in place.  A call writes the solution into `out`, which may
    be rhs itself, or else into a fresh array; it never returns a view of
    its own buffer.  The solver adds its factorization and each of its
    solves to `counters`, the RunCounters of the time loop that built it.
    """

    def __init__(self, grid, counters: RunCounters, coef: float, alpha: float):
        self.counters = counters
        self.n_int = grid.n_z - 2
        inv_dz2 = 1.0 / grid.dz**2
        d = np.repeat(alpha + coef * (2.0 * inv_dz2 + grid.wavenumbers_y**2), self.n_int)
        e = np.full((grid.n_y // 2 + 1, self.n_int), -coef * inv_dz2)
        e[:, -1] = 0.0  # no coupling to the next block
        self._packed = np.empty_like(e, dtype=complex)
        d, e, info = cholesky_banded(d, e.ravel()[:-1])
        counters.factorizations += 1
        if info > 0:  # the first non-positive pivot, row info - 1 of the stack
            mode, row = divmod(info - 1, self.n_int)
            raise np.linalg.LinAlgError(f"not positive definite: y-mode {mode}, z row {row}")
        self.factor = (d, e.astype(complex))

    def __call__(self, rhs: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """rhs (n_z, n_y // 2 + 1) y-modes; returns the solution with zero
        boundary rows."""
        packed = self._packed  # mode-major: one block per mode
        packed[...] = rhs[1:-1].T
        sol = cho_solve_banded(self.factor, packed.reshape(-1)).reshape(packed.shape)
        self.counters.solves += 1
        if out is None:
            out = np.empty_like(rhs)
        out[0] = out[-1] = 0.0
        out[1:-1] = sol.T
        return out


def _inflow_pinned(alpha: float):
    """Implicit solve of an undiffused field: alpha x = rhs, with the inflow
    row z = +L_z pinned and the outflow row left free."""
    def solve(rhs, out):
        np.divide(rhs, alpha, out=out)
        out[-1, :] = 0.0
        return out
    return solve


def _upwind_right(v: np.ndarray, dz: float, out: np.ndarray) -> np.ndarray:
    """One-sided difference toward +z for leftward transport (speed -s)."""
    np.subtract(v[1:], v[:-1], out=out[:-1])
    out[:-1] /= dz
    out[-1] = 0.0  # inflow row is pinned, never advanced
    return out


class _Products:
    """Sums of products of y-mode factors, formed on the y-nodes.

    load(factors, start) puts the factors, arrays of y-modes, in the slots
    start, start + 1, ...; term(pairs) then returns the y-modes of
    sum(factor[i] * factor[j] for (i, j) in pairs) over the loaded slots.
    Each factor splits into its k = 0 column m (the y-mean) and its
    fluctuation f, transformed to the y-nodes alone
    (grid.y_fluctuation_values).  f_i f_j + m_i f_j + f_i m_j is formed there
    and transformed back, while m_i m_j goes straight into column 0, so
    rounding stays relative to each part: a fluctuation that has decayed
    through hundreds of e-foldings is not lost against the O(1) means, and
    the wave, whose fluctuation is zero, is an exact fixed point.

    load keeps no reference to the factors and writes none of them.  term
    returns an array of the object's own, which holds until the next call:
    a caller reads it but never hands it on.
    """

    def __init__(self, grid, n_slots: int):
        self.grid = grid
        nodes = (grid.n_z, grid.n_y)
        self._modes = _mode_array(grid)
        size = grid.n_z * grid.n_y
        self._part = self._modes.view(float).reshape(-1)[:size].reshape(nodes)
        self._means = np.empty((n_slots, grid.n_z, 1))
        self._values = [np.empty(nodes) for _ in range(n_slots)]
        self._pair, self._sum = np.empty(nodes), np.empty(nodes)

    def load(self, factors, start: int = 0) -> None:
        for f, mean, values in zip(factors, self._means[start:], self._values[start:]):
            np.copyto(mean, f[:, :1].real)
            y_fluctuation_values(f, self.grid, out=values)

    def term(self, pairs) -> np.ndarray:
        m, v, part, total = self._means, self._values, self._part, self._sum
        for n, (i, j) in enumerate(pairs):  # the pairs summed left to right
            pair = self._pair if n else total
            np.multiply(v[i], v[j], out=pair)
            pair += np.multiply(m[i], v[j], out=part)
            pair += np.multiply(v[i], m[j], out=part)
            total += pair if n else 0.0  # starting from 0, which turns -0.0 into 0.0
        out = y_modes(total, out=self._modes)
        out[:, 0] += sum(m[i][:, 0] * m[j][:, 0] for i, j in pairs)
        return out


def _check_finite(system, u, t):
    """Raises IntegratorBlowup naming every non-finite array of u, in
    system.names order."""
    bad = [name for name, a in zip(system.names, u) if not np.all(np.isfinite(a))]
    if bad:
        raise IntegratorBlowup(f"non-finite values in {', '.join(bad)}", t)


class _System:
    """One time loop's system, which steps itself: the wave coefficients,
    the scratch arrays, the implicit solves, the SBDF2 history and the
    `counters` (RunCounters) that its solvers and steps add their work to.

    With D the implicit diffusion and f the explicit tendency,
        imex1:  (1 - dt D) u' = u + dt f(u)
        SBDF2:  (1.5 - dt D) u' = 2 u - u_old / 2 + dt (2 f(u) - f(u_old)),
    SBDF2 taking one imex1 step to build its history.  Array i's implicit
    solve is that of (alpha - dt c lap) x = rhs with c = diffusion[i]: one
    _ModeDiffusionSolver per distinct c and alpha, shared by its arrays, and
    _inflow_pinned for c = 0.  A subclass sets `diffusion` and its own
    buffers in _setup, which runs before the solvers are built, and
    supplies the explicit tendency, the initial arrays and the ledger row.
    `counters.tendency_s` and `counters.solve_s` add up the time spent in
    the tendencies and in the rest of the steps.
    """

    def __init__(self, profile: WaveProfile, config: IntegratorConfig):
        self.g = profile.grid
        self.ik = 1j * self.g.ddy_wavenumbers
        self.eps = profile.params.eps
        self.s = profile.params.s
        self.N = profile.N[:, None]
        self.P = profile.P_z[:, None]
        self.dt = config.dt
        self.sbdf2 = config.scheme == "sbdf2"
        self.counters = RunCounters()
        self._work = [_mode_array(self.g) for _ in range(3)]
        self._setup(profile, config)

        def solves(alpha):
            solvers = {c: _ModeDiffusionSolver(self.g, self.counters, c * self.dt, alpha)
                       if c else _inflow_pinned(alpha) for c in dict.fromkeys(self.diffusion)}
            return tuple(solvers[c] for c in self.diffusion)

        self.solves_1 = solves(1.0)
        self.solves_15 = solves(1.5) if self.sbdf2 else ()
        self._prev = None  # (arrays, tendencies) of the previous step

    def step(self, u: tuple) -> tuple:
        dt = self.dt
        start = time.perf_counter()
        tend = self.explicit_tendency(u)
        split = time.perf_counter()
        out = []
        if self._prev is None:
            for x, f, solve in zip(u, tend, self.solves_1):
                rhs = np.multiply(dt, f, out=None if self.sbdf2 else f)
                rhs += x
                out.append(solve(rhs, out=rhs))
        else:
            u_old, tend_old = self._prev
            for x, xo, f, fo, solve in zip(u, u_old, tend, tend_old, self.solves_15):
                rhs = 2.0 * x - 0.5 * xo + dt * (2.0 * f - fo)
                out.append(solve(rhs, out=rhs))
        if self.sbdf2:
            self._prev = (u, tend)
        end = time.perf_counter()
        self.counters.tendency_s += split - start
        self.counters.solve_s += end - split
        return tuple(out)


# ---------------------------------------------------------------------------
# Systems A and B: perturbation (phi, psi)
# ---------------------------------------------------------------------------

class _PerturbationSystem(_System):
    """Systems A (eps = 0, with the quadratic terms) and B (eps > 0,
    linearized) as the y-modes of (phi_z, phi_y, psi)."""

    names = ("phi_z", "phi_y", "psi")
    guard = ("M_inst", "energy exceeded {:g} x M0")

    def _setup(self, profile: WaveProfile, config: IntegratorConfig):
        self.diffusion = (1.0, 1.0, self.eps)
        self.transport = config.transport
        self.eps2P = 2.0 * self.eps * self.P
        self._products = None if self.eps > 0 else _Products(self.g, 3)

    def arrays(self, state: PerturbationState) -> tuple:
        return state.y_modes()

    def explicit_tendency(self, u):
        """The explicit tendencies as fresh arrays; every intermediate is
        formed in the system's own buffers, each sum left to right."""
        dz, s, ik = self.g.dz, self.s, self.ik
        div, d, w = self._work  # div phi, a derivative, a partial product
        products = self._products
        phi1, phi2, psi = u
        dz_phi = ddz_array(phi1, dz, out=d)
        np.multiply(ik, phi2, out=div)
        div += dz_phi
        a1 = s * dz_phi
        dz_psi = ddz_array(psi, dz, out=d)
        a1 += np.multiply(self.N, dz_psi, out=w)
        a1 += np.multiply(self.P, div, out=w)

        if self.transport == "upwind":
            _upwind_right(psi, dz, out=w)
        else:
            ddz_array(psi, dz, out=w)
        a_psi = s * w
        a_psi += div
        if products is None:  # linearized
            a_psi -= np.multiply(self.eps2P, dz_psi, out=w)
        else:
            products.load((div, dz_psi))

        dy_psi = np.multiply(ik, psi, out=d)
        a2 = s * ddz_array(phi2, dz, out=w)
        a2 += np.multiply(self.N, dy_psi, out=w)
        if products is not None:
            products.load((dy_psi,), start=2)
            a1 += products.term([(0, 1)])
            a2 += products.term([(0, 2)])
        return a1, a2, a_psi

    def row(self, u, t) -> LedgerRow:
        return ledger_row(self.g, u, t, self.eps)


# ---------------------------------------------------------------------------
# System C: (n, q) deviations
# ---------------------------------------------------------------------------

class _NqSystem(_System):
    """Deviation form of the (n, q) system as the y-modes of (a, b_z, b_y).

    The k = 0 column of each array is the deviation's y-mean, the other
    columns its fluctuation; _Products keeps the two apart so the wave is
    an exact discrete fixed point of the moving frame, the only one the
    system steps in, and rounding stays relative to each part.

    The fluctuation is stepped at true scale.  It decays through hundreds
    of e-foldings, and in the time loop, which flushes subnormal values to
    zero (_subnormals_flushed), its z-tails and then its peak read 0 once
    below 2.2e-308; row() reports Q to within rounding down to about
    1e-290, formed from squares of values that are still normal.

    b is stepped as it is, never re-gauged; from a PerturbationState it
    starts as the discrete gradient (d_z psi, ik psi).  row() reports the
    largest |curl b| on the y-nodes, the drift from a gradient, and warns
    once when it passes 1e-4.
    """

    names = ("a", "b_z", "b_y")
    guard = ("Q", "transverse energy exceeded {:g} x Q0")

    def _setup(self, profile: WaveProfile, config: IntegratorConfig):
        self.diffusion = (1.0, self.eps, self.eps)
        self.dP = ddz_array(profile.P_z, self.g.dz)
        self._warned = False
        # (a, b_z, b_y) and, of b_z and then of b_y, (dz, dy)
        self._products = _Products(self.g, 5)

    def arrays(self, state) -> tuple:
        """The deviation's y-modes from a ColeHopfState or PerturbationState."""
        if isinstance(state, ColeHopfState):
            return (y_modes(state.n.values - self.N), y_modes(state.q.z.values - self.P),
                    y_modes(state.q.y.values))
        if isinstance(state, PerturbationState):
            phi_z, phi_y, psi = state.y_modes()
            dz = self.g.dz
            return (ddz_array(phi_z, dz) + self.ik * phi_y, ddz_array(psi, dz),
                    self.ik * psi)
        raise TypeError(f"cannot build (n, q) deviation from {type(state)!r}")

    def explicit_tendency(self, u):
        """The explicit tendencies as fresh arrays; every intermediate is
        formed in the system's own buffers, each sum left to right."""
        dz, s, ik = self.g.dz, self.s, self.ik
        c = -2.0 * self.eps
        d1, d2, w = self._work  # the fluxes G or two derivatives, a partial product
        products = self._products
        a, bz, by = u
        products.load((a, bz, by))

        # div G, the fluxes G = N b + P a + a b formed in d1 and d2
        gz = np.multiply(self.N, bz, out=d1)
        gz += np.multiply(self.P, a, out=w)
        gz += products.term([(0, 1)])
        gy = np.multiply(self.N, by, out=d2)
        gy += products.term([(0, 2)])
        ta = ddz_array(gz, dz)
        ta += np.multiply(ik, gy, out=w)
        dz_a = ddz_array(a, dz, out=d1)
        ta += np.multiply(s, dz_a, out=w)

        # -2 eps [(P.grad) b + (b.grad) P + (b.grad) b] + grad a, per component
        dz_bz = ddz_array(bz, dz, out=d2)
        products.load((dz_bz, np.multiply(ik, bz, out=w)), start=3)
        tbz = self.P * dz_bz
        tbz += np.multiply(bz, self.dP[:, None], out=w)
        tbz += products.term([(1, 3), (2, 4)])
        tbz *= c
        tbz += dz_a
        tbz += np.multiply(s, dz_bz, out=w)

        dz_by = ddz_array(by, dz, out=d2)
        products.load((dz_by, np.multiply(ik, by, out=d1)), start=3)
        tby = self.P * dz_by
        tby += products.term([(1, 3), (2, 4)])
        tby *= c
        tby += np.multiply(ik, a, out=w)
        tby += np.multiply(s, dz_by, out=w)
        return ta, tbz, tby

    def row(self, u, t) -> LedgerRow:
        g = self.g
        a, bz, by = u
        q_trans = transverse_norm_sq(g, a, bz, by)
        mass = float(g.trapz_weights @ a[:, 0].real) * g.lam + 0.0

        curl_modes = np.multiply(self.ik, bz, out=self._work[0])
        curl_modes -= ddz_array(by, g.dz, out=self._work[1])
        values = y_values(curl_modes, g)
        curl = float(np.max(np.abs(values, out=values)))
        if curl > 1e-4 and not self._warned:
            warnings.warn(f"curl drift reached {curl:.3g}: q is no longer a "
                          "gradient to this accuracy", stacklevel=3)
            self._warned = True
        return LedgerRow(t=t, H3w_phi=0.0, H3_psi=0.0, H2w_grad_psi=0.0,
                         M_inst=0.0, grad_phi_H3w=0.0, psi4_w=0.0,
                         Q=q_trans, mass=mass, curl=curl)


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


def _validate_cfl(config: IntegratorConfig, profile: WaveProfile) -> float:
    """Rejects a dt above the transport limit; returns dt over that limit."""
    v_max = max(abs(profile.params.s), math.sqrt(float(np.max(profile.N))), 1e-12)
    limit = config.cfl_safety * profile.grid.dz / v_max
    if config.dt > limit * (1 + 1e-12):
        raise ConfigError([
            f"dt = {config.dt:.4g} violates the transport restriction "
            f"dt <= cfl_safety * dz / v_max = {limit:.4g}"])
    return config.dt / limit


def run(system: str, init, profile: WaveProfile, config: IntegratorConfig,
        head: float | None = None) -> TrajectoryRecord:
    """Advance one system to t_end, recording the energy ledger.

    Records at steps {0, record_every, 2*record_every, ...} and always at
    the final step; every snapshot_every-th recorded row also snapshots the
    state, and a record closes on the state of its last step, both as the
    y-modes of the system's arrays (TrajectoryRecord).  For
    linear_eps, initial y-means above 1e-12 (read off the modes' k = 0
    columns) raise a warning.  The loop ends at its first blowup,
    non-finite values or a recorded M_inst (for nq the transverse energy Q)
    above BLOWUP_FACTOR times its initial value: each raises
    IntegratorBlowup, which closes every record still open with its time
    and reason, so `run` returns the partial record.  Non-finite initial
    data raise IntegratorBlowup, and a profile whose eps does not suit the
    system (nonlinear0 needs eps = 0, linear_eps and nq eps > 0) or whose
    grid is not that of the initial data a ValueError, before any step.
    One step is a run with t_end = dt.

    With head = T (0 <= T <= t_end) the same loop also fills `record.head`:
    every ledger row is computed once and appended to each record that asks
    for it, the head's final row included when T lies off the record_every
    grid.  Each record is bitwise that of a separate run to its horizon,
    but for one case: a guard trip on the head's off-grid last row, the
    one row that only the head takes, ends the loop and closes the
    returned record there too.
    """
    if system not in SYSTEMS:
        raise ValueError(f"unknown system {system!r}; expected one of {SYSTEMS}")
    eps = profile.params.eps
    if (eps == 0.0) != (system == "nonlinear0"):
        need = "eps = 0" if system == "nonlinear0" else "eps > 0"
        raise ValueError(f"{system} requires a profile with {need}, got eps = {eps:g}")
    if init.grid != profile.grid:
        raise ValueError(f"the initial data lie on {init.grid}, the profile on {profile.grid}")
    if head is not None and not 0.0 <= head <= config.t_end:
        raise ValueError(f"head = {head} must lie in [0, t_end = {config.t_end}]")
    cfl = _validate_cfl(config, profile)
    start = time.perf_counter()
    model = (_NqSystem if system == "nq" else _PerturbationSystem)(profile, config)
    model.counters.build_s = time.perf_counter() - start
    model.counters.dt_over_transport_limit = cfl
    record = TrajectoryRecord(system=system, config=config)
    records = [(record, _steps_for(config))]  # (record, its last step)
    if head is not None:
        record.head = TrajectoryRecord(system=system, config=replace(config, t_end=head))
        records.append((record.head, _steps_for(record.head.config)))
    guard, guard_text = model.guard

    def record_row(due):
        start = time.perf_counter()
        row = model.row(u, t)
        model.counters.row_s += time.perf_counter() - start
        model.counters.rows += 1
        snapshot = None
        for rec in due:
            rec.ledger.append(row)
            # snapshot every snapshot_every-th recorded row
            if config.snapshot_every and (len(rec.ledger.rows) - 1) % config.snapshot_every == 0:
                snapshot = snapshot or (t, u)
                rec.snapshots.append(snapshot)
        return getattr(row, guard)

    def close(rec, reason=None):
        if reason is not None:
            rec.blowup_time, rec.blowup_reason = t, reason
        rec.final_modes = u
        rec.counters = replace(model.counters, steps=i)

    u = model.arrays(init)
    # the loop and its records hold modes alone: initial data that the
    # caller keeps no reference to are freed here, not at the end of the run
    del init
    if system == "linear_eps":
        drift = perturbation_y_means(u)
        if drift > 1e-12:
            warnings.warn(f"input y-means reach {drift:.3g}; the linearized system "
                          "assumes mean-zero data", stacklevel=2)
    t = 0.0
    _check_finite(model, u, t)
    with _subnormals_flushed():
        try:
            for i in range(max(n for _, n in records) + 1):
                if i:
                    u = model.step(u)
                    t = i * config.dt
                    _check_finite(model, u, t)
                due = [rec for rec, n in records
                       if i <= n and (i % config.record_every == 0 or i == n)]
                if due:
                    level = record_row(due)
                    if i == 0:
                        level0 = level
                    elif level0 > 0 and level > BLOWUP_FACTOR * level0:
                        raise IntegratorBlowup(guard_text.format(BLOWUP_FACTOR), t)
                for rec, n in records:
                    if i == n:
                        close(rec)
        except IntegratorBlowup as exc:
            for rec, n in records:
                if i <= n:  # still open
                    close(rec, exc.reason)
    return record
