import importlib.util
import json
import math
import os
import subprocess
import sys
import time
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from stripwave import radau, waves
from stripwave.grid import make_grid
from stripwave.waves import (
    WaveError,
    WaveParams,
    WaveSolveError,
    _KppOrbit,
    check_wave_identities,
    explicit_wave_eps0,
    left_tail_rate,
    solve_wave_kpp,
    wave_speed,
)

BENCH_DIR = Path(__file__).resolve().parents[1] / "benchmarks"


def default_grid(params, n_z=1024):
    return make_grid(25.0 / params.s, n_z, 0.5, 16, params.s)


@pytest.fixture(scope="module")
def kpp_01():
    p = WaveParams(eps=0.1, n_minus=1.0, c_plus=1.0)
    return p, solve_wave_kpp(p, default_grid(p))


def test_wave_speed_values():
    assert wave_speed(1.0, 0.0) == pytest.approx(1.0)
    assert wave_speed(2.0, 1.0) == pytest.approx(1.0)
    assert wave_speed(1.0, 0.25) == pytest.approx(0.8944271909999159)


def test_wave_speed_rejects_bad_args():
    with pytest.raises(WaveError):
        wave_speed(0.0, 0.1)
    with pytest.raises(WaveError):
        wave_speed(-1.0, 0.1)
    with pytest.raises(WaveError):
        wave_speed(1.0, -0.1)


def test_params_speed_invariant():
    p = WaveParams(eps=0.25, n_minus=2.0, c_plus=1.5)
    assert p.s**2 == pytest.approx(2.0 / 1.25, rel=1e-15)


def test_default_translation_centers_front():
    # N0 = s^2/c+ puts the half-height point of N exactly at z = 0
    p = WaveParams(eps=0.0, n_minus=1.0, c_plus=1.0)
    g = make_grid(25.0, 1025, 0.5, 16, p.s)  # odd count -> node at z = 0
    prof = explicit_wave_eps0(p, g)
    assert prof.N[g.n_z // 2] == pytest.approx(0.5, rel=1e-14)
    assert prof.C[g.n_z // 2] == pytest.approx(0.5, rel=1e-14)
    assert prof.P_z[g.n_z // 2] == pytest.approx(-0.5, rel=1e-14)


def test_explicit_far_field_limits():
    p = WaveParams(eps=0.0, n_minus=1.0, c_plus=1.0)
    prof = explicit_wave_eps0(p, default_grid(p))
    assert abs(prof.N[0] - p.s**2) < 1e-8
    assert abs(prof.N[-1]) < 1e-8
    assert abs(prof.P_z[0] + p.s) < 1e-8
    assert abs(prof.P_z[-1]) < 1e-8
    assert abs(prof.C[-1] - p.c_plus) < 1e-8
    assert prof.left_rate == pytest.approx(p.s)
    assert prof.right_rate == pytest.approx(-p.s)


def test_explicit_rejects_positive_eps():
    p = WaveParams(eps=0.1, n_minus=1.0, c_plus=1.0)
    with pytest.raises(WaveError):
        explicit_wave_eps0(p, default_grid(p))


def test_profile_rejects_an_array_off_its_grid():
    p = WaveParams(eps=0.0, n_minus=1.0, c_plus=1.0)
    prof = explicit_wave_eps0(p, default_grid(p))
    with pytest.raises(WaveError, match=r"C must have shape \(1024,\), got \(1023,\)"):
        replace(prof, C=prof.C[:-1])


def test_explicit_identity_residuals():
    p = WaveParams(eps=0.0, n_minus=1.0, c_plus=1.0)
    g = default_grid(p)
    res = check_wave_identities(explicit_wave_eps0(p, g))
    assert res["ratio_relation"] < 1e-12
    assert res["inverse_relation_w"] < 10 * g.dz**2
    assert res["log_derivative"] < 10 * g.dz**2


def test_monotonicity_explicit():
    p = WaveParams(eps=0.0, n_minus=1.0, c_plus=1.0)
    prof = explicit_wave_eps0(p, default_grid(p))
    assert np.all(np.diff(prof.N) < 0)
    assert np.all(np.diff(prof.C) > 0)


def test_left_tail_rate_limit():
    # positive root of eps mu^2 + s(1+2eps) mu - (1+eps) s^2; tends to s
    s = 0.8
    assert left_tail_rate(s, 0.0) == pytest.approx(s)
    assert left_tail_rate(s, 1e-6) == pytest.approx(s, rel=1e-4)
    mu = left_tail_rate(s, 0.1)
    assert 0.1 * mu**2 + s * 1.2 * mu - 1.1 * s**2 == pytest.approx(0.0, abs=1e-12)


def test_kpp_rejects_bad_args():
    p = WaveParams(eps=0.1, n_minus=1.0, c_plus=1.0)
    with pytest.raises(WaveError):
        solve_wave_kpp(WaveParams(eps=0.0, n_minus=1.0, c_plus=1.0), default_grid(p))
    with pytest.raises(WaveError):
        solve_wave_kpp(p, default_grid(p), tol=1e-3)


@pytest.mark.parametrize("eps", [0.01, 0.1])
def test_kpp_residual_and_tail_rates(eps):
    p = WaveParams(eps=eps, n_minus=1.0, c_plus=1.0)
    prof = solve_wave_kpp(p, default_grid(p))
    d = prof.diagnostics
    assert d["ode_residual_max"] < 100 * d["tol"]
    assert d["ode_residual_max"] < 1e-4
    assert abs(d["fitted_right_rate"] + p.s) / p.s < 0.02
    mu = left_tail_rate(p.s, eps)
    assert abs(d["fitted_left_rate"] - mu) / mu < 0.02


@pytest.mark.parametrize("eps", [0.01, 0.1])
def test_kpp_monotone_and_bounded(eps):
    p = WaveParams(eps=eps, n_minus=1.0, c_plus=1.0)
    prof = solve_wave_kpp(p, default_grid(p))
    assert np.all(np.diff(prof.N) < 0)
    assert np.all(np.diff(prof.C) > 0)
    assert np.all(prof.N > 0) and np.all(prof.N <= (1 + eps) * p.s**2 * (1 + 1e-12))
    assert np.all(prof.P_z > -p.s) and np.all(prof.P_z < 0)
    assert np.all(prof.C > 0) and np.all(prof.C <= p.c_plus)


def test_kpp_boundary_values(kpp_01):
    p, prof = kpp_01
    assert abs(prof.N[0] - (1 + p.eps) * p.s**2) < 1e-8
    assert abs(prof.N[-1]) < 1e-8
    assert abs(prof.P_z[0] + p.s) < 1e-8
    assert abs(prof.P_z[-1]) < 1e-8


def test_kpp_front_centering(kpp_01):
    p, _ = kpp_01
    g = make_grid(25.0 / p.s, 1025, 0.5, 16, p.s)
    prof = solve_wave_kpp(p, g)
    assert prof.N[g.n_z // 2] == pytest.approx(prof.N[0] / 2, rel=1e-9)


def test_kpp_matches_explicit_in_small_eps_limit():
    # eps = 0 closed form as oracle; the profile difference is O(eps)
    p = WaveParams(eps=1e-3, n_minus=1.0, c_plus=1.0)
    g = make_grid(25.0, 1024, 0.5, 16, p.s)
    prof = solve_wave_kpp(p, g, tol=1e-8)
    ref = explicit_wave_eps0(WaveParams(eps=0.0, n_minus=1.0, c_plus=1.0), g)
    assert np.max(np.abs(prof.N - ref.N)) < 5e-3


def test_kpp_gates_hold_at_small_eps():
    # the fast stable eigenvalue ~ -s(1+2eps)/eps makes this orbit stiff
    eps = 1e-3
    p = WaveParams(eps=eps, n_minus=1.0, c_plus=1.0)
    prof = solve_wave_kpp(p, make_grid(25.0, 1024, 0.5, 16, p.s), tol=1e-8)
    d = prof.diagnostics
    assert d["ode_residual_max"] < 1e-4
    assert abs(d["fitted_right_rate"] + p.s) / p.s < 0.02
    mu = left_tail_rate(p.s, eps)
    assert abs(d["fitted_left_rate"] - mu) / mu < 0.02
    assert np.all(np.diff(prof.N) < 0)


def test_kpp_gates_hold_at_small_eps_default_tol():
    # the same gates at the default tol 1e-10
    eps = 1e-3
    p = WaveParams(eps=eps, n_minus=1.0, c_plus=1.0)
    prof = solve_wave_kpp(p, make_grid(25.0, 1024, 0.5, 16, p.s))
    d = prof.diagnostics
    assert d["tol"] == 1e-10
    assert d["ode_residual_max"] < 1e-4
    assert abs(d["fitted_right_rate"] + p.s) / p.s < 0.02
    mu = left_tail_rate(p.s, eps)
    assert abs(d["fitted_left_rate"] - mu) / mu < 0.02
    assert np.all(np.diff(prof.N) < 0)


def _orbit(eps):
    p = WaveParams(eps=eps, n_minus=1.0, c_plus=1.0)
    return p, _KppOrbit(p, 1e-10, 25.0 / p.s)


@pytest.mark.parametrize("eps", [1.0, 0.1, 0.01, 1e-3])
def test_kpp_orbit_residual_across_every_branch(eps):
    # one fine sweep of the one dense branch, from the launch to the end of
    # the span (less the W'' stencil's 2h at either end): nowhere may it
    # exceed the benchmark's 2e-9 residual gate (swept in parts, to keep
    # memory small)
    _, orbit = _orbit(eps)
    xi = np.arange(orbit.xi0 + 2.0 * orbit.h, orbit.xi_end - 2.0 * orbit.h, 1e-4)
    assert orbit.xi0 == -25.0 / orbit.params.s
    assert max(np.max(np.abs(orbit.defect(*orbit.evaluate(part))))
               for part in np.array_split(xi, 20)) < 2e-9


def test_kpp_build_evaluates_the_orbit_once(monkeypatch):
    # the profile and its ODE residual come from one pass over the grid
    calls = []
    evaluate = _KppOrbit.evaluate

    def counted(self, xi):
        calls.append(len(xi))
        return evaluate(self, xi)

    monkeypatch.setattr(_KppOrbit, "evaluate", counted)
    p = WaveParams(eps=0.1, n_minus=1.0, c_plus=1.0)
    solve_wave_kpp(p, default_grid(p, n_z=256))
    assert calls == [256]


@pytest.mark.parametrize("eps", [1.0, 0.1, 1e-3, 1e-6])
def test_kpp_grid_lies_inside_the_dense_orbit(monkeypatch, eps):
    # the launch sits L_z left of the 1e-6 point and the span runs far past
    # the front, so every grid node, with the W'' stencil about it, lies on
    # the one dense branch, from the shortest strip to the default 25/s
    seen = []
    evaluate = _KppOrbit.evaluate

    def recorded(self, xi):
        seen.append((xi[0] - 2.0 * self.h - self.xi0, self.xi_end - 2.0 * self.h - xi[-1]))
        return evaluate(self, xi)

    monkeypatch.setattr(_KppOrbit, "evaluate", recorded)
    p = WaveParams(eps=eps, n_minus=1.0, c_plus=1.0)
    for L_z in (1.0, 2.0 / p.s, 5.0 / p.s, 10.0 / p.s, 25.0 / p.s):
        prof = solve_wave_kpp(p, make_grid(L_z, 256, 0.5, 4, p.s))
        assert min(seen.pop()) > 0.0
        assert np.all(np.diff(prof.N) < 0) and np.all(np.diff(prof.C) > 0)
        assert np.all(prof.P_z < 0)
    if eps <= 0.1:
        # about 40/s and longer, W rounds to W- at the left end: the build
        # refuses the strip rather than sample a flat N
        with pytest.raises(WaveSolveError, match="not strictly positive decreasing"):
            solve_wave_kpp(p, make_grid(45.0 / p.s, 256, 0.5, 4, p.s))


@pytest.mark.parametrize("eps", [0.1, 0.01, 1e-3])
def test_kpp_manifold_branch_is_second_order(eps):
    # the launch of a short strip's orbit (L_z = 1, W- - W about 1e-6 W- e^{-mu}),
    # in the logit coordinates the orbit starts from: along the manifold,
    # dp/dxi must be the logit ODE's acceleration.  The second-order
    # expansion meets it within about 3e-13 of the scale (1+eps)s^2/eps; a
    # first-order one (c2 = 0) misses it by about 4e-7 of that scale
    p = WaveParams(eps=eps, n_minus=1.0, c_plus=1.0)
    orbit = _KppOrbit(p, 1e-10, 1.0)
    eta = 1e-3
    (l, q), (_, q_minus), (_, q_plus) = (orbit._tail_left(orbit.xi0 + d)
                                        for d in (0.0, -eta, eta))
    assert tuple(orbit.sol.y[:, 0]) == (l, q)
    sig = 1.0 / (1.0 + math.exp(-l))
    scale = (1 + eps) * p.s**2 / eps
    accel = -(1 - 2 * sig) * q**2 - (p.s * (1 + 2 * eps) * q) / eps - scale
    assert abs((q_plus - q_minus) / (2 * eta) - accel) < 1e-11 * scale


@pytest.mark.parametrize("eps", [1e-2, 1e-3])
def test_kpp_deviation_from_closed_form_is_first_order_in_eps(eps):
    # eps = 0 closed form as oracle: max|N_eps - N_0| / eps tends to a
    # constant, so it must agree across a decade of eps
    p = WaveParams(eps=eps, n_minus=1.0, c_plus=1.0)
    g = make_grid(25.0, 1024, 0.5, 16, p.s)
    prof = solve_wave_kpp(p, g, tol=1e-8)
    ref = explicit_wave_eps0(WaveParams(eps=0.0, n_minus=1.0, c_plus=1.0), g)
    assert 0.40 <= np.max(np.abs(prof.N - ref.N)) / eps <= 0.43


def test_kpp_identity_residuals_fine_grid(kpp_01):
    p, _ = kpp_01
    g = make_grid(25.0 / p.s, 4096, 0.5, 16, p.s)
    res = check_wave_identities(solve_wave_kpp(p, g))
    assert res["ode_p"] < 1e-4
    assert res["log_derivative"] < 10 * g.dz**2


@pytest.mark.parametrize("eps", [1.0, 0.1])
def test_kpp_p_identity_converges_under_refinement(eps):
    # the ode_p residual is the grid's difference error: P from the orbit
    # in closed form makes it fall at second order (4.3e-6 -> 3.7e-7 at
    # eps = 1), where an e^{-s z} continuation of P's tail made it grow
    p = WaveParams(eps=eps, n_minus=1.0, c_plus=1.0)
    coarse, fine = (check_wave_identities(solve_wave_kpp(p, default_grid(p, n_z)))["ode_p"]
                    for n_z in (1024, 4096))
    assert coarse >= 8.0 * fine


def test_weight_comparable_to_inverse_n(kpp_01):
    # the ratio (1/N)/w is bounded above and below independent of n_z
    p, prof = kpp_01
    ratios = {}
    for n_z in (512, 1024):
        g = make_grid(25.0 / p.s, n_z, 0.5, 16, p.s)
        pr = solve_wave_kpp(p, g)
        r = 1.0 / (pr.N * g.weight)
        ratios[n_z] = (r.min(), r.max())
    for lo, hi in ratios.values():
        assert 0 < lo <= hi < 10.0
    assert ratios[512][0] == pytest.approx(ratios[1024][0], rel=0.05)


def test_kpp_grid_self_convergence(kpp_01):
    # C is reconstructed by quadrature, so its samples move O(dz^2) under
    # refinement; N and P come from the grid-free orbit and barely move.
    p, _ = kpp_01
    g1 = make_grid(25.0 / p.s, 513, 0.5, 16, p.s)
    g2 = make_grid(25.0 / p.s, 1025, 0.5, 16, p.s)
    p1 = solve_wave_kpp(p, g1)
    p2 = solve_wave_kpp(p, g2)
    dC = np.max(np.abs(p1.C - p2.C[::2]))
    dN = np.max(np.abs(p1.N - p2.N[::2]))
    assert dC < 10 * g1.dz**2
    assert dN < 10 * g1.dz**2


def test_kpp_reports_diagnostics_on_failure():
    p = WaveParams(eps=0.1, n_minus=1.0, c_plus=1.0)
    try:
        # absurd n_z is legal; failure injection instead via tol bounds
        solve_wave_kpp(p, default_grid(p), tol=0.0)
    except WaveError:
        pass
    else:  # pragma: no cover
        raise AssertionError("tol = 0 must be rejected")


def test_wave_solve_error_is_runtime_error():
    assert issubclass(WaveSolveError, RuntimeError)


def test_explicit_closed_form_midpoint_values():
    # direct evaluation with s = 1, N0 = 1, c+ = 1 at z = 0
    p = WaveParams(eps=0.0, n_minus=1.0, c_plus=1.0, N0=1.0)
    g = make_grid(5.0, 17, 0.5, 4, p.s)
    prof = explicit_wave_eps0(p, g)
    i0 = 8  # z = 0
    assert prof.N[i0] == pytest.approx(0.5)
    assert prof.C[i0] == pytest.approx(0.5)
    assert prof.P_z[i0] == pytest.approx(-0.5)


def test_left_tail_rate_against_polynomial_root_oracle():
    # independent oracle: characteristic polynomial root via numpy
    s, eps = 0.9, 0.07
    roots = np.roots([eps, s * (1 + 2 * eps), -(1 + eps) * s**2])
    mu = float(np.max(roots))
    assert left_tail_rate(s, eps) == pytest.approx(mu, rel=1e-12)


def test_derivative_of_inverse_n_matches_weight_shape():
    # with the default translation, 1/N = w / s^2 exactly for eps = 0
    p = WaveParams(eps=0.0, n_minus=1.0, c_plus=2.0)
    g = default_grid(p)
    prof = explicit_wave_eps0(p, g)
    assert np.allclose(1.0 / prof.N, g.weight / p.s**2, rtol=1e-12)


def test_fitted_rates_stored_in_diagnostics(kpp_01):
    _, prof = kpp_01
    assert math.isfinite(prof.diagnostics["fitted_right_rate"])
    assert math.isfinite(prof.diagnostics["fitted_left_rate"])


def test_kpp_solver_counts_are_json_ready(kpp_01):
    # the manifest writer needs plain Python values
    _, prof = kpp_01
    d = prof.diagnostics
    json.dumps(d)
    assert d["solver"] == "Radau IIA"
    for key in ("nfev", "njev", "nsteps"):
        assert type(d[key]) is int and d[key] > 0


def _lsoda_profile(p, g):
    """The profile by an independent route, with scipy as the reference:
    LSODA on the orbit in (W, W') at rtol 1e-10, launched on the same
    manifold expansion at W- - W = 1e-6 W- and stopped at a 1e-16 W- floor;
    brentq for the front center; its own continuation of P's tail; scipy's
    CubicSpline and the 4x-refined trapezoid for C.  Returns (N, C, P_z, front center)."""
    from scipy.integrate import solve_ivp
    from scipy.interpolate import CubicSpline
    from scipy.optimize import brentq

    eps, s, N0, wm = p.eps, p.s, p.N0, p.w_minus
    b, k = s * (1 + 2 * eps), (1 + eps) * s**2
    mu, delta = left_tail_rate(s, eps), 1e-6 * wm
    c2 = N0 / (4 * eps * mu**2 + 2 * b * mu - k)

    def manifold(xi):
        e = delta * np.exp(mu * xi)
        return wm - e + c2 * e**2, mu * (2 * c2 * e**2 - e)

    def floor(_, y):
        return y[0] - 1e-16 * wm

    floor.terminal, floor.direction = True, -1.0
    sol = solve_ivp(lambda _, y: (y[1], (-b * y[1] - k * y[0] + N0 * y[0] ** 2) / eps),
                    (0.0, 200.0 / s), manifold(0.0), method="LSODA",
                    jac=lambda _, y: ((0, 1), ((2 * N0 * y[0] - k) / eps, -b / eps)),
                    rtol=1e-10, atol=1e-300 * wm, dense_output=True, events=floor)
    xi_end = sol.t[-1]
    xi_c = brentq(lambda xi: sol.sol(xi)[0] - wm / 2, 0.0, xi_end, xtol=1e-13, rtol=1e-15)
    xi = g.z + xi_c
    W, Wp = sol.sol(np.clip(xi, 0.0, xi_end))
    W, Wp = np.where(xi < 0.0, manifold(xi), (W, Wp))
    tail = sol.y[0, -1] * np.exp(-s * (xi - xi_end))
    W, Wp = np.where(xi > xi_end, (tail, -s * tail), (W, Wp))
    # P decays like e^{-s z}: from the last node within 1e6 of its peak on,
    # continue it analytically, where W'/W no longer resolves it
    P = -(Wp / W + s)
    m = np.nonzero(np.abs(P) >= 1e-6 * np.max(np.abs(P)))[0][-1]
    P[m + 1:] = P[m] * np.exp(-s * (g.z[m + 1:] - g.z[m]))
    spline, seg = CubicSpline(g.z, np.abs(P)), 0.0
    for q in range(4):
        lo = g.z[:-1] + q * g.dz / 4
        seg = seg + 0.5 * (spline(lo) + spline(lo + g.dz / 4)) * (g.dz / 4)
    log_c = np.concatenate(([0.0], np.cumsum(seg[::-1])))[::-1]
    C = np.exp(math.log(p.c_plus) - abs(P[-1]) / s - log_c)
    return N0 * W, C, P, xi_c


@pytest.mark.parametrize("eps", [0.1, 0.01, 1e-3, 1e-6])
def test_kpp_profile_matches_an_lsoda_oracle(eps):
    # LSODA took 41,507 steps at eps = 1e-5; the Radau orbit in logit
    # coordinates takes 333 at eps = 0.1 and fewer as eps falls (28 at
    # 1e-6), and its residual (W'' from the dense W') stays under the
    # benchmark's 2e-9 gate
    p = WaveParams(eps=eps, n_minus=1.0, c_plus=1.0)
    g = default_grid(p)
    prof = solve_wave_kpp(p, g)
    N, C, P, xi_c = _lsoda_profile(p, g)
    for got, want in ((prof.N, N), (prof.C, C), (prof.P_z, P)):
        assert np.max(np.abs(got - want)) <= 1e-8 * np.max(np.abs(want))
    d = prof.diagnostics
    assert abs(d["front_center_offset"] - xi_c) < 1e-7
    assert d["ode_residual_max"] <= 2e-9
    assert d["nsteps"] < 1000


@pytest.mark.parametrize("workload", ["stability0", "planarity", "linear_small_eps"])
def test_workload_profiles_pass_the_benchmark_wave_gate(monkeypatch, tmp_path, workload):
    # the benchmark's own check, run as benchmarks/run.py runs it: probe.py
    # in a fresh isolated process builds the workload's profiles and reads
    # them against expected/waves.npz, and run.wave_problems judges N, C and
    # P_z (3e-8), the ODE residual (2e-9) and both tail rates (2 %)
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    monkeypatch.syspath_prepend(str(BENCH_DIR))
    spec = importlib.util.spec_from_file_location("_stripwave_bench_run", BENCH_DIR / "run.py")
    run = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, run)   # for its dataclasses
    spec.loader.exec_module(run)
    probe = subprocess.run(
        [sys.executable, "-I", "-B", str(BENCH_DIR / "probe.py"), workload,
         repr(time.monotonic())],
        cwd=tmp_path, env={**os.environ, **run.THREAD_ENV}, capture_output=True,
        text=True, check=True)
    profiles = json.loads(probe.stdout.splitlines()[-1])["profiles"]
    cfg = run.pinned.load(workload)
    count = len(run.pinned.floats(cfg["wave"]["eps"])) * len(
        run.pinned.floats(cfg["grid"]["lambda"]))
    assert run.wave_problems(profiles, count) == []


def test_radau_step_is_fifth_order_on_a_stiff_linear_system():
    # eps y'' + y' + y = 0 at eps = 1e-4: roots near -1 and -1e4, so every
    # step size below is far outside the explicit stability range; at t = 1
    # the error against the closed form falls by 2^5 per halving
    eps = 1e-4
    fast, slow = np.sort(np.roots([eps, 1.0, 1.0]).real)
    a = np.linalg.solve([[1.0, 1.0], [slow, fast]], [1.0, 0.0])   # y(0) = 1, y'(0) = 0
    exact = a[0] * math.exp(slow) + a[1] * math.exp(fast)

    def accel(y, v):
        return (-v - y) / eps

    errors = []
    for n in (5, 10, 20):
        y, v, faccon = 1.0, 0.0, 1.0
        for _ in range(n):
            z, _, _, faccon, _ = radau._step(accel, y, v, accel(y, v), -1.0 / eps, -1.0 / eps,
                                             1.0 / n, (0.0,) * 6, (1e-12, 1e-12), faccon, False)
            y, v = y + z[2], v + z[5]
        errors.append(abs(y - exact))
    ratios = [errors[0] / errors[1], errors[1] / errors[2]]
    assert all(25 < r < 40 for r in ratios), (errors, ratios)


def test_radau_step_gives_up_on_a_newton_iteration_that_fails():
    # on a stiff linear problem the true Jacobian converges at once; with
    # its stiff terms halved the simplified Newton iteration stalls (rate
    # theta >= 0.99), and at 0.9 of them it contracts, but too slowly to
    # meet the tolerance within the iterations left
    eps = 1e-4

    def accel(y, v):
        return (-v - y) / eps

    for scale, converges in ((1.0, True), (0.5, False), (0.9, False)):
        z = radau._step(accel, 1.0, 0.0, accel(1.0, 0.0), -scale / eps, -scale / eps, 0.1,
                        (0.0,) * 6, (1e-10, 1e-10), 1.0, False)[0]
        assert (z is not None) == converges


def test_radau_solve_reports_a_step_size_that_collapses():
    # an acceleration that is nowhere finite: every step halves, down to
    # the floor on h, and the solve ends unsuccessful at its start
    sol = radau.solve(lambda y, v: math.nan, lambda y, v: (0.0, 0.0), (1.0, 0.0), 10.0, 1e-10)
    assert not sol.success and sol.message.startswith("step size ")
    assert sol.message.endswith("too small at t = 0")
    assert list(sol.t) == [0.0] and sol.y.shape == (2, 1)


def test_radau_constants_come_from_the_butcher_matrix():
    s6 = math.sqrt(6.0)
    a = np.array([[88 - 7 * s6, (296 - 169 * s6) / 5, (-16 + 24 * s6) / 5],
                  [(296 + 169 * s6) / 5, 88 + 7 * s6, (-16 - 24 * s6) / 5],
                  [160 - 10 * s6, 160 + 10 * s6, 40]]) / 360
    c = np.array(radau._NODES)
    assert np.allclose(a.sum(axis=1), c, rtol=0, atol=1e-15)   # stage times
    a_inv = np.linalg.inv(a)
    lam, vec = np.linalg.eig(a_inv)
    real, cplx = np.argmin(np.abs(lam.imag)), np.argmax(lam.imag)
    t_real, t_cplx = vec[:, real].real / vec[2, real].real, vec[:, cplx] / vec[2, cplx]
    ti = np.linalg.inv(np.column_stack([t_real, t_cplx, t_cplx.conj()]))
    gamma = lam[real].real
    b_hat = np.linalg.solve(np.vstack([np.ones(3), c, c**2]), [1 - 1 / gamma, 1 / 2, 1 / 3])
    for got, want in ((radau._GAMMA, gamma), (radau._LAMBDA, lam[cplx]),
                      (radau._T_REAL, t_real), (radau._T_CPLX, t_cplx),
                      (radau._TI_REAL, ti[0].real), (radau._TI_CPLX, ti[1]),
                      (radau._ERR, gamma * (b_hat - a[2]) @ a_inv),
                      (radau._DENSE, np.linalg.inv(np.column_stack([c, c**2, c**3])))):
        assert np.allclose(got, want, rtol=1e-14, atol=1e-14)


def test_c_quadrature_is_the_refined_spline_trapezoid_in_closed_form():
    # on a cubic, scipy's not-a-knot CubicSpline is the cubic itself, so the
    # 4x-refined trapezoid over it is the closed form with 5/64: the exact
    # integral (what 1/12 would give) differs by (1/192) dz^2 (m - m_end)
    from scipy.interpolate import CubicSpline

    s, c_plus = 0.8, 1.5
    g = make_grid(8.0, 64, 0.5, 4, s)
    u = g.z / g.L_z
    absP = 0.1 * (3.0 + u - u**2 + 0.5 * u**3)
    slope = 0.1 * (1.0 - 2.0 * u + 1.5 * u**2) / g.L_z
    spline, seg = CubicSpline(g.z, absP), 0.0
    for q in range(4):
        lo = g.z[:-1] + q * g.dz / 4
        seg = seg + 0.5 * (spline(lo) + spline(lo + g.dz / 4)) * (g.dz / 4)
    log_c = np.concatenate(([0.0], np.cumsum(seg[::-1])))[::-1]
    log_end = math.log(c_plus) - absP[-1] / s
    want = np.exp(log_end - log_c)
    got = waves._c_from_p(g, -absP, slope, c_plus, s)
    assert np.max(np.abs(got / want - 1.0)) <= 1e-14

    antiderivative = 0.1 * g.L_z * (3.0 * u + u**2 / 2 - u**3 / 3 + u**4 / 8)
    exact = np.exp(log_end - (antiderivative[-1] - antiderivative))
    assert np.max(np.abs(exact / want - 1.0)) > 1e-6
