import json
import math
from dataclasses import replace

import numpy as np
import pytest

from stripwave import waves
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
    return p, _KppOrbit(p, 1e-10, span=200.0 / p.s)


@pytest.mark.parametrize("eps", [0.1, 0.01, 1e-3])
def test_kpp_orbit_residual_across_every_branch(eps):
    # one fine sweep through the manifold, the launch, the handover at 2h,
    # the dense orbit and the right tail: no branch or seam may exceed the
    # benchmark's 2e-9 residual gate
    _, orbit = _orbit(eps)
    xi = np.arange(-5.0, orbit.xi_end + 5.0, 1e-4)
    assert xi[0] < 0.0 < 2.0 * orbit.h < orbit.xi_end < xi[-1]
    assert np.max(np.abs(orbit.ode_residual(xi))) < 2e-9


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


@pytest.mark.parametrize("eps", [0.1, 0.01, 1e-3])
def test_kpp_manifold_branch_is_second_order(eps):
    # the left branch alone, where evaluate uses it; without the c2 delta^2
    # term its defect is N0 delta^2 ~ 1e-12
    p, orbit = _orbit(eps)
    xi = np.arange(-5.0, 2.0 * orbit.h, 1e-4)
    W, Wp, Wpp = orbit._tail_left(xi)
    res = eps * Wpp + p.s * (1 + 2 * eps) * Wp + (1 + eps) * p.s**2 * W - p.N0 * W**2
    assert np.max(np.abs(res)) < 1e-14


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
    # the stiff solver reports some counts as numpy ints; the manifest
    # writer needs plain Python values
    _, prof = kpp_01
    d = prof.diagnostics
    json.dumps(d)
    assert d["solver"] == "LSODA"
    for key in ("nfev", "njev", "nsteps"):
        assert type(d[key]) is int and d[key] > 0


def test_solve_ivp_hands_back_lsoda_counts_as_ints():
    # scipy's LSODA reads njev and nlu as np.int32; the module's solve_ivp
    # casts both, so its result goes to json.dumps as it is
    sol = waves.solve_ivp(lambda t, u: -50.0 * u, (0.0, 1.0), [1.0], method="LSODA",
                          jac=lambda t, u: [[-50.0]])
    assert sol.success and sol.njev > 0 and sol.nlu > 0
    assert type(sol.njev) is int and type(sol.nlu) is int
    json.dumps({"njev": sol.njev, "nlu": sol.nlu})
