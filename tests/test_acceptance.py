"""Acceptance suite: one test and one printed verdict line per criterion.

Run with `pytest tests/test_acceptance.py -v -s` to see the verdict lines.
Desk-scale defaults throughout: n_z = 1024, n_y = 16, L_z = 25/s, lambda = 0.5
unless a criterion's physics requires otherwise (noted inline).
"""

import warnings
from dataclasses import replace

import numpy as np
import pytest

from oracles import ddy
from stripwave.cli import _positive_window, _usable_cores, main
from stripwave.energy import fit_exponential_decay
from stripwave.evolve import IntegratorConfig, run
from stripwave.forked import at_once
from stripwave.grid import (
    ScalarField,
    field_from_function,
    make_grid,
    y_values,
)
from stripwave.transforms import (
    cole_hopf_forward,
    cole_hopf_inverse,
    log_gradient_deviation,
    make_initial_perturbation,
    perturbation_y_means,
)
from stripwave.waves import (
    WaveParams,
    explicit_wave_eps0,
    left_tail_rate,
    solve_wave_kpp,
)


def _report(num: int, desc: str, ok: bool, detail: str = ""):
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[criterion {num:02d}] {status}: {desc}{suffix}")
    assert ok, f"criterion {num}: {desc}{suffix}"


# ---------------------------------------------------------------------------
# shared fixtures
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def explicit_profile():
    p = WaveParams(eps=0.0, n_minus=1.0, c_plus=1.0)
    g = make_grid(25.0, 1024, 0.5, 16, p.s)
    return explicit_wave_eps0(p, g)


@pytest.fixture(scope="module")
def kpp_profiles():
    out = {}
    for eps in (0.01, 0.1):
        p = WaveParams(eps=eps, n_minus=1.0, c_plus=1.0)
        g = make_grid(25.0 / p.s, 1024, 0.5, 16, p.s)
        out[eps] = solve_wave_kpp(p, g)
    return out


@pytest.fixture(scope="module")
def stability_runs():
    # s = 0.5 keeps the leftward drift s * t_end well inside the default
    # truncation L_z = 25/s = 50 even for the doubled horizon
    p = WaveParams(eps=0.0, n_minus=0.25, c_plus=1.0)
    g = make_grid(50.0, 1024, 0.5, 16, p.s)
    prof = explicit_wave_eps0(p, g)
    pert = make_initial_perturbation(g, 1e-4, seed=0)
    # one loop to 40 whose head record stops at 20, as `evolve` runs it
    rec40 = run("nonlinear0", pert, prof,
                IntegratorConfig(dt=0.05, t_end=40.0, record_every=4), head=20.0)
    return rec40.head, rec40


@pytest.fixture(scope="module")
def linear_runs():
    p = WaveParams(eps=0.05, n_minus=1.0, c_plus=1.0)
    g = make_grid(25.0 / p.s, 1024, 0.5, 16, p.s)
    prof = solve_wave_kpp(p, g)
    pert = make_initial_perturbation(g, 1e-4, seed=1, mean_zero_y=True)
    # one loop to 2T whose head record stops at T, as `linear` runs it
    rec2T = run("linear_eps", pert, prof,
                IntegratorConfig(dt=0.02, t_end=6.0, record_every=5), head=3.0)
    return prof, rec2T.head, rec2T


# ---------------------------------------------------------------------------
# criteria
# ---------------------------------------------------------------------------

def test_criterion_01_wave_identities(explicit_profile):
    from stripwave.waves import check_wave_identities

    res = check_wave_identities(explicit_profile)
    dz = explicit_profile.grid.dz
    ok = res["ratio_relation"] < 1e-12 and res["inverse_relation_w"] < 10 * dz**2
    _report(1, "explicit-wave identities P/N = -1/s and (1/N)'' = s (1/N)'", ok,
            f"ratio {res['ratio_relation']:.2e} < 1e-12, "
            f"inverse {res['inverse_relation_w']:.2e} < {10 * dz**2:.2e}")


def test_criterion_02_kpp_solver(kpp_profiles):
    details = []
    ok = True
    for eps, prof in kpp_profiles.items():
        d = prof.diagnostics
        s = prof.params.s
        mu = left_tail_rate(s, eps)
        ok_pair = (d["ode_residual_max"] < 1e-4
                   and abs(d["fitted_right_rate"] + s) / s < 0.02
                   and abs(d["fitted_left_rate"] - mu) / mu < 0.02)
        ok = ok and ok_pair
        details.append(f"eps={eps}: resid {d['ode_residual_max']:.1e}, "
                       f"right {d['fitted_right_rate']:+.4f} vs {-s:+.4f}, "
                       f"left {d['fitted_left_rate']:.4f} vs {mu:.4f}")
    _report(2, "KPP solve: ODE residual < 1e-4 and tail rates within 2%",
            ok, "; ".join(details))


def test_criterion_03_monotonicity(explicit_profile, kpp_profiles):
    profiles = [explicit_profile] + list(kpp_profiles.values())
    ok = all(np.all(np.diff(p.N) < 0) and np.all(np.diff(p.C) > 0)
             for p in profiles)
    _report(3, "N strictly decreasing and C strictly increasing, all eps cases", ok)


def test_criterion_04_cole_hopf_round_trip():
    def rel_err(n_z):
        g = make_grid(10.0, n_z, 0.5, 16, 1.0)
        c = field_from_function(
            g, lambda z, y: 1.5 * np.exp(2e-3 * np.cos(np.pi * z / g.L_z)
                                         + 1e-3 * np.sin(2 * np.pi * y / g.lam)))
        q = cole_hopf_forward(c)
        ia = g.n_z // 2
        back = cole_hopf_inverse(q, float(c.values[ia, 0]), float(g.z[ia]))
        return float(np.max(np.abs(back.values - c.values) / c.values))

    sizes = (512, 1024, 2048)
    errs = [rel_err(n) for n in sizes]
    slope = float(np.polyfit(np.log([1 / (n - 1) for n in sizes]), np.log(errs), 1)[0])
    ok = errs[-1] < 1e-8 and abs(slope - 2.0) < 0.3
    _report(4, "log-gradient round trip < 1e-8 at n_z = 2048 with slope ~ 2",
            ok, f"err {errs[-1]:.2e}, slope {slope:.2f}")


def test_criterion_05_nonlinear_stability(stability_runs):
    rec20, rec40 = stability_runs
    led, led2 = rec20.ledger, rec40.ledger
    m0 = led.M0
    d1 = led.last()["D_phi"] + led.last()["D_psi"]
    d2 = led2.last()["D_phi"] + led2.last()["D_psi"]
    gp = led.column("grad_phi_H3w")
    m_inst = led.column("M_inst")
    ripple = float(np.max(m_inst[1:] / np.minimum.accumulate(m_inst)[:-1]))
    checks = {
        "a: no blowup": not (rec20.blowup or rec40.blowup),
        "b: M_sup <= 10 M0": led.last()["M_sup"] <= 10 * m0,
        "c: dissipation saturation < 5%": abs(d2 - d1) <= 0.05 * d1,
        "d: grad-phi decay < 1e-2": gp[-1] < 1e-2 * gp[0],
        "e: mass drift < 1e-8": float(np.max(np.abs(led.column("mass")))) < 1e-8,
        "M non-increasing up to 5% ripple": ripple <= 1.05,
    }
    _report(5, "nonlinear eps = 0 stability (M0 = 1e-4, lambda = 0.5, t = 20)",
            all(checks.values()),
            ", ".join(f"{k}={'ok' if v else 'FAIL'}" for k, v in checks.items()))


def test_criterion_06_linear_stability(linear_runs):
    _, recT, rec2T = linear_runs
    c0 = recT.ledger.last()["C0_running"]
    c0d = rec2T.ledger.last()["C0_running"]
    drift = perturbation_y_means(recT.final_modes)
    ok = (not recT.blowup and not rec2T.blowup
          and np.isfinite(c0) and c0 > 0
          and abs(c0d - c0) <= 0.05 * c0
          and drift < 1e-12)
    _report(6, "linear eps = 0.05 stability: bounded C0, stable under doubling, "
               "mean-zero preserved", ok,
            f"C0 {c0:.4g} -> {c0d:.4g}, drift {drift:.1e}")


def test_criterion_07_superposition(linear_runs):
    prof, _, _ = linear_runs
    g = prof.grid
    a = make_initial_perturbation(g, 1e-4, seed=4, mean_zero_y=True)
    b = make_initial_perturbation(g, 1e-4, seed=5, mean_zero_y=True)
    ca, cb = 0.7, -1.3
    comb = tuple(ca * x + cb * y for x, y in zip(a, b))
    one_step = IntegratorConfig(dt=0.02, t_end=0.02)
    sa, sb, sc = ([y_values(x, g) for x in run("linear_eps", s, prof, one_step).final_modes]
                  for s in (a, b, comb))
    err = max(np.max(np.abs(z - ca * x - cb * y)) for x, y, z in zip(sa, sb, sc))
    scale = max(np.max(np.abs(z)) for z in sc)
    ok = err < 1e-13 * scale
    _report(7, "linear stepper additive and homogeneous to machine precision",
            ok, f"error {err:.2e} vs scale {scale:.2e}")


def test_criterion_08_planarity():
    p_eps = 0.1
    # the wave depends on z alone: one KPP build serves both strip widths,
    # and the strips run at once, as the planarity experiment runs them
    p = WaveParams(eps=p_eps, n_minus=1.0, c_plus=1.0)
    wave = solve_wave_kpp(p, make_grid(25.0 / p.s, 1024, 0.5, 16, p.s))

    def strip(lam):
        """The fitted decay rate, r^2, fit window and blowup of one strip."""
        g = make_grid(25.0 / p.s, 1024, lam, 16, p.s)
        prof = replace(wave, grid=g)
        pert = make_initial_perturbation(g, 1e-4, seed=2, mean_zero_y=True)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            rec = run("nq", log_gradient_deviation(pert, g), prof,
                      IntegratorConfig(dt=0.01, t_end=10.0, record_every=5))
        t = np.asarray(rec.times)
        q = rec.ledger.column("Q")
        # clip the stated window [1, 10] to samples representable as positive
        # doubles: at lambda = 0.25 the decay rate (~126/unit) drives Q below
        # the IEEE range before t = 10, so only the representable range exists
        window = _positive_window(t, q, 1.0, 10.0)
        return (*fit_exponential_decay(t, q, window), window, rec.blowup)

    rates = {}
    details = []
    ok = True
    strips = {f"lam={lam}": lam for lam in (0.5, 0.25)}
    done = at_once(strip, strips, _usable_cores())
    for lam, ((c, r2, window, blowup), _) in zip(strips.values(), done):
        rates[lam] = c
        ok = ok and (r2 > 0.99) and (c > 0) and not blowup
        details.append(f"lam={lam}: c={c:.1f}, r2={r2:.6f}, window=[1,{window[1]:g}]")
    ok = ok and rates[0.25] > rates[0.5]
    _report(8, "transverse energy decays log-linearly; rate increases as the "
               "strip narrows", ok, "; ".join(details))


def test_criterion_09_cross_solver_consistency(cross_solver_mismatch):
    (e1, s1), (e2, s2) = cross_solver_mismatch
    ok = (e1 / s1 < 1e-3) and (e1 / e2 > 1.8)
    _report(9, "perturbation and (n, q) solvers agree at t = 0.5; mismatch "
               "halves under joint dt, dz refinement", ok,
            f"rel {e1 / s1:.2e} -> {e2 / s2:.2e}, ratio {e1 / e2:.2f}")


def test_criterion_10_discrete_poincare():
    g = make_grid(5.0, 32, 0.5, 16, 1.0)
    rng = np.random.default_rng(123)
    const = g.lam / (2 * np.pi)
    worst = 0.0
    for _ in range(1000):
        # random y-mean-zero field over the resolved modes 1..n_y/2-1 (the
        # Nyquist mode's collocation derivative vanishes identically)
        v = np.zeros((g.n_z, g.n_y))
        for m in range(1, g.n_y // 2):
            v += np.outer(rng.standard_normal(g.n_z),
                          np.cos(2 * np.pi * m * g.y / g.lam))
            v += np.outer(rng.standard_normal(g.n_z),
                          np.sin(2 * np.pi * m * g.y / g.lam))
        f = ScalarField(g, v)
        fy = ddy(f)
        norm_f = np.sqrt((f.values**2).sum(axis=1) * g.dy)
        norm_fy = np.sqrt((fy.values**2).sum(axis=1) * g.dy)
        worst = max(worst, float(np.max(norm_f / (const * norm_fy))))
        if worst > 1 + 1e-10:
            break
    # equality on the first Fourier mode
    f1 = field_from_function(g, lambda z, y: np.cos(z) * np.sin(2 * np.pi * y / g.lam))
    fy1 = ddy(f1)
    r1 = (np.sqrt((f1.values**2).sum(axis=1) * g.dy)
          / (const * np.sqrt((fy1.values**2).sum(axis=1) * g.dy)))
    equality = float(np.max(np.abs(r1 - 1.0)))
    ok = worst <= 1 + 1e-10 and equality < 1e-10
    _report(10, "discrete Poincare bound holds for 1000 random mean-zero fields; "
                "equality on the first mode", ok,
            f"worst ratio - 1 = {worst - 1:.2e}, equality defect {equality:.2e}")


def test_criterion_11_determinism(tmp_path):
    cfg_text = """
[grid]
L_z = 50
n_z = 512
lambda = 0.5
n_y = 16

[wave]
eps = 0
n_minus = 0.25

[init]
amplitude = 1e-4
seed = 0

[integrator]
dt = 0.05
t_end = 1.0
record_every = 4

[output]
directory = {out}
"""
    ledgers = []
    for name in ("r1", "r2"):
        cfgfile = tmp_path / f"{name}.ini"
        cfgfile.write_text(cfg_text.format(out=tmp_path / name))
        assert main(["evolve", "--config", str(cfgfile)]) == 0
        ledgers.append((tmp_path / name / "ledger.csv").read_bytes())
    ok = ledgers[0] == ledgers[1]
    _report(11, "identical configs produce bitwise-identical ledgers", ok,
            f"{len(ledgers[0])} bytes compared")
