import contextlib
import ctypes
import re
import tracemalloc
import warnings
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest
from scipy.linalg import cho_solve_banded, cholesky_banded

from oracles import cole_hopf_fields, transverse_energy
from stripwave import evolve
from stripwave.evolve import (
    IntegratorBlowup,
    _ModeDiffusionSolver,
    _NqSystem,
    _PerturbationSystem,
    IntegratorConfig,
    RunCounters,
    run,
)
from stripwave.grid import make_grid, y_modes, y_values
from stripwave.transforms import (
    log_gradient_deviation,
    make_initial_perturbation,
    perturbation_y_means,
)
from stripwave.waves import WaveParams, explicit_wave_eps0, solve_wave_kpp


@pytest.fixture(scope="module")
def setup_eps0():
    p = WaveParams(eps=0.0, n_minus=0.25, c_plus=1.0)
    g = make_grid(50.0, 512, 0.5, 16, p.s)
    return p, g, explicit_wave_eps0(p, g)


@pytest.fixture(scope="module")
def setup_eps0_wide():
    # wider strip: the fastest explicitly-integrated y-mode satisfies
    # k^2 dt << 1 over the dt range of the order tests
    p = WaveParams(eps=0.0, n_minus=0.25, c_plus=1.0)
    g = make_grid(50.0, 256, 2.0, 8, p.s)
    return p, g, explicit_wave_eps0(p, g)


@pytest.fixture(scope="module")
def setup_linear():
    p = WaveParams(eps=0.05, n_minus=1.0, c_plus=1.0)
    g = make_grid(25.0 / p.s, 512, 0.5, 16, p.s)
    return p, g, solve_wave_kpp(p, g)


def zero_state(g):
    """Three arrays of zero y-modes: the zero perturbation, or the wave's own
    (n, q) deviation."""
    return tuple(np.zeros((g.n_z, g.n_y // 2 + 1), dtype=complex) for _ in range(3))


def nq_perturbation(g, amplitude, seed):
    """The (a, b_z, b_y) y-modes of the mean-zero initial perturbation."""
    pert = make_initial_perturbation(g, amplitude, seed=seed, mean_zero_y=True)
    return log_gradient_deviation(pert, g)


def one_step(system, state, prof, dt):
    return run(system, state, prof, IntegratorConfig(dt=dt, t_end=dt)).final_modes


def deviation_values(rec, g):
    """The y-node values of an nq record's (a, b_z, b_y) deviation modes."""
    return [y_values(x, g) for x in rec.final_modes]


def test_config_validation():
    with pytest.raises(ValueError):
        IntegratorConfig(dt=0.0, t_end=1.0)
    with pytest.raises(ValueError):
        IntegratorConfig(dt=0.1, t_end=-1.0)
    with pytest.raises(ValueError):
        IntegratorConfig(dt=0.1, t_end=1.0, scheme="rk4")
    with pytest.raises(ValueError):
        IntegratorConfig(dt=0.1, t_end=1.0, cfl_safety=1.5)
    with pytest.raises(ValueError):
        IntegratorConfig(dt=0.1, t_end=1.0, record_every=0)


def test_cfl_rejected(setup_eps0):
    _, g, prof = setup_eps0
    cfg = IntegratorConfig(dt=10.0, t_end=10.0)
    with pytest.raises(ValueError, match="transport restriction"):
        run("nonlinear0", zero_state(g), prof, cfg)


def test_zero_state_is_fixed_point(setup_eps0):
    _, g, prof = setup_eps0
    assert not any(np.any(x) for x in one_step("nonlinear0", zero_state(g), prof, 0.05))


def test_zero_state_fixed_point_linear(setup_linear):
    _, g, prof = setup_linear
    assert not any(np.any(x) for x in one_step("linear_eps", zero_state(g), prof, 0.02))


@pytest.fixture
def no_factorization(monkeypatch):
    """Fails the test as soon as a banded factorization or solve runs."""
    def no_compute(*args, **kwargs):
        raise AssertionError("a banded factorization or solve ran")

    monkeypatch.setattr(evolve, "cholesky_banded", no_compute)
    monkeypatch.setattr(evolve, "cho_solve_banded", no_compute)


@pytest.mark.parametrize("system, setup, requirement", [
    ("nonlinear0", "setup_linear", "eps = 0"),
    ("linear_eps", "setup_eps0", "eps > 0"),
    ("nq", "setup_eps0", "eps > 0"),
], ids=["nonlinear0", "linear_eps", "nq"])
def test_run_rejects_profile_eps_mismatch(request, no_factorization, system, setup,
                                          requirement):
    # rejected before any step: nothing is factored or solved
    _, g, prof = request.getfixturevalue(setup)
    with pytest.raises(ValueError, match=f"^{system} requires a profile with {requirement}"):
        run(system, zero_state(g), prof, IntegratorConfig(dt=0.01, t_end=0.01))


@pytest.mark.parametrize("shapes", [
    lambda g: [(g.n_z // 2, g.n_y // 2 + 1)] * 3,
    lambda g: [(g.n_z, g.n_y // 4 + 1)] * 3,
    lambda g: [(g.n_z, g.n_y // 2 + 1)] * 2,
], ids=["another_n_z", "another_n_y", "two_arrays"])
@pytest.mark.parametrize("system, setup", [
    ("nonlinear0", "setup_eps0"), ("linear_eps", "setup_linear"), ("nq", "setup_linear"),
])
def test_run_rejects_initial_data_of_another_shape(request, no_factorization, system, setup,
                                                   shapes):
    # modes carry no grid, so run checks their count and shape against the
    # profile's grid, before anything is factored
    p, g, prof = request.getfixturevalue(setup)
    modes = [np.zeros(shape, dtype=complex) for shape in shapes(g)]
    with pytest.raises(ValueError, match=re.escape(
            f"{system} takes 3 arrays of y-modes of shape {(g.n_z, g.n_y // 2 + 1)}, "
            f"got {shapes(g)}")):
        run(system, modes, prof, IntegratorConfig(dt=0.01, t_end=0.01))


def _flat(modes, g):
    return np.concatenate([y_values(x, g).ravel() for x in modes])


def _scaled(pert, a):
    return tuple(a * x for x in pert)


def _final(system, pert, prof, dt, scheme, transport, t_end):
    cfg = IntegratorConfig(dt=dt, t_end=t_end, scheme=scheme,
                           record_every=10**9, transport=transport)
    return _flat(run(system, pert, prof, cfg).final_modes, prof.grid)


def test_temporal_self_convergence_first_order(setup_eps0_wide):
    # Richardson self-convergence: successive dt-halvings of the imex1
    # trajectory differ by a factor ~2
    _, g, prof = setup_eps0_wide
    pert = make_initial_perturbation(g, 1e-4, seed=0)
    sols = [_final("nonlinear0", pert, prof, dt, "imex1", "upwind", 0.4)
            for dt in (0.02, 0.01, 0.005)]
    e1 = np.linalg.norm(sols[0] - sols[1])
    e2 = np.linalg.norm(sols[1] - sols[2])
    assert 1.6 < e1 / e2 < 2.5


def test_temporal_self_convergence_second_order(setup_eps0_wide):
    _, g, prof = setup_eps0_wide
    pert = make_initial_perturbation(g, 1e-4, seed=0)
    sols = [_final("nonlinear0", pert, prof, dt, "sbdf2", "central", 0.4)
            for dt in (0.02, 0.01, 0.005)]
    e1 = np.linalg.norm(sols[0] - sols[1])
    e2 = np.linalg.norm(sols[1] - sols[2])
    assert 3.0 < e1 / e2 < 5.0

    # the (n, q) system; at dt = 0.02..0.005 its ratio (about 2.3) is still
    # pre-asymptotic
    p = WaveParams(eps=0.1, n_minus=1.0, c_plus=1.0)
    g = make_grid(25.0 / p.s, 256, 2.0, 8, p.s)
    prof = solve_wave_kpp(p, g)
    pert = nq_perturbation(g, 1e-4, 0)
    sols = []
    for dt in (0.004, 0.002, 0.001):
        cfg = IntegratorConfig(dt=dt, t_end=0.4, scheme="sbdf2", record_every=10**9)
        d = deviation_values(run("nq", pert, prof, cfg), g)
        sols.append(np.concatenate([x.ravel() for x in d]))
    e1 = np.linalg.norm(sols[0] - sols[1])
    e2 = np.linalg.norm(sols[1] - sols[2])
    assert 3.0 < e1 / e2 < 5.0


def test_amplitude_linearity_slope_two(setup_eps0):
    # the quadratic coupling is the only nonlinearity: traj(a) - 2 traj(a/2)
    # scales like a^2
    _, g, prof = setup_eps0
    base = make_initial_perturbation(g, 1.0, seed=3)
    defects = []
    amps = [1e-2, 1e-3, 1e-4]
    for a in amps:
        fa = _final("nonlinear0", _scaled(base, np.sqrt(a)), prof, 0.05, "imex1", "upwind",
                    1.0)
        fh = _final("nonlinear0", _scaled(base, np.sqrt(a) / 2), prof, 0.05, "imex1",
                    "upwind", 1.0)
        defects.append(np.linalg.norm(fa - 2.0 * fh))
    slope = np.polyfit(np.log(np.sqrt(amps)), np.log(defects), 1)[0]
    assert abs(slope - 2.0) < 0.15


def test_mass_conserved_per_step(setup_eps0):
    _, g, prof = setup_eps0
    pert = make_initial_perturbation(g, 1e-4, seed=1)
    cfg = IntegratorConfig(dt=0.05, t_end=1.0, record_every=1)
    rec = run("nonlinear0", pert, prof, cfg)
    mass = rec.ledger.column("mass")
    assert np.max(np.abs(np.diff(mass))) < 1e-10


def test_dissipation_integral_insensitive_to_record_stride(setup_eps0):
    # trapezoid over recorded rows: halving record_every moves D by < 1%
    # once the recording interval resolves the integrand (y-independent data
    # here; transverse modes at lambda = 0.5 die faster than any practical
    # record stride and their unresolved spike cancels between comparisons
    # made on a shared record grid, as in the saturation checks)
    _, g, prof = setup_eps0
    bump = np.exp(-((g.z[:, None] / 3.0) ** 2)) * np.ones((1, g.n_y))
    amp = 1e-3
    pert = (y_modes(amp * bump), zero_state(g)[1], y_modes(amp * bump))
    d_vals = []
    for stride in (4, 2):
        cfg = IntegratorConfig(dt=0.05, t_end=4.0, record_every=stride)
        rec = run("nonlinear0", pert, prof, cfg)
        d_vals.append(rec.ledger.last()["D_phi"] + rec.ledger.last()["D_psi"])
    assert abs(d_vals[0] - d_vals[1]) < 0.01 * d_vals[1]


def test_linear_preserves_y_mean_zero(setup_linear):
    _, g, prof = setup_linear
    pert = make_initial_perturbation(g, 1e-4, seed=2, mean_zero_y=True)
    cfg = IntegratorConfig(dt=0.02, t_end=1.0, record_every=10)
    rec = run("linear_eps", pert, prof, cfg)
    assert perturbation_y_means(rec.final_modes) < 1e-12


def test_linear_warns_on_biased_data(setup_linear):
    _, g, prof = setup_linear
    pert = make_initial_perturbation(g, 1e-4, seed=2, mean_zero_y=False)
    with pytest.warns(UserWarning, match="mean"):
        one_step("linear_eps", pert, prof, 0.02)


def test_linear_superposition(setup_linear):
    _, g, prof = setup_linear
    a = make_initial_perturbation(g, 1e-4, seed=4, mean_zero_y=True)
    b = make_initial_perturbation(g, 1e-4, seed=5, mean_zero_y=True)
    ca, cb = 0.7, -1.3
    comb = tuple(ca * x + cb * y for x, y in zip(a, b))
    sa, sb, sc = ([y_values(x, g) for x in one_step("linear_eps", s, prof, 0.02)]
                  for s in (a, b, comb))
    err = max(np.max(np.abs(z - ca * x - cb * y)) for x, y, z in zip(sa, sb, sc))
    scale = max(np.max(np.abs(z)) for z in sc)
    assert err < 1e-13 * max(scale, 1e-30)


def test_linear_decay_of_weighted_gradient(setup_linear):
    # mean-zero data: transverse modes die fast, the weighted gradient
    # measure collapses far below the 1e-2 threshold by t = 10
    _, g, prof = setup_linear
    pert = make_initial_perturbation(g, 1e-4, seed=1, mean_zero_y=True)
    cfg = IntegratorConfig(dt=0.02, t_end=10.0, record_every=50)
    rec = run("linear_eps", pert, prof, cfg)
    gp = rec.ledger.column("grad_phi_H3w")
    assert gp[-1] < 1e-2 * gp[0]


@pytest.fixture(scope="module")
def nq_setup():
    p = WaveParams(eps=0.1, n_minus=1.0, c_plus=1.0)
    g = make_grid(25.0 / p.s, 512, 0.5, 16, p.s)
    return p, g, solve_wave_kpp(p, g)


def wave_state(g, prof, shift=0):
    """The nq deviation (a, b_z, b_y) from `prof` of the wave on g, its
    samples moved `shift` nodes to the left and padded with their last
    value: the y-modes of its y-node values."""
    def deviation(v):
        moved = np.concatenate([v[shift:], np.full(shift, v[-1])])
        return y_modes(np.repeat(moved[:, None], g.n_y, axis=1) - v[:, None])

    return deviation(prof.N), deviation(prof.P_z), y_modes(np.zeros((g.n_z, g.n_y)))


def test_wave_is_stationary_in_moving_frame(nq_setup):
    # profile residual oracle: the drift bound is O(dz^2) + O(dt); the
    # exact-perturbation flux form makes the wave a discrete fixed point,
    # so the measured drift sits far below the bound
    p, g, prof = nq_setup
    cfg = IntegratorConfig(dt=0.01, t_end=1.0, record_every=50)
    rec = run("nq", wave_state(g, prof), prof, cfg)
    drift = max(np.max(np.abs(x)) for x in deviation_values(rec, g))
    bound = 10 * (g.dz**2 + cfg.dt)
    assert drift <= bound
    assert drift < 1e-12


def test_nq_run_rejects_a_state_it_cannot_deviate(nq_setup, no_factorization):
    # the (n, q) deviation on the y-nodes is no set of y-modes
    p, g, prof = nq_setup
    nodes = [np.zeros((g.n_z, g.n_y))] * 3
    with pytest.raises(ValueError, match=re.escape(
            f"nq takes 3 arrays of y-modes of shape {(g.n_z, g.n_y // 2 + 1)}, "
            f"got {[(g.n_z, g.n_y)] * 3}")):
        run("nq", nodes, prof, IntegratorConfig(dt=0.01, t_end=0.01))


def test_nq_mass_conservation(nq_setup):
    p, g, prof = nq_setup
    pert = nq_perturbation(g, 1e-6, 8)
    cfg = IntegratorConfig(dt=0.01, t_end=1.0, record_every=10)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        rec = run("nq", pert, prof, cfg)
    mass = rec.ledger.column("mass")
    assert np.max(np.abs(mass - mass[0])) < 1e-8


@pytest.mark.parametrize("t_end", [0.01, 0.2])
def test_nq_ledger_q_matches_the_physical_transverse_energy(nq_setup, t_end):
    # the ledger's Q, summed over the stepper's y-modes, against Q of the
    # final state's y-node values with the y-mean removed; Q is below 1e-9,
    # so approx's default abs of 1e-12 would hide a relative error of 1e-3:
    # abs = 0
    p, g, prof = nq_setup
    pert = nq_perturbation(g, 1e-4, 2)
    rec = run("nq", pert, prof, IntegratorConfig(dt=0.01, t_end=t_end, record_every=10))
    q = rec.ledger.column("Q")[-1]
    assert q == pytest.approx(transverse_energy(cole_hopf_fields(prof, rec.final_modes)),
                              rel=1e-9, abs=0.0)


def _translation_drift(g, prof):
    """The y-mean of a at t = 0.5 from the wave moved a whole number of
    nodes (about 0.5) to the left: its largest departure from where it
    started, relative to that start."""
    init = wave_state(g, prof, shift=round(0.5 / g.dz))
    rec = run("nq", init, prof, IntegratorConfig(dt=0.005, t_end=0.5, record_every=100))
    a, start = (x[:, 0].real for x in (rec.final_modes[0], init[0]))  # the y-mean columns
    return np.max(np.abs(a - start)) / np.max(np.abs(start))


def test_nq_moving_frame_keeps_a_translated_wave(nq_setup):
    # a translate of the wave is a travelling wave too, so in the moving
    # frame it stays where it started: the transport speed s, the fluxes
    # and the wave's samples must agree, to second order in dz
    p, g, prof = nq_setup
    drift = _translation_drift(g, prof)
    assert drift <= 1e-3
    fine = make_grid(g.L_z, 2 * g.n_z, g.lam, g.n_y, g.s)
    assert 3 * _translation_drift(fine, solve_wave_kpp(p, fine)) <= drift


def test_cross_solver_consistency(cross_solver_mismatch):
    # linearized (phi, psi) trajectory versus the nonlinear (n, q) solver at
    # matching small amplitude; mismatch halves under joint dt, dz refinement
    (e1, s1), (e2, _) = cross_solver_mismatch
    assert e1 / s1 < 1e-3          # frozen from the combined-error oracle
    assert e1 / e2 > 1.8           # halves (or better) under refinement


def test_run_t_end_zero_single_row(setup_eps0):
    _, g, prof = setup_eps0
    pert = make_initial_perturbation(g, 1e-4, seed=0)
    rec = run("nonlinear0", pert, prof, IntegratorConfig(dt=0.05, t_end=0.0))
    assert rec.times == [0.0]
    assert len(rec.ledger.rows) == 1


def test_record_times_exact(setup_eps0):
    _, g, prof = setup_eps0
    pert = make_initial_perturbation(g, 1e-4, seed=0)
    cfg = IntegratorConfig(dt=0.05, t_end=0.5, record_every=3)
    rec = run("nonlinear0", pert, prof, cfg)
    expected = [0.0] + [i * 0.05 for i in range(3, 11, 3)] + [10 * 0.05]
    assert rec.times == sorted(set(expected))


def test_run_deterministic_rerun(setup_eps0):
    _, g, prof = setup_eps0
    pert = make_initial_perturbation(g, 1e-4, seed=0)
    cfg = IntegratorConfig(dt=0.05, t_end=0.5, record_every=2)
    r1 = run("nonlinear0", pert, prof, cfg)
    r2 = run("nonlinear0", pert, prof, cfg)
    for c in ("M_inst", "D_phi", "mass"):
        assert np.array_equal(r1.ledger.column(c), r2.ledger.column(c))
    assert np.array_equal(y_values(r1.final_modes[2], g), y_values(r2.final_modes[2], g))


def test_blowup_detection_partial_record(setup_eps0, monkeypatch):
    _, g, prof = setup_eps0
    pert = make_initial_perturbation(g, 1e-4, seed=0)
    # absurd blowup threshold triggers the energy guard immediately
    monkeypatch.setattr(evolve, "BLOWUP_FACTOR", 1e-12)
    cfg = IntegratorConfig(dt=0.05, t_end=1.0, record_every=1)
    rec = run("nonlinear0", pert, prof, cfg)
    assert rec.blowup
    assert rec.blowup_time is not None
    assert len(rec.ledger.rows) >= 1


def test_blowup_record_keeps_its_reason(setup_eps0, monkeypatch):
    _, g, prof = setup_eps0
    pert = make_initial_perturbation(g, 1e-4, seed=0)
    monkeypatch.setattr(evolve, "BLOWUP_FACTOR", 1e-12)
    rec = run("nonlinear0", pert, prof, IntegratorConfig(dt=0.05, t_end=1.0))
    assert rec.blowup_reason == "energy exceeded 1e-12 x M0"

    # a 1e100 spike in psi overflows inside the first steps; the energy
    # guard is out of reach, so the record names every non-finite field (psi
    # is still finite when phi_z and phi_y are not).  The overflow reaches
    # the diffusion solve as inf/NaN and must end as this named blowup, not
    # as an error of the banded solver
    psi = y_values(pert[2], g)
    psi[g.n_z // 2, 3] = 1e100
    spiked = (*pert[:2], y_modes(psi))
    monkeypatch.setattr(evolve, "BLOWUP_FACTOR", 1e300)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        rec = run("nonlinear0", spiked, prof, IntegratorConfig(dt=0.05, t_end=1.0))
    assert rec.blowup and rec.blowup_time == pytest.approx(0.2)
    assert rec.blowup_reason == "non-finite values in phi_z, phi_y"

    monkeypatch.undo()
    rec = run("nonlinear0", pert, prof, IntegratorConfig(dt=0.05, t_end=0.1))
    assert not rec.blowup and rec.blowup_reason is None
    # the guard's text states the default factor as it always has
    assert _PerturbationSystem.guard[1].format(evolve.BLOWUP_FACTOR) == (
        "energy exceeded 1e+06 x M0")


def test_unknown_system_rejected(setup_eps0):
    _, g, prof = setup_eps0
    with pytest.raises(ValueError, match="unknown system"):
        run("heat", zero_state(g), prof, IntegratorConfig(dt=0.05, t_end=0.1))


def test_nq_run_keeps_gradient_structure(nq_setup):
    # b starts as the discrete gradient (d_z psi, ik psi) and is never
    # re-gauged: rounding alone moves its curl (about 2e-12 here, with
    # max |b| about 7e-9)
    p, g, prof = nq_setup
    pert = nq_perturbation(g, 1e-6, 9)
    cfg = IntegratorConfig(dt=0.01, t_end=0.2, record_every=5)
    rec = run("nq", pert, prof, cfg)
    assert rec.curl_max < 1e-9


def test_snapshots_recorded(setup_eps0):
    # a snapshot keeps the loop's own arrays, which no later step writes:
    # each is bitwise the final modes of a separate run to its time
    _, g, prof = setup_eps0
    pert = make_initial_perturbation(g, 1e-4, seed=0)
    for scheme, transport in (("imex1", "upwind"), ("sbdf2", "central")):
        cfg = IntegratorConfig(dt=0.05, t_end=0.5, scheme=scheme, record_every=2,
                               transport=transport, snapshot_every=2)
        rec = run("nonlinear0", pert, prof, cfg)
        assert [t for t, _ in rec.snapshots] == [0.0, 4 * 0.05, 8 * 0.05]
        for t, modes in rec.snapshots:
            assert [x.shape for x in modes] == [(g.n_z, g.n_y // 2 + 1)] * 3
            alone = run("nonlinear0", pert, prof, replace(cfg, t_end=t)).final_modes
            assert all(np.array_equal(x, y) for x, y in zip(modes, alone))


@pytest.mark.parametrize("coef, alpha", [(0.05, 1.0), (0.02, 1.5), (1.0, 0.0)])
def test_stacked_diffusion_solve_matches_dense_oracle(coef, alpha):
    # every y-mode block, k = 0 and Nyquist included, against a dense solve
    # of alpha I - coef (D_zz - k^2) with Dirichlet end rows, alpha = 0
    # included
    g = make_grid(5.0, 48, 0.5, 8, 1.0)
    rng = np.random.default_rng(11)
    n_k = g.n_y // 2 + 1
    rhs = rng.standard_normal((g.n_z, n_k)) + 1j * rng.standard_normal((g.n_z, n_k))
    x = _ModeDiffusionSolver(g, RunCounters(), coef, alpha)(rhs)
    eye = np.eye(g.n_z)
    d_zz = (np.eye(g.n_z, k=1) - 2.0 * eye + np.eye(g.n_z, k=-1)) / g.dz**2
    for m, k in enumerate(g.wavenumbers_y):
        a = alpha * eye - coef * (d_zz - k**2 * eye)
        a[[0, -1]] = eye[[0, -1]]
        b = rhs[:, m].copy()
        b[[0, -1]] = 0.0
        exact = np.linalg.solve(a, b)
        assert np.max(np.abs(x[:, m] - exact)) <= 1e-12 * np.max(np.abs(exact))


@pytest.mark.parametrize("coef, alpha", [(0.05, 1.0), (0.02, 1.5), (1.0, 0.0)])
def test_complex_solve_matches_the_real_two_column_solve(coef, alpha):
    # the tridiagonal LDL^T solve of one complex column against an
    # independent oracle: scipy's real banded Cholesky of the same matrix,
    # with the real and imaginary parts as two real columns
    g = make_grid(5.0, 48, 0.5, 8, 1.0)
    rng = np.random.default_rng(12)
    n_k = g.n_y // 2 + 1
    rhs = rng.standard_normal((g.n_z, n_k)) + 1j * rng.standard_normal((g.n_z, n_k))
    x = _ModeDiffusionSolver(g, RunCounters(), coef, alpha)(rhs)
    ab = np.empty((2, n_k, g.n_z - 2))
    ab[0] = -coef / g.dz**2
    ab[0, :, 0] = 0.0
    ab[1] = alpha + coef * (2.0 / g.dz**2 + g.wavenumbers_y[:, None]**2)
    factor = cholesky_banded(ab.reshape(2, -1))
    columns = np.stack([rhs[1:-1].real.T.ravel(), rhs[1:-1].imag.T.ravel()], axis=1)
    re, im = cho_solve_banded((factor, False), columns).T.reshape(2, n_k, -1)
    assert np.all(x[[0, -1]] == 0.0)
    ref = (re + 1j * im).T
    assert np.max(np.abs(x[1:-1] - ref)) <= 1e-14 * np.max(np.abs(ref))


@pytest.mark.parametrize("coef, alpha", [(0.05, 1.0), (0.02, 1.5), (1.0, 0.0)])
def test_stacked_solve_blocks_are_independent(coef, alpha):
    # the off-diagonal is exactly 0 between mode blocks: a right-hand side
    # in one y-mode leaves every other mode's column exactly 0
    g = make_grid(5.0, 48, 0.5, 8, 1.0)
    rng = np.random.default_rng(14)
    n_k = g.n_y // 2 + 1
    solve = _ModeDiffusionSolver(g, RunCounters(), coef, alpha)
    for m in range(n_k):
        rhs = np.zeros((g.n_z, n_k), dtype=complex)
        rhs[:, m] = rng.standard_normal(g.n_z) + 1j * rng.standard_normal(g.n_z)
        x = solve(rhs)
        assert np.all(np.delete(x, m, axis=1) == 0.0)
        assert np.all(x[1:-1, m] != 0.0)


def test_failed_factorization_names_its_mode():
    # alpha = -1e3 makes the first pivot of y-mode 0 negative
    g = make_grid(5.0, 48, 0.5, 8, 1.0)
    with pytest.raises(np.linalg.LinAlgError, match="y-mode 0, z row 0$"):
        _ModeDiffusionSolver(g, RunCounters(), 0.05, alpha=-1e3)


def test_a_scipy_without_the_lapack_extension_fails_at_the_first_solver(tmp_path,
                                                                       monkeypatch):
    # no fallback: the error names the directory searched, before any step
    monkeypatch.setattr(evolve.importlib.util, "find_spec",
                        lambda name: SimpleNamespace(submodule_search_locations=[str(tmp_path)]))
    evolve._lapack.cache_clear()
    g = make_grid(5.0, 48, 0.5, 8, 1.0)
    with pytest.raises(ImportError, match=re.escape(f"_flapack is not in {tmp_path / 'linalg'}")):
        _ModeDiffusionSolver(g, RunCounters(), 0.05, 1.0)
    assert evolve.lapack_file() is None


def test_complex_solve_keeps_real_columns_real():
    # a right-hand side with zero imaginary parts, as the k = 0 y-mean column
    # of the (n, q) state has, comes back with imaginary parts exactly +-0
    g = make_grid(5.0, 48, 0.5, 8, 1.0)
    rhs = np.random.default_rng(13).standard_normal((g.n_z, g.n_y // 2 + 1)) + 0j
    x = _ModeDiffusionSolver(g, RunCounters(), 0.05, 1.0)(rhs)
    assert np.all(x.imag == 0.0) and np.all(x.real[1:-1] != 0.0)


@pytest.mark.parametrize("system, eps, sharing", [
    ("nonlinear0", 0.0, "S S pin"),
    ("linear_eps", 0.05, "S S T"),
    ("nq", 0.05, "A B B"),
    ("linear_eps", 1.0, "S S S"),
    ("nq", 1.0, "S S S"),
])
def test_arrays_with_one_diffusion_share_one_solver(system, eps, sharing):
    # one solver per distinct diffusion coefficient; eps = 1 is the
    # coefficient of phi and of a, so every diffused array shares one
    p = WaveParams(eps=eps, n_minus=1.0 if eps else 0.25, c_plus=1.0)
    g = make_grid(25.0 / p.s, 128, 0.5, 8, p.s)
    prof = solve_wave_kpp(p, g) if eps else explicit_wave_eps0(p, g)
    model = _model(system, prof)
    solves = model.solves_1
    labels = sharing.split()
    for i in range(3):
        for j in range(i):
            assert (solves[i] is solves[j]) == (labels[i] == labels[j])
    assert [isinstance(s, _ModeDiffusionSolver) for s in solves] == [
        label != "pin" for label in labels]

    init = make_initial_perturbation(g, 1e-4, seed=0, mean_zero_y=eps > 0)
    if system == "nq":
        init = log_gradient_deviation(init, g)
    u = init
    for _ in range(3):
        u = model.step(u)
    # each banded array's solve once per step, whether or not it is shared
    banded = sum(label != "pin" for label in labels)
    assert model.counters.solves == 3 * banded
    assert model.counters.factorizations == len(set(labels) - {"pin"})
    record = run(system, init, prof, IntegratorConfig(dt=0.01, t_end=0.03))
    assert record.counters.solves == model.counters.solves


def test_blowup_names_its_field(setup_eps0, nq_setup):
    _, g, prof = setup_eps0
    pert = make_initial_perturbation(g, 1e-4, seed=0)

    def at(x, value, where=(g.n_z // 2, 3)):
        x = x.copy()
        x[where] = value
        return x

    with pytest.raises(IntegratorBlowup, match="non-finite values in psi at t = 0"):
        one_step("nonlinear0", (*pert[:2], at(pert[2], np.nan)), prof, 0.05)
    # two fields at once: both named, in the system's order
    both = (at(pert[0], np.inf, (0, 0)), pert[1], at(pert[2], np.nan))
    with pytest.raises(IntegratorBlowup, match="non-finite values in phi_z, psi at t = 0$"):
        one_step("nonlinear0", both, prof, 0.05)

    p, gq, profq = nq_setup
    a, bz, by = wave_state(gq, profq)
    with pytest.raises(IntegratorBlowup, match="non-finite values in b_y at t = 0"):
        one_step("nq", (a, bz, at(by, np.inf, (gq.n_z // 2, 5))), profq, 0.01)


# ---------------------------------------------------------------------------
# One loop, two horizons: run(cfg(2T), head=T) against two separate runs
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def thin_nq_strip():
    # lambda = 0.25: Q decays at a rate of about 100, by about 1e-87 over t = 2
    p = WaveParams(eps=0.1, n_minus=1.0, c_plus=1.0)
    g = make_grid(25.0 / p.s, 128, 0.25, 8, p.s)
    return solve_wave_kpp(p, g), nq_perturbation(g, 1e-4, 0)


@pytest.fixture(scope="module")
def small_strips(thin_nq_strip):
    strips = {"nq": thin_nq_strip}
    for system, p in (("nonlinear0", WaveParams(eps=0.0, n_minus=0.25, c_plus=1.0)),
                      ("linear_eps", WaveParams(eps=0.05, n_minus=1.0, c_plus=1.0))):
        g = make_grid(25.0 / p.s, 128, 0.5, 8, p.s)
        prof = explicit_wave_eps0(p, g) if p.eps == 0 else solve_wave_kpp(p, g)
        pert = make_initial_perturbation(g, 1e-4, seed=0, mean_zero_y=p.eps > 0)
        strips[system] = prof, pert
    return strips


def _assert_same_record(a, b, tmp_path):
    """a and b agree bit for bit."""
    a.ledger.to_csv(tmp_path / "a.csv")
    b.ledger.to_csv(tmp_path / "b.csv")
    assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()
    assert a.config == b.config
    assert a.times == b.times
    assert [t for t, _ in a.snapshots] == [t for t, _ in b.snapshots]
    states = zip([s for _, s in a.snapshots] + [a.final_modes],
                 [s for _, s in b.snapshots] + [b.final_modes])
    for sa, sb in states:
        assert all(np.array_equal(x, y, equal_nan=True) for x, y in zip(sa, sb))
    assert (a.blowup, a.blowup_time, a.blowup_reason, a.curl_max) == (
        b.blowup, b.blowup_time, b.blowup_reason, b.curl_max)
    # a record's counts are those of the loop when it closed, not later
    counts = ["steps", "solves", "factorizations"]
    assert [getattr(a.counters, k) for k in counts] == [getattr(b.counters, k) for k in counts]


def _head_and_separate(system, strip, t_head, **kwargs):
    prof, pert = strip
    cfg = IntegratorConfig(t_end=2 * t_head, **kwargs)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        warnings.simplefilter("ignore", UserWarning)  # the nq curl drift note
        rec = run(system, pert, prof, cfg, head=t_head)
        alone = run(system, pert, prof, IntegratorConfig(t_end=t_head, **kwargs))
        full = run(system, pert, prof, cfg)
    return rec, alone, full


# T / dt: on the record_every = 4 grid (8), off it (10), not an integer (5.5,
# so that the head rounds up to 6 steps) and zero
@pytest.mark.parametrize("t_head", [0.08, 0.1, 0.055, 0.0])
@pytest.mark.parametrize("scheme, transport", [("imex1", "upwind"), ("sbdf2", "central")])
@pytest.mark.parametrize("system", ["nonlinear0", "linear_eps", "nq"])
def test_head_record_is_bitwise_a_separate_run(small_strips, tmp_path, system, scheme,
                                               transport, t_head):
    rec, alone, full = _head_and_separate(
        system, small_strips[system], t_head, dt=0.01, scheme=scheme,
        transport=transport, record_every=4, snapshot_every=2)
    _assert_same_record(rec.head, alone, tmp_path)
    _assert_same_record(rec, full, tmp_path)
    assert rec.times[-1] == pytest.approx(2 * t_head)
    # every row is computed once: the head adds only its own off-grid last row
    assert rec.head.counters.rows == alone.counters.rows
    assert rec.counters.rows == full.counters.rows + (rec.head.counters.steps % 4 != 0)


def test_head_record_matches_separate_runs_through_guard_trips(small_strips, tmp_path,
                                                               monkeypatch):
    strip = small_strips["nonlinear0"]
    dt = 0.05
    probe, _, _ = _head_and_separate("nonlinear0", strip, 0.1, dt=dt)
    m = probe.ledger.column("M_inst") / probe.ledger.M0
    # the imex1 ledger dips at step 1 and peaks again at step 2 before it
    # decays, so a BLOWUP_FACTOR below 1 can place a trip on either side of T
    assert m[1] < m[3] < m[2] and m[4] < m[3]
    cases = [
        # (T, record_every, BLOWUP_FACTOR, head blowup time, full blowup time)
        (0.1, 1, 0.5 * m[1], dt, dt),                     # trip before T
        (0.05, 2, 0.5 * (m[1] + m[2]), None, 2 * dt),     # trip after T
    ]
    for t_head, every, factor, head_time, full_time in cases:
        monkeypatch.setattr(evolve, "BLOWUP_FACTOR", factor)
        rec, alone, full = _head_and_separate("nonlinear0", strip, t_head, dt=dt,
                                              record_every=every)
        _assert_same_record(rec.head, alone, tmp_path)
        _assert_same_record(rec, full, tmp_path)
        assert rec.head.blowup_time == pytest.approx(head_time)
        assert rec.blowup_time == pytest.approx(full_time)

    # a trip on the head's own off-grid last row (T = 0.1 is step 2 of
    # record_every = 3), which the full record never takes, ends the loop:
    # both records close there, whether the separate full run would never
    # trip or would trip at a later row of its own
    for factor, full_time in ((0.5 * (m[2] + m[3]), None), (0.5 * (m[3] + m[4]), 3 * dt)):
        monkeypatch.setattr(evolve, "BLOWUP_FACTOR", factor)
        rec, alone, full = _head_and_separate("nonlinear0", strip, 0.1, dt=dt,
                                              record_every=3)
        _assert_same_record(rec.head, alone, tmp_path)
        assert rec.head.blowup_time == pytest.approx(2 * dt)
        assert full.blowup_time == pytest.approx(full_time)
        assert (rec.blowup_time, rec.blowup_reason) == (
            rec.head.blowup_time, rec.head.blowup_reason)
        assert rec.ledger.rows == [r for r in full.ledger.rows if r["t"] <= 2 * dt]
        assert rec.counters.steps == rec.head.counters.steps == 2


def test_head_record_matches_separate_runs_through_non_finite_values(small_strips,
                                                                    tmp_path, monkeypatch):
    prof, pert = small_strips["nonlinear0"]
    g = prof.grid
    psi = y_values(pert[2], g)
    psi[g.n_z // 2, 3] = 1e100
    spiked = (*pert[:2], y_modes(psi))
    monkeypatch.setattr(evolve, "BLOWUP_FACTOR", 1e300)
    rec, alone, full = _head_and_separate("nonlinear0", (prof, spiked), 1.0, dt=0.05)
    assert rec.head.blowup and rec.blowup_time == rec.head.blowup_time < 1.0
    _assert_same_record(rec.head, alone, tmp_path)
    _assert_same_record(rec, full, tmp_path)


def test_nq_head_record_keeps_its_own_curl_drift(tmp_path):
    p = WaveParams(eps=0.1, n_minus=1.0, c_plus=1.0)
    g = make_grid(25.0 / p.s, 128, 0.5, 8, p.s)
    prof = solve_wave_kpp(p, g)
    pert = nq_perturbation(g, 1e-4, 0)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        rec, alone, full = _head_and_separate("nq", (prof, pert), 0.03, dt=0.01,
                                              record_every=4)
    # the curl drift peaks at step 3, the head's own off-grid last row,
    # which the rows of the full run (steps 0, 4, 6) never see
    assert alone.curl_max > full.curl_max > 0.0
    _assert_same_record(rec.head, alone, tmp_path)
    _assert_same_record(rec, full, tmp_path)


@pytest.mark.parametrize("system", ["nonlinear0", "linear_eps", "nq"])
def test_a_record_continues(small_strips, system):
    # run takes the modes its records return: under imex1, a run from a
    # record's final modes ends bitwise where one run of both runs' steps ends
    prof, pert = small_strips[system]
    cfg = IntegratorConfig(dt=0.01, t_end=0.05, record_every=2)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)  # the nq curl drift note
        half = run(system, pert, prof, cfg).final_modes
        rest = run(system, half, prof, cfg).final_modes
        whole = run(system, pert, prof, replace(cfg, t_end=0.1)).final_modes
    assert all(np.array_equal(x, y) for x, y in zip(rest, whole))


@pytest.mark.parametrize("system", ["nonlinear0", "linear_eps", "nq"])
def test_run_copies_its_input(small_strips, system):
    # read-only arrays run, and the records hold copies, never the caller's
    prof, pert = small_strips[system]
    frozen = tuple(x.copy() for x in pert)
    for x in frozen:
        x.flags.writeable = False
    cfg = IntegratorConfig(dt=0.01, t_end=0.02)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)  # the nq curl drift note
        stepped = run(system, frozen, prof, cfg).final_modes
        assert all(np.array_equal(x, y) for x, y in
                   zip(stepped, run(system, pert, prof, cfg).final_modes))
        start = run(system, frozen, prof, replace(cfg, t_end=0.0)).final_modes
    assert all(np.array_equal(x, y) for x, y in zip(start, frozen))
    assert not any(np.shares_memory(x, y) for x in start for y in frozen)


def test_head_outside_the_horizon_rejected(small_strips):
    prof, pert = small_strips["nonlinear0"]
    for head in (-0.1, 0.2):
        with pytest.raises(ValueError, match="head"):
            run("nonlinear0", pert, prof, IntegratorConfig(dt=0.05, t_end=0.1), head=head)


# ---------------------------------------------------------------------------
# Kept buffers: a step reuses its scratch arrays but hands out only its own
# ---------------------------------------------------------------------------

def _strip(system, n_z, n_y):
    eps = 0.1 if system == "nq" else 0.0
    p = WaveParams(eps=eps, n_minus=1.0 if eps else 0.25, c_plus=1.0)
    g = make_grid(25.0 / p.s, n_z, 0.5, n_y, p.s)
    prof = solve_wave_kpp(p, g) if eps else explicit_wave_eps0(p, g)

    def initial(seed):
        pert = make_initial_perturbation(g, 1e-3, seed=seed, mean_zero_y=eps > 0)
        return log_gradient_deviation(pert, g) if system == "nq" else pert

    return prof, initial


def _model(system, prof, scheme="imex1"):
    config = IntegratorConfig(dt=0.01, t_end=0.01, scheme=scheme)
    return (_NqSystem if system == "nq" else _PerturbationSystem)(prof, config)


@pytest.mark.parametrize("system", ["nq", "nonlinear0"])
def test_returned_arrays_outlive_the_next_call(system):
    prof, pert = _strip(system, 128, 8)
    model = _model(system, prof)
    u1, u2 = pert(1), pert(2)
    kept_u1 = [x.copy() for x in u1]

    first = model.explicit_tendency(u1)
    kept = [x.copy() for x in first]
    model.explicit_tendency(u2)
    for x, y in zip(first, kept):
        assert np.array_equal(x, y)

    solve = _ModeDiffusionSolver(prof.grid, RunCounters(), 0.01, 1.0)
    x1 = solve(u1[0])
    y1 = x1.copy()
    rhs = u1[0].copy()
    assert solve(rhs, out=rhs) is rhs and np.array_equal(rhs, y1)  # in place, same bits
    solve(u1[1])
    assert np.array_equal(x1, y1)

    for scheme in ("imex1", "sbdf2"):
        model = _model(system, prof, scheme)
        v1 = model.step(u1)
        w1 = [x.copy() for x in v1]
        v2 = model.step(v1)  # SBDF2: the history (u1, its tendencies) is read here
        model.step(v2)
        for x, y in zip(v1, w1):
            assert np.array_equal(x, y)
        arrays = [*u1, *v1, *v2]
        assert not any(np.shares_memory(a, b) for k, a in enumerate(arrays)
                       for b in arrays[k + 1:])
    # a step reads its input and writes none of it
    for x, y in zip(u1, kept_u1):
        assert np.array_equal(x, y)


def test_runs_in_any_order_give_the_same_bits(tmp_path):
    strips = {(system, n_z): _strip(system, n_z, 8)
              for system in ("nq", "nonlinear0") for n_z in (128, 256)}
    cfg = IntegratorConfig(dt=0.01, t_end=0.1, record_every=2, snapshot_every=2)

    def run_all(order):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            return [(key, run(key[0], strips[key][1](3), strips[key][0], cfg))
                    for key in order]

    order = [("nq", 128), ("nonlinear0", 256), ("nq", 256), ("nonlinear0", 128),
             ("nq", 128)]
    forward = run_all(order)
    backward = dict(run_all(order[-2::-1]))
    for key, rec in forward:
        _assert_same_record(rec, backward[key], tmp_path)


def test_warm_nq_steps_stay_allocation_light():
    # tracemalloc's peak above the held arrays during 20 warm nq steps at
    # 256 x 8, in arrays of one field's y-modes (20,480 bytes): 17.35 with
    # a fresh array per intermediate, 4.45 with the kept buffers (the three
    # tendencies, which become the solutions, and numpy's iteration
    # buffers).  One more fresh field array beside the tendencies crosses
    # the bound.  The figure is deterministic: no timing enters it.
    prof, pert = _strip("nq", 256, 8)
    tracemalloc.start()
    try:
        model = _model("nq", prof)
        u = pert(0)
        for _ in range(3):
            u = model.step(u)
        tracemalloc.reset_peak()
        held = tracemalloc.get_traced_memory()[0]
        for _ in range(20):
            u = model.step(u)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (peak - held) / u[0].nbytes < 5.0


# ---------------------------------------------------------------------------
# The (n, q) fluctuation, stepped at true scale
# ---------------------------------------------------------------------------

def test_nq_q_decays_at_one_rate_through_hundreds_of_e_foldings(thin_nq_strip):
    # the fluctuation is stepped at true scale: Q falls from about 1e-10
    # towards 1e-290 at one rate, and the flushed z-tails of its squares
    # do not show above the planarity fit's clip
    prof, pert = thin_nq_strip
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)  # the curl drift note
        rec = run("nq", pert, prof, IntegratorConfig(dt=0.01, t_end=7.5, record_every=5))
    t, q = np.asarray(rec.times), rec.ledger.column("Q")
    kept = q > 1e-290
    n = np.count_nonzero(kept)
    assert kept[:n].all() and t[n - 1] >= 6.3
    late = (t[:n] > 2.0)[1:]
    rates = (-np.diff(np.log(q[:n])) / np.diff(t[:n]))[late]
    assert rates.max() < 1.01 * rates.min()


def test_nq_curl_drift_warns_once_and_reaches_the_record():
    # q_y = f(z) cos(k y) with q_z = P is no gradient: curl q = f'(z) cos(k y)
    p = WaveParams(eps=0.1, n_minus=1.0, c_plus=1.0)
    g = make_grid(25.0 / p.s, 128, 0.5, 8, p.s)
    prof = solve_wave_kpp(p, g)
    by = 1e-2 * np.exp(-g.z[:, None]**2 / 4) * np.cos(2 * np.pi * g.y[None, :] / g.lam)
    st = (*zero_state(g)[:2], y_modes(by))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        rec = run("nq", st, prof, IntegratorConfig(dt=0.01, t_end=0.04))
    drift = [w for w in caught if "curl drift reached" in str(w.message)]
    assert len(drift) == 1
    curls = [row["curl"] for row in rec.ledger.rows]
    assert len(curls) == 5 and min(curls) > 1e-4
    assert rec.curl_max == max(curls)


# ---------------------------------------------------------------------------
# The time loop runs with subnormals flushed to zero (FTZ and DAZ)
# ---------------------------------------------------------------------------

def _subnormal_product():
    return np.float64(2.0**-1060) * 1.0


def _fenv_bytes(fenv):
    """This thread's floating-point environment as fesetenv restores it:
    the bytes of fegetenv's fenv_t but for the x87 condition codes, which
    fesetenv leaves as the last x87 instruction set them (glibc, x86-64)."""
    buffer = ctypes.create_string_buffer(evolve._FENV_BYTES)
    assert fenv[0](buffer) == 0
    env = bytearray(buffer.raw)
    env[5] &= ~0x47  # C0, C1, C2 and C3: status word bits 8-10 and 14
    return bytes(env)


def test_time_loop_flushes_subnormals_and_restores_the_environment(setup_eps0, monkeypatch):
    with evolve._subnormals_flushed():  # finds whether the flush works here
        pass
    fenv = evolve._fenv
    if not fenv:
        pytest.skip("the flush is a no-op on this platform")
    _, g, prof = setup_eps0
    pert = make_initial_perturbation(g, 1e-4, seed=0)
    seen = []

    def spy(method):
        def spied(self, *args):
            seen.append(_subnormal_product())
            return method(self, *args)
        return spied

    monkeypatch.setattr(_PerturbationSystem, "row", spy(_PerturbationSystem.row))
    monkeypatch.setattr(_PerturbationSystem, "explicit_tendency",
                        spy(_PerturbationSystem.explicit_tendency))
    before = _fenv_bytes(fenv)
    assert _subnormal_product() > 0.0
    rec = run("nonlinear0", pert, prof, IntegratorConfig(dt=0.05, t_end=0.1))
    # three rows and two tendencies, each of them flushed; the caller's
    # environment is back, sticky flags included, and so are subnormals
    assert not rec.blowup and seen == [0.0] * 5
    assert _fenv_bytes(fenv) == before and _subnormal_product() > 0.0
    assert evolve.arithmetic() == "flushed"

    monkeypatch.setattr(evolve, "BLOWUP_FACTOR", 1e-12)  # the guard trips at once
    rec = run("nonlinear0", pert, prof, IntegratorConfig(dt=0.05, t_end=1.0))
    assert rec.blowup
    assert _fenv_bytes(fenv) == before and _subnormal_product() > 0.0

    def failing(self, u):
        raise KeyError("inside a step")

    monkeypatch.setattr(_PerturbationSystem, "explicit_tendency", failing)
    with pytest.raises(KeyError, match="inside a step"):
        run("nonlinear0", pert, prof, IntegratorConfig(dt=0.05, t_end=0.1))
    assert _fenv_bytes(fenv) == before and _subnormal_product() > 0.0


def _subnormals(modes):
    x = np.abs(np.concatenate([a.view(float).ravel() for a in modes]))
    return np.count_nonzero((x > 0.0) & (x < np.finfo(float).tiny))


def _unknown_name(name):
    raise ValueError(f"unrecognized configuration name {name!r}")


# each way the flush falls back to IEEE arithmetic, found afresh: another
# machine, a libc that does not know the name, a failing fegetenv, and
# FTZ and DAZ bits that do not take
@pytest.mark.parametrize("fallback", [
    ("os", "uname", lambda: SimpleNamespace(machine="aarch64")),
    ("os", "confstr", _unknown_name),
    ("evolve", "_fenv", (lambda env: -1, None)),
    ("evolve", "_FTZ_DAZ", 0),
], ids=["not_x86_64", "confstr_raises", "fegetenv_fails", "bits_do_not_take"])
def test_ieee_fallback_gives_the_flushed_ledger(setup_eps0, tmp_path, monkeypatch, fallback):
    _, g, prof = setup_eps0
    pert = make_initial_perturbation(g, 1e-4, seed=0)
    cfg = IntegratorConfig(dt=0.05, t_end=0.5)
    run("nonlinear0", pert, prof, cfg).ledger.to_csv(tmp_path / "flushed.csv")
    monkeypatch.setattr(evolve, "_fenv", None)
    where, name, value = fallback
    monkeypatch.setattr(evolve.os if where == "os" else evolve, name, value)
    ieee = run("nonlinear0", pert, prof, cfg)
    assert evolve.arithmetic() == "ieee" and _subnormals(ieee.final_modes) > 0
    ieee.ledger.to_csv(tmp_path / "ieee.csv")
    assert (tmp_path / "flushed.csv").read_bytes() == (tmp_path / "ieee.csv").read_bytes()


@pytest.mark.parametrize("system, scheme", [("nonlinear0", "imex1"), ("linear_eps", "sbdf2"),
                                            ("nq", "imex1"), ("nq", "sbdf2")])
def test_flushed_run_changes_no_result(request, monkeypatch, tmp_path, system, scheme):
    # the z-tails of the (phi, psi) runs reach the subnormal range within
    # 10-20 steps.  Flushed, they read 0, and a value that took a flushed
    # tail as input moves by less than 2**-1022 times a few; so every entry
    # that agrees to within 2**-1000 agrees bit for bit above 2**-947, and
    # the ledger rows, sums over the whole state, are the same bits.  The
    # nq fluctuation, stepped at true scale, stays normal to t = 2 (Q falls
    # to about 1e-99 with imex1 and 1e-138 with sbdf2, the smallest nonzero
    # entry to about 1e-179 and 1e-194), so there the flush changes no bit
    if system == "nq":
        prof, pert = request.getfixturevalue("thin_nq_strip")
        cfg = IntegratorConfig(dt=0.01, t_end=2.0, scheme=scheme, record_every=5)
    else:
        if system == "nonlinear0":
            p, L_z, n_y, steps = WaveParams(eps=0.0, n_minus=0.25, c_plus=1.0), 50.0, 4, 10
        else:
            p = WaveParams(eps=0.01, n_minus=1.0, c_plus=1.0)
            L_z, n_y, steps = 25.0 / p.s, 8, 20
        g = make_grid(L_z, 512, 0.5, n_y, p.s)
        prof = explicit_wave_eps0(p, g) if p.eps == 0 else solve_wave_kpp(p, g)
        pert = make_initial_perturbation(g, 1e-4, seed=0, mean_zero_y=p.eps > 0)
        cfg = IntegratorConfig(dt=0.05, t_end=0.05 * steps, scheme=scheme)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)  # the nq curl drift note
        flushed = run(system, pert, prof, cfg)
        with monkeypatch.context() as m:
            m.setattr(evolve, "_subnormals_flushed", contextlib.nullcontext)
            ieee = run(system, pert, prof, cfg)

    assert (_subnormals(ieee.final_modes) > 0) == (system != "nq")
    assert _subnormals(flushed.final_modes) == (0 if evolve.arithmetic() == "flushed" else
                                                _subnormals(ieee.final_modes))
    flushed.ledger.to_csv(tmp_path / "flushed.csv")
    ieee.ledger.to_csv(tmp_path / "ieee.csv")
    assert (tmp_path / "flushed.csv").read_bytes() == (tmp_path / "ieee.csv").read_bytes()
    for a, b in zip(flushed.final_modes, ieee.final_modes):
        a, b = a.view(float), b.view(float)
        normal = np.abs(b) >= 2.0**-947
        assert np.array_equal(a[normal], b[normal])
        assert np.all(np.abs(a - b) < 2.0**-1000)
