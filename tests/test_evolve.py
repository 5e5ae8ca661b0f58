import re
import tracemalloc
import warnings
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest
from scipy.linalg import cho_solve_banded, cholesky_banded

from oracles import cole_hopf_state, perturbation_state, transverse_energy, zero_field
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
from stripwave.grid import (
    ScalarField,
    VectorField,
    make_grid,
    y_fluctuation_values,
    y_modes,
    y_values,
)
from stripwave.transforms import (
    ColeHopfState,
    PerturbationState,
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
    return PerturbationState(
        phi=VectorField(zero_field(g), zero_field(g)), psi=zero_field(g))


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
    st = perturbation_state(g, one_step("nonlinear0", zero_state(g), prof, 0.05))
    assert st.phi.max_abs() == 0.0
    assert st.psi.max_abs() == 0.0


def test_zero_state_fixed_point_linear(setup_linear):
    _, g, prof = setup_linear
    st = perturbation_state(g, one_step("linear_eps", zero_state(g), prof, 0.02))
    assert st.phi.max_abs() == 0.0
    assert st.psi.max_abs() == 0.0


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


@pytest.mark.parametrize("system, setup", [
    ("nonlinear0", "setup_eps0"), ("linear_eps", "setup_linear"), ("nq", "setup_linear"),
])
def test_run_rejects_initial_data_on_another_strip(request, no_factorization, system, setup):
    # data drawn on a strip of width 0.25 would be read with the wavenumbers
    # of the profile's width 0.5: rejected before anything is factored
    p, g, prof = request.getfixturevalue(setup)
    other = make_grid(g.L_z, g.n_z, 0.25, g.n_y, g.s)
    init = make_initial_perturbation(other, 1e-4, seed=0)
    with pytest.raises(ValueError, match="^the initial data lie on Grid.*lam=0.25.*"
                                         "the profile on Grid.*lam=0.5"):
        run(system, init, prof, IntegratorConfig(dt=0.01, t_end=0.01))


def _flat(state):
    return np.concatenate([state.phi.z.values.ravel(),
                           state.phi.y.values.ravel(),
                           state.psi.values.ravel()])


def _scaled(pert, a):
    g = pert.grid
    phi_z, phi_y, psi = (ScalarField(g, a * f.values) for f in (pert.phi.z, pert.phi.y, pert.psi))
    return PerturbationState(phi=VectorField(phi_z, phi_y), psi=psi)


def _final(system, pert, prof, dt, scheme, transport, t_end):
    cfg = IntegratorConfig(dt=dt, t_end=t_end, scheme=scheme,
                           record_every=10**9, transport=transport)
    return perturbation_state(prof.grid, run(system, pert, prof, cfg).final_modes)


def test_temporal_self_convergence_first_order(setup_eps0_wide):
    # Richardson self-convergence: successive dt-halvings of the imex1
    # trajectory differ by a factor ~2
    _, g, prof = setup_eps0_wide
    pert = make_initial_perturbation(g, 1e-4, seed=0)
    sols = [_flat(_final("nonlinear0", pert, prof, dt, "imex1", "upwind", 0.4))
            for dt in (0.02, 0.01, 0.005)]
    e1 = np.linalg.norm(sols[0] - sols[1])
    e2 = np.linalg.norm(sols[1] - sols[2])
    assert 1.6 < e1 / e2 < 2.5


def test_temporal_self_convergence_second_order(setup_eps0_wide):
    _, g, prof = setup_eps0_wide
    pert = make_initial_perturbation(g, 1e-4, seed=0)
    sols = [_flat(_final("nonlinear0", pert, prof, dt, "sbdf2", "central", 0.4))
            for dt in (0.02, 0.01, 0.005)]
    e1 = np.linalg.norm(sols[0] - sols[1])
    e2 = np.linalg.norm(sols[1] - sols[2])
    assert 3.0 < e1 / e2 < 5.0

    # the (n, q) system; at dt = 0.02..0.005 its ratio (about 2.3) is still
    # pre-asymptotic
    p = WaveParams(eps=0.1, n_minus=1.0, c_plus=1.0)
    g = make_grid(25.0 / p.s, 256, 2.0, 8, p.s)
    prof = solve_wave_kpp(p, g)
    pert = make_initial_perturbation(g, 1e-4, seed=0, mean_zero_y=True)
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
        fa = _flat(_final("nonlinear0", _scaled(base, np.sqrt(a)), prof,
                          0.05, "imex1", "upwind", 1.0))
        fh = _flat(_final("nonlinear0", _scaled(base, np.sqrt(a) / 2), prof,
                          0.05, "imex1", "upwind", 1.0))
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
    pert = PerturbationState(
        phi=VectorField(ScalarField(g, amp * bump), zero_field(g)),
        psi=ScalarField(g, amp * bump))
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
    comb = PerturbationState(
        phi=VectorField(
            ScalarField(g, ca * a.phi.z.values + cb * b.phi.z.values),
            ScalarField(g, ca * a.phi.y.values + cb * b.phi.y.values)),
        psi=ScalarField(g, ca * a.psi.values + cb * b.psi.values))
    sa, sb, sc = (perturbation_state(g, one_step("linear_eps", s, prof, 0.02))
                  for s in (a, b, comb))
    err = max(
        np.max(np.abs(sc.phi.z.values - ca * sa.phi.z.values - cb * sb.phi.z.values)),
        np.max(np.abs(sc.phi.y.values - ca * sa.phi.y.values - cb * sb.phi.y.values)),
        np.max(np.abs(sc.psi.values - ca * sa.psi.values - cb * sb.psi.values)))
    scale = max(sc.phi.max_abs(), sc.psi.max_abs())
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
    """The wave as a state on g, its samples moved `shift` nodes to the left
    and padded with their last value."""
    def planar(v):
        v = np.concatenate([v[shift:], np.full(shift, v[-1])])
        return ScalarField(g, np.repeat(v[:, None], g.n_y, axis=1))

    return ColeHopfState(n=planar(prof.N), q=VectorField(planar(prof.P_z), zero_field(g)))


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


def test_nq_run_rejects_a_state_it_cannot_deviate(nq_setup):
    p, g, prof = nq_setup
    with pytest.raises(TypeError, match=r"cannot build \(n, q\) deviation from "
                                        r"<class 'stripwave.grid.ScalarField'>"):
        run("nq", zero_field(g), prof, IntegratorConfig(dt=0.01, t_end=0.01))


def test_nq_mass_conservation(nq_setup):
    p, g, prof = nq_setup
    pert = make_initial_perturbation(g, 1e-6, seed=8, mean_zero_y=True)
    cfg = IntegratorConfig(dt=0.01, t_end=1.0, record_every=10)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        rec = run("nq", pert, prof, cfg)
    mass = rec.ledger.column("mass")
    assert np.max(np.abs(mass - mass[0])) < 1e-8


@pytest.mark.parametrize("t_end", [0.01, 0.2])
def test_nq_ledger_q_matches_the_physical_transverse_energy(nq_setup, t_end):
    # the ledger's Q, summed over the stepper's y-modes at its unit scale,
    # against Q of the final state's y-node values with the y-mean removed;
    # Q is below 1e-9, so approx's default abs of 1e-12 would hide a relative
    # error of 1e-3: abs = 0
    p, g, prof = nq_setup
    pert = make_initial_perturbation(g, 1e-4, seed=2, mean_zero_y=True)
    rec = run("nq", pert, prof, IntegratorConfig(dt=0.01, t_end=t_end, record_every=10))
    q = rec.ledger.column("Q")[-1]
    assert q == pytest.approx(transverse_energy(cole_hopf_state(prof, rec.final_modes)),
                              rel=1e-9, abs=0.0)


def _translation_drift(g, prof):
    """The y-mean of a at t = 0.5 from the wave moved a whole number of
    nodes (about 0.5) to the left: its largest departure from where it
    started, relative to that start."""
    init = wave_state(g, prof, shift=round(0.5 / g.dz))
    rec = run("nq", init, prof, IntegratorConfig(dt=0.005, t_end=0.5, record_every=100))
    a = rec.final_modes[0][:, 0].real  # the y-mean column
    start = init.n.values[:, 0] - prof.N
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
    psi = pert.psi.values.copy()
    psi[g.n_z // 2, 3] = 1e100
    spiked = PerturbationState(phi=pert.phi, psi=ScalarField(g, psi))
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
    pert = make_initial_perturbation(g, 1e-6, seed=9, mean_zero_y=True)
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
    u = model.arrays(init)
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

    def with_psi_at(value):
        psi = pert.psi.values.copy()
        psi[g.n_z // 2, 3] = value
        return PerturbationState(phi=pert.phi, psi=ScalarField(g, psi))

    with pytest.raises(IntegratorBlowup, match="non-finite values in psi at t = 0"):
        one_step("nonlinear0", with_psi_at(np.nan), prof, 0.05)
    # two fields at once: both named, in the system's order
    phi_z = pert.phi.z.values.copy()
    phi_z[0, 0] = np.inf
    both = PerturbationState(phi=VectorField(ScalarField(g, phi_z), pert.phi.y),
                             psi=with_psi_at(np.nan).psi)
    with pytest.raises(IntegratorBlowup, match="non-finite values in phi_z, psi at t = 0$"):
        one_step("nonlinear0", both, prof, 0.05)

    p, gq, profq = nq_setup
    by = np.zeros((gq.n_z, gq.n_y))
    by[gq.n_z // 2, 5] = np.inf
    st = wave_state(gq, profq)
    st = ColeHopfState(n=st.n, q=VectorField(st.q.z, ScalarField(gq, by)))
    with pytest.raises(IntegratorBlowup, match="non-finite values in b_y at t = 0"):
        one_step("nq", st, profq, 0.01)


# ---------------------------------------------------------------------------
# One loop, two horizons: run(cfg(2T), head=T) against two separate runs
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def small_strips():
    strips = {}
    for system, p in (("nonlinear0", WaveParams(eps=0.0, n_minus=0.25, c_plus=1.0)),
                      ("linear_eps", WaveParams(eps=0.05, n_minus=1.0, c_plus=1.0))):
        g = make_grid(25.0 / p.s, 128, 0.5, 8, p.s)
        prof = explicit_wave_eps0(p, g) if p.eps == 0 else solve_wave_kpp(p, g)
        pert = make_initial_perturbation(g, 1e-4, seed=0, mean_zero_y=p.eps > 0)
        strips[system] = prof, pert
    return strips


def _assert_same_record(a, b, tmp_path, rescales=True):
    """a and b agree bit for bit; rescales=False leaves out the count of
    rescalings, for a run compared with one that never rescales."""
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
    counts = ["steps", "solves", "factorizations"] + (["rescales"] if rescales else [])
    assert [getattr(a.counters, k) for k in counts] == [getattr(b.counters, k) for k in counts]


def _head_and_separate(system, strip, t_head, **kwargs):
    prof, pert = strip
    cfg = IntegratorConfig(t_end=2 * t_head, **kwargs)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        rec = run(system, pert, prof, cfg, head=t_head)
        alone = run(system, pert, prof, IntegratorConfig(t_end=t_head, **kwargs))
        full = run(system, pert, prof, cfg)
    return rec, alone, full


# T / dt: on the record_every = 4 grid (8), off it (10), not an integer (5.5,
# so that the head rounds up to 6 steps) and zero
@pytest.mark.parametrize("t_head", [0.08, 0.1, 0.055, 0.0])
@pytest.mark.parametrize("scheme, transport", [("imex1", "upwind"), ("sbdf2", "central")])
@pytest.mark.parametrize("system", ["nonlinear0", "linear_eps"])
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
    psi = pert.psi.values.copy()
    psi[g.n_z // 2, 3] = 1e100
    spiked = PerturbationState(phi=pert.phi, psi=ScalarField(g, psi))
    monkeypatch.setattr(evolve, "BLOWUP_FACTOR", 1e300)
    rec, alone, full = _head_and_separate("nonlinear0", (prof, spiked), 1.0, dt=0.05)
    assert rec.head.blowup and rec.blowup_time == rec.head.blowup_time < 1.0
    _assert_same_record(rec.head, alone, tmp_path)
    _assert_same_record(rec, full, tmp_path)


def test_nq_head_record_keeps_its_own_curl_drift(tmp_path):
    p = WaveParams(eps=0.1, n_minus=1.0, c_plus=1.0)
    g = make_grid(25.0 / p.s, 128, 0.5, 8, p.s)
    prof = solve_wave_kpp(p, g)
    pert = make_initial_perturbation(g, 1e-4, seed=0, mean_zero_y=True)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        rec, alone, full = _head_and_separate("nq", (prof, pert), 0.03, dt=0.01,
                                              record_every=4)
    # the curl drift peaks at step 3, the head's own off-grid last row,
    # which the rows of the full run (steps 0, 4, 6) never see
    assert alone.curl_max > full.curl_max > 0.0
    _assert_same_record(rec.head, alone, tmp_path)
    _assert_same_record(rec, full, tmp_path)


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
    return prof, lambda seed: make_initial_perturbation(g, 1e-3, seed=seed,
                                                        mean_zero_y=eps > 0)


def _model(system, prof, scheme="imex1"):
    config = IntegratorConfig(dt=0.01, t_end=0.01, scheme=scheme)
    return (_NqSystem if system == "nq" else _PerturbationSystem)(prof, config)


@pytest.mark.parametrize("system", ["nq", "nonlinear0"])
def test_returned_arrays_outlive_the_next_call(system):
    prof, pert = _strip(system, 128, 8)
    model = _model(system, prof)
    u1, u2 = model.arrays(pert(1)), model.arrays(pert(2))
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
        u = model.arrays(pert(0))
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
# Unit scale: the (n, q) fluctuation is rescaled by exact powers of two
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def thin_nq_strip():
    # lambda = 0.25: Q falls by about 1e-90 over t = 2, so the fluctuation
    # (peak about 2^-20 at t = 0) sinks below 2^-32 again and again
    p = WaveParams(eps=0.1, n_minus=1.0, c_plus=1.0)
    g = make_grid(25.0 / p.s, 128, 0.25, 8, p.s)
    return solve_wave_kpp(p, g), make_initial_perturbation(g, 1e-4, seed=0,
                                                           mean_zero_y=True)


@pytest.mark.parametrize("options", [
    {"scheme": "imex1"},
    {"scheme": "sbdf2", "transport": "central"},
])
def test_rescaled_nq_run_is_bitwise_the_unscaled_run(thin_nq_strip, tmp_path, monkeypatch,
                                                     options):
    prof, pert = thin_nq_strip
    cfg = IntegratorConfig(dt=0.01, t_end=2.0, record_every=5, snapshot_every=4, **options)

    def nq_run(config, **kwargs):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)  # the curl drift note
            return run("nq", pert, prof, config, **kwargs)

    rec = nq_run(cfg, head=1.23)
    alone = nq_run(replace(cfg, t_end=1.23))
    with monkeypatch.context() as m:
        m.setattr(evolve, "_RESCALE_FLOOR", 0.0)
        plain = nq_run(cfg)
    assert rec.counters.rescales >= 2 and plain.counters.rescales == 0
    assert min(rec.ledger.column("Q")) > 1e-290
    _assert_same_record(rec, plain, tmp_path, rescales=False)
    _assert_same_record(rec.head, alone, tmp_path)
    assert rec.head.counters.rescales == alone.counters.rescales >= 1


def test_rescaling_moves_the_peak_into_unit_range_both_ways(thin_nq_strip):
    prof, pert = thin_nq_strip
    model = _model("nq", prof)

    def times(factor, u):
        """u with its fluctuation columns times factor."""
        return tuple(np.concatenate([x[:, :1], x[:, 1:] * factor], axis=1) for x in u)

    def settled(u):
        true = [x.copy() for x in model.modes(u)]
        u, shift = model.settle(u)
        # settle changes the scale, never the values that modes() reports
        assert all(np.array_equal(x, y) for x, y in zip(model.modes(u), true))
        return u, shift, max(np.max(np.abs(x[:, 1:])) for x in u)

    data = model.arrays(pert)
    u, shift, peak = settled(data)
    assert shift == 0 and model.exponent == 0  # 2^-32 < peak at t = 0

    # sinking below 2^-32: rescaled to a peak in [1/2, 1), the means untouched
    u, shift, peak = settled(times(2.0**-40, data))
    assert model.exponent == -shift < -40 and 0.5 <= peak < 1.0 and model.counters.rescales == 1
    assert all(np.array_equal(x[:, 0], y[:, 0]) for x, y in zip(u, data))

    # rising above 2^32 while exponent < 0: back towards true scale, never past it
    exponent = model.exponent
    u, shift, peak = settled(times(2.0**36, u))
    assert shift == -36 and model.exponent == exponent + 36 < 0 and 0.5 <= peak < 1.0
    u, shift, peak = settled(times(2.0**100, u))
    assert model.exponent == 0 and peak > 2.0**32 and model.counters.rescales == 3
    assert settled(times(2.0**40, u))[1] == 0 and model.counters.rescales == 3


@pytest.mark.parametrize("exponent", [0, -300, -700, -1074, -1100])
def test_products_scale_bit_for_bit_as_ldexp(monkeypatch, exponent):
    # fluctuation rows that fall from 1e6 to 1e-150 along z, as a rescaled
    # (n, q) state's tails do: scaled by 2**exponent, their products turn
    # subnormal in the tails, and at -1100 only the largest stay nonzero.
    # Factors 0 and 1 have zero y-means, so that nothing in the normal range
    # is added to their product; factor 2 brings the y-mean terms.
    g = make_grid(10.0, 64, 0.5, 8, 1.0)
    rng = np.random.default_rng(3)
    decay = np.logspace(6, -150, g.n_z)[:, None]
    factors = [y_modes(decay * rng.standard_normal((g.n_z, g.n_y))) for _ in range(3)]
    factors[0][:, 0] = factors[1][:, 0] = 0.0
    factors[2][:, 0] = rng.standard_normal(g.n_z)
    products = evolve._Products(g, 3)
    products.load(factors)
    terms = ([(0, 1)], [(0, 1), (1, 2), (2, 2)])
    got = [products.term(pairs, exponent).copy() for pairs in terms]
    monkeypatch.setattr(evolve, "_times_power_of_two", lambda x, e: np.ldexp(x, e, out=x))
    for pairs, x in zip(terms, got):
        assert x.tobytes() == products.term(pairs, exponent).tobytes()
    pair = np.ldexp(y_fluctuation_values(factors[0], g) * y_fluctuation_values(factors[1], g),
                    exponent)
    subnormal = (pair != 0) & (np.abs(pair) < np.finfo(float).tiny)
    assert np.any(subnormal) == (exponent < 0)


@pytest.mark.parametrize("exponent", [33, -33, -1074, -1100, 1030])
def test_fluctuation_scales_bit_for_bit_as_ldexp(exponent):
    # y-modes whose rows fall from 1e300 to subnormal 1e-320 along z: the
    # scaled fluctuation columns overflow, turn subnormal or underflow at
    # the ends, and column 0 (the y-means) is never touched
    g = make_grid(10.0, 64, 0.5, 8, 1.0)
    decay = np.logspace(300, -320, g.n_z)[:, None]
    x = y_modes(decay * np.random.default_rng(4).standard_normal((g.n_z, g.n_y)))
    assert np.any(np.abs(x.view(float)[:, 2:]) < np.finfo(float).tiny)
    want = x.copy()
    parts = want.view(float)[:, 2:]
    with np.errstate(over="ignore"):
        np.ldexp(parts, exponent, out=parts)
        got = evolve._ldexp_fluctuation(x.copy(), exponent)
    assert got.tobytes() == want.tobytes()
    assert np.array_equal(got[:, 0], x[:, 0])


def test_nq_curl_drift_warns_once_and_reaches_the_record():
    # q_y = f(z) cos(k y) with q_z = P is no gradient: curl q = f'(z) cos(k y)
    p = WaveParams(eps=0.1, n_minus=1.0, c_plus=1.0)
    g = make_grid(25.0 / p.s, 128, 0.5, 8, p.s)
    prof = solve_wave_kpp(p, g)
    by = 1e-2 * np.exp(-g.z[:, None]**2 / 4) * np.cos(2 * np.pi * g.y[None, :] / g.lam)
    st = ColeHopfState(
        n=ScalarField(g, np.repeat(prof.N[:, None], g.n_y, axis=1)),
        q=VectorField(ScalarField(g, np.repeat(prof.P_z[:, None], g.n_y, axis=1)),
                      ScalarField(g, by)))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        rec = run("nq", st, prof, IntegratorConfig(dt=0.01, t_end=0.04))
    drift = [w for w in caught if "curl drift reached" in str(w.message)]
    assert len(drift) == 1
    curls = [row["curl"] for row in rec.ledger.rows]
    assert len(curls) == 5 and min(curls) > 1e-4
    assert rec.curl_max == max(curls)
