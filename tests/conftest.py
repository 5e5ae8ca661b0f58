"""Fixtures shared by more than one test file."""

import warnings

import numpy as np
import pytest

from oracles import divergence, gradient, perturbation_state
from stripwave.evolve import IntegratorConfig, run
from stripwave.grid import make_grid, y_values
from stripwave.transforms import make_initial_perturbation
from stripwave.waves import WaveParams, solve_wave_kpp


@pytest.fixture(scope="session")
def cross_solver_mismatch():
    """The linearized (phi, psi) trajectory against the nonlinear (n, q)
    solver at matching small amplitude (eps = 0.05, t = 0.5), at 512 points
    with dt = 0.02 and at 1024 with dt = 0.01: ((err, scale), (err, scale)),
    err the largest mismatch of n - N and of both q - P components and scale
    the largest |n - N| or |q_z - P|, of the linearized run."""
    p = WaveParams(eps=0.05, n_minus=1.0, c_plus=1.0)

    def mismatch(n_z, dt):
        g = make_grid(25.0 / p.s, n_z, 2.0, 8, p.s)
        prof = solve_wave_kpp(p, g)
        pert = make_initial_perturbation(g, 1e-8, seed=6, mean_zero_y=True, eps=p.eps)
        cfg = IntegratorConfig(dt=dt, t_end=0.5, record_every=10**9, transport="central")
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            r1 = run("linear_eps", pert, prof, cfg)
            r2 = run("nq", pert, prof, cfg)
        f = perturbation_state(g, r1.final_modes)
        a1 = divergence(f.phi).values
        gp = gradient(f.psi)
        a2, bz2, by2 = (y_values(x, g) for x in r2.final_modes)
        err = max(np.max(np.abs(a1 - a2)),
                  np.max(np.abs(gp.z.values - bz2)),
                  np.max(np.abs(gp.y.values - by2)))
        scale = max(np.max(np.abs(a1)), np.max(np.abs(gp.z.values)))
        return err, scale

    return mismatch(512, 0.02), mismatch(1024, 0.01)
