"""Three-stage Radau IIA for the KPP orbit w'' = accel(w, top - w, w').

Collocation at the nodes _NODES: order 5 and L-stable (Hairer & Wanner,
Solving ODEs II, 1996, IV.5 and IV.8), with RADAU5's simplified Newton
iteration, filtered error estimate, predictive step-size controller and
collocation dense output.  The orbit's w runs from near top to near 0, and
both ends need relative accuracy, so the complement u = top - w is carried
as a variable of its own.  Pure Python on floats: one step of a 2 x 2
system is a few hundred flops, which numpy calls would only slow down.

waves imports this module on the first KPP solve, through waves.solve_ivp,
so that a process that builds only closed-form waves never loads it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# RADAU5's constants.  A^{-1} (A the Butcher matrix) has the real
# eigenvalue _GAMMA and the pair _LAMBDA, conj(_LAMBDA); T holds their
# eigenvectors, scaled to 1 in the last stage, so that W = T^{-1} Z splits
# the simplified Newton system for the stage increments Z into one real and
# one complex solve (_T_* are columns of T, _TI_* rows of T^{-1}).  _ERR
# weighs the stages in the embedded order-3 estimate, gamma (b_hat - b)^T
# A^{-1} with b_hat_0 = 1/gamma; row k of _DENSE gives the coefficient of
# theta^(k+1) in the collocation polynomial through the stages.  They are
# literals, derived from A in test_radau_constants_come_from_the_butcher_matrix:
# numpy.linalg's first eig costs a process about 1.7 MB of RSS.
_S6 = math.sqrt(6.0)
_NODES = ((4.0 - _S6) / 10.0, (4.0 + _S6) / 10.0, 1.0)
_GAMMA = 3.0 + 3.0 ** (2 / 3) - 3.0 ** (1 / 3)
_LAMBDA = complex(3.0 + (3.0 ** (1 / 3) - 3.0 ** (2 / 3)) / 2,
                  (3.0 ** (5 / 6) + 3.0 ** (7 / 6)) / 2)
_T_REAL = (0.0944387624889754, 0.2502131229653337, 1.0)
_T_CPLX = (-0.14125529502095432 + 0.030029194105147355j,
           0.20412935229380028 - 0.38294211275726203j, 1.0)
_TI_REAL = (4.178718591551899, 0.3276828207610611, 0.5233764454994496)
_TI_CPLX = (-2.08935929577595 - 0.2514363174728931j,
            -0.16384141038053057 + 1.2859634749278024j,
            0.2383117772502752 - 0.2980196024141129j)
_ERR = ((-13.0 - 7.0 * _S6) / 3.0, (-13.0 + 7.0 * _S6) / 3.0, -1.0 / 3.0)
_DENSE = (((13.0 + 7.0 * _S6) / 3.0, (13.0 - 7.0 * _S6) / 3.0, 1.0 / 3.0),
          ((-23.0 - 22.0 * _S6) / 3.0, (-23.0 + 22.0 * _S6) / 3.0, -8.0 / 3.0),
          ((10.0 + 15.0 * _S6) / 3.0, (10.0 - 15.0 * _S6) / 3.0, 10.0 / 3.0))
_NEWTON_MAXITER = 7
# Newton stops once its error is kappa = 0.03 of the error norm's unit, that
# is 3 % of tol (Hairer & Wanner IV.8 advise kappa in [0.01, 0.1])
_KAPPA = 0.03


def _step(accel, w, u, v, a0, jw, jv, h, z, scale, faccon, refine):
    """One Radau IIA step of size h for w'' = accel(w, u, w'), u = top - w.

    From (w, u, v = w') with a0 = accel(w, u, v): solves the collocation
    equations for the stage increments z = (zw1, zw2, zw3, zv1, zv2, zv3),
    starting from the guess z, by RADAU5's simplified Newton iteration with
    the Jacobian [[0, 1], [jw, jv]] of the step's start.  Each stage is
    evaluated at (w + zw, u - zw, v + zv), so that w and its complement u
    each keep their relative accuracy.  Increments and the error estimate
    are measured in the rms norm weighted by scale = (sw, sv); faccon is
    RADAU5's convergence factor, carried from step to step.

    Returns (z, err, evaluations, faccon, iterations): err is RADAU5's error
    estimate, refined by one more evaluation when `refine` and err >= 1,
    floored at 1e-10; z is None when the iteration diverges or stalls.
    """
    t1, t2, t3 = _T_REAL
    c1, c2, c3 = _T_CPLX
    r1, r2, r3 = _TI_REAL
    k1, k2, k3 = _TI_CPLX
    iw, iv = 1.0 / scale[0], 1.0 / scale[1]
    gh, lh = _GAMMA / h, _LAMBDA / h
    # the inverses of gh - J and lh - J, row by row
    det, cdet = 1.0 / (gh * (gh - jv) - jw), 1.0 / (lh * (lh - jv) - jw)
    m11, m12, m21, m22 = (gh - jv) * det, det, jw * det, gh * det
    n11, n12, n21, n22 = (lh - jv) * cdet, cdet, jw * cdet, lh * cdet
    zw1, zw2, zw3, zv1, zv2, zv3 = z
    # W = T^{-1} Z: its real row p and complex row q
    pw, pv = r1 * zw1 + r2 * zw2 + r3 * zw3, r1 * zv1 + r2 * zv2 + r3 * zv3
    qw, qv = k1 * zw1 + k2 * zw2 + k3 * zw3, k1 * zv1 + k2 * zv2 + k3 * zv3
    rv0, kv0 = (r1 + r2 + r3) * v, (k1 + k2 + k3) * v
    norm_old = None
    for it in range(1, _NEWTON_MAXITER + 1):
        f1 = accel(w + zw1, u - zw1, v + zv1)
        f2 = accel(w + zw2, u - zw2, v + zv2)
        f3 = accel(w + zw3, u - zw3, v + zv3)
        # T^{-1} F - (Lambda / h) W, where the w rows of F are the stage values of v
        rw = rv0 + pv - gh * pw
        rv = r1 * f1 + r2 * f2 + r3 * f3 - gh * pv
        cw = kv0 + qv - lh * qw
        cv = k1 * f1 + k2 * f2 + k3 * f3 - lh * qv
        dpw, dpv = m11 * rw + m12 * rv, m21 * rw + m22 * rv
        dqw, dqv = n11 * cw + n12 * cv, n21 * cw + n22 * cv
        dqw_n, dqv_n = abs(dqw) * iw, abs(dqv) * iv
        norm = math.sqrt(((dpw * iw) ** 2 + (dpv * iv) ** 2
                          + 2.0 * (dqw_n * dqw_n + dqv_n * dqv_n)) / 6.0)
        if not norm < math.inf:
            return None, 0.0, 3 * it, faccon, it
        if norm_old is not None:
            theta = norm / norm_old
            if theta >= 0.99:
                return None, 0.0, 3 * it, faccon, it
            faccon = theta / (1.0 - theta)
            # the error left after the remaining iterations, predicted from
            # the rate theta; at the last iteration this passes only where
            # the convergence test below does, so the loop ends in a break
            if theta ** (_NEWTON_MAXITER - 1 - it) * faccon * norm > _KAPPA:
                return None, 0.0, 3 * it, faccon, it
        pw, pv, qw, qv = pw + dpw, pv + dpv, qw + dqw, qv + dqv
        zw1 = t1 * pw + 2.0 * (c1 * qw).real
        zw2 = t2 * pw + 2.0 * (c2 * qw).real
        zw3 = t3 * pw + 2.0 * (c3 * qw).real
        zv1 = t1 * pv + 2.0 * (c1 * qv).real
        zv2 = t2 * pv + 2.0 * (c2 * qv).real
        zv3 = t3 * pv + 2.0 * (c3 * qv).real
        norm_old = norm
        if faccon * norm <= _KAPPA:
            break
    e1, e2, e3 = _ERR
    ew = (e1 * zw1 + e2 * zw2 + e3 * zw3) / h
    ev = (e1 * zv1 + e2 * zv2 + e3 * zv3) / h
    # RADAU5's filtered estimate (gh - J)^{-1} (f + E Z / h), f at the step's start
    xw, xv = m11 * (v + ew) + m12 * (a0 + ev), m21 * (v + ew) + m22 * (a0 + ev)
    err = math.sqrt(((xw * iw) ** 2 + (xv * iv) ** 2) / 2.0)
    evaluations = 3 * it
    if refine and err >= 1.0:   # again with f at the start plus the estimate
        fw, fv = v + xv + ew, accel(w + xw, u - xw, v + xv) + ev
        xw, xv = m11 * fw + m12 * fv, m21 * fw + m22 * fv
        err = math.sqrt(((xw * iw) ** 2 + (xv * iv) ** 2) / 2.0)
        evaluations += 1
    return (zw1, zw2, zw3, zv1, zv2, zv3), max(err, 1e-10), evaluations, faccon, it


class _Collocation:
    """Dense output: on step n, from t_n over h_n, the collocation polynomial
    y_n + q_1 theta + q_2 theta^2 + q_3 theta^3 of the Radau step, theta =
    (x - t_n) / h_n.  Built from one record per step, (t_n, h_n, w_n, v_n,
    q_1..q_3 of w, q_1..q_3 of v); called with x, returns the rows (w, w')
    at x."""

    def __init__(self, steps):
        self.t, self.h, *rows = np.array(steps, dtype=float).reshape(-1, 10).T
        self.y0 = np.array(rows[:2])
        self.q = np.array(rows[2:]).reshape(2, 3, -1)

    def __call__(self, x):
        x = np.asarray(x, dtype=float)
        n = np.clip(np.searchsorted(self.t, x, side="right") - 1, 0, len(self.t) - 1)
        theta = (x - self.t[n]) / self.h[n]
        q = self.q[:, :, n]
        return self.y0[:, n] + theta * (q[:, 0] + theta * (q[:, 1] + theta * q[:, 2]))


@dataclass
class OdeSolution:
    """solve's result: the accepted step ends t with their values y
    (rows w and w'), the dense output sol, and the counts of accel and
    Jacobian evaluations as Python ints."""

    t: np.ndarray
    y: np.ndarray
    sol: _Collocation
    success: bool
    message: str
    nfev: int
    njev: int


def solve(accel, jac, y0, span, tol, floor):
    """Adaptive Radau IIA solve of w'' = accel(w, u, w') from (w, u, w') =
    y0 at 0 over [0, span], for an orbit with w in (0, top): u = top - w is
    carried as a variable of its own.

    jac(w, w') returns (d accel / dw, d accel / dw').  The error of a step
    is measured relative to min(w, u) for w and to |w'| for w', so the
    orbit keeps relative accuracy both where it leaves top and where it
    decays to 0; RADAU5's predictive (Gustafsson) controller picks the steps
    at relative tolerance tol.  The solve ends where w first falls to
    `floor`, a terminal event located on the dense output.  Returns t, y,
    sol, success, message and the counts nfev and njev (OdeSolution).
    """
    uround = 2.0 ** -52
    (w, u, v), t = y0, 0.0
    a0 = accel(w, u, v)
    nfev, njev, steps = 1, 0, []
    (n1, n2, _), ((d11, d12, d13), (d21, d22, d23), (d31, d32, d33)) = _NODES, _DENSE
    h, faccon, last, message = 1e-4 * span, 1.0, None, None
    while t < span:
        jw, jv = jac(w, v)
        njev += 1
        scale = (tol * max(min(abs(w), abs(u)), 1e-300), tol * max(abs(v), 1e-300))
        refine = not steps   # the first step refines its estimate, as after a rejection
        while True:
            h = min(h, span - t)
            if h < 1e-14 * max(1.0, t):
                message = f"step size {h:.3g} too small at t = {t:.6g}"
                break
            z = (0.0,) * 6
            if steps:   # the last step's polynomial, extrapolated to the new stages
                r = h / steps[-1][1]
                x1, x2, x3 = 1.0 + n1 * r, 1.0 + n2 * r, 1.0 + r
                z = (x1 * (a1 + x1 * (a2 + x1 * a3)) - end_w,
                     x2 * (a1 + x2 * (a2 + x2 * a3)) - end_w,
                     x3 * (a1 + x3 * (a2 + x3 * a3)) - end_w,
                     x1 * (b1 + x1 * (b2 + x1 * b3)) - end_v,
                     x2 * (b1 + x2 * (b2 + x2 * b3)) - end_v,
                     x3 * (b1 + x3 * (b2 + x3 * b3)) - end_v)
            faccon = max(faccon, uround) ** 0.8
            z, err, evaluations, faccon, its = _step(
                accel, w, u, v, a0, jw, jv, h, z, scale, faccon, refine)
            nfev += evaluations
            if z is None:
                h, refine = 0.5 * h, True
                continue
            fac = min(0.9, 0.9 * (2 * _NEWTON_MAXITER + 1) / (2 * _NEWTON_MAXITER + its))
            grow = min(8.0, max(0.2, fac / err ** 0.25))
            if err < 1.0:
                break
            h, refine = h * (grow if steps else 0.1), True
        if message is not None:
            break
        if last is not None:
            h_acc, err_acc = last
            gus = fac * h / h_acc * (err_acc / err**2) ** 0.25
            grow = min(grow, max(0.2, min(8.0, gus)))
        if refine and steps:   # no growth right after a rejection
            grow = min(grow, 1.0)
        last = (h, max(1e-2, err))
        zw1, zw2, zw3, zv1, zv2, zv3 = z
        a1, a2, a3 = (d11 * zw1 + d12 * zw2 + d13 * zw3, d21 * zw1 + d22 * zw2 + d23 * zw3,
                      d31 * zw1 + d32 * zw2 + d33 * zw3)
        b1, b2, b3 = (d11 * zv1 + d12 * zv2 + d13 * zv3, d21 * zv1 + d22 * zv2 + d23 * zv3,
                      d31 * zv1 + d32 * zv2 + d33 * zv3)
        end_w, end_v = a1 + a2 + a3, b1 + b2 + b3
        steps.append((t, h, w, v, a1, a2, a3, b1, b2, b3))
        if w + zw3 <= floor:
            lo, hi = 0.0, 1.0   # bisect the polynomial's crossing of the floor
            while hi - lo > 1e-15:
                mid = 0.5 * (lo + hi)
                if w + mid * (a1 + mid * (a2 + mid * a3)) > floor:
                    lo = mid
                else:
                    hi = mid
            t += hi * h
            w, v = w + hi * (a1 + hi * (a2 + hi * a3)), v + hi * (b1 + hi * (b2 + hi * b3))
            break
        t = span if h == span - t else t + h
        w, u, v = w + zw3, u - zw3, v + zv3
        a0 = accel(w, u, v)
        nfev += 1
        h *= grow
    ends = np.array([(s[0], s[2], s[3]) for s in steps] + [(t, w, v)]).T
    return OdeSolution(ends[0], ends[1:], _Collocation(steps), message is None,
                       message or "the orbit reached its floor or the end of the span",
                       nfev, njev)
