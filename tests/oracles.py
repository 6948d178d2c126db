"""Reference implementations the tests check the library against."""

import numpy as np

# Commutation residual, relative to the propagator's squared norm, past which
# the RK4 reference reports its step as unstable.
DIVERGENCE_TOL = 1e-3


def ode_oracle(aug, t_end, dt=None):
    """Independent trajectory via classical fixed-step RK4 on X' = A_a X.

    Returns ``(times, zp, zo)``: the grid and the plant and observer output
    rows ``zp_selector X`` and ``zo_selector X`` at each of its points.  The
    four RK4 stages of a constant linear system collapse to one degree-4
    polynomial step map, computed once.  The default step
    dt = 1e-3 * 2 pi / ||A_a||_2 resolves the fastest oscillation.  The full
    X is integrated so that its commutation residual can be watched: past
    ``DIVERGENCE_TOL`` a RuntimeError reports an unstable step.
    """
    if not t_end > 0:
        raise ValueError(f"t_end must be positive, got {t_end}")
    norm_a = np.linalg.norm(aug.a_a, 2)
    if dt is None:
        dt = 1e-3 * (2.0 * np.pi / norm_a) if norm_a > 0 else t_end / 1000.0
    if not dt > 0:
        raise ValueError(f"dt must be positive, got {dt}")
    n_steps = max(1, int(np.ceil(t_end / dt - 1e-12)))
    h = t_end / n_steps
    times = np.arange(n_steps + 1) * h

    a, eye = aug.a_a, np.eye(aug.n)
    step = eye + h * a @ (eye + (h / 2) * a @ (eye + (h / 3) * a @ (eye + (h / 4) * a)))

    selectors = np.vstack([aug.zp_selector, aug.zo_selector])
    rows = np.empty((n_steps + 1,) + selectors.shape)
    x = eye.copy()
    check_every = max(1, n_steps // 50)
    for k in range(n_steps + 1):
        rows[k] = selectors @ x
        if k % check_every == 0:
            scale = max(1.0, float(np.linalg.norm(x, "fro") ** 2))
            residual = np.abs(x @ aug.theta_a @ x.T - aug.theta_a).max()
            if not np.isfinite(residual) or residual / scale > DIVERGENCE_TOL:
                raise RuntimeError(
                    f"integration diverged at t = {times[k]:.3g} "
                    f"(commutation residual {residual:.3e}); reduce dt")
        if k < n_steps:
            x = step @ x

    return times, rows[:, :aug.m], rows[:, aug.m:]
