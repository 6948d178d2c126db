"""Reference implementations the tests check the library against."""

import numpy as np
import orjson
import scipy.linalg

# Commutation residual, relative to the propagator's squared norm, past which
# the RK4 reference reports its step as unstable.
DIVERGENCE_TOL = 1e-3


def ode_oracle(aug, t_end, dt=None):
    """Independent trajectory via classical fixed-step RK4 on X' = A X.

    Returns ``(times, zp, zo)``: the grid and the plant and observer output
    rows ``c X`` and ``zo_selector X`` at each of its points.  The
    four RK4 stages of a constant linear system collapse to one degree-4
    polynomial step map, computed once.  The default step
    dt = 1e-3 * 2 pi / ||A||_2 resolves the fastest oscillation.  The full
    X is integrated so that its commutation residual can be watched: past
    ``DIVERGENCE_TOL`` a RuntimeError reports an unstable step.
    """
    if not t_end > 0:
        raise ValueError(f"t_end must be positive, got {t_end}")
    norm_a = np.linalg.norm(aug.a, 2)
    if dt is None:
        dt = 1e-3 * (2.0 * np.pi / norm_a) if norm_a > 0 else t_end / 1000.0
    if not dt > 0:
        raise ValueError(f"dt must be positive, got {dt}")
    n_steps = max(1, int(np.ceil(t_end / dt - 1e-12)))
    h = t_end / n_steps
    times = np.arange(n_steps + 1) * h

    a, eye = aug.a, np.eye(aug.n)
    step = eye + h * a @ (eye + (h / 2) * a @ (eye + (h / 3) * a @ (eye + (h / 4) * a)))

    selectors = np.vstack([aug.c, aug.zo_selector])
    rows = np.empty((n_steps + 1,) + selectors.shape)
    x = eye.copy()
    check_every = max(1, n_steps // 50)
    for k in range(n_steps + 1):
        rows[k] = selectors @ x
        if k % check_every == 0:
            scale = max(1.0, float(np.linalg.norm(x, "fro") ** 2))
            residual = np.abs(x @ aug.theta @ x.T - aug.theta).max()
            if not np.isfinite(residual) or residual / scale > DIVERGENCE_TOL:
                raise RuntimeError(
                    f"integration diverged at t = {times[k]:.3g} "
                    f"(commutation residual {residual:.3e}); reduce dt")
        if k < n_steps:
            x = step @ x

    return times, rows[:, :aug.m], rows[:, aug.m:]


def full_composite_rows(aug, times):
    """``[c; zo_selector] expm(A t)`` at each of ``times``, with ``scipy.linalg.expm``
    on all n coordinates of the composite, whatever basis ``propagate`` steps in."""
    selectors = np.vstack([aug.c, aug.zo_selector])
    return np.array([selectors @ scipy.linalg.expm(aug.a * t) for t in times])


def stepped_rows(aug, dt, steps):
    """``propagate``'s rows at 0, dt, ..., steps dt by one row product per grid point:
    ``rows[k + 1] = rows[k] E`` with ``E = scipy.linalg.expm(B^T A B dt)`` in the
    composite's basis B, a stepped reference for the closed-form record."""
    b = aug.basis
    e = scipy.linalg.expm(b.T @ aug.a @ b * dt)
    rows = np.empty((steps + 1, 2 * aug.m, b.shape[1]))
    rows[0] = np.vstack([aug.c, aug.zo_selector]) @ b
    for k in range(steps):
        np.matmul(rows[k], e, out=rows[k + 1])
    return rows


def integrated_average(aug, rows, times):
    """``(1/t_k) integral_0^{t_k}`` of the observer rows ``rows[:, m:]`` (in the
    composite's basis B) that ``propagate`` recorded, entry 0 the rows at 0.

    Each step h integrates its first point's rows exactly through the top-right
    block ``integral_0^h e^{B^T A B s} ds`` of ``scipy.linalg.expm([[B^T A B h,
    I h], [0, 0]])`` (Van Loan 1978, IEEE TAC 23(3)), taken for every distinct
    float step on its own, with no grouping of nearly equal steps.
    """
    b, m = aug.basis, aug.m
    d = b.shape[1]
    reduced = b.T @ aug.a @ b
    steps = np.diff(times)
    block = np.zeros((2 * d, 2 * d))
    increments = np.empty((steps.size, m, d))
    for h in np.unique(steps):
        block[:d, :d], block[:d, d:] = reduced * h, np.eye(d) * h
        at = steps == h
        increments[at] = rows[:-1][at, m:] @ scipy.linalg.expm(block)[:d, d:]
    return np.concatenate([rows[:1, m:],
                           np.cumsum(increments, axis=0) / np.asarray(times)[1:, None, None]])


def span_rank(theta, r):
    """rank [R, Theta R] by its singular values, counting those above
    max_dim * sigma_max * 1e-12: the paper-level reference for the plant's n_p1."""
    cr = np.hstack([r, theta @ r])
    s = np.linalg.svd(cr, compute_uv=False)
    return int(np.count_nonzero(s > s[0] * (max(cr.shape) * 1e-12)))


def average_error_reference(obs, c_p, times):
    """``|zo_avg(T) - [C_p, 0]|_F`` from Van Loan's block exponential.

    The top-right block of ``expm([[A_o, I], [0, 0]] T)`` is
    ``integral_0^T e^{A_o t} dt`` (Van Loan 1978, IEEE TAC 23(3)), taken with
    ``scipy.linalg.expm`` for each T on its own, so only moderate
    ``T ||A_o||`` keeps it accurate.  The error is then
    ``[D, 0] + C_o (integral / T) X`` with ``X = [R_o^{-1} R_c^T, I]`` and
    ``D = -C_o R_o^{-1} R_c^T - C_p``; at T = 0 the integral over T is I.
    """
    n_o = obs.n_o
    centre = np.linalg.solve(obs.r_o, obs.r_c.T)
    x = np.hstack([centre, np.eye(n_o)])
    offset = np.hstack([-obs.c_o @ centre - c_p, np.zeros((obs.m, n_o))])
    block = np.zeros((2 * n_o, 2 * n_o))
    block[:n_o, :n_o] = 2.0 * obs.theta_o @ obs.r_o
    block[:n_o, n_o:] = np.eye(n_o)
    errors = []
    for t in times:
        mean = np.eye(n_o) if t == 0 else scipy.linalg.expm(block * t)[:n_o, n_o:] / t
        errors.append(np.linalg.norm(offset + obs.c_o @ mean @ x))
    return np.array(errors)


def trajectory_csv_bytes(times, blocks, name):
    """The bytes of a trajectory CSV formed in two passes per block: a 2-D orjson dump of
    the times beside the block's rows, its outer brackets cut, then each ``],[`` replaced
    by a newline."""
    times, k = np.asarray(times).reshape(-1, 1), 0
    m, n = blocks[0].shape[1:]
    text = [",".join(["t"] + [f"{name}_{i + 1}_x{j + 1}" for i in range(m)
                              for j in range(n)]).encode() + b"\n"]
    for block in blocks:
        values = np.concatenate((times[k:k + len(block)], np.reshape(block, (len(block), -1))),
                                axis=1, dtype=float)
        # numpy may lay out the join of a broadcast block in another order than C's
        values = np.ascontiguousarray(values)
        dump = orjson.dumps(values, option=orjson.OPT_SERIALIZE_NUMPY)
        text.append(dump[2:-2].replace(b"],[", b"\n") + b"\n")
        k += len(block)
    return b"".join(text)
