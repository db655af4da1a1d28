"""Adaptive ODE reference the exact propagator of the master equation is checked against."""

import numpy as np
from dense_oracle import dense_liouvillian
from scipy.integrate import solve_ivp


def dop853_states(model, rho0, times, rtol=1e-9, atol=1e-12) -> list[np.ndarray]:
    """Hermitized state matrices on a time grid, integrating vec(rho)' = L vec(rho) with DOP853.

    The initial state is taken at times[0]; the Liouvillian is the dense
    np.kron one of dense_oracle.dense_liouvillian.
    """
    times = np.asarray(times, dtype=float)
    d = model.dimension
    liouville = dense_liouvillian(model)
    sol = solve_ivp(
        lambda _t, y: liouville @ y,
        (times[0], times[-1]),
        np.asarray(rho0, dtype=complex).reshape(-1),
        method="DOP853",
        rtol=rtol,
        atol=atol,
        t_eval=times,
    )
    if not sol.success:
        raise RuntimeError(f"reference integration failed: {sol.message}")
    return [(m + m.conj().T) / 2.0 for m in (sol.y[:, k].reshape(d, d) for k in range(times.size))]
