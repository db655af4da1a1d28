"""evolve as it was written before its states stayed on the reached coordinates.

The same reach, block, exponentials and inverse map as the package, so its
states must equal evolve's bit for bit: a list of path columns with one
search of the known exponentials per step, every state expanded into a
d x d matrix.  No state checks.
"""

import numpy as np

from wgqed import lindblad


def listed_path_states(model, rho0, times) -> np.ndarray:
    times = np.asarray(times, dtype=float)
    rho = np.asarray(rho0, dtype=complex)
    d = model.dimension
    (reached, block, sectors, _), x0 = lindblad._reached_block(model, rho)
    exponentials = []
    path = [x0.T]
    for step in np.diff(times):
        for known, exponential in exponentials:
            if abs(step - known) <= 1e-12 * known:
                break
        else:
            exponential = lindblad._expm(block * step)
            exponentials.append((step, exponential))
        path.append(exponential @ path[-1])
    states = np.zeros((times.size, len(x0), d * d), dtype=complex)
    states[..., reached] = sectors.vec(np.swapaxes(path, 1, 2))
    return states.reshape((times.size,) + rho.shape)
