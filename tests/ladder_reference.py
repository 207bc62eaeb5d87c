"""List-based truncation ladder: the reference the streaming reducer must match.

This is the whole-trajectory computation that diagnostics.TruncationReducer
replaced, kept here so the reducer can be checked against it float for float.
"""

import numpy as np

from activeflow.diagnostics import truncation_levels
from activeflow.errors import WindowTooShort


def reference_ladder(times, fields, grads, cell_volume, window, k_max):
    """(window_times, energies) of the truncations (f - C_k)_+ from full lists."""
    t_a, t_b = window
    inside = [i for i, t in enumerate(times) if t_a - 1e-12 <= t <= t_b + 1e-12]
    if len(inside) < k_max + 1:
        raise WindowTooShort(
            f"need at least {k_max + 1} snapshots in window, found {len(inside)}"
        )
    mapped = []
    energies = []
    for k, c_k in enumerate(truncation_levels(k_max)):
        t_k = -0.5 * (1.0 + 2.0**-k)
        w_k = t_a + (t_k + 1.0) * (t_b - t_a)
        mapped.append(w_k)
        idx = [i for i in inside if times[i] >= w_k - 1e-12]
        sup_term = 0.0
        grad_term = 0.0
        for j, i in enumerate(idx):
            cut = fields[i] - c_k
            above = cut > 0.0
            trunc = np.where(above, cut, 0.0)
            sup_term = max(sup_term, float((trunc**2).sum()) * cell_volume)
            if j + 1 < len(idx):
                dt = times[idx[j + 1]] - times[i]
                g_sq = sum(
                    float((np.where(above, g, 0.0) ** 2).sum()) for g in grads[i]
                )
                grad_term += dt * g_sq * cell_volume
        energies.append(sup_term + grad_term)
    return tuple(mapped), tuple(energies)
