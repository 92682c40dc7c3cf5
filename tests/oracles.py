"""Bob's optimum on explicit branch states, independent of the closed forms.

The product reads E_B in every mode off the closed-form M entries
(`protocol.extraction_curve`); this oracle measures M on the branch states
(`protocol._rotation_costs`) and applies the rotation the Kabsch SVD
returns (`protocol.minimize`), so it shares neither the entries nor the
rank-2 peak formula with the product.
"""

import numpy as np

from qetsim.protocol import _rotation_costs, minimize, optimize_bob


def bob_optimum(branches, hams, mode):
    """E_B of Bob's best control in `mode` on the given branches.

    family: `optimize_bob`.  full: sum_mu p_mu tr((I - R_mu)^T M_mu) with
    R_mu = minimize(M_mu), one rotation per outcome.  shared: the same with
    one R = minimize(sum_mu p_mu M_mu) for both outcomes.
    """
    if mode == "family":
        return optimize_bob(branches, hams).extracted_energy
    probs = branches.probabilities
    m = _rotation_costs(branches.states, hams.h_tot)  # (2, 3, 3)
    if mode == "full":
        r = minimize(m)
    elif mode == "shared":
        r = minimize(np.einsum("m,mjk->jk", probs, m))
    else:
        raise ValueError(f"unknown mode {mode!r}")
    per_branch = np.einsum("...jk,...jk->...", np.eye(3) - r, m)
    return float(per_branch @ probs)
