"""Test oracles, independent of the closed forms they check.

`bob_optimum`: the product reads E_B in every mode off the closed-form M
entries (`extraction.extraction_curve`); this oracle measures M on the
branch states (`protocol._rotation_costs`) and applies the rotation the
Kabsch SVD returns (`protocol.minimize`), so it shares neither the entries
nor the rank-2 peak formula with the product.

`ion_output`: the trapped-ion output formula itself, which
`audit.ion_maximize` maximises in closed form.

`reference_round` and `random_params`: the 4x4 reference round and the
parameter draw the state-level tests share.  `golden_commands`: the
manifest of golden files and the commands that print them.
"""

import math
from pathlib import Path

import numpy as np

from qetsim.errors import require_real
from qetsim.model import ModelParams, build_hamiltonians, ground_state_closed_form
from qetsim.protocol import _rotation_costs, measure_alice, minimize, optimize_bob

GOLDEN = Path(__file__).parent / "golden"


def golden_commands():
    """(file name, argv) per line of `golden/COMMANDS`: a golden file's name,
    then the argv of the command that prints it, split on whitespace."""
    lines = (GOLDEN / "COMMANDS").read_text().splitlines()
    return [(name, argv) for name, *argv in map(str.split, lines)]


def reference_round(p):
    """(hams, branches): the 4x4 Hamiltonians and Alice's measured, unevolved
    branches of the closed-form ground state."""
    return build_hamiltonians(p), measure_alice(ground_state_closed_form(p))


def random_params(rng, n=20):
    """n points (h, k) drawn uniformly from [0.1, 10]^2 by `rng`."""
    return [ModelParams(h=h, k=k) for h, k in rng.uniform(0.1, 10.0, size=(n, 2))]


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


def ion_output(ip, e_in):
    """Trapped-ion teleported energy gamma*e_in*exp(-zeta*e_in/nu) at the
    optimal angle, sin^2(2*phi) = 1, for an input energy e_in >= 0."""
    e_in = require_real(e_in, "input energy", ge=0.0)
    return ip.gamma_n * e_in * math.exp(-ip.zeta_n * e_in / ip.nu)
