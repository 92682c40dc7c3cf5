"""qetsim: exact-numerics laboratory for minimal quantum energy teleportation.

Builds the coupled two-qubit model, simulates the measurement /
communication / extraction round, optimises the receiving party's
conditioned operation, and audits teleported-energy claims against the
energy-time uncertainty threshold E*t >= 1 (hbar = 1).
"""

from .audit import (
    AlphaScanResult,
    AuditReport,
    IonMaximum,
    IonParams,
    audit_ion,
    audit_minimal,
    f_alpha,
    ion_maximize,
    ion_output,
    scan_alpha,
    uncertainty_product,
)
from .errors import NumericError, ProtocolError, QetError, ValidationError
from .kernel import Spectrum, evolve_operator, expectation, hermitian_eig, kron, su2
from .locc import ProtocolTrace, run_once, sweep_latency, wire_mode
from .model import (
    GroundState,
    HamiltonianSet,
    ModelParams,
    build_hamiltonians,
    e_a_closed,
    e_b_closed,
    ground_state_closed_form,
    ground_state_numeric,
    hb_expected,
)
from .protocol import (
    BobControl,
    ExtractionResult,
    OutcomeBranch,
    apply_bob,
    evolve_branches,
    extracted_energy,
    infused_energy,
    measure_alice,
    optimize_bob,
)

__version__ = "0.1.0"
