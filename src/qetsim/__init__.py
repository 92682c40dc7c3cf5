"""qetsim: exact-numerics laboratory for minimal quantum energy teleportation.

Builds the coupled two-qubit model, simulates the measurement /
communication / extraction round, optimises the receiving party's
conditioned operation, and audits teleported-energy claims against the
energy-time uncertainty threshold E*t >= 1 (hbar = 1).

Import each public name from the module that defines it, for example
``from qetsim.locc import run_once``; the package root re-exports nothing.
"""

__version__ = "0.1.0"
