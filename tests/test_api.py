"""The public boundary: every exported name resolves, bad scalars are
rejected with ValidationError, and any other real computes like its float.

Benchmarks and tracers look these names up by module and attribute, so a
rename or removal shows up here rather than as a failed traced run.
"""

import dataclasses
import importlib
import importlib.util
from decimal import Decimal
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from qetsim import audit, extraction, kernel, locc, model, protocol, report
from qetsim.audit import (
    IonParams,
    audit_ion,
    audit_minimal,
    f_alpha,
    ion_maximize,
    scan_alpha,
    uncertainty_product,
)
from qetsim.errors import ValidationError
from qetsim.kernel import ID4, evolve_operator, su2
from qetsim.model import (
    ModelParams,
    build_hamiltonians,
    ground_state_closed_form,
    hb_expected,
)
from qetsim.protocol import BobControl, apply_bob, evolve_branches, measure_alice

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


@pytest.mark.parametrize(
    "module",
    [kernel, model, extraction, protocol, locc, audit, report],
    ids=lambda m: m.__name__,
)
def test_all_names_resolve(module):
    assert [name for name in module.__all__ if not hasattr(module, name)] == []


def test_traced_names_resolve():
    # tracing.py imports only the standard library, so it loads by path
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    missing = [
        (modname, attr)
        for _span, modname, attr in tracing.TARGETS
        if not hasattr(importlib.import_module(modname), attr)
    ]
    assert missing == []


P = ModelParams(3, 4)
ION = IonParams(0.5, 2.0, 1.0)


@pytest.mark.parametrize(
    "call",
    [
        pytest.param(lambda: audit_minimal(P, "1"), id="audit_minimal-str"),
        pytest.param(lambda: audit_minimal(P, 1j), id="audit_minimal-complex"),
        pytest.param(lambda: audit_ion(ION, None), id="audit_ion-None"),
        pytest.param(lambda: IonParams("a", 1, 1), id="IonParams-str"),
        pytest.param(lambda: hb_expected(P, "1"), id="hb_expected-str"),
        pytest.param(lambda: evolve_operator(ID4, "1"), id="evolve_operator-str"),
        pytest.param(lambda: su2("a", (0, 1, 0)), id="su2-str"),
        pytest.param(lambda: BobControl.family("x"), id="family-str"),
        pytest.param(lambda: uncertainty_product("a", 1.0), id="product-str"),
        pytest.param(lambda: scan_alpha("a", 2.0, 10), id="scan_alpha-str"),
        pytest.param(lambda: scan_alpha(0.1, 2.0, 10.5), id="scan_alpha-points"),
        pytest.param(lambda: ModelParams.from_alpha("2"), id="from_alpha-str"),
        pytest.param(lambda: ModelParams(10**400, 1), id="ModelParams-bigint"),
        pytest.param(lambda: audit_minimal(P, 10**400), id="audit_minimal-bigint"),
        pytest.param(lambda: f_alpha(10**400), id="f_alpha-bigint"),
    ],
)
def test_scalar_that_is_not_a_finite_real_is_rejected(call):
    with pytest.raises(ValidationError):
        call()


HAMS = build_hamiltonians(P)
BRANCHES = measure_alice(ground_state_closed_form(P))


def test_returned_arrays_are_read_only():
    # callers share the arrays a result holds without copying
    evolved = evolve_branches(BRANCHES, HAMS, 0.3)
    after = apply_bob(evolved, BobControl.family(0.2))
    eigenvalues, eigenvectors = kernel.hermitian_eig(HAMS.h_tot)
    arrays = {
        "ground state": ground_state_closed_form(P),
        **{name: getattr(HAMS, name) for name in ("h_a", "h_b", "v", "h_tot")},
        "eigenvalues": eigenvalues,
        "eigenvectors": eigenvectors,
    }
    steps = (("measured", BRANCHES), ("evolved", evolved), ("applied", after))
    for step, branches in steps:
        arrays[f"{step} probabilities"] = branches.probabilities
        arrays[f"{step} states"] = branches.states
    assert [name for name, a in arrays.items() if a.flags.writeable] == []


def plain(result):
    """Dataclasses, and tuples of them, as nested tuples for assert_equal."""
    if dataclasses.is_dataclass(result):
        return dataclasses.astuple(result)
    if isinstance(result, tuple):
        return tuple(map(plain, result))
    return result


# Each raised TypeError, or ValidationError for a type test, before the
# scalar check returned the float it admitted.
TWINS = {
    "from_alpha-Decimal": (lambda v: ModelParams.from_alpha(v, 2.0), Decimal("0.5")),
    "from_alpha-float32": (ModelParams.from_alpha, np.float32(0.5)),
    "from_alpha-k-Fraction": (lambda v: ModelParams.from_alpha(0.5, v), Fraction(1, 2)),
    "hb_expected-Decimal": (lambda v: hb_expected(P, v), Decimal("0.5")),
    "f_alpha-Fraction": (f_alpha, Fraction(1, 2)),
    "f_alpha-Decimal": (f_alpha, Decimal("2")),
    "f_alpha-int64": (f_alpha, np.int64(2)),
    "scan_alpha-min-Fraction": (lambda v: scan_alpha(v, 1e3, 5), Fraction(1, 2)),
    "scan_alpha-max-bigint": (lambda v: scan_alpha(0.01, v, 5), 2**70),
    "scan_alpha-max-Decimal": (lambda v: scan_alpha(0.01, v, 5), Decimal("2")),
    "product-e-Decimal": (lambda v: uncertainty_product(v, 1.5), Decimal("0.5")),
    "product-t-Decimal": (lambda v: uncertainty_product(1.5, v), Decimal("0.5")),
    "audit_minimal-Decimal": (lambda v: audit_minimal(P, v), Decimal("0.5")),
    "IonParams-Decimal": (lambda v: ion_maximize(IonParams(1, v, 1)), Decimal("2")),
    "audit_ion-Decimal": (lambda v: audit_ion(ION, v), Decimal("0.5")),
    "evolve_operator-Fraction": (lambda v: evolve_operator(ID4, v), Fraction(1, 2)),
    "branches-Fraction": (lambda v: evolve_branches(BRANCHES, HAMS, v), Fraction(1, 2)),
    "branches-Decimal": (lambda v: evolve_branches(BRANCHES, HAMS, v), Decimal("0.5")),
}


@pytest.mark.parametrize("call, value", TWINS.values(), ids=TWINS)
def test_real_of_another_type_computes_like_its_float(call, value):
    np.testing.assert_equal(plain(call(value)), plain(call(float(value))))
