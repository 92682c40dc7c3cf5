"""The public boundary: every exported name resolves, bad scalars are
rejected with ValidationError, and any other real computes like its float.

Benchmarks and tracers look these names up by module and attribute, so a
rename or removal shows up here rather than as a failed traced run.
"""

import importlib
import importlib.util
from decimal import Decimal
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from qetsim import audit, extraction, kernel, locc, model, protocol, report
from qetsim.audit import (
    AuditReport,
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
from qetsim.locc import run_once
from qetsim.model import (
    ModelParams,
    Record,
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

# Every scalar entry point, called with a value whose real part it accepts.
# A numpy complex scalar and a 0-d array are not real numbers: the first
# used to lose its imaginary part and the second to pass as its float.
SCALAR_SITES = {
    "f_alpha": f_alpha,
    "from_alpha": ModelParams.from_alpha,
    "ModelParams-h": lambda v: ModelParams(v, 4.0),
    "ModelParams-k": lambda v: ModelParams(3.0, v),
    "audit_minimal": lambda v: audit_minimal(P, v),
    "hb_expected": lambda v: hb_expected(P, v),
    "IonParams": lambda v: IonParams(0.5, v, 1.0),
    "product-e": lambda v: uncertainty_product(v, 1.0),
    "product-t": lambda v: uncertainty_product(1.0, v),
    "scan_alpha-min": lambda v: scan_alpha(v, 20.0, 5),
    "scan_alpha-max": lambda v: scan_alpha(0.01, v, 5),
    "run_once": lambda v: run_once(P, v),
}
NOT_REAL = {"complex64": np.complex64(2 + 1j), "0-d-array": np.array(2.0)}


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
        *[
            pytest.param(lambda site=site, v=v: site(v), id=f"{name}-{kind}")
            for name, site in SCALAR_SITES.items()
            for kind, v in NOT_REAL.items()
        ],
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
    """Records, and tuples of them, as nested tuples for assert_equal: a
    record's == would compare its numpy arrays elementwise."""
    if isinstance(result, Record):
        return tuple(map(plain, vars(result).values()))
    if isinstance(result, tuple):
        return tuple(map(plain, result))
    return result


# Each raised TypeError, or ValidationError for a type test, before the
# scalar check returned the float it admitted.
TWINS = {
    "from_alpha-Decimal": (ModelParams.from_alpha, Decimal("0.5")),
    "from_alpha-float32": (ModelParams.from_alpha, np.float32(0.5)),
    "ModelParams-h-Decimal": (lambda v: ModelParams(v, 4.0), Decimal("3")),
    "ModelParams-k-Fraction": (lambda v: ModelParams(3.0, v), Fraction(4)),
    "ModelParams-float32": (lambda v: ModelParams(v, 1.0), np.float32(0.5)),
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


def _copy(record, cls=None, **changes):
    """A record of class `cls` (record's own by default) holding record's
    fields, with `changes` applied."""
    twin = object.__new__(cls or type(record))
    twin.__dict__.update(vars(record), **changes)
    return twin


# Each runtime record, and its repr as a frozen dataclass printed it.
RECORDS = {
    "ModelParams": (lambda: ModelParams(3, 4), "ModelParams(h=3.0, k=4.0)"),
    "ModelParams-from_alpha": (
        lambda: ModelParams.from_alpha(2), "ModelParams(h=2.0, k=1.0)"
    ),
    "AlphaScanResult": (
        lambda: scan_alpha(0.5, 2.0, 3),
        "AlphaScanResult(grid=(0.5, 1.25, 2.0), values=(0.04909163305901955, "
        "0.13301917610151454, 0.14514555174644245), argmax_alpha=1.8173540210239707, "
        "max_value=0.14596427586236024)",
    ),
    "IonParams": (
        lambda: IonParams(0.5, 2, 1), "IonParams(gamma_n=0.5, zeta_n=2.0, nu=1.0)"
    ),
    "IonMaximum": (
        lambda: ion_maximize(ION),
        "IonMaximum(e_in_star=0.5, e_out_max=0.09196986029286058, "
        "phonon_scale_output=0.06766764161830635)",
    ),
    "AuditReport": (
        lambda: AuditReport("minimal", 0.5, 2.0, "n"),
        "AuditReport(protocol='minimal', energy=0.5, time=2.0, notes='n')",
    ),
    "ProtocolTrace": (
        lambda: run_once(P, 0.5),
        "ProtocolTrace(params=ModelParams(h=3.0, k=4.0), latency=0.5, "
        "e_b_extracted=0.4644884122049605, policy='optimize', mode='family')",
    ),
    "BobControl": (
        lambda: BobControl.family(0.25),
        "BobControl(params=((0.25, (0.0, 1.0, 0.0)), (-0.25, (0.0, 1.0, 0.0))))",
    ),
}


@pytest.mark.parametrize("make, text", RECORDS.values(), ids=RECORDS)
def test_record_is_a_frozen_value(make, text):
    record = make()
    values = tuple(vars(record).values())
    assert record == make() and record is not make()
    assert hash(record) == hash(make()) == hash(values)
    assert repr(record) == text
    # equal only to a record of its own class with equal values
    first = next(iter(vars(record)))
    assert record != _copy(record, **{first: "other"})
    subclass = type("Subclass", (type(record),), {})
    assert record != _copy(record, subclass) and _copy(record, subclass) != record
    assert record != values
    for name in vars(record):
        with pytest.raises(AttributeError):
            setattr(record, name, 0.0)
        with pytest.raises(AttributeError):
            delattr(record, name)
    assert tuple(vars(record).values()) == values
