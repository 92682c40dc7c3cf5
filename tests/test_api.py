"""The public boundary: every exported name resolves, and bad scalars are
rejected with ValidationError.

Benchmarks and tracers look these names up by module and attribute, so a
rename or removal shows up here rather than as a failed traced run.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

from qetsim import audit, kernel, locc, model, protocol
from qetsim.audit import (
    IonParams,
    audit_minimal,
    f_alpha,
    ion_output,
    scan_alpha,
    uncertainty_product,
)
from qetsim.errors import ValidationError
from qetsim.kernel import ID4, evolve_operator, su2
from qetsim.model import ModelParams, hb_expected
from qetsim.protocol import BobControl

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


@pytest.mark.parametrize(
    "module", [kernel, model, protocol, locc, audit], ids=lambda m: m.__name__
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
        pytest.param(lambda: ion_output(ION, None), id="ion_output-None"),
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
