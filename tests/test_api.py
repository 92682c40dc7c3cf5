"""Every public name the package modules export resolves.

Benchmarks and tracers look these names up by module and attribute, so a
rename or removal shows up here rather than as a failed traced run.
"""

import pytest

from qetsim import audit, kernel, locc, model, protocol


@pytest.mark.parametrize(
    "module", [kernel, model, protocol, locc, audit], ids=lambda m: m.__name__
)
def test_all_names_resolve(module):
    assert [name for name in module.__all__ if not hasattr(module, name)] == []
