"""The calls the repository benchmark wraps stay defined on their owners.

``perfbench/run.py --trace 1`` times each layer by replacing the calls
listed in ``perfbench.layers`` with traced wrappers.  The replacement
requires the attribute in ``vars()`` of its owner — the module itself, or
the class itself rather than a base class.  A refactor that moves one of
these methods into a base class would otherwise break traced runs silently.
"""

from __future__ import annotations

import importlib

import pytest

from perfbench import layers

TARGETS = sorted(
    {
        (module, cls, attr)
        for module, cls, attr, *_ in (
            layers.DEVICE_TARGETS + layers.SWEEP_TARGETS + layers.ROUTER_TARGETS
        )
    },
    key=str,
)


@pytest.mark.parametrize(
    "module,cls,attr",
    TARGETS,
    ids=[".".join(part for part in target if part) for target in TARGETS],
)
def test_wrapped_call_is_defined_on_its_owner(module, cls, attr) -> None:
    owner = importlib.import_module(module)
    if cls is not None:
        owner = getattr(owner, cls)
    assert attr in vars(owner), f"{owner!r} no longer defines {attr}"


def test_write_path_methods_are_covered() -> None:
    """The write-path views a simplification could be tempted to inherit."""
    for target in [
        ("repro.ftl.rewriting_ftl", "RewritingFTL", "write"),
        ("repro.ftl.rewriting_ftl", "RewritingFTL", "write_batch"),
        ("repro.ssd.device", "SSD", "write_batch"),
        ("repro.core.scheme", "PageCodeScheme", "write"),
        ("repro.core.scheme", "PageCodeScheme", "write_batch"),
        ("repro.core.scheme", "PageCodeScheme", "read"),
        ("repro.vcell.varray", "VCellArray", "program_levels"),
        ("repro.vcell.varray", "VCellArray", "program_levels_batch"),
        ("repro.core.lifetime", "LifetimeSimulator", "run"),
    ]:
        assert target in TARGETS, target
