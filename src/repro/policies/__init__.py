"""Scheduling policies layered on the server model.

:class:`DreamWeaver` reproduces the Section-3.2 case study: a scheduler
that coalesces idle periods across the cores of a many-core server so the
whole system can enter a deep sleep mode (PowerNap), trading bounded
per-request delay for full-system idleness.  With ``delay_threshold=0``
it degenerates to plain PowerNap (sleep only when totally idle, wake on
first arrival), which serves as the baseline.
"""

from repro import _lazy_exports

__all__ = ["DreamWeaver", "DreamWeaverError", "PolicyState", "OndemandGovernor"]

__getattr__, __dir__ = _lazy_exports(globals(), {
    "DreamWeaver": "repro.policies.dreamweaver",
    "DreamWeaverError": "repro.policies.dreamweaver",
    "PolicyState": "repro.policies.dreamweaver",
    "OndemandGovernor": "repro.policies.governor",
})
