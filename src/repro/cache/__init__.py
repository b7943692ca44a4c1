"""The Cascade Lake 2LM DRAM cache model and design-space alternatives.

``DirectMappedCache`` is the paper's reverse-engineered cache: direct
mapped, 64 B lines, tags in the ECC bits, insert-on-miss for both reads
and writes, and the Dirty Data Optimization.  ``alternatives``
contains the design variants used for ablation studies.  The scalar
oracles that validate the vectorized engine, ``ReferenceCache`` (the
same Figure-3 state machine, deliberately simple) among them, live in
:mod:`repro.cache.flow`, which only tests import.
"""

from repro.cache.direct_mapped import DirectMappedCache
from repro.cache.amplification import (
    AMPLIFICATION_TABLE,
    RequestOutcome,
    expected_traffic,
)
from repro.cache.alternatives import SetAssociativeCache
from repro.cache.research import BypassCache, MissPredictorCache, NextLinePrefetchCache
from repro.cache.sector import SectorCache

__all__ = [
    "AMPLIFICATION_TABLE",
    "BypassCache",
    "DirectMappedCache",
    "MissPredictorCache",
    "NextLinePrefetchCache",
    "RequestOutcome",
    "SectorCache",
    "SetAssociativeCache",
    "expected_traffic",
]
