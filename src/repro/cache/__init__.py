"""The Cascade Lake 2LM DRAM cache model and design-space alternatives.

``DirectMappedCache`` is the paper's reverse-engineered cache: direct
mapped, 64 B lines, tags in the ECC bits, insert-on-miss for both reads
and writes, and the Dirty Data Optimization.  ``ReferenceCache`` is a
deliberately simple scalar implementation of the same Figure-3 state
machine used to validate the vectorized engine.  ``alternatives``
contains the design variants used for ablation studies.
"""

from repro.cache.base import CacheModel
from repro.cache.direct_mapped import DirectMappedCache
from repro.cache.flow import ReferenceCache
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
    "CacheModel",
    "DirectMappedCache",
    "MissPredictorCache",
    "NextLinePrefetchCache",
    "ReferenceCache",
    "RequestOutcome",
    "SectorCache",
    "SetAssociativeCache",
    "expected_traffic",
]
