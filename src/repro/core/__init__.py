"""The SMA machine core: processors, stream engine, store unit, coupling.

Names are imported from their submodules on first use (see
:mod:`repro._lazy`), so ``from repro.core import SMAMachine`` loads the
machine and what it needs, not the cluster or the checkpoint layer.
"""

from .._lazy import lazy_package

lazy_package(__name__, {
    ".access_processor": ("AccessProcessor", "APStats"),
    ".checkpoint": ("canonical_json", "snapshot_digest=digest"),
    ".cluster": ("ClusterResult", "SMACluster"),
    ".descriptors": ("StreamDescriptor", "StreamEngine",
                     "StreamEngineStats", "StreamKind"),
    ".execute_processor": ("EPStats", "ExecuteProcessor"),
    ".machine": ("SMAMachine", "SMAResult"),
    ".store_unit": ("StoreUnit", "StoreUnitStats"),
})

__all__ = [
    "APStats",
    "ClusterResult",
    "SMACluster",
    "AccessProcessor",
    "EPStats",
    "ExecuteProcessor",
    "SMAMachine",
    "SMAResult",
    "StoreUnit",
    "StoreUnitStats",
    "StreamDescriptor",
    "StreamEngine",
    "StreamEngineStats",
    "StreamKind",
    "canonical_json",
    "snapshot_digest",
]
