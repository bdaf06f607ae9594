"""Memory subsystem: flat store, banked timing front-end, data cache."""

from .banks import BankedMemory, MemoryStats
from .cache import CacheStats, DataCache
from .main_memory import MainMemory, as_address
from .prefetch import PrefetchConfig, PrefetchingCache, PrefetchStats

__all__ = [
    "BankedMemory",
    "CacheStats",
    "DataCache",
    "MainMemory",
    "MemoryStats",
    "PrefetchConfig",
    "PrefetchStats",
    "PrefetchingCache",
    "as_address",
]
