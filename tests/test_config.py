"""Configuration dataclass validation."""

from dataclasses import fields

import numpy as np
import pytest

from repro.config import (
    CacheConfig,
    FaultConfig,
    MemoryConfig,
    PrefetchConfig,
    QueueConfig,
    ScalarConfig,
    SMAConfig,
    SpeculationConfig,
    default_scalar_config,
    default_sma_config,
)

CONFIGS = (MemoryConfig, QueueConfig, CacheConfig, PrefetchConfig,
           FaultConfig, SpeculationConfig, SMAConfig, ScalarConfig)


@pytest.mark.parametrize("cls, name", [
    pytest.param(cls, f.name, id=f"{cls.__name__}.{f.name}")
    for cls in CONFIGS for f in fields(cls)
    if f.type in ("int", "int | None")
])
def test_int_fields_refuse_non_ints(cls, name):
    """A float (even one equal to an int), a bool or a string in a field
    declared ``int`` is a ``ValueError`` naming the field; a numpy
    integer is stored as the builtin it equals."""
    default = getattr(cls(), name)
    if default is None:
        default = 1
    for bad in (default + 0.5, float(default), True, str(default)):
        with pytest.raises(ValueError, match=f"{cls.__name__} {name} "):
            cls(**{name: bad})
    value = getattr(cls(**{name: np.int64(default)}), name)
    assert type(value) is int and value == default


class TestMemoryConfig:
    def test_defaults_consistent(self):
        cfg = MemoryConfig()
        assert cfg.latency >= cfg.bank_busy

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"size": 0},
            {"num_banks": 0},
            {"latency": 0},
            {"bank_busy": 0},
            {"accepts_per_cycle": 0},
        ],
    )
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(ValueError):
            MemoryConfig(**kwargs)

    def test_frozen(self):
        with pytest.raises(Exception):
            MemoryConfig().latency = 3


class TestQueueConfig:
    def test_rejects_zero_depths(self):
        with pytest.raises(ValueError):
            QueueConfig(load_queue_depth=0)


class TestSMAConfig:
    def test_rejects_zero_streams(self):
        with pytest.raises(ValueError):
            SMAConfig(max_streams=0)

    def test_default_streams_cover_queue_complement(self):
        cfg = SMAConfig()
        assert cfg.max_streams >= (
            cfg.num_load_queues + cfg.num_store_queues + cfg.num_index_queues
        )

    def test_helper_overrides(self):
        assert default_sma_config(max_streams=20).max_streams == 20
        assert default_scalar_config().cache is None


class TestCacheConfig:
    def test_bad_hit_time(self):
        with pytest.raises(ValueError):
            CacheConfig(hit_time=0)
