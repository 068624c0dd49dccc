"""Dataset cache: key stability, hit/miss accounting, set-level resume."""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro.campaign.cache import DatasetCache, config_fingerprint
from repro.campaign.scenario import get_scenario
from repro.config import SimulationConfig
from repro.dataset import build_components, generate_dataset
from repro.errors import ConfigurationError


@pytest.fixture(scope="module")
def micro_config() -> SimulationConfig:
    return get_scenario("smoke").resolve()


class TestFingerprint:
    def test_stable_across_instances(self, micro_config):
        again = get_scenario("smoke").resolve()
        assert config_fingerprint(micro_config) == config_fingerprint(again)

    def test_any_field_change_changes_key(self, micro_config):
        base = config_fingerprint(micro_config)
        changed = [
            micro_config.replace(seed=1),
            micro_config.replace(
                channel=dataclasses.replace(
                    micro_config.channel, snr_db=7.0
                )
            ),
            micro_config.replace(
                dataset=dataclasses.replace(
                    micro_config.dataset, packets_per_set=9
                )
            ),
            micro_config.replace(
                mobility=dataclasses.replace(
                    micro_config.mobility, num_humans=2
                )
            ),
        ]
        keys = {config_fingerprint(c) for c in changed}
        assert base not in keys
        assert len(keys) == len(changed)

    def test_key_format(self, micro_config):
        key = config_fingerprint(micro_config)
        assert len(key) == 16
        int(key, 16)  # hex


class TestLoadOrGenerate:
    def test_miss_then_hit(self, micro_config, tmp_path):
        cache = DatasetCache(tmp_path / "cache")
        sets = cache.load_or_generate(micro_config)
        assert cache.stats.misses == 1 and cache.stats.hits == 0
        assert cache.stats.sets_generated == micro_config.dataset.num_sets

        reloaded = cache.load_or_generate(micro_config)
        assert cache.stats.hits == 1
        assert cache.stats.sets_generated == micro_config.dataset.num_sets

        # The reloaded campaign is numerically identical to the fresh one.
        fresh = generate_dataset(
            micro_config, build_components(micro_config)
        )
        for cached_set, fresh_set in zip(reloaded, fresh):
            assert cached_set.index == fresh_set.index
            np.testing.assert_allclose(
                np.stack([p.h_ls for p in cached_set.packets]),
                np.stack([p.h_ls for p in fresh_set.packets]),
            )
        assert [s.index for s in sets] == [s.index for s in reloaded]

    def test_partial_entry_resumes_missing_sets_only(
        self, micro_config, tmp_path
    ):
        cache = DatasetCache(tmp_path / "cache")
        cache.load_or_generate(micro_config)
        # Simulate a campaign killed mid-generation: one set file gone.
        victim = cache.entry_dir(micro_config) / "set_01.npz"
        victim.unlink()
        cache.stats.reset()

        sets = cache.load_or_generate(micro_config)
        assert cache.stats.misses == 1
        assert cache.stats.sets_generated == 1  # only the missing set
        assert len(sets) == micro_config.dataset.num_sets
        assert [s.index for s in sets] == list(
            range(micro_config.dataset.num_sets)
        )

    def test_force_regenerates(self, micro_config, tmp_path):
        cache = DatasetCache(tmp_path / "cache")
        cache.load_or_generate(micro_config)
        cache.stats.reset()
        cache.load_or_generate(micro_config, force=True)
        assert cache.stats.misses == 1
        assert cache.stats.sets_generated == micro_config.dataset.num_sets


class TestIntegrity:
    def test_corrupt_set_quarantined_and_regenerated(
        self, micro_config, tmp_path, capsys
    ):
        """Flipped bytes are a miss-plus-regenerate, never a crash."""
        cache = DatasetCache(tmp_path / "cache")
        original = cache.load_or_generate(micro_config)
        victim = cache.entry_dir(micro_config) / "set_01.npz"
        data = victim.read_bytes()
        victim.write_bytes(bytes(b ^ 0xFF for b in data[: len(data) // 2]))
        cache.stats.reset()

        healed = cache.load_or_generate(micro_config)
        assert cache.stats.sets_corrupt == 1
        assert cache.stats.sets_generated == 1  # only the bad set
        assert "cache corruption detected" in capsys.readouterr().out
        # The quarantined bytes are kept for post-mortems...
        assert list(
            cache.entry_dir(micro_config).glob("set_01.npz.corrupt.*")
        )
        # ...and the regenerated set is numerically identical.
        np.testing.assert_array_equal(
            np.stack([p.h_ls for p in healed[1].packets]),
            np.stack([p.h_ls for p in original[1].packets]),
        )

    def test_digest_sidecars_written_at_save(
        self, micro_config, tmp_path
    ):
        cache = DatasetCache(tmp_path / "cache")
        cache.load_or_generate(micro_config)
        directory = cache.entry_dir(micro_config)
        for i in range(micro_config.dataset.num_sets):
            assert (directory / f"set_{i:02d}.npz.sha256").exists()

    def test_legacy_entry_without_sidecar_backfilled(
        self, micro_config, tmp_path
    ):
        cache = DatasetCache(tmp_path / "cache")
        cache.load_or_generate(micro_config)
        directory = cache.entry_dir(micro_config)
        sidecar = directory / "set_00.npz.sha256"
        sidecar.unlink()
        cache.stats.reset()

        cache.load_or_generate(micro_config)
        assert cache.stats.sets_corrupt == 0  # no false positive
        assert cache.stats.sets_generated == 0
        assert sidecar.exists()  # hashed and recorded for next time


class TestInvalidation:
    def test_invalidate_and_entries(self, micro_config, tmp_path):
        cache = DatasetCache(tmp_path / "cache")
        cache.load_or_generate(micro_config)
        entries = cache.entries()
        assert len(entries) == 1
        assert entries[0].complete
        assert entries[0].key == cache.key_for(micro_config)

        assert cache.invalidate(config=micro_config) == 1
        assert cache.entries() == []
        assert cache.invalidate(key="0" * 16) == 0

    def test_invalidate_rejects_non_fingerprint_keys(self, tmp_path):
        cache = DatasetCache(tmp_path / "cache")
        # Traversal or campaign-dir names must never reach rmtree.
        for bad in ("../..", "campaigns", "abc", "Z" * 16, ""):
            with pytest.raises(ConfigurationError, match="cache key"):
                cache.invalidate(key=bad)

    def test_invalidate_needs_exactly_one_selector(
        self, micro_config, tmp_path
    ):
        cache = DatasetCache(tmp_path / "cache")
        with pytest.raises(ConfigurationError):
            cache.invalidate()
        with pytest.raises(ConfigurationError):
            cache.invalidate(config=micro_config, key="abc")

    def test_clear(self, micro_config, tmp_path):
        cache = DatasetCache(tmp_path / "cache")
        cache.load_or_generate(micro_config)
        assert cache.clear() == 1
        assert cache.entries() == []


class TestPostV2FieldElision:
    """New config fields must not disturb pre-existing cache keys.

    MobilityConfig grew speed_profile/group_spread_m after the v2
    cache salt; _canonical elides them at their defaults so every
    existing dataset and model key stays byte-identical, while any
    non-default value still changes the key.
    """

    def test_default_new_fields_keep_the_old_key(self, micro_config):
        assert micro_config.mobility.speed_profile == "uniform"
        canonical_mobility = dataclasses.asdict(micro_config.mobility)
        # The elided fields exist on the dataclass...
        assert "speed_profile" in canonical_mobility
        # ...but the smoke fingerprint equals its pre-port pin.
        assert config_fingerprint(micro_config) == "db7c0893a69e4d0c"

    def test_activating_a_new_field_changes_the_key(self, micro_config):
        base = config_fingerprint(micro_config)
        changed = micro_config.replace(
            mobility=dataclasses.replace(
                micro_config.mobility,
                num_humans=2,
                speed_profile="heterogeneous",
            )
        )
        assert config_fingerprint(changed) != base
        spread = micro_config.replace(
            mobility=dataclasses.replace(
                micro_config.mobility, group_spread_m=1.0
            )
        )
        assert config_fingerprint(spread) != base
