"""Content-addressed on-disk cache of generated measurement sets.

Every figure script used to regenerate its campaign from scratch; the
cache keys each campaign by a stable hash of the *resolved*
:class:`~repro.config.SimulationConfig` (every field, canonically
serialized) plus a code-version salt, and
stores the measurement sets as ``set_<k>.npz`` files under one
directory per key.  Generation is
resumable at set granularity: a killed campaign leaves its completed
``.npz`` files behind and the next run only simulates the missing sets,
fanning them over a process pool when ``workers`` is given.

The cache root defaults to ``~/.cache/repro-vvd/datasets`` and is
overridden by the ``REPRO_CACHE_DIR`` environment variable or the
``--cache-dir`` CLI flag.  Hit/miss statistics accumulate per
:class:`DatasetCache` instance; :meth:`DatasetCache.invalidate` removes
entries by key or config, :meth:`DatasetCache.clear` empties the cache.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import shutil
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path

from .. import blas, faults, lifetime
from ..config import SimulationConfig
from ..dataset.generator import (
    SimulationComponents,
    _generate_set_task,
    build_components,
    generate_measurement_set,
)
from ..dataset.io import load_measurement_set, save_measurement_set
from ..dataset.trace import MeasurementSet
from ..errors import CacheCorruptionError, ConfigurationError
from ..obs import log, trace
from .locking import FileLock, atomic_write_text, sweep_stale_tmp

#: Code-version salt mixed into every cache key.  Bump the trailing
#: component whenever generator/trace semantics change so stale datasets
#: can never be replayed against incompatible code.
DATASET_CACHE_SALT = "repro-vvd-dataset/v2"

#: Environment variable overriding the default cache root.
CACHE_DIR_ENV = "REPRO_CACHE_DIR"


def default_cache_dir() -> Path:
    """Cache root: ``$REPRO_CACHE_DIR`` or ``~/.cache/repro-vvd/datasets``."""
    override = os.environ.get(CACHE_DIR_ENV)
    if override:
        return Path(override)
    return Path.home() / ".cache" / "repro-vvd" / "datasets"


#: Config fields added *after* :data:`DATASET_CACHE_SALT` v2 shipped,
#: keyed by ``(dataclass name, field name)``.  They are elided from
#: canonicalization while they hold their declared default, so every
#: pre-v3 dataset/model cache key stays byte-identical; a config that
#: actually activates one of them hashes to a distinct key.  Never
#: remove an entry without bumping the salt.
_POST_V2_FIELDS = {
    ("MobilityConfig", "speed_profile"),
    ("MobilityConfig", "group_spread_m"),
}


def _canonical(value: object) -> object:
    """Recursively convert config values into JSON-stable primitives."""
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        cls_name = type(value).__name__
        out = {}
        for f in dataclasses.fields(value):
            field_value = getattr(value, f.name)
            if (
                (cls_name, f.name) in _POST_V2_FIELDS
                and field_value == f.default
            ):
                continue
            out[f.name] = _canonical(field_value)
        return out
    if isinstance(value, complex):
        return {"re": value.real, "im": value.imag}
    if isinstance(value, (tuple, list)):
        return [_canonical(item) for item in value]
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    raise ConfigurationError(
        f"cannot canonicalize config value of type {type(value).__name__}"
    )


def config_fingerprint(config: SimulationConfig) -> str:
    """Stable 16-hex-digit content hash of a resolved configuration.

    Two campaigns share a fingerprint iff every config field (including
    nested dataclasses and complex device responses) is equal.  The
    :data:`DATASET_CACHE_SALT` ties the key to the generator version;
    the constant ``"engine": "batch"`` entry dates from when a second,
    scalar engine was keyed apart, and stays so that no key moves.
    """
    canonical = json.dumps(
        {
            "salt": DATASET_CACHE_SALT,
            "engine": "batch",
            "config": _canonical(config),
        },
        sort_keys=True,
        separators=(",", ":"),
    )
    return hashlib.sha256(canonical.encode()).hexdigest()[:16]


@dataclass
class CacheStats:
    """Per-instance cache accounting (reset with :meth:`reset`)."""

    hits: int = 0
    misses: int = 0
    sets_loaded: int = 0
    sets_generated: int = 0
    #: Sets whose content failed sha256 verification (or could not be
    #: parsed) and were quarantined + regenerated.
    sets_corrupt: int = 0

    def reset(self) -> None:
        """Zero every counter."""
        self.hits = 0
        self.misses = 0
        self.sets_loaded = 0
        self.sets_generated = 0
        self.sets_corrupt = 0

    def summary(self) -> str:
        """One-line human-readable form used by the CLI."""
        return (
            f"{self.hits} hit(s), {self.misses} miss(es); "
            f"{self.sets_loaded} set(s) loaded, "
            f"{self.sets_generated} set(s) generated"
        )


@dataclass
class CacheEntry:
    """Metadata of one cached campaign directory."""

    key: str
    path: Path
    num_sets_present: int
    num_sets_expected: int | None
    size_bytes: int
    created: float | None = None
    description: str = ""

    @property
    def complete(self) -> bool:
        """Whether every expected measurement set is on disk."""
        return (
            self.num_sets_expected is not None
            and self.num_sets_present >= self.num_sets_expected
        )


class DatasetCache:
    """Content-addressed store of generated measurement campaigns."""

    def __init__(self, root: str | Path | None = None) -> None:
        self.root = Path(root) if root is not None else default_cache_dir()
        self.stats = CacheStats()

    # -- addressing -------------------------------------------------------
    def key_for(self, config: SimulationConfig) -> str:
        """Cache key of a resolved configuration."""
        return config_fingerprint(config)

    def entry_dir(self, config: SimulationConfig) -> Path:
        """Directory holding the campaign of ``config``."""
        return self.root / self.key_for(config)

    def _set_path(self, directory: Path, set_index: int) -> Path:
        return directory / f"set_{set_index:02d}.npz"

    def _digest_path(self, directory: Path, set_index: int) -> Path:
        return directory / f"set_{set_index:02d}.npz.sha256"

    def _verify_set(self, directory: Path, set_index: int) -> str:
        """Content-verify one cached set: ``ok``/``missing``/``corrupt``.

        Compares the payload's sha256 against the digest sidecar
        written at save time.  Legacy entries without a sidecar are
        backfilled (hashed and recorded) so later corruption becomes
        detectable; an unreadable payload counts as corrupt.
        """
        path = self._set_path(directory, set_index)
        if not path.exists():
            return "missing"
        try:
            digest = hashlib.sha256(path.read_bytes()).hexdigest()
        except OSError:
            return "corrupt"
        sidecar = self._digest_path(directory, set_index)
        if not sidecar.exists():
            atomic_write_text(sidecar, digest + "\n")
            return "ok"
        try:
            expected = sidecar.read_text().strip()
        except OSError:
            expected = ""
        return "ok" if digest == expected else "corrupt"

    def _quarantine_set(
        self, directory: Path, set_index: int, reason: str
    ) -> None:
        """Move a corrupt set aside (``*.corrupt.<pid>``) and warn.

        Corruption is never fatal: the caller treats the set as a miss
        and regenerates it.  The quarantined bytes are kept next to
        the entry for post-mortems instead of being deleted.
        """
        path = self._set_path(directory, set_index)
        quarantined = path.with_name(
            f"{path.name}.corrupt.{os.getpid()}"
        )
        try:
            os.replace(path, quarantined)
        except OSError:  # pragma: no cover - racing quarantine
            pass
        self._digest_path(directory, set_index).unlink(missing_ok=True)
        self.stats.sets_corrupt += 1
        log.warning(
            f"warning: cache corruption detected in "
            f"{directory.name}/{path.name} — quarantined to "
            f"{quarantined.name}, regenerating ({reason})"
        )

    def _load_set_checked(
        self, directory: Path, set_index: int
    ) -> MeasurementSet:
        """Load one verified set; quarantine + raise if unparsable."""
        try:
            return load_measurement_set(
                self._set_path(directory, set_index)
            )
        except Exception as exc:
            self._quarantine_set(
                directory,
                set_index,
                f"unreadable npz: {type(exc).__name__}: {exc}",
            )
            raise CacheCorruptionError(
                f"cached set {set_index} of {directory.name} could "
                "not be parsed"
            ) from exc

    def has(self, config: SimulationConfig) -> bool:
        """Whether every measurement set of ``config`` is cached."""
        directory = self.entry_dir(config)
        return all(
            self._set_path(directory, i).exists()
            for i in range(config.dataset.num_sets)
        )

    # -- load / generate --------------------------------------------------
    def load_or_generate(
        self,
        config: SimulationConfig,
        workers: int | None = None,
        verbose: bool = False,
        force: bool = False,
        components: SimulationComponents | None = None,
    ) -> list[MeasurementSet]:
        """Return the campaign of ``config``, generating only what's missing.

        A full on-disk campaign counts as one *hit* (every set is loaded
        from ``.npz``); anything else is a *miss* and the missing sets
        are simulated — over a process pool of ``workers`` when given —
        and persisted before the call returns.  ``force=True`` discards
        any cached entry first.  The returned list is ordered by set index
        and numerically identical to a fresh
        :func:`~repro.dataset.generator.generate_dataset` run.
        ``components`` (built from ``config``) serve in-process
        generation, so a caller that evaluates the sets next builds them
        once; pool workers build their own.
        """
        directory = self.entry_dir(config)
        if force and directory.exists():
            shutil.rmtree(directory)
        num_sets = config.dataset.num_sets
        key = self.key_for(config)
        if faults.active_plan() is not None:
            faults.inject("cache.load", key)
            for i in range(num_sets):
                path = self._set_path(directory, i)
                if path.exists() and faults.corrupt_file(
                    "cache.load", key, path
                ):
                    break
        sweep_stale_tmp(directory)
        missing = []
        with trace.span("cache.verify", key=key, sets=num_sets):
            for i in range(num_sets):
                state = self._verify_set(directory, i)
                if state == "corrupt":
                    self._quarantine_set(
                        directory, i, "sha256 digest mismatch"
                    )
                if state != "ok":
                    missing.append(i)
        if not missing:
            try:
                with trace.span(
                    "cache.load", key=key, sets=num_sets
                ):
                    sets = [
                        self._load_set_checked(directory, i)
                        for i in range(num_sets)
                    ]
            except CacheCorruptionError:
                missing = [
                    i
                    for i in range(num_sets)
                    if not self._set_path(directory, i).exists()
                ]
            else:
                self.stats.hits += 1
                self.stats.sets_loaded += num_sets
                if verbose:
                    log.info(
                        f"cache hit {key}: "
                        f"loaded {num_sets} set(s) from {directory}"
                    )
                return sets

        self.stats.misses += 1
        if verbose:
            log.info(
                f"cache miss {key}: "
                f"generating {len(missing)}/{num_sets} set(s)"
            )
        directory.mkdir(parents=True, exist_ok=True)
        generated: dict[int, MeasurementSet] = {}
        with trace.span(
            "cache.generate", key=key, sets=len(missing)
        ):
            if workers is not None and workers > 1 and len(missing) > 1:
                pool_size = min(workers, len(missing))
                # Forked workers inherit the one BLAS thread held here.
                with blas.single_threaded(), ProcessPoolExecutor(
                    max_workers=pool_size,
                    initializer=lifetime.die_with_parent,
                ) as pool:
                    for measurement_set in pool.map(
                        _generate_set_task, [config] * len(missing), missing
                    ):
                        generated[measurement_set.index] = (
                            measurement_set
                        )
            else:
                components = components or build_components(config)
                for set_index in missing:
                    generated[set_index] = generate_measurement_set(
                        components, set_index
                    )
        with trace.span("cache.store", key=key, sets=len(generated)):
            for set_index, measurement_set in generated.items():
                self._atomic_save(
                    directory, set_index, measurement_set
                )
        self.stats.sets_generated += len(missing)
        self._write_meta(directory, config)

        sets = []
        for set_index in range(num_sets):
            if set_index in generated:
                sets.append(generated[set_index])
            else:
                try:
                    sets.append(
                        self._load_set_checked(directory, set_index)
                    )
                except CacheCorruptionError:
                    # Torn under our feet between verification and
                    # load (racing writer): regenerate just this set.
                    regenerated = generate_measurement_set(
                        components or build_components(config), set_index
                    )
                    self._atomic_save(
                        directory, set_index, regenerated
                    )
                    self.stats.sets_generated += 1
                    sets.append(regenerated)
                    continue
                self.stats.sets_loaded += 1
        return sets

    def _atomic_save(
        self,
        directory: Path,
        set_index: int,
        measurement_set: MeasurementSet,
    ) -> None:
        """Write one set via a unique temp file so kills never leave
        torn npz and concurrent writers of the same entry never clobber
        each other's in-flight temp file.  A sha256 digest sidecar is
        published alongside so later loads can verify content."""
        final = self._set_path(directory, set_index)
        tmp = directory / f".tmp_set_{set_index:02d}.{os.getpid()}.npz"
        save_measurement_set(measurement_set, tmp)
        digest = hashlib.sha256(tmp.read_bytes()).hexdigest()
        os.replace(tmp, final)
        atomic_write_text(
            self._digest_path(directory, set_index), digest + "\n"
        )

    def _write_meta(self, directory: Path, config: SimulationConfig) -> None:
        """Write the entry's ``meta.json`` index record.

        Guarded by the entry's sidecar lock: two workers finishing the
        same cache entry concurrently (e.g. grid members sharing one
        underlying configuration) serialize their index mutation instead
        of interleaving temp-file writes.
        """
        meta = {
            "key": self.key_for(config),
            "salt": DATASET_CACHE_SALT,
            "engine": "batch",
            "num_sets": config.dataset.num_sets,
            "packets_per_set": config.dataset.packets_per_set,
            "created": time.time(),
            "config": _canonical(config),
        }
        with FileLock(directory / ".meta.lock"):
            atomic_write_text(
                directory / "meta.json",
                json.dumps(meta, indent=2, sort_keys=True),
            )

    # -- inspection / invalidation ----------------------------------------
    def entries(self) -> list[CacheEntry]:
        """Metadata of every campaign directory under the cache root."""
        if not self.root.exists():
            return []
        found = []
        for directory in sorted(self.root.iterdir()):
            if not directory.is_dir() or directory.name == "campaigns":
                continue
            sets = sorted(directory.glob("set_*.npz"))
            expected = None
            created = None
            description = ""
            meta_path = directory / "meta.json"
            if meta_path.exists():
                try:
                    meta = json.loads(meta_path.read_text())
                    expected = meta.get("num_sets")
                    created = meta.get("created")
                    packets = meta.get("packets_per_set")
                    description = f"{expected} sets x {packets} packets"
                except (json.JSONDecodeError, OSError):
                    pass
            size = sum(p.stat().st_size for p in sets)
            found.append(
                CacheEntry(
                    key=directory.name,
                    path=directory,
                    num_sets_present=len(sets),
                    num_sets_expected=expected,
                    size_bytes=size,
                    created=created,
                    description=description,
                )
            )
        return found

    def invalidate(
        self,
        config: SimulationConfig | None = None,
        key: str | None = None,
    ) -> int:
        """Remove one cached campaign (by config or key); returns 1 or 0.

        ``key`` must be a 16-hex-digit fingerprint (the
        :func:`config_fingerprint` format) — anything else is rejected
        so a malformed key can never escape the cache root or hit the
        ``campaigns/`` manifests.
        """
        if (config is None) == (key is None):
            raise ConfigurationError(
                "invalidate() needs exactly one of config= or key="
            )
        if config is not None:
            key = self.key_for(config)
        else:
            key = str(key)
            if len(key) != 16 or any(
                c not in "0123456789abcdef" for c in key
            ):
                raise ConfigurationError(
                    f"invalid cache key {key!r}: expected 16 hex digits"
                )
        directory = self.root / key
        if not directory.is_dir():
            return 0
        shutil.rmtree(directory)
        return 1

    def clear(self) -> int:
        """Remove every cached campaign; returns the number removed."""
        removed = 0
        for entry in self.entries():
            shutil.rmtree(entry.path)
            removed += 1
        return removed
