"""The field walker, scenario files and seeded sampling of scenarios.

Every field of a :class:`~repro.campaign.scenario.Scenario`, a
:class:`~repro.config.RoomConfig`, a job spec and the run and host
options is declared once, on its dataclass: the annotation gives its
type (element types, optionality and fixed tuple lengths included, read
by :func:`field_shapes`), the default its default, and
``field(metadata=...)`` its help text and limits (see :func:`param`).
A class's ``conditions`` attribute lists its cross-field
:class:`~repro.config.Condition` rules.

:func:`check_values` is the one validator of all of them.  How it
treats a value belongs to the declaring class: one that sets
``coerce_fields = True`` (job specs, run and host options) converts
numbers and numeric strings to the declared number type and raises at
its first bad field; any other class (scenarios, rooms) converts
nothing and gets a :class:`ValidationReport` of *every* violation.

On top of the walker the module provides:

- :func:`describe_parameters` — the scenario catalog ``repro scenarios
  describe`` prints;
- TOML/JSON scenario files (:func:`load_scenario_file`, ``repro
  scenarios load file.toml``), including custom ``[rooms.<name>]``
  tables;
- seeded scenario sampling (:func:`sample_scenarios`, ``repro
  scenarios sample --seed N --count K``): valid scenarios drawn from
  the declared ranges — the generator behind the property-based fuzz
  suite.  Sampling uses :class:`random.Random` so the draw sequence is
  process- and platform-stable for a given seed.
"""

from __future__ import annotations

import functools
import json
import os
import random
import types
import typing
from dataclasses import MISSING, Field, dataclass, field, fields
from pathlib import Path
from typing import Mapping, NamedTuple

from ..config import SPEED_PROFILES, TRAJECTORY_PRESETS
from ..errors import ConfigurationError

#: Walking-speed bounds of the mobility model in m/s; scenario speed
#: ranges must lie inside (0.05 m/s shuffle .. 3 m/s jog).
MOBILITY_SPEED_BOUNDS_MPS = (0.05, 3.0)

#: SNR bounds in dB the PHY/vision stack is exercised (and the CNN
#: trained) over; operating points and sweep grids must lie inside.
SNR_BOUNDS_DB = (-3.0, 18.0)

#: Simultaneous-walker bounds (the multi-body channel renders up to 6).
NUM_HUMANS_BOUNDS = (1, 6)

#: Measurement-set count bounds (>= 3 for train/val/test rotation).
NUM_SETS_BOUNDS = (3, 60)

#: Packets-per-set bounds (paper scale is 1514).
PACKETS_PER_SET_BOUNDS = (2, 2000)

#: Campaign-seed bounds.
SEED_BOUNDS = (0, 2**32 - 1)

#: Prediction-horizon bounds in camera frames (a set has at most as
#: many frames as packets).
HORIZON_BOUNDS = (0, PACKETS_PER_SET_BOUNDS[1])

#: Concurrent-stream-link bounds.  The heap-based discrete-event
#: scheduler keeps replay and capacity memory O(links), so capacity
#: grids sweep into the thousands.
STREAM_LINKS_BOUNDS = (1, 10_000)


def param(default, help: str, **meta):
    """A dataclass field that carries its own declaration.

    ``help`` is the field's help text (a CLI flag's help, a line of
    ``repro scenarios describe``).  Optional ``meta`` keys:

    ``choices``
        Allowed values (of each element, for tuple fields): a
        collection, or a zero-arg callable for registries.
    ``bounds``
        Inclusive ``(low, high)`` range of each number.
    ``length``
        Inclusive ``(low, high)`` entry count of a ``tuple[X, ...]``.
    ``label``
        Noun naming the value in messages (default ``value``).
    ``allowed``
        Predicate returning a violation string or ``None``.
    ``required``
        A mapping must give the field although the class has a default.
    ``unknown``
        Error class a value outside ``choices`` raises (default
        :class:`~repro.errors.ConfigurationError`).
    ``positional``
        Rendered as a positional argument instead of a ``--flag``.
    ``gate``
        Rendered only for kinds whose ``JobSpec.takes`` names it.
    ``service``
        A host option a ``POST /v1/jobs`` submission may carry.
    ``cli_default``
        Zero-arg callable giving the CLI default when the parser is
        built (the dataclass default holds everywhere else).
    """
    return field(default=default, metadata={"help": help, **meta})


class Shape(NamedTuple):
    """The type of a declared field, read from its annotation."""

    #: ``int``, ``float``, ``str``, ``bool`` or ``tuple``.
    kind: type
    #: Shape of each entry of a ``tuple`` kind (``None``: unchecked).
    element: Shape | None = None
    #: Entry count of a fixed-length ``tuple[X, X]`` kind.
    length: int | None = None
    #: ``True`` if the annotation allows ``None`` (``X | None``).
    optional: bool = False


def _shape(hint) -> Shape:
    """The :class:`Shape` of one resolved annotation."""
    members = (
        typing.get_args(hint)
        if typing.get_origin(hint) in (typing.Union, types.UnionType)
        else (hint,)
    )
    (kind,) = [m for m in members if m is not type(None)]
    optional = type(None) in members
    if typing.get_origin(kind) is not tuple:
        return Shape(kind, optional=optional)
    args = typing.get_args(kind)
    length = None if args[-1] is Ellipsis else len(args)
    return Shape(tuple, _shape(args[0]), length, optional)


@functools.cache
def field_shapes(cls) -> tuple[tuple[Field, Shape], ...]:
    """``(field, shape)`` for each field of dataclass ``cls``, in order.

    ``tuple[int, ...]`` has kind ``tuple`` and element kind ``int``;
    ``tuple[float, float]`` also has length 2; ``X | None`` is
    optional.  Resolving annotations costs ~0.1 ms a class, so each
    class resolves them once.
    """
    hints = typing.get_type_hints(cls)
    return tuple((f, _shape(hints[f.name])) for f in fields(cls))


def _type_ok(value: object, kind: type) -> bool:
    """isinstance with the int/bool pitfall closed (bool is not an int)."""
    if isinstance(value, bool):
        return kind is bool
    if isinstance(value, int) and kind in (int, float):
        return True
    return isinstance(value, kind)


def _choices(meta: Mapping) -> object:
    """A field's allowed values, resolving callable registries."""
    choices = meta.get("choices")
    return choices() if callable(choices) else choices


class _Mismatch(Exception):
    """A value that is not of its declared type."""


def _convert(value, kind: type, coerce: bool):
    """``value`` as a ``kind``, or raise :class:`_Mismatch`.

    Only a coercing class converts: a numeric string or a number
    becomes the declared number type (an integral float an int; a bool
    is not a number) and a path a string.  Otherwise an int stays an
    int where a float is declared.
    """
    if coerce and type(value) is not kind:
        if kind in (int, float) and isinstance(value, str):
            try:
                return kind(value)
            except ValueError:
                raise _Mismatch from None
        if kind is int and isinstance(value, float) and value.is_integer():
            return int(value)
        if kind is str and isinstance(value, os.PathLike):
            return os.fspath(value)
    if not _type_ok(value, kind):
        raise _Mismatch
    return float(value) if coerce and kind is float else value


def _flag(problems: list, coerce: bool, message: str, error=None) -> None:
    """Record one violation; a coercing class raises it instead."""
    if coerce:
        raise (error or ConfigurationError)(message)
    problems.append(message)


def _mismatch(ref: str, value: object, shape: Shape) -> str:
    """The report line of a value that is not of its declared type."""
    return (
        f"{ref}: expected {shape.kind.__name__}, got "
        f"{type(value).__name__} ({value!r})"
    )


def _walk(ref, value, shape: Shape, meta: Mapping, coerce, problems):
    """``value`` conformed to ``shape``; its violations go to ``problems``.

    Lists become tuples.  Raises :class:`_Mismatch` when ``value`` is
    not of the declared type (a coercing class also for a tuple entry,
    so its message names the whole field).
    """
    if shape.kind is not tuple:
        value = _convert(value, shape.kind, coerce)
        label = meta.get("label", "value")
        allowed = _choices(meta)
        if allowed is not None and value not in allowed:
            _flag(
                problems,
                coerce,
                f"{ref}: unknown {label} {value!r}; accepted: "
                f"{', '.join(map(str, allowed))}",
                meta.get("unknown"),
            )
        bounds = meta.get("bounds")
        if bounds is not None and not bounds[0] <= value <= bounds[1]:
            _flag(
                problems,
                coerce,
                f"{ref}: {value!r} outside the allowed {label} range "
                f"[{bounds[0]}, {bounds[1]}]",
            )
        return value
    if not isinstance(value, (list, tuple)):
        raise _Mismatch
    limits = (
        (shape.length, shape.length)
        if shape.length is not None
        else meta.get("length")
    )
    if limits is not None and not limits[0] <= len(value) <= limits[1]:
        _flag(
            problems,
            coerce,
            f"{ref}: needs between {limits[0]} and {limits[1]} entries, "
            f"got {len(value)}",
        )
    if shape.element is None:
        return tuple(value)
    items = []
    for k, item in enumerate(value):
        at = ref if coerce else f"{ref}[{k}]"
        try:
            item = _walk(at, item, shape.element, meta, coerce, problems)
        except _Mismatch:
            if coerce:
                raise
            problems.append(_mismatch(at, item, shape.element))
        items.append(item)
    return tuple(items)


#: How a coercing class's message names each scalar type.
_EXPECTS = {bool: "a boolean", str: "a string"}


def _check(ref, value, shape: Shape, meta: Mapping, coerce):
    """One field's conformed value and the list of its violations."""
    if value is None and shape.optional:
        return None, []
    if value is None and not coerce:
        return value, [f"{ref}: value is required, got None"]
    problems: list[str] = []
    try:
        checked = _walk(ref, value, shape, meta, coerce, problems)
    except _Mismatch:
        if not coerce:
            return value, [_mismatch(ref, value, shape)]
        if shape.kind is not tuple:
            expected = _EXPECTS.get(shape.kind, shape.kind.__name__)
        elif isinstance(value, (list, tuple)):
            expected = f"a list of {shape.element.kind.__name__}"
        else:
            expected = "a list"
        raise ConfigurationError(
            f"{ref} expects {expected}, got {value!r}"
        ) from None
    if "allowed" in meta and not problems:
        extra = meta["allowed"](checked)
        if extra is not None:
            _flag(problems, coerce, f"{ref}: {extra}")
    return checked, problems


@dataclass(frozen=True)
class ValidationReport:
    """Aggregated outcome of one scenario or room validation.

    Collects *every* field and condition violation — construction
    sites raise one :class:`~repro.errors.ConfigurationError` listing
    them all, not just the first.
    """

    #: What was validated (used in messages), e.g. ``scenario 'tiny'``.
    subject: str
    #: Hard violations, in field-then-condition declared order.
    errors: tuple[str, ...] = ()
    #: Advisory findings (legal but unusual combinations).
    warnings: tuple[str, ...] = ()

    @property
    def ok(self) -> bool:
        """True when no error-severity violation was found."""
        return not self.errors

    def raise_for_errors(self) -> None:
        """Raise a single error listing every violation (if any)."""
        if not self.errors:
            return
        raise ConfigurationError(
            f"{self.subject} failed validation with "
            f"{len(self.errors)} violation(s): "
            + "; ".join(self.errors)
        )

    def summary(self) -> str:
        """One-line ``ok``/``N error(s), M warning(s)`` rendering."""
        if self.ok and not self.warnings:
            return f"{self.subject}: ok"
        parts = []
        if self.errors:
            parts.append(f"{len(self.errors)} error(s)")
        if self.warnings:
            parts.append(f"{len(self.warnings)} warning(s)")
        return f"{self.subject}: " + ", ".join(parts)


def check_values(
    cls: type, values: Mapping[str, object], subject: str
) -> tuple[dict[str, object], ValidationReport]:
    """Check ``values`` against the fields declared on dataclass ``cls``.

    Unknown keys are errors; a missing field takes its default unless
    it has none or is declared ``required``.  Each value is checked for
    its declared type, ``choices``, ``bounds``, ``length`` and
    ``allowed`` predicate, then the class's ``conditions`` run in
    declared order, each skipped when a field it reads already failed,
    so one root cause yields one violation.  ``subject`` names what is
    checked (``scenario 'tiny'``, ``sweep job field``).

    Returns every field's conformed value and the report.  A class that
    sets ``coerce_fields = True`` never gets a report with errors: it
    raises at its first bad field instead, with a message naming
    ``subject`` and the field.
    """
    coerce = getattr(cls, "coerce_fields", False)
    shapes = field_shapes(cls)
    names = [spec_field.name for spec_field, _ in shapes]
    errors = [
        f"{key}: unknown parameter; known parameters: {', '.join(names)}"
        for key in values
        if key not in names
    ]
    failed: set[str] = set()
    checked: dict[str, object] = {}
    for spec_field, shape in shapes:
        name = spec_field.name
        if name in values:
            value = values[name]
        elif spec_field.default is MISSING or spec_field.metadata.get(
            "required"
        ):
            errors.append(f"{name}: value is required")
            failed.add(name)
            continue
        else:
            value = spec_field.default
        ref = f"{subject} {name!r}" if coerce else name
        checked[name], problems = _check(
            ref, value, shape, spec_field.metadata, coerce
        )
        if problems:
            errors.extend(problems)
            failed.add(name)
    warnings: list[str] = []
    for rule in getattr(cls, "conditions", ()):
        if failed.intersection(rule.requires) or rule.check(checked):
            continue
        line = rule.message(checked)
        (warnings if rule.severity == "warning" else errors).append(line)
    return checked, ValidationReport(
        subject=subject, errors=tuple(errors), warnings=tuple(warnings)
    )


def check_fields(obj, subject: str) -> ValidationReport:
    """:func:`check_values` over a dataclass instance, in place.

    The ``__post_init__`` of scenarios, job specs and run/host options
    calls this: the conformed values (tuples for lists, converted
    numbers for a coercing class) replace the given ones.
    """
    values, report = check_values(type(obj), vars(obj), subject)
    for name, value in values.items():
        if value is not getattr(obj, name):
            object.__setattr__(obj, name, value)
    return report


def field_problems(cls: type, name: str, value: object) -> list[str]:
    """Every violation of ``value`` as field ``name`` of ``cls``.

    Checks one value alone (a grid-axis value), without conditions.
    """
    ((spec_field, shape),) = [
        entry for entry in field_shapes(cls) if entry[0].name == name
    ]
    coerce = getattr(cls, "coerce_fields", False)
    return _check(name, value, shape, spec_field.metadata, coerce)[1]


def describe_parameters() -> str:
    """Human-readable catalog of the scenario fields and conditions."""
    from .scenario import Scenario

    lines = ["scenario parameters:"]
    for spec_field, shape in field_shapes(Scenario):
        meta = spec_field.metadata
        constraint = []
        choices = _choices(meta)
        if choices is not None:
            constraint.append(f"choices={sorted(choices)}")
        if "bounds" in meta:
            low, high = meta["bounds"]
            constraint.append(f"range=[{low}, {high}]")
        if shape.optional:
            constraint.append("optional")
        if spec_field.default not in (MISSING, None):
            constraint.append(f"default={spec_field.default!r}")
        suffix = f" ({'; '.join(constraint)})" if constraint else ""
        lines.append(
            f"  {spec_field.name:<16} {shape.kind.__name__:<7} "
            f"{meta['help']}{suffix}"
        )
    lines.append("conditions:")
    for rule in Scenario.conditions:
        severity = "" if rule.severity == "error" else f" [{rule.severity}]"
        lines.append(f"  {rule.name:<24} {rule.description}{severity}")
    return "\n".join(lines)


# -- TOML / JSON scenario files ------------------------------------------
def _parse_scenario_file(path: Path) -> dict:
    """Raw payload of a ``.toml`` or ``.json`` scenario file."""
    if path.suffix == ".toml":
        import tomllib

        return tomllib.loads(path.read_text())
    if path.suffix == ".json":
        return json.loads(path.read_text())
    raise ConfigurationError(
        f"unsupported scenario file {path.name!r}; expected .toml or "
        ".json"
    )


def load_scenario_file(
    path: str | Path, register: bool = True, replace: bool = False
) -> list:
    """Load (and by default register) scenarios from a TOML/JSON file.

    The file declares an optional ``[rooms.<name>]`` table per custom
    room geometry (checked against the fields of
    :class:`~repro.config.RoomConfig` and added to ``ROOM_PRESETS``)
    and a ``[[scenarios]]`` array of scenario tables (checked against
    the fields of :class:`~repro.campaign.scenario.Scenario`).  A room
    table must give the fields declared ``required`` and has no
    scatterers unless it lists them.  Every table is validated *before*
    anything is registered, so a broken file changes nothing; the
    aggregated error lists each bad table's full violation set.
    Returns the loaded scenarios in file order.
    """
    from ..config import RoomConfig
    from .scenario import (
        ROOM_PRESETS,
        Scenario,
        register_scenario,
        scenario_subject,
    )

    path = Path(path)
    if not path.exists():
        raise ConfigurationError(f"no such scenario file: {path}")
    payload = _parse_scenario_file(path)
    unknown = set(payload) - {"rooms", "scenarios"}
    if unknown:
        raise ConfigurationError(
            f"{path.name}: unknown top-level key(s) "
            f"{sorted(unknown)}; expected 'rooms' and 'scenarios'"
        )
    rooms = payload.get("rooms", {})
    entries = payload.get("scenarios", [])
    if not isinstance(rooms, dict) or not isinstance(entries, list):
        raise ConfigurationError(
            f"{path.name}: 'rooms' must be a table and 'scenarios' an "
            "array of tables"
        )
    errors: list[str] = []
    built_rooms = {}
    for room_name, table in rooms.items():
        values, report = check_values(
            RoomConfig, {"scatterers": (), **table}, f"room {room_name!r}"
        )
        if report.errors:
            errors.extend(report.errors)
        else:
            built_rooms[room_name] = RoomConfig(**values)
    # Custom rooms must be visible to scenario validation below.
    ROOM_PRESETS.update(built_rooms)
    tables = []
    for entry in entries:
        values, report = check_values(
            Scenario, entry, scenario_subject(entry.get("name"))
        )
        errors.extend(
            f"{report.subject}: {line}" for line in report.errors
        )
        tables.append(values)
    if errors:
        for room_name in built_rooms:
            ROOM_PRESETS.pop(room_name, None)
        raise ConfigurationError(
            f"{path.name} failed validation with {len(errors)} "
            "violation(s): " + "; ".join(errors)
        )
    scenarios = [Scenario(**values) for values in tables]
    if register:
        for scenario in scenarios:
            register_scenario(scenario, replace=replace)
    return scenarios


# -- seeded sampling of the scenario space -------------------------------
#: SNR lattice (0.5 dB steps inside the trained range) the sampler
#: draws sweep grids from; a sorted sample of a lattice is strictly
#: ascending and unique by construction.
_SNR_LATTICE = tuple(
    round(SNR_BOUNDS_DB[0] + 0.5 * k, 1)
    for k in range(int((SNR_BOUNDS_DB[1] - SNR_BOUNDS_DB[0]) * 2) + 1)
)

#: Sampling scales: ``full`` roams the whole declared space; ``tiny``
#: clamps to seconds-scale dimensions so fuzz round trips stay cheap.
SAMPLE_SCALES = ("full", "tiny")


def _draw_values(
    rng: random.Random, seed: int, index: int, scale: str
) -> dict[str, object]:
    """One (possibly invalid) uniform draw from the declared ranges."""
    from .scenario import ROOM_PRESETS

    if scale == "tiny":
        base = "tiny"
        num_sets = 3
        packets = rng.randint(6, 10)
    else:
        base = rng.choice(("tiny", "reduced", "paper"))
        num_sets = rng.choice((None, rng.randint(*NUM_SETS_BOUNDS[:1] + (8,))))
        packets = rng.choice((None, rng.randint(8, 60)))
    low = round(rng.uniform(MOBILITY_SPEED_BOUNDS_MPS[0], 2.0), 2)
    high = round(
        rng.uniform(low, min(low + 1.2, MOBILITY_SPEED_BOUNDS_MPS[1])), 2
    )
    grid = tuple(
        sorted(rng.sample(_SNR_LATTICE, k=rng.randint(2, 4)))
    )
    return {
        "name": f"sampled-{seed}-{index:04d}",
        "description": f"seeded sample {index} of scenario space "
        f"(seed {seed})",
        "base": base,
        "room": rng.choice(tuple(ROOM_PRESETS)),
        "trajectory": rng.choice(TRAJECTORY_PRESETS),
        "num_humans": rng.randint(1, 3),
        "speed_range_mps": rng.choice((None, (low, high))),
        "speed_profile": rng.choice(SPEED_PROFILES),
        "snr_db": rng.choice(
            (None, round(rng.uniform(*SNR_BOUNDS_DB), 1))
        ),
        "snr_grid_db": grid,
        "num_sets": num_sets,
        "packets_per_set": packets,
        "seed": rng.randint(0, 99_999),
        "stream_links": rng.randint(1, 6),
        "traffic": rng.choice(
            (
                "periodic",
                "poisson:12",
                "onoff:40:1:4",
                "diurnal:10:60:0.8",
                "mixed",
            )
        ),
        "qos": rng.choice(("uniform", "triple")),
        "tags": ("sampled", scale),
    }


def sample_scenarios(seed: int, count: int, scale: str = "full") -> list:
    """Draw ``count`` *valid* scenarios from the declared ranges.

    Rejection sampling over :func:`_draw_values`: each candidate is a
    uniform draw from every field's declared range/choices; draws
    violating a declared condition (e.g. a grouped trajectory with one
    human) are discarded and redrawn, so every returned scenario
    validates and resolves.  The sequence is a pure function of
    ``(seed, count, scale)`` — :class:`random.Random` is process- and
    platform-stable — which is what makes the fuzz suite and the
    nightly determinism sentinel reproducible.
    """
    from .scenario import Scenario

    if scale not in SAMPLE_SCALES:
        raise ConfigurationError(
            f"unknown sample scale {scale!r}; expected one of "
            f"{SAMPLE_SCALES}"
        )
    if count < 1:
        raise ConfigurationError(f"count must be >= 1, got {count}")
    rng = random.Random(int(seed))
    scenarios: list = []
    attempts = 0
    while len(scenarios) < count:
        attempts += 1
        if attempts > 100 * count:
            raise ConfigurationError(
                "sampler failed to draw enough valid scenarios; the "
                "declared ranges are inconsistent with the conditions"
            )
        draw = _draw_values(rng, int(seed), len(scenarios), scale)
        try:
            scenarios.append(Scenario(**draw))
        except ConfigurationError:
            continue
    return scenarios
