"""Veni Vidi Dixi (VVD) reproduction — CoNEXT 2019.

Reliable wireless communication with depth images: a CNN maps depth
images of the communication environment to complex IEEE 802.15.4 channel
estimates, removing pilot overhead (Ayvasik, Gursu, Kellerer).

Quickstart::

    from repro import SimulationConfig, generate_dataset, build_components
    from repro.experiments import EvaluationRunner, build_full_suite
    from repro.dataset import rotating_set_combinations

    config = SimulationConfig.tiny()
    components = build_components(config)
    sets = generate_dataset(config, components)
    runner = EvaluationRunner(components, sets)
    combo = rotating_set_combinations(config.dataset.num_sets)[0]
    result = runner.run_combination(combo, build_full_suite(config))
    print({n: r.per for n, r in result.techniques.items()})

See docs/ARCHITECTURE.md ("Module map") for the system inventory and
README.md ("Tests and benchmarks") for the benches that regenerate every
table and figure.
"""

from .config import (
    CameraConfig,
    ChannelConfig,
    DatasetConfig,
    KalmanConfig,
    MobilityConfig,
    PhyConfig,
    ReceiverConfig,
    RoomConfig,
    SimulationConfig,
    VVDConfig,
)
from .dataset import build_components, generate_dataset
from .errors import (
    ConfigurationError,
    ConflictError,
    DatasetError,
    DecodingError,
    NotFittedError,
    NotFoundError,
    ReproError,
    ShapeError,
    SynchronizationError,
    UnavailableError,
)


def __getattr__(name: str):
    """Lazily expose the heavy subpackages (PEP 562).

    ``repro.api`` (the programmatic campaign facade) and ``repro.serve``
    (the campaign-as-a-service daemon) pull in the whole campaign
    stack; importing them eagerly would make ``import repro`` pay for
    orchestration machinery that pure-PHY users never touch.
    """
    if name in ("api", "serve"):
        import importlib

        module = importlib.import_module(f".{name}", __name__)
        globals()[name] = module
        return module
    raise AttributeError(
        f"module {__name__!r} has no attribute {name!r}"
    )

__version__ = "1.0.0"

__all__ = [
    "SimulationConfig",
    "PhyConfig",
    "ChannelConfig",
    "RoomConfig",
    "CameraConfig",
    "MobilityConfig",
    "ReceiverConfig",
    "DatasetConfig",
    "VVDConfig",
    "KalmanConfig",
    "build_components",
    "generate_dataset",
    "ReproError",
    "ConfigurationError",
    "ConflictError",
    "NotFoundError",
    "UnavailableError",
    "ShapeError",
    "SynchronizationError",
    "NotFittedError",
    "DecodingError",
    "DatasetError",
    "api",
    "serve",
    "__version__",
]
