"""repro — reproduction of NomLoc (ICDCS 2014).

Calibration-free indoor localization with nomadic access points, built on
a simulated 802.11n CSI substrate.

The most common entry points are re-exported here::

    from repro import NomLocSystem, get_scenario

    system = NomLocSystem(get_scenario("lab"))

Subpackages: :mod:`repro.geometry`, :mod:`repro.optimize`,
:mod:`repro.channel`, :mod:`repro.environment`, :mod:`repro.mobility`,
:mod:`repro.core`, :mod:`repro.baselines`, :mod:`repro.eval`,
:mod:`repro.serving`, :mod:`repro.cluster`, :mod:`repro.gateway`,
:mod:`repro.guard`, :mod:`repro.tracking`, :mod:`repro.sessions`,
:mod:`repro.extensions`.
"""

from .core import (
    LocalizerConfig,
    LocationEstimate,
    NomLocLocalizer,
    NomLocSystem,
    SystemConfig,
)
from .environment import Scenario, get_scenario
from .geometry import Point, Polygon

__version__ = "1.0.0"

__all__ = [
    "__version__",
    "Point",
    "Polygon",
    "Scenario",
    "get_scenario",
    "NomLocSystem",
    "NomLocLocalizer",
    "SystemConfig",
    "LocalizerConfig",
    "LocationEstimate",
]
