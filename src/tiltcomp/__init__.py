"""Tilt-compensated point-of-interest positioning.

A surveying prism rides a tilting pole; an IMU on the same rigid body
estimates roll and pitch through an adaptive complementary filter; a robotic
total station tracks the prism. Fusing the two streams rotates the fixed
body-frame lever arm into the navigation frame and recovers the pole tip
(the point of interest) regardless of tilt.

Modules: :mod:`~tiltcomp.attitude` (filter), :mod:`~tiltcomp.kinematics`
(rotations and lever arms), :mod:`~tiltcomp.geodesy` (polar conversion and
similarity transform), :mod:`~tiltcomp.pipeline` (stream fusion),
:mod:`~tiltcomp.codec` (wire formats), :mod:`~tiltcomp.sim` (ground-truth
scenario generator), :mod:`~tiltcomp.evaluate` (error statistics),
:mod:`~tiltcomp.cli` (command line).

The package exports each library module's ``__all__``; that list is the one
place a public name is declared. :mod:`~tiltcomp.cli` is not imported here.
"""

from . import attitude, codec, evaluate, geodesy, kinematics, pipeline, sim
from .attitude import *
from .codec import *
from .evaluate import *
from .geodesy import *
from .kinematics import *
from .pipeline import *
from .sim import *

__version__ = "0.1.0"

__all__ = [
    *attitude.__all__,
    *kinematics.__all__,
    *geodesy.__all__,
    *pipeline.__all__,
    *codec.__all__,
    *sim.__all__,
    *evaluate.__all__,
    "__version__",
]
