"""accelwave: acceleration-wave analysis for 1-D relaxation models.

Characteristic structure and coupling-condition verdicts, the closed-form
amplitude evolution with blow-up classification, and an independent
finite-volume wavefront simulation for cross-checking, over viscoelastic
solids and relaxing non-Newtonian fluids.
"""

__version__ = "0.1.0"

from . import amplitude, characteristics, config, materials, wavefront
from .amplitude import *
from .characteristics import *
from .config import *
from .materials import *
from .wavefront import *

# each module's __all__ is the one list of its public names
__all__ = [*amplitude.__all__, *characteristics.__all__, *config.__all__,
           *materials.__all__, *wavefront.__all__]
