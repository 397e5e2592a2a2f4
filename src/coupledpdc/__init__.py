"""Coherence of two continuously coupled parametric downconverters.

The package builds the device as a 4x4 Bogoliubov transfer matrix,
computes vacuum-input moments and the mutual signal coherence, extracts
the two equivalent substituting schemes (four converters, or two
converters between mixers), analyzes the which-way information carried by
the idler modes, and cross-validates everything against an exact
truncated photon-number-basis evolution.

The package exports what each module lists in its ``__all__``; the
batched engine (``transfer_stack``, ``four_converter_stack``,
``evolve_stack`` and the rest) is imported from its module.
"""

from . import config, decompose, device, errors, fock, moments, whichway
from .config import *
from .decompose import *
from .device import *
from .errors import *
from .fock import *
from .moments import *
from .whichway import *

__version__ = "0.1.0"

__all__ = [*config.__all__, *device.__all__, *moments.__all__,
           *decompose.__all__, *whichway.__all__, *fock.__all__,
           *errors.__all__]
