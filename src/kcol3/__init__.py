"""Toolkit for the direct k-colorability to 3-colorability reduction.

Exposes graph/coloring primitives, the color-copying gadget library, the
direct reduction with witness translation, an exact backtracking solver,
and the SAT-detour baseline for size comparison. Each module's `__all__`
is its public API, re-exported here.
"""

from .errors import *
from .gadgets import *
from .graphs import *
from .reduction import *
from .sat_route import *
from .solver import *

__version__ = "0.1.0"
