"""Generalized-variation toolkit for piecewise-linear periodic functions:
p-variation, weighted (lambda) variation, moduli of continuity, an embedding
criterion between the shift-modulus and weighted-variation classes, and the
extremal constructions that probe its sharpness."""

from . import constructions, periodic, sequences, variation
from .constructions import *
from .periodic import *
from .sequences import *
from .variation import *

__version__ = "0.1.0"

# each public name is listed once, in its own module
__all__ = [*constructions.__all__, *periodic.__all__, *sequences.__all__, *variation.__all__]
