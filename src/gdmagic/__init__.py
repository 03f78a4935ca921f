"""Distance magic labelings of graphs over finite abelian groups.

The package builds finite abelian groups and simple graphs, takes their
lexicographic/direct/Cartesian products, constructs magic labelings for the
product families that admit them, recognizes structural obstructions, and
can exhaustively search small instances with an independently-checked
verifier as the single source of truth.
"""

from . import abelian, constructors, graphs, magic, products, solver
from .abelian import *
from .graphs import *
from .products import *
from .magic import *
from .constructors import *
from .solver import *

__all__ = [*abelian.__all__, *graphs.__all__, *products.__all__,
           *magic.__all__, *constructors.__all__, *solver.__all__]

__version__ = "0.1.0"
