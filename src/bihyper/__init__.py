"""Exact coloring toolkit for mixed hypergraphs and 3-uniform bi-hypergraph families."""

# each module's __all__ is its public surface; the package re-exports all four
from . import constructions, isomorphism, model, solver
from .constructions import *
from .isomorphism import *
from .model import *
from .solver import *

__version__ = "0.1.0"
__all__ = constructions.__all__ + isomorphism.__all__ + model.__all__ + solver.__all__
