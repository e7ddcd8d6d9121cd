"""Max-flow / min-cut substrate and DSD network builders."""

from . import builders, dinic
from .parametric import ParametricNetwork

__all__ = ["ParametricNetwork", "dinic", "builders"]
