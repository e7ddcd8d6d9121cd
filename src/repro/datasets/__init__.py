"""Surrogate dataset registry: seeded synthetic stand-ins for the
paper's graphs (the substitutions are listed in :mod:`.registry`)."""

from .registry import DatasetSpec, dataset_names, get_spec, load

__all__ = ["DatasetSpec", "dataset_names", "get_spec", "load"]
