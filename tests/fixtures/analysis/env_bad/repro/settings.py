"""Planted direct environment reads (fixture; never imported)."""

import os

from os import getenv  # expect[env-discipline]  (from-import of getenv)

TRACE = os.environ.get("REPRO_TRACE", "")  # expect[env-discipline]
CHECK = os.getenv("REPRO_CHECK")  # expect[env-discipline]


def no_numpy():
    return bool(os.environ.get("REPRO_NO_NUMPY"))  # expect[env-discipline]
