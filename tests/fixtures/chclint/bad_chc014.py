"""A package __init__ that re-exports its submodules (CHC014).

Linted as ``src/repro/<package>/__init__.py``: under any other name the
rule does not apply.
"""

from repro.store.client import StoreClient
from repro.store import keys
import repro.store.datastore
from . import protocol
from .spec import Scope
import json  # not a repro module: fine

__version__ = "1.0.0"

__all__ = ["StoreClient", "Scope", "keys", "protocol"]


def __getattr__(name):
    # a PEP 562 lazy table: imports on first access, fine
    from repro.store.wal import WriteAheadLog

    if name == "WriteAheadLog":
        return WriteAheadLog
    raise AttributeError(name)


def dump(value):
    return json.dumps(value), repro.store.datastore
