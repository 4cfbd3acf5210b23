"""Oblivious graph encryption over Path ORAM.

Shortest-path queries over an encrypted graph hosted on an untrusted
server, leaking only the length of the queried path.  Includes the
plain encrypted-dictionary baseline, the query-recovery attack against
it, and trace auditing tools.
"""

from .exceptions import (
    CapacityError,
    ConfigError,
    GraphFormatError,
    IntegrityError,
    ObgeError,
    ProtocolError,
    StashOverflowError,
)
from .graph import Graph, compute_spdx, load_graph, spath_oracle
from .crypto import KeySet, Prf, keygen, prf_eval
from .protocol import reveal, setup
from .server import deploy_inprocess

__all__ = [
    "CapacityError",
    "ConfigError",
    "Graph",
    "GraphFormatError",
    "IntegrityError",
    "KeySet",
    "ObgeError",
    "Prf",
    "ProtocolError",
    "StashOverflowError",
    "compute_spdx",
    "deploy_inprocess",
    "keygen",
    "load_graph",
    "prf_eval",
    "reveal",
    "setup",
    "spath_oracle",
]

__version__ = "0.1.0"
