"""Secure key-rate modelling for coherent and modified-coherent-state QKD sources.

The package computes photon-number statistics of squeezed coherent states
whose two- or three-photon components are cancelled by quantum interference,
feeds them through a lossy fiber-channel model into an individual-attack
secure-rate formula, optimizes the source parameter per distance, and verifies
every closed form against independent brute-force oracles.
"""

from . import errors, fock_oracle, key_rate, optimizer, photon_source
from .errors import *
from .fock_oracle import *
from .key_rate import *
from .optimizer import *
from .photon_source import *

__version__ = "0.2.0"

# each module's __all__ is the one list of its public names
__all__ = [*errors.__all__, *fock_oracle.__all__, *key_rate.__all__, *optimizer.__all__,
           *photon_source.__all__]
