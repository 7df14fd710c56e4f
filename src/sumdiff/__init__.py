"""Operator sum-difference representations of quantum channels.

Any linear, trace-preserving channel can be written as
``rho' = sum_i K+_i rho K+_i^dag - sum_k K-_k rho K-_k^dag`` by splitting its
Choi matrix into Hermitian elements and eigendecomposing each.  This package
builds such representations, verifies them (completeness, reconstruction,
action), and analyses the sub-channels and entanglement behavior of a driven
two-qubit amplitude-damping family, with a single-qubit generalized damping
channel as the warm-up case.
"""

# each module's __all__ is its public API, and the package re-exports it
from . import analysis, channels, choi, linalg
from .analysis import *
from .channels import *
from .choi import *
from .linalg import *

__version__ = "0.1.0"

__all__ = [*analysis.__all__, *channels.__all__, *choi.__all__, *linalg.__all__]
