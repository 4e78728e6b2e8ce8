"""Scale-invariant processes sampled on geometric grids.

Covariance closed forms, quasi-Lamperti transforms, seeded Monte Carlo,
self-similar embeddings, and spectral density matrices for discrete-time
scale-invariant Markov processes observed at the points ``alpha**k``.
"""

from . import core, covariance, errors, lamperti, multidim, simulate, spectral, verify
from .errors import *  # noqa: F403
from .core import *  # noqa: F403
from .covariance import *  # noqa: F403
from .lamperti import *  # noqa: F403
from .multidim import *  # noqa: F403
from .simulate import *  # noqa: F403
from .spectral import *  # noqa: F403
from .verify import *  # noqa: F403

__version__ = "0.1.0"

__all__ = [name for mod in (errors, core, covariance, lamperti, multidim, simulate, spectral, verify)
           for name in mod.__all__]
