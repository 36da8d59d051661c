"""Forecast verification with consistent scoring functions.

Scores point forecasts of quantiles, expectiles, and Huber means;
decomposes any such score (and the CRPS) over a partition of unity
into regional components that remain consistent; draws Murphy curves
from elementary scores; and compares forecast systems with confidence
intervals.  Two built-in simulations illustrate why regional
components beat naive event selection when verifying extremes.
"""

import sys as _sys

from .decomposition import *  # noqa: F403
from .elementary import *  # noqa: F403
from .ensemble import *  # noqa: F403
from .errors import *  # noqa: F403
from .evaluation import *  # noqa: F403
from .io import *  # noqa: F403
from .partition import *  # noqa: F403
from .scoring import *  # noqa: F403

__version__ = "0.1.0"

# the public API is the union of the submodules' __all__ lists
_MODULES = "errors partition scoring decomposition ensemble elementary evaluation io".split()
__all__ = ["__version__"] + [
    name for m in _MODULES for name in _sys.modules[f"{__name__}.{m}"].__all__
]
