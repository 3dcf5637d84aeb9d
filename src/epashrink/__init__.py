"""Wavelet denoising with an Epanechnikov spike-and-slab shrinkage rule.

Each public name is listed once, in its submodule's ``__all__``; the
package exports the union of those lists.
"""

from . import dwt, elicitation, errors, shrinkage, signals, study, thresholds
from .dwt import *  # noqa: F401,F403
from .elicitation import *  # noqa: F401,F403
from .errors import *  # noqa: F401,F403
from .shrinkage import *  # noqa: F401,F403
from .signals import *  # noqa: F401,F403
from .study import *  # noqa: F401,F403
from .thresholds import *  # noqa: F401,F403

__all__ = sorted(name for module in (dwt, elicitation, errors, shrinkage, signals,
                                     study, thresholds)
                 for name in module.__all__)

__version__ = "0.1.0"
