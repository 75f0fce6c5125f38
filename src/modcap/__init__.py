"""Modulus and content computations on finite metric measure spaces.

The package solves the discrete p-modulus problem for families of
measures and of polyline curves, certifies the duality with plans whose
barycenter lies in L^q, manipulates curve plans (barycenter improvement,
stretch averaging, test-plan checks), and verifies upper-gradient pairs.

Each module's ``__all__`` is the one list of its public names; the
package re-exports them all.
"""

from . import curves, duality, errors, families, gradients, instance, modulus, plans, space
from .curves import *  # noqa: F401,F403
from .duality import *  # noqa: F401,F403
from .errors import *  # noqa: F401,F403
from .families import *  # noqa: F401,F403
from .gradients import *  # noqa: F401,F403
from .instance import *  # noqa: F401,F403
from .modulus import *  # noqa: F401,F403
from .plans import *  # noqa: F401,F403
from .space import *  # noqa: F401,F403

__version__ = "0.1.0"

_MODULES = (curves, duality, errors, families, gradients, instance, modulus, plans, space)
__all__ = [name for module in _MODULES for name in module.__all__]
