"""confkit: validate software configurations against typed configuration
specifications.

A configuration is a tree of concrete components; a specification constrains,
per component type, the admissible identities, dependencies, and child
counts.  The library infers the minimal specification a configuration
satisfies, checks compliance by refinement, compares configurations for
upgrade compatibility, and applies guarded, journaled, reversible changes.
"""

from . import algebra, inference, lifecycle, model, textfmt, typecheck
from .algebra import *
from .inference import *
from .lifecycle import *
from .model import *
from .textfmt import *
from .typecheck import *

__version__ = "0.1.0"

# Each public name is declared once, in the `__all__` of the module that
# defines it; the package re-exports them all.
__all__ = sorted(algebra.__all__ + inference.__all__ + lifecycle.__all__
                 + model.__all__ + textfmt.__all__ + typecheck.__all__)
