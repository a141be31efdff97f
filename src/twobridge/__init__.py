"""2-bridge knot fractions, the Casson-Gordon ribbon obstruction, and the
known families of 2-bridge ribbon knots.

The package exports the public names of every module but the CLI: the
module ``__all__`` lists are the only lists of them, and ``__all__`` joins them.
"""

from . import casson_gordon, conway, enumeration, errors, families
from .casson_gordon import *  # noqa: F401,F403
from .conway import *  # noqa: F401,F403
from .enumeration import *  # noqa: F401,F403
from .errors import *  # noqa: F401,F403
from .families import *  # noqa: F401,F403

__version__ = "0.1.0"

__all__ = [n for m in (conway, casson_gordon, families, enumeration, errors) for n in m.__all__]
