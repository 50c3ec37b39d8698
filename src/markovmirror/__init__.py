"""Mirror-descent and mirror-prox methods driven by Markovian data streams.

The pieces compose left to right: a `geometry` fixes the feasible set,
mirror map, and norm pair; a `chain` supplies correlated noise indices
through a cursor; a `problem` binds a smooth objective or monotone
operator to that chain; `estimators` turn cursor draws into gradient
estimates, truncated multilevel ones among them; `solvers` run
accelerated mirror descent or mirror prox on top; and `validation`
measures what came out.  The ``markovmirror`` console script drives
experiments from dotted-key config files.

Each module's ``__all__`` is its public surface; the package re-exports
all of them.
"""

from . import chain, errors, estimators, geometry, problems, solvers, validation
from .chain import *  # noqa: F403
from .errors import *  # noqa: F403
from .estimators import *  # noqa: F403
from .geometry import *  # noqa: F403
from .problems import *  # noqa: F403
from .solvers import *  # noqa: F403
from .validation import *  # noqa: F403

__version__ = "0.1.0"

__all__ = ["__version__", *(name for module in (chain, errors, estimators, geometry, problems,
                                                solvers, validation) for name in module.__all__)]
