"""ctact: constant-time activation functions and a timing-leakage bench.

The package has two halves.  The construction half provides branchless
binary32 building blocks on IEEE-754 encodings (:mod:`ctact._ops`), the one
binary32 input check (:mod:`ctact.ctselect`), a shared fixed-shape rational
core (:mod:`ctact.pade`), and five activation kernels built on them
(:mod:`ctact.activations`), whose ``SPECS`` registry defines each kind in
one place: kernel, libm reference, trace model, threshold and sweep
candidates.  The evaluation half checks what the construction claims:
operation-trace uniformity and host timing (:mod:`ctact.harness`), a
profiled Gaussian-template timing attack against a modeled device
(:mod:`ctact.attack`), and accuracy plus threshold analysis
(:mod:`ctact.analysis`).  ``ctact.cli`` exposes all of it as the ``ctact``
command.

The public API is the union of the ``__all__`` lists of ``activations``,
``pade``, ``grids``, ``harness``, ``attack`` and ``analysis``; each module's
list is the one declaration of what it exports, and no name is in two.
"""

from . import activations, analysis, attack, grids, harness, pade
from .activations import *  # noqa: F401,F403
from .pade import *  # noqa: F401,F403
from .grids import *  # noqa: F401,F403
from .harness import *  # noqa: F401,F403
from .attack import *  # noqa: F401,F403
from .analysis import *  # noqa: F401,F403

__version__ = "0.1.0"

__all__ = ["__version__", *activations.__all__, *pade.__all__, *grids.__all__,
           *harness.__all__, *attack.__all__, *analysis.__all__]
