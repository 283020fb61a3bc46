"""Metric-weighted multivariate analysis built on one eigendecomposition.

A triple bundles a data matrix with a variable metric and observation
weights; its generalized eigendecomposition (:mod:`.linalg`) is the
single computational core.  Principal components, correspondence
analysis, discriminant analysis, instrumental-variable analysis and
canonical correlations (:mod:`.methods`) differ only in how they build
the triple; graph smoothness analysis (:mod:`.graph`) reaches the same
eigenproblem through the Laplacian; :mod:`.compare` measures closeness
of two analyses through the RV coefficient.

The public names are those in each module's ``__all__``, re-exported
here in module order, plus ``__version__``.
"""

from . import linalg, compare, scree, methods, graph, io
from .linalg import *
from .compare import *
from .scree import *
from .methods import *
from .graph import *
from .io import *

__version__ = "0.1.0"

__all__ = []
__all__ += linalg.__all__
__all__ += compare.__all__
__all__ += scree.__all__
__all__ += methods.__all__
__all__ += graph.__all__
__all__ += io.__all__
__all__ += ["__version__"]
