"""Community detection for attributed networks.

The pipeline refines human labels into connected sub-communities, trains a
graph-convolutional encoder against pairwise co-membership targets, and
clusters the embedding with a CF-tree. Individual stages are usable on their
own: Leiden optimization, label refinement, the metrics suite, and the
synthetic benchmark generator.
"""

import sys as _sys

from .graph import *
from .metrics import *
from .leiden import *  # binds comdet.leiden to the function, not the module
from .refine import *
from .gcn import *
from .loss import *
from .birch import *
from .data_io import *
from .pipeline import *

__version__ = "0.1.0"

__all__ = [name for module in ("graph", "metrics", "leiden", "refine", "gcn", "loss", "birch",
                               "data_io", "pipeline")
           for name in _sys.modules[f"{__name__}.{module}"].__all__] + ["__version__"]
