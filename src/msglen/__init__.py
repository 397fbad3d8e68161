"""Statistical models as transformable first-class values, scored by
two-part message length.

The pieces:

* ``values``: measured data (nominal value + accuracy of measurement),
  datasets, CSV ingestion, and AoM-propagating dataset mapping.
* ``functions``: function objects with derivatives, inverses and
  Jacobians; the machinery that makes transforms well behaved.
* ``models``: the two-stage model hierarchy (families and parameterised
  models) and capability-preserving transforms, e.g.
  ``normal.transform(log)`` is the log-normal family.  Each family fits
  itself through one hook, ``_model``.
* ``estimation``: the one ``Estimator``, which wraps a family's hook and
  scores its fits with msg1 (model statement) and msg2 (data given model)
  in nits.
* ``cli``: ``msglen fit | eval | sample | check`` on CSV data.
"""

from .errors import (
    CsvError,
    DegenerateTransformError,
    DomainError,
    EstimationError,
    InvalidDatumError,
    ModelExprError,
    MsglenError,
    NotInvertibleError,
    ParameterError,
    SchemaError,
    TransformError,
)
from .estimation import FitResult
from .functions import (
    Componentwise,
    ComponentPermutation,
    ReversePermutation,
    Rotation,
    cartesian2polar,
    exp,
    identity,
    inv,
    linear,
    log,
    polar2cartesian,
)
from .models import (
    DEFAULT_SAMPLE_AOM,
    NormalPriors,
    bounded_uniform,
    independent_rd,
    multistate,
    normal,
)
from .values import (
    ColumnSpec,
    CtsDatum,
    DataSet,
    DiscreteDatum,
    VecDatum,
    dataset_from_csv,
    infer_default_aom,
    map_dataset,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # values
    "CtsDatum",
    "VecDatum",
    "DiscreteDatum",
    "ColumnSpec",
    "DataSet",
    "dataset_from_csv",
    "map_dataset",
    "infer_default_aom",
    # functions
    "identity",
    "log",
    "exp",
    "inv",
    "linear",
    "polar2cartesian",
    "cartesian2polar",
    "Componentwise",
    "ComponentPermutation",
    "ReversePermutation",
    "Rotation",
    # models
    "normal",
    "bounded_uniform",
    "multistate",
    "independent_rd",
    "DEFAULT_SAMPLE_AOM",
    # estimation
    "FitResult",
    "NormalPriors",
    # errors
    "MsglenError",
    "InvalidDatumError",
    "DomainError",
    "DegenerateTransformError",
    "NotInvertibleError",
    "SchemaError",
    "CsvError",
    "ParameterError",
    "EstimationError",
    "TransformError",
    "ModelExprError",
]
