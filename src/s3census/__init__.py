"""Cubic fields by discriminant, their sextic twins, and predicted counts.

The package enumerates cubic fields through canonical integral binary cubic
forms, attaches to each non-cyclic field the Galois closure's quadratic
resolvent data to obtain a degree-6 discriminant, and tabulates the resulting
counts against a two-term asymptotic prediction with local corrections.
"""

from s3census.forms import BinaryCubicForm, discriminant, hessian
from s3census.enumeration import enumerate_fields
from s3census.sextic import sextic_discriminant
from s3census.census import CensusFilter, build_report, tabulate
from s3census.predictor import PredictionModel, predict

__all__ = [
    "BinaryCubicForm",
    "discriminant",
    "hessian",
    "enumerate_fields",
    "sextic_discriminant",
    "CensusFilter",
    "build_report",
    "tabulate",
    "PredictionModel",
    "predict",
]

__version__ = "0.1.0"
