"""Analytic communication-cost models (Table 2)."""

from . import costmodels
from .costmodels import (
    candmc_paper_model,
    capital_paper_model,
    cholesky_models,
    confchox_full_model,
    confchox_paper_model,
    conflux_full_model,
    conflux_paper_model,
    grid_25d_dims,
    grid_2d_dims,
    lu_models,
    mkl_cholesky_full_model,
    mkl_lu_full_model,
    mkl_lu_paper_model,
    slate_lu_full_model,
    slate_lu_paper_model,
)

__all__ = [
    "costmodels",
    "conflux_paper_model", "conflux_full_model",
    "confchox_paper_model", "confchox_full_model",
    "mkl_lu_paper_model", "mkl_lu_full_model",
    "slate_lu_paper_model", "slate_lu_full_model",
    "mkl_cholesky_full_model",
    "candmc_paper_model", "capital_paper_model",
    "lu_models", "cholesky_models",
    "grid_25d_dims", "grid_2d_dims",
]
