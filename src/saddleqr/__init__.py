"""saddleqr: block Gram-Schmidt QR solvers and stability benchmarks for
symmetric saddle-point systems."""

from .blockgs import bcgs, bcgs2
from .errors import (
    DegenerateSolutionError,
    DimensionError,
    HypothesisError,
    LinAlgError,
    NonConvergedError,
    NonFiniteError,
    RankDeficientError,
    SingularMatrixError,
    ZeroDiagonalError,
)
from .householder import thin_householder_qr
from .matrix import DenseMatrix, Vector, mat_vec, matmul, vector_norm
from .norms import condition_number, inverse_norm, spectral_norm
from .saddle import SaddleBlocks, assemble, solve_detailed, validate
from .stability import backward_certificate, lemma1_bounds, metrics, qr_residuals
from .testgen import matrix1, matrix2, scale_problem

__version__ = "0.1.0"

__all__ = [
    "DegenerateSolutionError",
    "DenseMatrix",
    "DimensionError",
    "HypothesisError",
    "LinAlgError",
    "NonConvergedError",
    "NonFiniteError",
    "RankDeficientError",
    "SaddleBlocks",
    "SingularMatrixError",
    "Vector",
    "ZeroDiagonalError",
    "assemble",
    "backward_certificate",
    "bcgs",
    "bcgs2",
    "condition_number",
    "inverse_norm",
    "lemma1_bounds",
    "mat_vec",
    "matmul",
    "matrix1",
    "matrix2",
    "metrics",
    "qr_residuals",
    "scale_problem",
    "solve_detailed",
    "spectral_norm",
    "thin_householder_qr",
    "validate",
    "vector_norm",
]
