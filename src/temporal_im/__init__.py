"""Influence matrices for kicked spin-1/2 chains, represented as MPS over
the time direction.  Local observables follow from contracting one
converged influence matrix, which faces the probed site from both sides,
through a single-site kernel."""

__version__ = "0.1.0"

from .models import Impurity, ModelSpec, floquet_kernel, trotterize
from .influence import (InfluenceMatrix, NumericalInstabilityError,
                        build_disorder_slice, build_transfer_slice,
                        impurity_im, solve_im)
from .observables import (Insertion, InsertionPlan, ResultSeries,
                          autocorrelator_series, entropy_series,
                          quench_magnetization_series, temporal_contract)
from .oracles import (ResourceLimitError, binary_entropy_formula,
                      dicke_entropy, ed_chain_evolve,
                      ed_disorder_monte_carlo, g0_schmidt_entropy, im_g0)
from .mps import TemporalMps, entropy_profile

__all__ = [
    "__version__",
    "Impurity", "ModelSpec", "floquet_kernel", "trotterize",
    "InfluenceMatrix", "NumericalInstabilityError", "build_disorder_slice",
    "build_transfer_slice", "impurity_im", "solve_im",
    "Insertion", "InsertionPlan", "ResultSeries", "autocorrelator_series",
    "entropy_series", "quench_magnetization_series", "temporal_contract",
    "ResourceLimitError", "binary_entropy_formula", "dicke_entropy",
    "ed_chain_evolve", "ed_disorder_monte_carlo", "g0_schmidt_entropy",
    "im_g0",
    "TemporalMps", "entropy_profile",
]
