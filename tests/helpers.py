"""Small helpers shared by test modules."""
import io
from typing import Tuple

from temporal_im.influence import InfluenceMatrix, save_checkpoint
from temporal_im.observables import Insertion, InsertionPlan
from temporal_im.tensor import _openblas_libs


def checkpoint_bytes(im: InfluenceMatrix) -> bytes:
    """The bytes ``save_checkpoint`` writes for ``im``."""
    buf = io.BytesIO()
    save_checkpoint(im, buf)
    return buf.getvalue()


def czz_plan(T: int) -> InsertionPlan:
    """sigma^z at time 0 and time T, forward branch: the autocorrelator."""
    return InsertionPlan([Insertion(0, "forward", "z"),
                          Insertion(T, "forward", "z")])


def blas_threads() -> Tuple[int, ...]:
    """Current thread count of each loaded OpenBLAS; empty if none is found."""
    return tuple(get() for get, _ in _openblas_libs().values())
