import pytest
import scipy.linalg  # noqa: F401  load scipy's OpenBLAS before the pin below

from temporal_im.tensor import one_blas_thread


@pytest.fixture(scope="session", autouse=True)
def _one_blas_thread():
    """Run the suite under the BLAS layout of the command line, so library
    results and CLI results are computed alike.  scipy is imported first,
    so its OpenBLAS is pinned here too, as it was when the engine imported
    scipy at load time."""
    with one_blas_thread():
        yield
