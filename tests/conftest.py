import pytest

from temporal_im.tensor import one_blas_thread


@pytest.fixture(scope="session", autouse=True)
def _one_blas_thread():
    """Run the suite under the BLAS layout of the command line, so library
    results and CLI results are computed alike."""
    with one_blas_thread():
        yield
