"""Small helpers shared by test modules."""
import io

from temporal_im.influence import InfluenceMatrix, save_checkpoint


def checkpoint_bytes(im: InfluenceMatrix) -> bytes:
    """The bytes ``save_checkpoint`` writes for ``im``."""
    buf = io.BytesIO()
    save_checkpoint(im, buf)
    return buf.getvalue()
