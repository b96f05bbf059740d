"""Bad input fails with a typed error, never with a stray exception.

``parse_config_text`` may only return a config or raise ``ConfigError``;
``load_checkpoint`` may only return an IM or raise ``ValueError``, on
arbitrary bytes and on valid checkpoints with bytes changed or cut off.
"""
import io
import struct

from hypothesis import example, given, settings, strategies as st

from temporal_im.cli import _KEYS, ConfigError, ExperimentConfig, parse_config_text
from temporal_im.influence import InfluenceMatrix, load_checkpoint, solve_im
from temporal_im.models import ModelSpec

from helpers import checkpoint_bytes

_VALUES = ("", ",", " , ", "0", "1", "-1", "2", "3,3", "1,2", "0.1", "-0.1",
           "0.04", "1e-12", "1e400", "nan", "-inf", "true", "no", "open",
           "perfect_dephaser", "open,open", "quench", "dtc", "floquet-czz",
           "hamiltonian-impurity", "entropy-scan", "99999999999999999999")
_LINES = st.one_of(
    st.tuples(st.sampled_from(sorted(_KEYS)),
              st.one_of(st.sampled_from(_VALUES), st.text(max_size=12)))
    .map(lambda kv: f"{kv[0]} = {kv[1]}"),
    st.text(max_size=20),
)


@settings(max_examples=300, deadline=None)
@given(st.lists(_LINES, max_size=12))
def test_parse_config_raises_only_config_error(lines):
    try:
        cfg = parse_config_text("\n".join(lines))
    except ConfigError:
        return
    assert isinstance(cfg, ExperimentConfig)


_BLOB = checkpoint_bytes(solve_im(ModelSpec(J=0.31, g=0.57, h=0.23, T=3),
                                  chi_max=8, cutoff=0.0))


def _load(blob: bytes) -> None:
    try:
        im = load_checkpoint(io.BytesIO(blob))
    except ValueError:
        return
    assert isinstance(im, InfluenceMatrix)


# a valid header, then an MPS whose one tensor claims (2**32 - 1)**3 entries:
# too many bytes to ask a stream for
_HUGE = (_BLOB[:_BLOB.index(b"TIM1")] + b"TIM1"
         + struct.pack("<IIi d", 1, 1, -1, 0.0) + struct.pack("<III", *[2 ** 32 - 1] * 3))


@settings(max_examples=200, deadline=None)
@given(st.binary(max_size=64).map(lambda b: b"TIMC" + b) | st.binary(max_size=64))
@example(_HUGE)
def test_load_checkpoint_on_garbage_raises_only_value_error(blob):
    _load(blob)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(st.integers(0, len(_BLOB) - 1), st.integers(0, 255)),
                min_size=1, max_size=4),
       st.integers(1, len(_BLOB)))
def test_load_checkpoint_on_mutated_bytes_raises_only_value_error(edits, keep):
    blob = bytearray(_BLOB)
    for pos, byte in edits:
        blob[pos] = byte
    _load(bytes(blob[:keep]))
