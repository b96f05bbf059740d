"""Bad input fails with a typed error, never with a stray exception.

``parse_config_text`` may only return a config or raise ``ConfigError``.
``cli.main`` on a generated config file may only exit 0, 2 or 3: on 0
the manifest and every CSV it lists exist, on any other code no manifest
is written.  An SVD that cannot be done exits 3 as well.
"""
import json
import os
import tempfile

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from temporal_im import cli, influence
from temporal_im.cli import _KEYS, EXPERIMENTS, ConfigError, parse_config_text
from temporal_im.models import ModelSpec
from temporal_im.tensor import NumericalInstabilityError

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
    assert isinstance(cfg, dict)


# small values every run can afford (T_max <= 4, chi <= 4, t_max and t at
# most 4 steps of the smallest eps), and values most keys reject
_SMALL = {
    "J": ("0.8", "0", "-0.3"), "g": ("0.7236", "0", "1.5707963"),
    "h": ("0.6472", "0", "0.3"), "eps": ("0.1", "0.2", "0"),
    "eps_kick": ("0.13", "0"), "alpha": ("0.5", "0"), "beta": ("0.8", "0"),
    "T_max": ("1", "2", "4"), "t_max": ("0.2", "0.4"),
    "t": ("0.2", "0.4"), "chi": ("1", "4", "4,2"),
    "eps_list": ("0.1", "0.2,0.1"), "T_list": ("1", "4,2"),
    "cutoff": ("0", "1e-12", "0.5"),
    "boundary": ("open", "perfect_dephaser", "open,perfect_dephaser"),
    "preserve_weak_bonds": ("true", "no"), "reuse_im": ("true", "false"),
    "seed": ("1", "99999999999999999999"), "out": ("elsewhere",),
}
_BAD = ("", "-1", "0", "nan", "1e400", "x", "1,1", "0.3333")


# the keys each run reads, from cli's table: one form's required keys, and
# its optional and the common ones; the battery is no experiment
_FORMS = dict(cli._FORMS, **{"oracle-check": [((), ())]})
_ONE_IN = {n: st.sampled_from([False] * (n - 1) + [True]) for n in (2, 20, 50)}


@st.composite
def _config_files(draw):
    """Mostly runnable configs: each required key of one form is left out
    one time in twenty, an optional or common one half the time, any other
    key is put in one time in fifty, and a value is bad one time in
    twenty."""
    exp = draw(st.sampled_from(EXPERIMENTS + ("oracle-check",)))
    required, optional = draw(st.sampled_from(_FORMS[exp]))
    lines = [f"experiment = {exp}"]
    for key in sorted(_SMALL):
        odds = 20 if key in required else 2 if key in optional + cli._COMMON else 50
        if draw(_ONE_IN[odds]) == (key in required):  # the rare case
            continue
        bad = draw(_ONE_IN[20])
        lines.append(f"{key} = {draw(st.sampled_from(_BAD if bad else _SMALL[key]))}")
    return "\n".join(draw(st.permutations(lines))) + "\n"


@settings(max_examples=150, deadline=None)
@given(_config_files())
# eps_list without t on an experiment that does not read either: once a
# KeyError from the time-grid check
@example("experiment = floquet-czz\nJ = 1\ng = 1\nh = 1\nT_max = 1\nchi = 1\n"
         "eps_list = 0.1\n")
# a disorder-averaged scan without h: once an AttributeError
@example("experiment = entropy-scan\nT_list = 1\nchi = 1\neps_kick = -1\n")
@example("experiment = dtc\neps_kick = 0.13\nh = 0.3\nT_max = 1\nchi = 1\n")
@example("experiment = entropy-scan\nJ = 0\ng = 0\nh = 0\nT_list = 1\nchi = 1\n")
def test_main_exits_only_with_its_codes(text):
    assert set(_SMALL) | {"experiment"} == set(_KEYS)
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "fuzz.cfg")
        with open(path, "w") as f:
            f.write(text)
        out = os.path.join(tmp, "out")
        code = cli.main(["run", path, "--out", out])
        assert code in (0, cli.EXIT_CONFIG, cli.EXIT_UNSTABLE)
        manifest = os.path.join(out, "run_manifest.json")
        if code != 0:
            assert not os.path.exists(manifest)
            return
        with open(manifest) as f:
            files = json.load(f)["files"]
        assert files
        assert all(os.path.isfile(os.path.join(out, name)) for name in files)


def test_failing_svd_exits_3(tmp_path, monkeypatch):
    """An SVD that gesdd and its retry cannot do stops the run with exit 3
    and no manifest."""
    def failing_svd(*args, **kwargs):
        raise np.linalg.LinAlgError("SVD did not converge")

    monkeypatch.setattr(np.linalg, "svd", failing_svd)
    cfg = tmp_path / "tiny.cfg"
    cfg.write_text("experiment = floquet-czz\nJ = 0.8\ng = 0.7\nh = 0.6\n"
                   "T_max = 2\nchi = 4\n")
    out = tmp_path / "out"
    assert cli.main(["run", str(cfg), "--out", str(out)]) == cli.EXIT_UNSTABLE
    assert not (out / "run_manifest.json").exists()


def test_degenerate_trace_exits_3(tmp_path, monkeypatch):
    """An IM whose trivial-kernel contraction is 0, not finite, or past the
    float range (``norm_log`` raised by 400 scales it by e^800) cannot be
    trace-normalised: ``_normalize_trace`` raises, and a run that makes
    one stops with exit 3 and no manifest."""
    im = influence.solve_im(ModelSpec(J=0.8, g=0.7, h=0.6, T=2), chi_max=4)
    first, log = im.psi.tensors[0], im.psi.norm_log
    for scale, raised in ((0.0, 0.0), (np.nan, 0.0), (1.0, 400.0)):
        im.psi.tensors[0], im.psi.norm_log = first * scale, log + raised
        with pytest.raises(NumericalInstabilityError, match="degenerate IM trace"):
            influence._normalize_trace(im)
    real_folded_mps = influence._folded_mps

    def zeroed(psi, phase):
        out = real_folded_mps(psi, phase)
        out.tensors[0] = 0.0 * out.tensors[0]
        return out

    monkeypatch.setattr(influence, "_folded_mps", zeroed)
    cfg = tmp_path / "tiny.cfg"
    cfg.write_text("experiment = floquet-czz\nJ = 0.8\ng = 0.7\nh = 0.6\n"
                   "T_max = 2\nchi = 4\n")
    out = tmp_path / "out"
    assert cli.main(["run", str(cfg), "--out", str(out)]) == cli.EXIT_UNSTABLE
    assert not (out / "run_manifest.json").exists()


def test_nan_block_on_the_gram_path_exits_3(tmp_path, monkeypatch):
    """A NaN in a block the zip-up sends to the Gram cut stops the run with
    exit 3 and no manifest, as it does on gesdd's path."""
    from temporal_im import mps
    real_svd_truncate, asked = mps.svd_truncate, []

    def svd_truncate(m, chi_max, cutoff=0.0, hint=None):
        if hint is not None and hint.tail is not None and min(m.shape) > chi_max:
            asked.append(m.shape)
            m = m.copy()
            m[0, 0] = np.nan
        return real_svd_truncate(m, chi_max, cutoff, hint=hint)

    monkeypatch.setattr(mps, "svd_truncate", svd_truncate)
    cfg = tmp_path / "capped.cfg"
    cfg.write_text("experiment = floquet-czz\nJ = 0.8\ng = 0.7\nh = 0.6\n"
                   "T_max = 6\nchi = 4\nreuse_im = true\n")
    out = tmp_path / "out"
    assert cli.main(["run", str(cfg), "--out", str(out)]) == cli.EXIT_UNSTABLE
    assert len(asked) == 1
    assert not (out / "run_manifest.json").exists()


@pytest.mark.parametrize("hinted", [False, True], ids=["gesdd", "hinted"])
def test_infinite_block_exits_3(tmp_path, monkeypatch, hinted):
    """An infinity in a block, on which gesdd returns NaN values without
    raising, stops the run with exit 3 and no manifest, whether the block
    goes to gesdd or the zip-up hints a cheaper cut for it."""
    from temporal_im import mps
    real_svd_truncate, asked = mps.svd_truncate, []

    def svd_truncate(m, chi_max, cutoff=0.0, hint=None):
        if (hint is not None and hint.tail is not None) == hinted \
                and min(m.shape) > chi_max:
            asked.append(m.shape)
            m = m.copy()
            m[0, 0] = np.inf
        return real_svd_truncate(m, chi_max, cutoff, hint=hint)

    monkeypatch.setattr(mps, "svd_truncate", svd_truncate)
    cfg = tmp_path / "capped.cfg"
    cfg.write_text("experiment = floquet-czz\nJ = 0.8\ng = 0.7\nh = 0.6\n"
                   "T_max = 6\nchi = 4\nreuse_im = true\n")
    out = tmp_path / "out"
    assert cli.main(["run", str(cfg), "--out", str(out)]) == cli.EXIT_UNSTABLE
    assert len(asked) == 1
    assert not (out / "run_manifest.json").exists()
