import glob
import itertools
import json
import math
import os
import sys
import time

import numpy as np
import pytest

from temporal_im import cli
from temporal_im.cli import (ConfigError, CSV_COLUMNS, load_config,
                             parse_config_text, write_series_csv)
from temporal_im.observables import ResultSeries
from temporal_im.tensor import _openblas_libs

from helpers import blas_threads

TINY_QUENCH = """
# smallest useful quench run
experiment = quench
J = 1.0
g = 0.25
h = 0.4
eps = 0.2
t_max = 0.6
chi = 8,4
cutoff = 1e-12
"""


def test_parse_config_basics():
    cfg = parse_config_text(TINY_QUENCH)
    assert cfg["experiment"] == "quench"
    assert cfg["chi"] == [8, 4]
    assert cfg["t_max"] == 0.6
    assert cfg.get("seed") is None


def test_parse_config_rejections():
    with pytest.raises(ConfigError):
        parse_config_text("J = 1.0\n")  # no experiment
    with pytest.raises(ConfigError):
        parse_config_text("experiment = quench\nwibble = 3\n")
    with pytest.raises(ConfigError):
        parse_config_text("experiment = quench\nJ = 1\nJ = 2\n")
    with pytest.raises(ConfigError):
        parse_config_text("experiment = floquet-czz\nJ = 0.1\n")  # missing keys
    with pytest.raises(ConfigError):
        parse_config_text(TINY_QUENCH + "chi = \n")
    with pytest.raises(ConfigError):
        parse_config_text("experiment = entropy-scan\nchi = 8\n")
    with pytest.raises(ConfigError, match="unknown key 'samples'"):
        parse_config_text(TINY_QUENCH + "samples = 3\n")  # read by nothing


def test_csv_writer_format(tmp_path):
    ser = ResultSeries(np.array([0.0, 1.0]),
                       np.array([1.0 + 0j, 0.5 - 0.25j]),
                       {"entropy_halfcut": [float("nan"), 0.125],
                        "entropy_max": [float("nan"), 0.25],
                        "discarded_weight": [float("nan"), 1e-16]})
    p = tmp_path / "demo.csv"
    write_series_csv(str(p), ser, chi=16, eps=0.0, boundary="open", seed=None)
    lines = p.read_text().splitlines()
    assert lines[0] == ",".join(CSV_COLUMNS)
    first = lines[1].split(",")
    assert first[0] == "0" and first[1] == "1" and first[3] == "nan"
    assert lines[2].split(",")[2] == "-0.25"
    assert all(row.split(",")[8] == "open" for row in lines[1:])


def test_failed_manifest_write_leaves_no_temp_file(tmp_path, monkeypatch):
    """The manifest lands atomically: when the write fails, the error
    propagates and neither the manifest nor its temporary file remains."""
    def broken_dump(*args, **kwargs):
        raise RuntimeError("disk gone")
    monkeypatch.setattr(cli.json, "dump", broken_dump)
    cfg = parse_config_text(TINY_QUENCH)
    with pytest.raises(RuntimeError, match="disk gone"):
        cli.write_manifest(str(tmp_path), cfg, 0.0, [], {}, {})
    assert os.listdir(tmp_path) == []


def test_run_quench_and_determinism(tmp_path):
    cfgp = tmp_path / "q.cfg"
    cfgp.write_text(TINY_QUENCH)
    out1, out2 = tmp_path / "r1", tmp_path / "r2"
    assert cli.main(["run", str(cfgp), "--out", str(out1)]) == 0
    assert cli.main(["run", str(cfgp), "--out", str(out2)]) == 0
    for chi in (8, 4):
        a = (out1 / f"quench_chi{chi}.csv").read_bytes()
        b = (out2 / f"quench_chi{chi}.csv").read_bytes()
        assert a == b
    man = json.loads((out1 / "run_manifest.json").read_text())
    assert man["experiment"] == "quench"
    assert sorted(man["files"]) == ["quench_chi4.csv", "quench_chi8.csv"]
    assert "wall_time_s" in man and "engine_version" in man


def test_run_csv_values_against_library(tmp_path):
    from temporal_im.observables import quench_magnetization_series
    cfgp = tmp_path / "q.cfg"
    cfgp.write_text(TINY_QUENCH)
    assert cli.main(["run", str(cfgp), "--out", str(tmp_path / "o")]) == 0
    rows = (tmp_path / "o" / "quench_chi8.csv").read_text().splitlines()[1:]
    got = np.array([float(r.split(",")[1]) for r in rows])
    ser = quench_magnetization_series(1.0, 0.25, 0.4, 0.6, 0.2, 8, 1e-12)
    assert np.allclose(got, ser.values.real, atol=1e-15)


TINY_FLOQUET = """
experiment = floquet-czz
J = 0.8
g = 0.7
h = 0.6
T_max = 2
chi = 4
"""


@pytest.mark.parametrize("text", [
    TINY_FLOQUET.replace("T_max = 2", "T_max = 0"),
    TINY_FLOQUET + "eps = -0.1\n",
    TINY_QUENCH.replace("chi = 8,4", "chi = 8,0"),
    TINY_QUENCH.replace("t_max = 0.6", "t_max = 0.5"),  # 2.5 steps of 0.2
    TINY_QUENCH.replace("eps = 0.2", "eps = 0"),
    TINY_QUENCH.replace("J = 1.0", "J = nan"),
    TINY_QUENCH.replace("h = 0.4", "h = inf"),
    TINY_QUENCH.replace("g = 0.25", "g = -inf"),
], ids=["T_max0", "eps_negative", "chi0", "t_max_not_steps", "eps0", "J_nan",
        "h_inf", "g_minus_inf"])
def test_run_rejects_bad_values(tmp_path, capsys, text):
    cfgp = tmp_path / "bad.cfg"
    cfgp.write_text(text)
    assert cli.main(["run", str(cfgp), "--out", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err.startswith("config error:")
    assert not (tmp_path / "o").exists()


TINY_SCAN = "experiment = entropy-scan\nJ = 0.31\ng = 0.57\nh = 0.23\nchi = 8\n"

_IMPURITY = ("experiment = hamiltonian-impurity\nJ = {J}\ng = 0.7\nh = 0.3\n"
             "eps = 0.04\nt_max = 0.08\nalpha = 0.5\nbeta = 0.8\nchi = 8\n")
BAD_CONFIGS = [
    ("experiment = quench\nJ = one\n", "bad value for 'J'"),
    (TINY_QUENCH + "boundary = open,reflecting\n", "unknown boundary kind 'reflecting'"),
    (TINY_QUENCH.replace("chi = 8,4", "chi = 8,4,8"), "chi list"),
    (TINY_QUENCH + "boundary = open,perfect_dephaser,open\n", "boundary list"),
    (TINY_QUENCH + "boundary = \n", "boundary list is empty"),
    (TINY_QUENCH.replace("cutoff = 1e-12", "cutoff = -1e-12"), "cutoff must be >= 0"),
    # the battery is the oracle-check subcommand, not an experiment
    ("experiment = oracle-check\n", "unknown experiment 'oracle-check'"),
    (TINY_SCAN + "T_list = ,\n", "T_list list is empty"),
    (TINY_SCAN + "T_list = 3,2,3\n", "T_list list"),
    (TINY_SCAN + "t = 0.4\neps_list = ,\n", "eps_list list is empty"),
    (TINY_SCAN + "t = 0.4\neps_list = 0.1,0.2,0.1\n", "eps_list list"),
    # neither model reads eps; it would only be echoed into the eps column
    ("experiment = dtc\neps_kick = 0.1\neps = 0.5\nh = 0.3\nT_max = 2\nchi = 8\n",
     "experiment 'dtc' does not read 'eps'"),
    (TINY_SCAN + "T_list = 2,3\neps = 0.25\n",
     "experiment 'entropy-scan' does not read 'eps'"),
    ("experiment = entropy-scan\nchi = 4\nT_list = 2\neps_kick = 0.1\n",
     "experiment 'entropy-scan' requires key 'h'"),
    # the time grids belong to the entropy scan
    (TINY_FLOQUET + "eps_list = 0.1\n", "experiment 'floquet-czz' does not read 'eps_list'"),
    (TINY_QUENCH + "t = 0.4\n", "experiment 'quench' does not read 't'"),
    # the exact disorder average reads no coupling
    ("experiment = dtc\neps_kick = 0.1\nh = 0.3\nT_max = 2\nchi = 8\nJ = 0.3\n",
     "experiment 'dtc' does not read 'J'"),
    # the kicked model's key on the Floquet chain: once echoed into the eps column
    (TINY_FLOQUET + "eps_kick = 0.3\n", "experiment 'floquet-czz' does not read 'eps_kick'"),
    # the impurity map divides by cos(J*eps) and, past pi/2, by sin(J*eps)
    (_IMPURITY.format(J=39.0), "J*eps = 1.56 is near a singular point of the impurity map"),
    (_IMPURITY.format(J=78.5), "J*eps = 3.14 is near a singular point of the impurity map"),
]


def test_run_config_error_exit_code(tmp_path, capsys):
    """Bad config values stop the run at parse time: exit 2, nothing written."""
    cfgp = tmp_path / "bad.cfg"
    out = tmp_path / "o"
    for text, message in BAD_CONFIGS:
        cfgp.write_text(text)
        assert cli.main(["run", str(cfgp), "--out", str(out)]) == 2, message
        assert message in capsys.readouterr().err
        assert not out.exists()
    assert cli.main(["run", str(tmp_path / "missing.cfg")]) == 2


# a valid value of every key, for configs built from the parser's table
_VALID = {"J": "0.8", "g": "0.7", "h": "0.6", "eps": "0.2", "eps_kick": "0.1",
          "alpha": "0.5", "beta": "0.8", "T_max": "2", "t_max": "0.4",
          "t": "0.4", "chi": "4", "eps_list": "0.2", "T_list": "2",
          "cutoff": "0", "boundary": "open", "preserve_weak_bonds": "true",
          "reuse_im": "true", "seed": "1", "out": "elsewhere"}
_UNREAD = [(exp, req, key)
           for exp, forms in cli._FORMS.items() for req, opt in forms
           for key in sorted(set(_VALID) - set(req + opt + cli._COMMON))]


def test_the_forms_read_every_key_and_never_overlap():
    """Every key is read by some form, and a config of one form never holds
    another form's required keys, so its nearest form is its own."""
    read = {k for forms in cli._FORMS.values() for req, opt in forms
            for k in req + opt + cli._COMMON}
    assert read == set(_VALID) == set(cli._KEYS) - {"experiment"}
    for forms in cli._FORMS.values():
        for (req, opt), (other, _) in itertools.permutations(forms, 2):
            assert not set(other) <= set(req + opt + cli._COMMON)


@pytest.mark.parametrize("exp,required,key", _UNREAD,
                         ids=[f"{e}[{','.join(r[:2])}]-{k}" for e, r, k in _UNREAD])
def test_a_key_the_form_does_not_read_is_a_config_error(exp, required, key):
    """A form's required keys parse; any key the form neither requires nor
    takes is rejected by name."""
    text = f"experiment = {exp}\n" + "".join(f"{k} = {_VALID[k]}\n" for k in required)
    assert parse_config_text(text)["experiment"] == exp
    with pytest.raises(ConfigError, match=f"experiment '{exp}' does not read '{key}'"):
        parse_config_text(text + f"{key} = {_VALID[key]}\n")


# the float model keys, each with a second valid value (t_max = 0.4 is 2
# steps of eps = 0.2, 1 of 0.4); h moves the kicked chain's bytes from T = 3
_MOVED = {"J": "0.3", "g": "0.4", "h": "0.2", "eps": "0.4", "eps_kick": "0.3",
          "alpha": "0.3", "beta": "0.4"}
_HORIZON = {"T_max": "3", "T_list": "3", "chi": "8"}
_READ = [(exp, req, key)
         for exp, forms in cli._FORMS.items() for req, opt in forms
         for key in sorted(set(_MOVED) & set(req + opt))]


@pytest.mark.parametrize("exp,required,key", _READ,
                         ids=[f"{e}[{','.join(r[:2])}]-{k}" for e, r, k in _READ])
def test_every_model_key_a_form_reads_moves_a_byte(tmp_path, exp, required, key):
    """A model key a form reads changes its CSVs: a required key set to
    another value, an optional one added.  A key that moves no byte does
    nothing, and the form must not take it."""
    values = {k: _HORIZON.get(k, _VALID[k]) for k in required}
    moved = dict(values, **{key: _MOVED[key] if key in values else _VALID[key]})
    csvs = []
    for name, vals in (("base", values), ("moved", moved)):
        cfgp = tmp_path / f"{name}.cfg"
        cfgp.write_text(f"experiment = {exp}\n"
                        + "".join(f"{k} = {v}\n" for k, v in vals.items()))
        assert cli.main(["run", str(cfgp), "--out", str(tmp_path / name),
                         "--threads", "1"]) == 0
        csvs.append({p.name: p.read_bytes() for p in (tmp_path / name).glob("*.csv")})
    assert csvs[0].keys() == csvs[1].keys()
    assert csvs[0] != csvs[1]


_REPO = os.path.join(os.path.dirname(__file__), os.pardir)
_SHIPPED = sorted(glob.glob(os.path.join(_REPO, "configs", "*.cfg"))
                  + glob.glob(os.path.join(_REPO, "tests", "golden", "*.cfg"))
                  + glob.glob(os.path.join(_REPO, "imbench", "workloads", "*.cfg")))


@pytest.mark.parametrize("path", _SHIPPED,
                         ids=[os.path.relpath(p, _REPO) for p in _SHIPPED])
def test_shipped_configs_parse(path):
    """Every config the repo ships parses; a workload config as the
    benchmark harness writes it, with its seed appended."""
    with open(path) as f:
        text = f.read()
    if os.path.basename(os.path.dirname(path)) == "workloads":
        text += "seed = 1\n"
    assert parse_config_text(text)["experiment"] in cli.EXPERIMENTS


def test_readme_experiment_table_is_the_parsers():
    """README's table of the keys each experiment reads is ``cli._FORMS``:
    the same experiments, forms, required keys and optional keys."""
    with open(os.path.join(_REPO, "README.md")) as f:
        text = f.read()
    rows = text.split("Experiments and the keys they read")[1].split("\n\n")[1]
    table: dict = {}
    for row in rows.splitlines()[2:]:  # after the header and its rule
        exp, req, opt = (cell.strip() for cell in row.strip("|").split("|"))
        table.setdefault(exp, []).append(
            ({k.strip() for k in req.split(",")},
             {k.strip() for k in opt.split(",") if k.strip()}))
    assert table == {exp: [(set(req), set(opt)) for req, opt in forms]
                     for exp, forms in cli._FORMS.items()}


def test_dtc_runs_without_a_seed(tmp_path):
    """The exact disorder average draws nothing; without a seed the seed
    column reads nan, as for every other experiment."""
    cfgp = tmp_path / "d.cfg"
    cfgp.write_text("experiment = dtc\neps_kick = 0.1\nh = 0.3\nT_max = 2\nchi = 8\n")
    out = tmp_path / "o"
    assert cli.main(["run", str(cfgp), "--out", str(out)]) == 0
    rows = (out / "dtc_chi8.csv").read_text().splitlines()[1:]
    assert len(rows) == 3 and all(r.split(",")[9] == "nan" for r in rows)
    assert json.loads((out / "run_manifest.json").read_text())["seed"] is None


@pytest.mark.parametrize("argv", [["entropy", "e.cfg"],
                                  ["oracle-check", "--tmax", "5"],
                                  ["run", "e.cfg", "--seed", "9"],
                                  ["run", "e.cfg", "--threads", "0"],
                                  ["run", "e.cfg", "--threads", "-3"]],
                         ids=["entropy", "oracle_check_tmax", "run_seed",
                              "threads0", "threads_negative"])
def test_removed_routes_are_usage_errors(tmp_path, capsys, argv):
    """``run`` is the one route for entropy-scan configs, the oracle
    battery has no size flag, the seed is set in the config only, and a
    run takes at least one worker: the old forms are argparse errors."""
    cfgp = tmp_path / "e.cfg"
    cfgp.write_text(TINY_SCAN + f"T_list = 2,3\nout = {tmp_path / 'eo'}\n")
    with pytest.raises(SystemExit) as exc:
        cli.main([str(cfgp) if a == "e.cfg" else a for a in argv])
    assert exc.value.code == 2
    assert "usage: temporal-im" in capsys.readouterr().err
    assert not (tmp_path / "eo").exists()
    assert cli.main(["run", str(cfgp)]) == 0
    assert (tmp_path / "eo" / "entropy-scan_chi8.csv").exists()


def test_out_directory_rule(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)  # a run that ignored both would write here
    cfgp = tmp_path / "q.cfg"
    cfgp.write_text(TINY_QUENCH + f"out = {tmp_path / 'from_cfg'}\n")
    assert cli.main(["run", str(cfgp)]) == 0
    assert (tmp_path / "from_cfg" / "quench_chi8.csv").exists()
    assert cli.main(["run", str(cfgp), "--out", str(tmp_path / "from_flag")]) == 0
    assert sorted(os.listdir(tmp_path / "from_flag")) == sorted(
        os.listdir(tmp_path / "from_cfg"))
    assert not (tmp_path / "quench_chi8.csv").exists()


def test_oracle_check_subcommand(capsys, monkeypatch):
    """One fixed battery: every check at T = 4, the g = 0 one at T = 5, the
    impurity series grown to T = 4 without a solve."""
    from temporal_im import influence
    real_solve = influence.solve_im
    sizes = []

    def solve(spec, *args, **kwargs):
        sizes.append(spec.T)
        return real_solve(spec, *args, **kwargs)
    monkeypatch.setattr(influence, "solve_im", solve)
    assert cli.main(["oracle-check"]) == 0
    assert sizes == [4, 4, 5]
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 14 and all(line.startswith("[PASS] ") for line in lines)
    assert any(line.startswith("[PASS] czz[impurity] IM vs dense impurity slice:")
               for line in lines)
    assert lines[-1].startswith("[PASS] g=0 IM vs closed form:")


def test_chi_sweep_order_largest_first(tmp_path):
    cfgp = tmp_path / "q.cfg"
    cfgp.write_text(TINY_QUENCH)
    out = tmp_path / "o"
    assert cli.main(["run", str(cfgp), "--out", str(out)]) == 0
    man = json.loads((out / "run_manifest.json").read_text())
    assert man["files"][0] == "quench_chi8.csv"


STALLED_FLOQUET = """
experiment = floquet-czz
J = 0.8
g = 0.7236
h = 0.6472
T_max = 8
chi = 4
cutoff = 1e-12
reuse_im = true
"""

CONVERGED_FLOQUET = """
experiment = floquet-czz
J = 0.31
g = 0.57
h = 0.23
T_max = 3
chi = 64
cutoff = 0
"""

TINY_IMPURITY = """
experiment = hamiltonian-impurity
J = 1.0
g = 1.4142135623730951
h = 0.681
eps = 0.1
t_max = 0.6
alpha = 0.5
beta = 0.8
chi = 4
cutoff = 0
"""


def _run_summary(tmp_path, name, text):
    cfgp = tmp_path / f"{name}.cfg"
    cfgp.write_text(text)
    out = tmp_path / name
    assert cli.main(["run", str(cfgp), "--out", str(out)]) == 0
    man = json.loads((out / "run_manifest.json").read_text())
    (csv_name,) = man["files"]
    assert set(man["solves"]) == {csv_name}
    rows = [r.split(",") for r in (out / csv_name).read_text().splitlines()[1:]]
    return man["solves"][csv_name], rows


def test_manifest_solve_summary(tmp_path, monkeypatch):
    """The manifest says which IMs missed their stopping rule."""
    stalled, rows = _run_summary(tmp_path, "stalled", STALLED_FLOQUET)
    assert stalled["solves"] == 1 and stalled["converged"] == 0
    assert stalled["max_iterations"] == 8 // 2 + 2  # light-cone budget, T = 8
    assert stalled["max_final_deficit"] > 1e-10
    assert stalled["max_trace_residual"] > 1e-3
    # its route record: a zip-up to the cap, one refused fit, then fits
    assert (stalled["fit_applications"], stalled["fit_refused"]) == (4, 1)
    # one reused IM: every row reports its whole discarded weight
    assert stalled["discarded_weight"] == float(rows[1][5]) > 0.0

    # cutoff 0 drops only values below the round-off floor max(M, N) eps s_0
    # of svd_truncate, each at most (max(M, N) eps)^2 of its block's weight
    from temporal_im import mps
    real_svd_truncate, floor_weights = mps.svd_truncate, []

    def svd_truncate(m, chi_max, cutoff=0.0, hint=None):
        f = real_svd_truncate(m, chi_max, cutoff, hint=hint)
        dropped = min(m.shape) - len(f.s)
        floor_weights.append(dropped * (max(m.shape) * np.finfo(m.dtype).eps) ** 2)
        return f

    monkeypatch.setattr(mps, "svd_truncate", svd_truncate)
    conv, _ = _run_summary(tmp_path, "converged", CONVERGED_FLOQUET)
    assert conv["solves"] == conv["converged"] == 3  # fresh solve per T
    assert 1 <= conv["max_iterations"] <= 3 + 1
    assert conv["max_final_deficit"] < 1e-10
    assert conv["max_trace_residual"] < 1e-10
    assert 0.0 < conv["discarded_weight"] <= sum(floor_weights)
    assert conv["fit_applications"] == conv["fit_refused"] == 0  # grown

    # impurity: one grown IM and one impurity slice per T.  A grown IM's
    # weight record is its predecessor's plus its own step, and an impurity
    # IM's is its base's plus its slice; the manifest counts each step once
    from temporal_im.observables import autocorrelator_series
    imp, rows = _run_summary(tmp_path, "impurity", TINY_IMPURITY)
    assert imp["solves"] == imp["converged"] == 6
    assert imp["max_iterations"] == 1 and imp["max_final_deficit"] == 0.0
    assert imp["fit_applications"] == imp["fit_refused"] == 0
    ims = []
    autocorrelator_series(cli._spec_for(parse_config_text(TINY_IMPURITY)), 4,
                          0.0, im_sink=ims)
    grown, slices = ims[0::2], ims[1::2]
    assert all("impurity_drift" in im.diagnostics for im in slices)
    steps = [im.diagnostics["discarded_weight"][-1] for im in grown]
    assert grown[-1].diagnostics["discarded_weight"] == steps
    total = math.fsum(steps + [im.diagnostics["discarded_weight"][-1] for im in slices])
    assert imp["discarded_weight"] == total > 0.0
    # a CSV row reports the whole record behind its IM
    assert float(rows[-1][5]) == math.fsum(slices[-1].diagnostics["discarded_weight"])
    assert all(float(r[3]) > 0.0 for r in rows[2:])  # half-cut entropy, T >= 2


def test_preserve_weak_bonds_means_cutoff_zero(tmp_path):
    """The config key is cutoff 0: the CSV is the one of ``cutoff = 0``,
    with or without that line beside the key."""
    base = TINY_IMPURITY.replace("cutoff = 0\n", "")
    csv = {}
    for tag, extra in (("pwb", "preserve_weak_bonds = true\n"),
                       ("both", "cutoff = 0\npreserve_weak_bonds = true\n"),
                       ("zero", "cutoff = 0\n")):
        cfgp = tmp_path / f"{tag}.cfg"
        cfgp.write_text(base + extra)
        assert cli.main(["run", str(cfgp), "--out", str(tmp_path / tag)]) == 0
        csv[tag] = (tmp_path / tag / "hamiltonian-impurity_chi4.csv").read_bytes()
    assert csv["pwb"] == csv["both"] == csv["zero"]


def test_preserve_weak_bonds_next_to_a_cutoff_is_a_config_error(tmp_path, capsys):
    """``preserve_weak_bonds = true`` beside a non-zero cutoff would override
    it; the pair stops the run at parse time."""
    cfgp = tmp_path / "pwb.cfg"
    cfgp.write_text(TINY_IMPURITY.replace("cutoff = 0", "cutoff = 1e-4")
                    + "preserve_weak_bonds = true\n")
    assert cli.main(["run", str(cfgp), "--out", str(tmp_path / "o")]) == 2
    assert "contradicts cutoff = 0.0001" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_boundary_on_a_fresh_series_is_a_config_error(tmp_path, capsys):
    """A fresh series is grown without a boundary state, so a ``boundary``
    key on a z experiment needs ``reuse_im = true``; ``entropy-scan`` solves
    from the boundary and keeps it."""
    out = tmp_path / "o"
    cfgp = tmp_path / "b.cfg"
    for text in (TINY_QUENCH + "boundary = open\n",
                 TINY_FLOQUET + "boundary = perfect_dephaser\nreuse_im = false\n"):
        cfgp.write_text(text)
        assert cli.main(["run", str(cfgp), "--out", str(out)]) == 2
        assert "reads 'boundary' only with reuse_im = true" in capsys.readouterr().err
        assert not out.exists()
    for text in (TINY_QUENCH + "boundary = open\nreuse_im = true\n",
                 TINY_SCAN + "T_list = 2\nboundary = perfect_dephaser\n"):
        assert isinstance(parse_config_text(text), dict)


SPY_CONFIGS = {
    "floquet": TINY_FLOQUET,
    "floquet-reuse": TINY_FLOQUET + "reuse_im = true\n",
    "dtc": "experiment = dtc\neps_kick = 0.13\nh = 0.3\nT_max = 3\nchi = 4\n",
    "quench": TINY_QUENCH.replace("t_max = 0.6", "t_max = 0.4"),
    "impurity": TINY_IMPURITY.replace("t_max = 0.6", "t_max = 0.3"),
    "entropy-scan": TINY_SCAN + "T_list = 2,3\n",
}


@pytest.mark.parametrize("weak", [False, True], ids=["cutoff", "preserve_weak_bonds"])
@pytest.mark.parametrize("name", list(SPY_CONFIGS))
def test_every_solve_gets_the_config_chi_and_cutoff(tmp_path, monkeypatch, name, weak):
    """Every ``solve_im``, ``grow_ims`` and ``impurity_im`` call of a run
    receives the config's chi and cutoff, and cutoff 0 under
    ``preserve_weak_bonds``.  Fresh z series grow their IMs, the others
    solve them.  The golden files do not see this: on some workloads the
    cutoff moves no value beyond round-off."""
    import inspect
    from temporal_im import influence, observables

    calls = []

    def spy(real):
        sig = inspect.signature(real)

        def wrapped(*args, **kwargs):
            bound = sig.bind(*args, **kwargs)
            bound.apply_defaults()
            calls.append((real.__name__, bound.arguments["chi_max"],
                          bound.arguments["cutoff"]))
            return real(*args, **kwargs)
        return wrapped

    for fn in (influence.solve_im, influence.grow_ims, influence.impurity_im):
        monkeypatch.setattr(observables, fn.__name__, spy(fn))
    text = "\n".join(line for line in SPY_CONFIGS[name].splitlines()
                     if not line.startswith(("chi", "cutoff")))
    text += "\nchi = 4,3\n" + ("preserve_weak_bonds = true\n" if weak
                                else "cutoff = 1e-9\n")
    cfgp = tmp_path / "spy.cfg"
    cfgp.write_text(text)
    assert cli.main(["run", str(cfgp), "--out", str(tmp_path / "o")]) == 0
    assert {chi for _, chi, _ in calls} == {4, 3}
    assert {cut for _, _, cut in calls} == {0.0 if weak else 1e-9}
    names = {f for f, _, _ in calls}
    assert ("impurity_im" in names) == (name == "impurity")
    solved = name in ("floquet-reuse", "entropy-scan")
    assert ("solve_im" in names, "grow_ims" in names) == (solved, not solved)


def test_bundled_configs_parse():
    here = os.path.join(_REPO, "configs")
    fig2 = load_config(os.path.join(here, "fig2.cfg"))
    assert fig2["J"] == 0.8 and fig2["chi"] == [32, 64, 128]
    assert set(fig2["boundary"]) == {"open", "perfect_dephaser"}
    fig5 = load_config(os.path.join(here, "fig5.cfg"))
    assert fig5["experiment"] == "dtc" and fig5["chi"] == [32, 64]


def test_quench_boundaries(tmp_path):
    from temporal_im.observables import quench_magnetization_series
    reuse = TINY_QUENCH + "reuse_im = true\n"
    plain, both = tmp_path / "plain.cfg", tmp_path / "both.cfg"
    plain.write_text(reuse)
    both.write_text(reuse + "boundary = open,perfect_dephaser\n")
    assert cli.main(["run", str(plain), "--out", str(tmp_path / "p")]) == 0
    assert cli.main(["run", str(both), "--out", str(tmp_path / "b")]) == 0
    for chi in (8, 4):
        opened = (tmp_path / "b" / f"quench_chi{chi}.csv").read_bytes()
        dephased = (tmp_path / "b" / f"quench_chi{chi}_perfect_dephaser.csv").read_bytes()
        assert opened == (tmp_path / "p" / f"quench_chi{chi}.csv").read_bytes()
        assert dephased != opened
        for data, label in ((opened, "open"), (dephased, "perfect_dephaser")):
            rows = data.decode().splitlines()[1:]
            assert all(r.split(",")[8] == label for r in rows)
    # the CSV is the dephaser-boundary one, bit for bit; both boundaries
    # reach the same IM after T applications, and the truncated chi = 4
    # solves, fitted at the cap, agree with it to round-off
    rows = dephased.decode().splitlines()[1:]
    got = np.array([float(r.split(",")[1]) for r in rows])
    ser = quench_magnetization_series(1.0, 0.25, 0.4, 0.6, 0.2, 4, 1e-12,
                                      boundary="perfect_dephaser", reuse_im=True)
    assert np.array_equal(got, ser.values.real)
    ref = quench_magnetization_series(1.0, 0.25, 0.4, 0.6, 0.2, 4, 1e-12,
                                      reuse_im=True)
    assert 0.0 < np.max(np.abs(ser.values - ref.values)) < 1e-11


def test_thread_count_default(monkeypatch):
    cores = cli._usable_cores()
    assert cli._thread_count(None, 1) == 1
    assert cli._thread_count(None, 10 ** 6) == cores
    assert cli._thread_count(3, 2) == 2
    # --threads is the one way to set the workers; the environment is not read
    monkeypatch.setenv("TEMPORAL_IM_THREADS", "1")
    assert cli._thread_count(None, 10 ** 6) == cores
    assert cli._thread_count(2, 4) == 2


def test_thread_layout(tmp_path):
    """Job workers do not change CSV bytes, and the caller's BLAS thread
    count survives the call."""
    controls = list(_openblas_libs().values())
    if not controls:
        pytest.skip("no OpenBLAS thread control found in this process")
    cfgp = tmp_path / "q.cfg"
    cfgp.write_text(TINY_QUENCH)
    saved = blas_threads()
    for _, put in controls:  # a count the CLI must not leave at 1
        put(2)
    try:
        before = blas_threads()
        for n in (1, 2):
            out = tmp_path / f"t{n}"
            assert cli.main(["run", str(cfgp), "--out", str(out),
                             "--threads", str(n)]) == 0
            assert blas_threads() == before
            man = json.loads((out / "run_manifest.json").read_text())
            assert man["threads"] == {"jobs": n, "blas": 1}
    finally:
        for (_, put), n in zip(controls, saved):
            put(n)
    for chi in (8, 4):
        name = f"quench_chi{chi}.csv"
        assert (tmp_path / "t1" / name).read_bytes() == (tmp_path / "t2" / name).read_bytes()


FLOQUET_FOUR_CSVS = """
experiment = floquet-czz
J = 0.8
g = 0.7236
h = 0.6472
T_max = 6
chi = 8,4
cutoff = 1e-12
boundary = open,perfect_dephaser
reuse_im = true
"""


@pytest.mark.parametrize("text,files", [
    (TINY_IMPURITY, {"hamiltonian-impurity_chi4.csv": (4, "open")}),
    (FLOQUET_FOUR_CSVS, {"floquet-czz_chi8.csv": (8, "open"),
                         "floquet-czz_chi8_perfect_dephaser.csv": (8, "perfect_dephaser"),
                         "floquet-czz_chi4.csv": (4, "open"),
                         "floquet-czz_chi4_perfect_dephaser.csv": (4, "perfect_dephaser")}),
], ids=["impurity", "floquet_two_chi"])
def test_fresh_points_fan_out(tmp_path, text, files):
    """One job per CSV: the CSVs and solve summaries do not depend on the
    workers, and equal the library's series and a ``SolveSummary`` fed as
    its sink, bitwise."""
    from temporal_im.observables import autocorrelator_series
    cfgp = tmp_path / "f.cfg"
    cfgp.write_text(text)
    mans = {}
    for n in (1, 2):
        assert cli.main(["run", str(cfgp), "--out", str(tmp_path / f"t{n}"),
                         "--threads", str(n)]) == 0
        mans[n] = json.loads((tmp_path / f"t{n}" / "run_manifest.json").read_text())
        assert mans[n]["files"] == list(files)
        assert mans[n]["threads"]["jobs"] == min(n, len(files))
    assert mans[1]["solves"] == mans[2]["solves"]
    for name in files:
        assert (tmp_path / "t1" / name).read_bytes() == (tmp_path / "t2" / name).read_bytes()
    cfg = parse_config_text(text)
    spec = cli._spec_for(cfg)
    for name, (chi, boundary) in files.items():
        summary = cli.SolveSummary()
        ser = autocorrelator_series(spec, chi, cfg.get("cutoff", 0.0),
                                    boundary=boundary,
                                    reuse_im=cfg.get("reuse_im", False),
                                    im_sink=summary)
        rows = (tmp_path / "t2" / name).read_text().splitlines()[1:]
        got = np.array([complex(float(r.split(",")[1]), float(r.split(",")[2]))
                        for r in rows])
        assert np.array_equal(got, ser.values)
        assert json.loads(json.dumps(summary.as_dict())) == mans[2]["solves"][name]


SIX_CSVS = """
experiment = floquet-czz
J = 0.8
g = 0.7236
h = 0.6472
T_max = 6
chi = 8,7,6,5,4,3
cutoff = 1e-12
reuse_im = true
"""


@pytest.mark.parametrize("threads", [1, 2])
def test_failing_point_cancels_the_rest(tmp_path, monkeypatch, capsys, threads):
    """A job that raises NumericalInstabilityError stops the run with exit
    3; the jobs not yet started never run."""
    from temporal_im import observables
    from temporal_im.influence import NumericalInstabilityError

    real_solve = observables.solve_im
    calls = []

    def solve(spec, **kwargs):
        calls.append(kwargs["chi_max"])
        if kwargs["chi_max"] == 8:  # the largest chi, scheduled first
            raise NumericalInstabilityError("planted failure")
        time.sleep(0.05)
        return real_solve(spec, **kwargs)

    monkeypatch.setattr(observables, "solve_im", solve)
    cfgp = tmp_path / "f.cfg"
    cfgp.write_text(SIX_CSVS)
    out = tmp_path / "o"
    assert cli.main(["run", str(cfgp), "--out", str(out),
                     "--threads", str(threads)]) == 3
    assert "planted failure" in capsys.readouterr().err
    # each other worker holds one job, and the failing worker may take one
    # more before the calling thread cancels the queue
    assert 8 in calls and len(calls) <= 2 * threads - 1 < 6
    assert not out.exists()


def test_points_stress_more_workers_than_cores(tmp_path):
    """Many small jobs on more workers than cores, with thread switches
    forced often: every job's summary sees its own IMs only, and the output
    is the serial one."""
    cfgp = tmp_path / "f.cfg"
    cfgp.write_text(SIX_CSVS + "boundary = open,perfect_dephaser\n")
    assert cli.main(["run", str(cfgp), "--out", str(tmp_path / "t1"),
                     "--threads", "1"]) == 0
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        assert cli.main(["run", str(cfgp), "--out", str(tmp_path / "t5"),
                         "--threads", "5"]) == 0
    finally:
        sys.setswitchinterval(interval)
    serial, many = (json.loads((tmp_path / d / "run_manifest.json").read_text())
                    for d in ("t1", "t5"))
    assert many["threads"]["jobs"] == 5
    assert many["solves"] == serial["solves"]
    assert len(many["files"]) == 12
    assert all(s["solves"] == 1 for s in many["solves"].values())
    for name in serial["files"]:
        assert (tmp_path / "t1" / name).read_bytes() == (tmp_path / "t5" / name).read_bytes()
