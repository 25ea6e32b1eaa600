"""Command line interface tests, driving ``main(argv)`` in-process."""

import csv
import json
import os
import re
import shutil
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

import bcfsim
from bcfsim import harness
from bcfsim.cli import main
from bcfsim.dgp import DgpSpec, generate

# the acceptance grid's run directory, whose cells git tracks
GRID_DIR = Path(__file__).resolve().parents[1] / ".acceptance_cache" / "grid_a4"

TINY_CFG = (
    "selections = extreme\n"
    "alphas = 4\n"
    "models = no_propensity\n"
    "n = 40\n"
    "replicates = 1\n"
    "iterations = 30\n"
    "burn_in = 15\n"
    "master_seed = 3\n"
)


@pytest.fixture(scope="module")
def tiny_run(tmp_path_factory):
    """One minimal CLI run shared by the artifact and report tests."""
    root = tmp_path_factory.mktemp("cli_run")
    cfg = root / "study.cfg"
    cfg.write_text(TINY_CFG, encoding="utf-8")
    out = root / "run"
    code = main(["run", "--config", str(cfg), "--out", str(out)])
    assert code == 0
    return cfg, out


# ---------------------------------------------------------------------------
# generate

def test_generate_writes_dataset(tmp_path, capsys):
    dest = tmp_path / "draw.csv"
    code = main(["generate", "--dgp", "moderate", "--alpha", "2",
                 "--n", "40", "--seed", "5", "--out", str(dest)])
    assert code == 0
    assert "wrote 40 rows" in capsys.readouterr().out

    with open(dest, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["x1", "x2", "x3", "x4", "x5",
                       "pi_true", "d", "y", "cate_true"]
    assert len(rows) == 41

    # the CLI is a thin wrapper: bytes must match the library call; lines
    # end in "\n" as in every file a run writes, and no temp file is left
    twin = tmp_path / "twin.csv"
    generate(DgpSpec("moderate", 2.0, 40), 5).to_csv(twin)
    assert dest.read_bytes() == twin.read_bytes()
    assert b"\r" not in dest.read_bytes()
    assert sorted(p.name for p in tmp_path.iterdir()) == ["draw.csv",
                                                          "twin.csv"]


def test_generate_takes_any_finite_positive_alpha(tmp_path):
    dest = tmp_path / "draw.csv"
    code = main(["generate", "--dgp", "moderate", "--alpha", "3",
                 "--n", "10", "--seed", "1", "--out", str(dest)])
    assert code == 0
    twin = tmp_path / "twin.csv"
    generate(DgpSpec("moderate", 3.0, 10), 1).to_csv(twin)
    assert dest.read_bytes() == twin.read_bytes()


@pytest.mark.parametrize("flag, value, message", [
    ("--alpha", "0", "alpha must be finite and positive, got 0.0"),
    ("--alpha", "nan", "alpha must be finite and positive, got nan"),
    ("--n", "1", "n must be at least 2, got 1"),
    ("--seed", "-1", "seed must be nonnegative, got -1"),
])
def test_generate_refuses_a_bad_spec(tmp_path, capsys, flag, value, message):
    # DgpSpec states the rule; the CLI reports it and writes nothing
    args = {"--dgp": "moderate", "--alpha": "3", "--n": "10", "--seed": "1",
            "--out": str(tmp_path / "x.csv")}
    args[flag] = value
    code = main(["generate"] + [part for item in args.items()
                                for part in item])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert message in err
    assert list(tmp_path.iterdir()) == []


def test_generate_unwritable_destination_is_a_clean_error(tmp_path, capsys):
    dest = tmp_path / "missing_dir" / "draw.csv"
    code = main(["generate", "--dgp", "slight", "--alpha", "1",
                 "--n", "10", "--seed", "1", "--out", str(dest)])
    assert code == 1
    assert capsys.readouterr().err.startswith("error:")


# ---------------------------------------------------------------------------
# run

def test_run_writes_artifacts(tiny_run):
    _, out = tiny_run
    for name in ("run_config.json", "replicates.csv", "digests.csv",
                 "summary_extreme_4.csv", "timing.json"):
        assert (out / name).exists(), name
    lines = (out / "replicates.csv").read_text().splitlines()
    assert len(lines) == 2  # header + 1 replicate x 1 model
    config = json.loads((out / "run_config.json").read_text())
    assert config["master_seed"] == 3
    assert config["replicates"] == 1


def test_run_refuses_dirty_directory_then_resumes(tiny_run, capsys):
    cfg, out = tiny_run
    code = main(["run", "--config", str(cfg), "--out", str(out)])
    assert code == 1
    assert "resume" in capsys.readouterr().err

    before = (out / "replicates.csv").read_bytes()
    code = main(["run", "--config", str(cfg), "--out", str(out), "--resume"])
    assert code == 0
    assert "wrote 1 replicate records" in capsys.readouterr().out
    assert (out / "replicates.csv").read_bytes() == before


def test_run_seed_flag_overrides_config(tiny_run, tmp_path):
    cfg, _ = tiny_run
    out = tmp_path / "reseeded"
    assert main(["run", "--config", str(cfg), "--out", str(out),
                 "--seed", "77"]) == 0
    config = json.loads((out / "run_config.json").read_text())
    assert config["master_seed"] == 77


def test_run_full_profile_keeps_config(tiny_run, tmp_path):
    cfg, _ = tiny_run
    out = tmp_path / "full"
    assert main(["run", "--config", str(cfg), "--out", str(out),
                 "--profile", "full"]) == 0
    config = json.loads((out / "run_config.json").read_text())
    assert config["replicates"] == 1
    assert config["iterations"] == 30


def test_run_requires_an_output_directory(tmp_path, capsys):
    cfg = tmp_path / "no_out.cfg"
    cfg.write_text("replicates = 1\n", encoding="utf-8")
    with pytest.raises(SystemExit) as exc:
        main(["run", "--config", str(cfg)])
    assert exc.value.code == 2
    assert "--out" in capsys.readouterr().err


def test_run_reports_config_file_typos(tmp_path, capsys):
    cfg = tmp_path / "typo.cfg"
    cfg.write_text("replicas = 3\n", encoding="utf-8")
    code = main(["run", "--config", str(cfg), "--out", str(tmp_path / "o")])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert "unknown config key" in err


def test_run_names_the_failing_fit(tmp_path, capsys, monkeypatch):
    # the second cell's fit raises an error type main() does not catch by
    # itself; run must still exit 1 naming the fit, keeping the first cell
    cfg = tmp_path / "two_cells.cfg"
    cfg.write_text(TINY_CFG.replace("alphas = 4", "alphas = 2, 4"),
                   encoding="utf-8")
    real_fit = harness.fit_bcf
    calls = []

    def failing_second_fit(*args, **kwargs):
        calls.append(args[3])
        if len(calls) == 2:
            raise FloatingPointError("slice sampler diverged")
        return real_fit(*args, **kwargs)

    monkeypatch.setattr(harness, "fit_bcf", failing_second_fit)
    out = tmp_path / "run"
    code = main(["run", "--config", str(cfg), "--out", str(out)])
    assert code == 1
    err = capsys.readouterr().err
    assert ("fit failed in cell extreme_4, replicate 0, model no_propensity"
            in err)
    assert "FloatingPointError: slice sampler diverged" in err
    assert (out / "cells" / "cell_extreme_2.csv").exists()
    assert not (out / "cells" / "cell_extreme_4.csv").exists()


@pytest.mark.parametrize("alphas, named", [
    ("inf", "alpha must be finite and positive, got inf"),
    ("nan", "alpha must be finite and positive, got nan"),
    # "1.0000001" formats as "1" too, so both cells would be extreme_1
    ("1, 1.0000001", "alphas 1.0 and 1.0000001 both name the cell extreme_1"),
])
def test_run_refuses_bad_alphas_before_any_fit(tmp_path, capsys, monkeypatch,
                                               alphas, named):
    cfg = tmp_path / "bad_alpha.cfg"
    cfg.write_text(TINY_CFG.replace("alphas = 4", f"alphas = {alphas}"),
                   encoding="utf-8")

    def no_fit(*args, **kwargs):
        raise AssertionError("a fit ran")

    monkeypatch.setattr(harness, "fit_bcf", no_fit)
    out = tmp_path / "run"
    code = main(["run", "--config", str(cfg), "--out", str(out)])
    assert code == 1
    assert named in capsys.readouterr().err
    assert not out.exists()


def test_run_refuses_one_replicate_of_several_models(tmp_path, capsys,
                                                    monkeypatch):
    # the rank tests between models need two replicates per model, so the
    # configuration is refused before the first fit, not after the last
    cfg = tmp_path / "one_rep.cfg"
    cfg.write_text(TINY_CFG.replace("models = no_propensity",
                                    "models = no_propensity, true_propensity"),
                   encoding="utf-8")

    def no_fit(*args, **kwargs):
        raise AssertionError("a fit ran")

    monkeypatch.setattr(harness, "fit_bcf", no_fit)
    out = tmp_path / "run"
    code = main(["run", "--config", str(cfg), "--out", str(out)])
    assert code == 1
    assert "replicates must be at least 2 to compare 2 models" in (
        capsys.readouterr().err)
    assert not out.exists()


def test_run_refuses_a_dataset_of_one_arm_before_any_fit(tmp_path, capsys,
                                                        monkeypatch):
    # extreme_4's replicate 0 treats all 40 units; no variant could fit it,
    # and a resume would draw it again, so the run is refused at once
    cfg = tmp_path / "one_arm.cfg"
    cfg.write_text("selections = extreme, slight\nalphas = 1, 4\nn = 40\n"
                   "replicates = 3\nmaster_seed = 5\niterations = 20\n"
                   "burn_in = 10\n", encoding="utf-8")

    def no_fit(*args, **kwargs):
        raise AssertionError("a fit ran")

    monkeypatch.setattr(harness, "fit_bcf", no_fit)
    out = tmp_path / "run"
    assert main(["run", "--config", str(cfg), "--out", str(out)]) == 1
    assert capsys.readouterr().err == (
        "error: cell extreme_4, replicate 0 draws no control unit among "
        "n = 40; choose another master_seed or a larger n\n")
    assert not out.exists()


def test_quick_profile_does_not_rescue_an_invalid_config_file(tmp_path, capsys,
                                                             monkeypatch):
    # a config file is checked on its own: 500 iterations under the default
    # burn-in of 1000 is refused, though --profile quick would reset both
    cfg = tmp_path / "short.cfg"
    cfg.write_text("iterations = 500\n", encoding="utf-8")

    def no_fit(*args, **kwargs):
        raise AssertionError("a fit ran")

    monkeypatch.setattr(harness, "fit_bcf", no_fit)
    out = tmp_path / "run"
    assert main(["run", "--config", str(cfg), "--profile", "quick",
                 "--out", str(out)]) == 1
    assert capsys.readouterr().err == (
        f"error: {cfg}: burn_in must satisfy 0 <= burn_in < iterations\n")
    assert not out.exists()


@pytest.mark.parametrize("name, old, new", [
    ("cell_extreme_4.csv", "rmse_cate", "rmse_cat"),
    # the first line that ends in a number is the first fit's, and its last
    # cell is the fit's seconds
    pytest.param("cell_extreme_4.csv", r"[0-9.e-]+$", "soon",
                 id="cell_extreme_4.csv-seconds-soon"),
])
def test_resume_refuses_a_malformed_cell(tiny_run, tmp_path, capsys, name,
                                         old, new):
    cfg, out = tiny_run
    copy = tmp_path / "run"
    shutil.copytree(out, copy)
    cell = copy / "cells" / name
    cell.write_text(re.sub(old, new, cell.read_text(), count=1,
                           flags=re.MULTILINE))
    code = main(["run", "--config", str(cfg), "--out", str(copy),
                 "--resume"])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert name in err


def _files(run):
    return {p: p.read_bytes() for p in sorted(run.rglob("*")) if p.is_file()}


def test_resume_refuses_another_cells_checkpoint(tmp_path, capsys):
    # moderate_4's checkpoint copied over extreme_4's has the right length
    # and columns; only its fits' keys show that it belongs elsewhere
    cfg = tmp_path / "two_cells.cfg"
    cfg.write_text(TINY_CFG.replace("selections = extreme",
                                    "selections = extreme, moderate"),
                   encoding="utf-8")
    out = tmp_path / "run"
    assert main(["run", "--config", str(cfg), "--out", str(out)]) == 0
    cells = out / "cells"
    shutil.copy(cells / "cell_moderate_4.csv", cells / "cell_extreme_4.csv")
    before = _files(out)
    capsys.readouterr()
    assert main(["run", "--config", str(cfg), "--out", str(out),
                 "--resume"]) == 1
    err = capsys.readouterr().err
    assert (f"error: {cells / 'cell_extreme_4.csv'}: row 1: found cell "
            "moderate_4 replicate 0 model no_propensity seed ") in err
    assert "expected cell extreme_4 replicate 0 model no_propensity" in err
    assert _files(out) == before


def test_resume_refuses_cells_without_a_run_config(tiny_run, tmp_path,
                                                   capsys):
    # without run_config.json the cells cannot be checked, so a resume
    # under another chain length and sample size must not reuse them
    _, out = tiny_run
    copy = tmp_path / "run"
    shutil.copytree(out, copy)
    (copy / "run_config.json").unlink()
    other = tmp_path / "other.cfg"
    other.write_text(TINY_CFG.replace("iterations = 30", "iterations = 40")
                     .replace("n = 40", "n = 80"), encoding="utf-8")
    before = _files(copy)
    assert main(["run", "--config", str(other), "--out", str(copy),
                 "--resume"]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {copy / 'run_config.json'} not found")
    assert _files(copy) == before


# ---------------------------------------------------------------------------
# report

def test_report_rebuilds_summaries(tiny_run, capsys):
    _, out = tiny_run
    summary = out / "summary_extreme_4.csv"
    original = summary.read_bytes()
    summary.unlink()
    assert main(["report", "--from", str(out)]) == 0
    assert "rebuilt reports for 1 records" in capsys.readouterr().out
    assert summary.read_bytes() == original


def test_report_refuses_unknown_config_keys(tiny_run, tmp_path, capsys):
    _, out = tiny_run
    copy = tmp_path / "run"
    shutil.copytree(out, copy)
    path = copy / "run_config.json"
    path.write_text(json.dumps({**json.loads(path.read_text()), "jobs": 2}))
    assert main(["report", "--from", str(copy)]) == 1
    err = capsys.readouterr().err
    assert "run_config.json" in err
    assert "'jobs'" in err


@pytest.mark.parametrize("argv", [
    ["report", "--from", "{run}"],
    ["run", "--config", "{cfg}", "--out", "{run}", "--resume"],
], ids=["report", "resume"])
def test_malformed_run_config_is_named(tiny_run, tmp_path, capsys, argv):
    cfg, out = tiny_run
    copy = tmp_path / "run"
    shutil.copytree(out, copy)
    (copy / "run_config.json").write_text("{")
    assert main([a.format(cfg=cfg, run=copy) for a in argv]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert f"{copy / 'run_config.json'}: Expecting property name" in err


def test_report_names_a_config_value_of_another_type(tiny_run, tmp_path,
                                                     capsys):
    # a float replicate count would fail deep in the grid walk instead
    _, out = tiny_run
    copy = tmp_path / "run"
    shutil.copytree(out, copy)
    path = copy / "run_config.json"
    path.write_text(json.dumps({**json.loads(path.read_text()),
                                "replicates": 1.0}))
    assert main(["report", "--from", str(copy)]) == 1
    assert capsys.readouterr().err == (
        f"error: {path}: replicates must be an integer, got 1.0\n")


@pytest.fixture(scope="module")
def grid_copy(tmp_path_factory):
    """A run directory of the acceptance grid's 180 records, built from its
    tracked cell checkpoints without fitting anything."""
    run = tmp_path_factory.mktemp("grid_copy")
    cells = sorted((GRID_DIR / "cells").glob("cell_*.csv"))
    assert len(cells) == 3, cells
    rows = []
    for cell in cells:
        with open(cell, newline="", encoding="utf-8") as fh:
            header, *body = [row[:-2] for row in csv.reader(fh)]
        rows += body
    with open(run / "replicates.csv", "w", newline="",
              encoding="utf-8") as fh:
        csv.writer(fh, lineterminator="\n").writerows([header] + rows)
    shutil.copy(GRID_DIR / "run_config.json", run)
    assert main(["report", "--from", str(run)]) == 0
    return run, json.loads((run / "run_config.json").read_text())


@pytest.mark.parametrize("edit, names_csv", [
    ({"models": [], "selections": ["extreme"]}, False),
    ({"selections": ["extreme"]}, True),
])
def test_report_refuses_a_config_the_records_contradict(
        grid_copy, tmp_path, capsys, edit, names_csv):
    run, config = grid_copy
    capsys.readouterr()
    copy = tmp_path / "run"
    shutil.copytree(run, copy)
    (copy / "run_config.json").write_text(json.dumps({**config, **edit}))
    assert main(["report", "--from", str(copy)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert str(copy / "run_config.json") in err
    assert (str(copy / "replicates.csv") in err) is names_csv


@pytest.mark.parametrize("edit", [
    {"master_seed": 4, "replicates": 7},
    {"master_seed": 4},
    {"replicates": 7},
], ids=["seed_and_replicates", "seed", "replicates"])
def test_report_refuses_a_seed_or_replicate_count_the_records_contradict(
        tiny_run, tmp_path, capsys, edit):
    # the records carry master seed 3's derived seeds for replicate 0 only
    _, out = tiny_run
    copy = tmp_path / "run"
    shutil.copytree(out, copy)
    path = copy / "run_config.json"
    path.write_text(json.dumps({**json.loads(path.read_text()), **edit}))
    scatter = copy / "scatter_pi_vs_b_extreme.csv"
    before = scatter.read_bytes()
    assert main(["report", "--from", str(copy)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert str(path) in err
    assert str(copy / "replicates.csv") in err
    assert scatter.read_bytes() == before


def test_report_on_empty_directory_fails_cleanly(tmp_path, capsys):
    code = main(["report", "--from", str(tmp_path)])
    assert code == 1
    assert capsys.readouterr().err.startswith("error:")


# ---------------------------------------------------------------------------
# argument parsing

def test_missing_subcommand_is_a_usage_error():
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2


def test_unknown_subcommand_is_a_usage_error():
    with pytest.raises(SystemExit) as exc:
        main(["analyze"])
    assert exc.value.code == 2


# ---------------------------------------------------------------------------
# start-up


def test_import_leaves_scipy_stats_unloaded():
    # scipy.stats costs about half of the package's import time and memory;
    # the package needs only scipy.special
    src = Path(bcfsim.__file__).resolve().parents[1]
    code = "import sys, bcfsim.cli; print('scipy.stats' in sys.modules)"
    done = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True,
        check=True, env={**os.environ, "PYTHONPATH": str(src)})
    assert done.stdout.strip() == "False"


# ---------------------------------------------------------------------------
# package metadata


def test_pyproject_version_is_the_package_version():
    # pyproject.toml takes the distribution's version from
    # bcfsim.__version__; resolved as the build resolves it, offline, the
    # two name one release
    pyprojecttoml = pytest.importorskip("setuptools.config.pyprojecttoml")
    path = Path(__file__).resolve().parents[1] / "pyproject.toml"
    with warnings.catch_warnings():
        # some setuptools versions call [tool.setuptools] a beta feature
        warnings.simplefilter("ignore", UserWarning)
        project = pyprojecttoml.read_configuration(path)["project"]
    assert project["version"] == bcfsim.__version__
