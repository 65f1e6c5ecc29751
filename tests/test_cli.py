"""End-to-end command line flows on short budgets."""

import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import stdsh
from stdsh import trainer
from stdsh.checkpoint import load_params, save_params
from stdsh.cli import _ablation_arg, build_parser, main


def test_ablation_argument_parsing():
    assert _ablation_arg("hg") == {"use_hypergraph": False}
    assert _ablation_arg("she,the") == {"use_spatial": False,
                                        "use_temporal": False}
    assert _ablation_arg("") == {}
    with pytest.raises(Exception):
        _ablation_arg("hg,bogus")


def test_parser_rejects_unknown_controller():
    with pytest.raises(SystemExit):
        build_parser().parse_args(
            ["eval", "--scenario", "1", "--controller", "sotl"])


def test_bad_scenario_returns_error_code(tmp_path, capsys):
    rc = main(["train", "--scenario", "9", "--out", str(tmp_path)])
    assert rc == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("episodes", ["0", "-3"])
def test_train_without_episodes_returns_error_code(tmp_path, capsys, episodes):
    out = tmp_path / "run"
    rc = main(["train", "--scenario", "1", "--out", str(out),
               "--episodes", episodes])
    assert rc == 2
    assert capsys.readouterr().err.startswith(
        f"error: episodes must be >= 1, got {episodes}")
    assert not out.exists()


def test_train_with_no_decision_before_the_horizon_returns_error_code(tmp_path, capsys):
    config = tmp_path / "late.cfg"
    config.write_text("[signal]\ninitial_green_s = 5000\n")
    out = tmp_path / "run"
    rc = main(["train", "--scenario", str(config), "--ablation", "hg",
               "--out", str(out), "--episodes", "1"])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "initial_green_s" in err and "horizon_s" in err
    assert not out.exists()


@pytest.mark.parametrize("command", ["train", "eval"])
def test_negative_seed_is_rejected_naming_the_flag(tmp_path, capsys, command):
    args = {"train": ["train", "--scenario", "1", "--out", str(tmp_path / "run")],
            "eval": ["eval", "--scenario", "1", "--controller", "fswf"]}[command]
    with pytest.raises(SystemExit) as exc:
        main(args + ["--seed", "-1"])
    assert exc.value.code == 2
    assert "argument --seed: must be a non-negative integer, got '-1'" in capsys.readouterr().err
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("args", [["--scenario", "{dir}", "--controller", "fswf"],
                                  ["--scenario", "1", "--controller", "stdsh",
                                   "--checkpoint", "{dir}"]],
                         ids=["scenario", "checkpoint"])
def test_eval_of_a_directory_returns_error_code(tmp_path, capsys, args):
    rc = main(["eval", "--horizon", "60", *(a.format(dir=tmp_path) for a in args)])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and str(tmp_path) in err


@pytest.mark.parametrize("under", ["file", "file/run"])
def test_train_out_under_a_file_returns_error_code(tmp_path, capsys, under):
    (tmp_path / "file").write_text("")
    rc = main(["train", "--scenario", "1", "--ablation", "hg", "--episodes", "1",
               "--out", str(tmp_path / under)])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and str(tmp_path / "file") in err


def test_eval_of_an_oversized_integer_returns_error_code(tmp_path, capsys):
    config = tmp_path / "bad.cfg"
    config.write_text("[network]\ntram_stop_dwell_s = 99999999999999999999\n")
    rc = main(["eval", "--scenario", str(config), "--controller", "random",
               "--horizon", "60"])
    assert rc == 2
    assert capsys.readouterr().err.startswith("error: field 'tram_stop_dwell_s'")


def test_eval_zero_horizon_returns_error_code(tmp_path, capsys):
    rc = main(["eval", "--scenario", "1", "--controller", "fswf",
               "--horizon", "0", "--out", str(tmp_path)])
    assert rc == 2
    assert "horizon" in capsys.readouterr().err
    assert not (tmp_path / "summary.csv").exists()


def test_train_stops_cleanly_after_repeated_aborts(tmp_path, capsys, monkeypatch):
    rollout = trainer.collect_rollout

    def rollout_with_nan_return(world, state, seconds):
        batch = rollout(world, state, seconds)
        batch.ret[0] = np.nan
        return batch

    monkeypatch.setattr(trainer, "collect_rollout", rollout_with_nan_return)
    rc = main(["train", "--scenario", "1", "--ablation", "hg", "--seed", "0",
               "--out", str(tmp_path), "--episodes", "5"])
    assert rc == 2
    assert "error: updates of episodes [0, 1, 2] all aborted" in capsys.readouterr().err
    assert not (tmp_path / "model.ckpt").exists()


def test_eval_rejects_an_incomplete_checkpoint(tmp_path, capsys):
    ckpt = tmp_path / "model.ckpt"
    save_params(ckpt, {"pi.W1": np.zeros((2, 2))})      # right magic, no meta.*
    rc = main(["eval", "--scenario", "1", "--controller", "stdsh",
               "--checkpoint", str(ckpt), "--horizon", "60"])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert str(ckpt) in err and "'meta.use_hypergraph'" in err


def test_eval_names_a_checkpoint_in_an_old_layout(tmp_path, capsys):
    # a checkpoint from before the clip range and the attention temperature
    # became constants still holds their meta.* entries
    ckpt = tmp_path / "model.ckpt"
    trainer.save_checkpoint(trainer.make_train_state(trainer.TrainConfig(hidden=8), 1, 0),
                            ckpt)
    save_params(ckpt, {**load_params(ckpt), "meta.attn_tau": np.array(1.0),
                       "meta.clip_eps": np.array(0.2)})
    rc = main(["eval", "--scenario", "1", "--controller", "stdsh",
               "--checkpoint", str(ckpt), "--horizon", "60"])
    assert rc == 2
    assert capsys.readouterr().err == (
        f"error: checkpoint {ckpt}: entries ['meta.attn_tau', 'meta.clip_eps'] "
        "are not in its config\n")


def test_eval_names_a_checkpoint_with_a_misshapen_config_entry(tmp_path, capsys):
    ckpt = tmp_path / "model.ckpt"
    trainer.save_checkpoint(trainer.make_train_state(trainer.TrainConfig(hidden=8), 1, 0),
                            ckpt)
    save_params(ckpt, {**load_params(ckpt), "meta.lr": np.array([1e-3, 1e-3])})
    rc = main(["eval", "--scenario", "1", "--controller", "stdsh",
               "--checkpoint", str(ckpt), "--horizon", "60"])
    assert rc == 2
    assert capsys.readouterr().err.startswith(f"error: checkpoint {ckpt}: ")


def test_eval_fswf_prints_summary(tmp_path, capsys):
    rc = main(["eval", "--scenario", "1", "--controller", "fswf",
               "--seed", "0", "--horizon", "300", "--out", str(tmp_path)])
    assert rc == 0
    assert "ANP=" in capsys.readouterr().out
    assert (tmp_path / "summary.csv").exists()


def test_train_eval_report_round_trip(tmp_path, capsys):
    run_dir = tmp_path / "run"
    rc = main(["train", "--scenario", "1", "--ablation", "hg",
               "--seed", "0", "--out", str(run_dir), "--episodes", "2"])
    assert rc == 0
    ckpt = run_dir / "model.ckpt"
    assert ckpt.exists()
    assert (run_dir / "training_log.csv").exists()

    rc = main(["eval", "--scenario", "1", "--controller", "mappo",
               "--checkpoint", str(ckpt), "--seed", "0",
               "--horizon", "300", "--out", str(run_dir)])
    assert rc == 0

    rc = main(["report", "--in", str(run_dir)])
    assert rc == 0
    assert (run_dir / "report.csv").exists()
    out = capsys.readouterr().out
    assert "report.csv" in out


@pytest.mark.parametrize("text, message", [
    ("scenario,controller,seed\r\n1,fswf,0\r\n", "line 1: .*column 'horizon_s' is missing"),
    ("scenario,controller,seed,horizon_s,anp,aql,awt_bus,awt_tram\r\n"
     "1,fswf,0,300,1.0,2.0,,\r\n1,fswf,x,300,1.0,2.0,,\r\n", "line 3, column 'seed'"),
])
def test_report_of_a_malformed_summary_returns_error_code(tmp_path, capsys, text, message):
    (tmp_path / "summary.csv").write_text(text)
    assert main(["report", "--in", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {tmp_path / 'summary.csv'}")
    assert re.search(message, err)


def test_profile_writes_the_hot_path(tmp_path, capsys):
    rc = main(["eval", "--scenario", "1", "--controller", "fswf", "--seed", "0",
               "--horizon", "120", "--out", str(tmp_path), "--profile"])
    assert rc == 0
    text = (tmp_path / "profile.txt").read_text()
    assert "cumulative" in text and "(step)" in text
    run_dir = tmp_path / "train"
    rc = main(["train", "--scenario", "1", "--ablation", "hg", "--seed", "0",
               "--out", str(run_dir), "--episodes", "1", "--profile"])
    assert rc == 0
    assert "(step)" in (run_dir / "profile.txt").read_text()


def test_eval_profile_needs_an_output_directory(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    rc = main(["eval", "--scenario", "1", "--controller", "fswf", "--profile"])
    assert rc == 2
    assert "--out" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_cli_import_loads_every_module():
    # a module that the command line never imports is dead code in src/
    pkg = Path(stdsh.__file__).parent
    modules = {".".join(("stdsh",) + p.relative_to(pkg).with_suffix("").parts)
               .removesuffix(".__init__") for p in pkg.rglob("*.py")}
    env = {**os.environ, "PYTHONPATH": str(pkg.parent)}
    loaded = subprocess.run(
        [sys.executable, "-c",
         "import sys, stdsh.cli; print(*sorted(sys.modules), sep=chr(10))"],
        env=env, capture_output=True, text=True, check=True).stdout.split()
    assert sorted(modules - set(loaded)) == []
