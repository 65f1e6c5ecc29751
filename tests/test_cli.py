"""End-to-end command line flows on short budgets."""

import pytest

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


def test_eval_zero_horizon_returns_error_code(tmp_path, capsys):
    rc = main(["eval", "--scenario", "1", "--controller", "fswf",
               "--horizon", "0", "--out", str(tmp_path)])
    assert rc == 2
    assert "horizon" in capsys.readouterr().err
    assert not (tmp_path / "summary.csv").exists()


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
