"""Sweep scripts: bad input exits 2 instead of passing vacuously or crashing."""

import importlib.util
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def load(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def exit_code(main, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    return exc.value.code


def test_r_equality_sweep_rejects_empty_ranges(capsys):
    main = load("run_r_equality_sweep").main
    for argv in (["--k-max", "0"], ["--k-max", "3", "--n-max", "4"]):
        assert exit_code(main, argv) == 2
        assert "no diagram to check" in capsys.readouterr().err


def test_r_equality_sweep_smallest_range_passes(capsys):
    assert load("run_r_equality_sweep").main(["--k-max", "1", "--n-max", "5"]) == 0
    assert "k=1 n=5  diagrams=5  mismatches=0" in capsys.readouterr().out


def test_cancellation_sweep_rejects_bad_trials(capsys):
    main = load("run_cancellation_sweep").main
    for trials in ("0", "-1"):
        assert exit_code(main, ["--shapes", "1:5", "--trials", trials]) == 2
        assert "--trials" in capsys.readouterr().err


def test_cancellation_sweep_rejects_bad_shapes(capsys):
    main = load("run_cancellation_sweep").main
    for shapes in ("1:x", "1", "1:5:6", "1:5,2:5"):
        assert exit_code(main, ["--shapes", shapes]) == 2
        assert "--shapes" in capsys.readouterr().err


def test_cancellation_sweep_small_shape(capsys):
    assert load("run_cancellation_sweep").main(["--shapes", "1:5", "--trials", "1"]) == 0
    assert "k=1 n=5  status=complete  groups=10" in capsys.readouterr().out
