"""Smoke runs of the example scripts at small lattice sizes."""
import importlib.util
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def load_script(name: str):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_continuum_limit(capsys):
    assert load_script("continuum_limit").main(15) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].split() == ["d", "product", "product-1/2", "lambda-1/2", "ground-1/2", "low", "gaps-1"]
    assert [int(line.split()[0]) for line in lines[1:]] == list(range(3, 16, 2))


def test_revival_demo(capsys):
    assert load_script("revival_demo").main(9) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith("free d=9, delta(0): 5 populated levels -> kind=commensurate period=18.0")
    assert lines[0].endswith(" certified") and "NOT" not in lines[0]
    # d=9 is too small for the oscillator's levels to be equidistant: the
    # coherent states' commensurate periods fail direct evolution.
    verdicts = [line for line in lines if "coherent" in line]
    assert len(verdicts) == 2
    assert all(line.endswith(" NOT certified") for line in verdicts)
