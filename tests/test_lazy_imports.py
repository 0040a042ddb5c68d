"""Each verb imports only the layers it runs, and lazily bound names stay
patchable in ``riskforest.cli``, where perfbench's tracer wraps them."""

import functools
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import riskforest
import riskforest.cli as cli
import riskforest.data

SRC = Path(riskforest.__file__).resolve().parents[1]

# Runs one verb as ``python -m riskforest.cli`` would, then prints its exit
# code and the riskforest modules the process loaded, and numpy.ma if loaded.
_RUN_VERB = """
import json, runpy, sys
sys.argv = ["riskforest", *json.loads(sys.argv[1])]
code = 0
try:
    runpy.run_module("riskforest.cli", run_name="__main__", alter_sys=True)
except SystemExit as exc:
    code = exc.code
print(json.dumps([code, sorted(m for m in sys.modules
                               if m.split(".")[0] == "riskforest"
                               or m == "numpy.ma")]))
"""


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    root = tmp_path_factory.mktemp("lazy")
    assert cli.main(["generate", "--n", "200", "--seed", "4", "--two-group",
                     "--out", str(root / "gen")]) == 0
    assert cli.main(["train", "--data", str(root / "gen" / "synthetic.csv"),
                     "--group", "Group", "--trees", "3", "--seed", "4",
                     "--out", str(root / "tr")]) == 0
    return root


def _loaded(argv, cwd) -> set[str]:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, "-c", _RUN_VERB, json.dumps(argv)],
                          cwd=cwd, env=env, capture_output=True, text=True,
                          check=True)
    code, modules = json.loads(proc.stdout.splitlines()[-1])
    assert code == 0, proc.stderr
    return {m.removeprefix("riskforest.") for m in modules}


@pytest.mark.parametrize("verb, needs, skips", [
    ("predict", {"forest", "tree", "data.dataset"},
     {"fairness", "metrics", "data.synth", "data.privacy"}),
    ("generate", {"data.synth", "data.dataset"},
     {"tree", "forest", "metrics", "fairness"}),
    ("k-anon", {"data.privacy", "data.dataset"},
     {"tree", "forest", "metrics", "fairness"}),
    ("audit", {"forest", "tree", "fairness", "metrics", "data.dataset"},
     {"data.synth", "data.privacy"}),
])
def test_verb_loads_only_its_layers(pipeline, verb, needs, skips):
    data = str(pipeline / "gen" / "synthetic.csv")
    argv = {
        "predict": ["--data", data, "--model",
                    str(pipeline / "tr" / "model.forest")],
        "generate": ["--n", "50", "--seed", "1", "--two-group"],
        "k-anon": ["--data", data, "--quasi", "Gender,Group"],
        "audit": ["--data", data, "--model",
                  str(pipeline / "tr" / "model.forest")],
    }[verb]
    loaded = _loaded([verb, *argv, "--group", "Group", "--out", "out"],
                     pipeline)
    assert needs <= loaded
    assert not skips & loaded
    # numpy.ma takes about 10 ms to import; a verb may load it only if
    # numpy itself does (as numpy 1.x does).
    assert "numpy.ma" not in loaded or _numpy_loads_ma()


@functools.cache
def _numpy_loads_ma() -> bool:
    proc = subprocess.run([sys.executable, "-c", "import sys, numpy;"
                           " print('numpy.ma' in sys.modules)"],
                          capture_output=True, text=True, check=True)
    return proc.stdout.strip() == "True"


def test_patched_cli_name_is_the_one_a_verb_calls(pipeline, monkeypatch,
                                                  tmp_path):
    # Start from an unbound name, as in a fresh process, so that the patch
    # goes through cli.__getattr__ and main()'s binding must keep it.
    monkeypatch.delitem(vars(cli), "load_forest", raising=False)
    real = cli.load_forest
    calls = []

    def spy(*args, **kwargs):
        calls.append(args[0])
        return real(*args, **kwargs)

    monkeypatch.setattr(cli, "load_forest", spy)
    model = str(pipeline / "tr" / "model.forest")
    assert cli.main(["predict", "--data", str(pipeline / "gen" / "synthetic.csv"),
                     "--group", "Group", "--model", model,
                     "--out", str(tmp_path / "pr")]) == 0
    assert calls == [model]
    assert cli.load_forest is spy


@pytest.mark.parametrize("package", [riskforest, riskforest.data],
                         ids=["riskforest", "riskforest.data"])
def test_every_exported_name_resolves(package):
    namespace = {}
    exec(f"from {package.__name__} import *", namespace)
    assert set(package.__all__) <= set(namespace)
    assert set(package.__all__) <= set(vars(package))  # kept once resolved
    assert set(package.__all__) <= set(dir(package))
    with pytest.raises(AttributeError):
        package.no_such_name
    with pytest.raises(ImportError):
        exec(f"from {package.__name__} import no_such_name", {})


def test_unknown_cli_name_raises_attribute_error():
    with pytest.raises(AttributeError):
        cli.no_such_name
