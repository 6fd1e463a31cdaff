"""The lazy package: ``import fvr`` loads no submodule until one of its names is used."""

import json
import os
import subprocess
import sys
from pathlib import Path
from types import FunctionType

import pytest

import fvr

ROOT = Path(__file__).resolve().parents[1]


def run_python(*args):
    """A fresh interpreter's run of ``python args...``, this checkout's ``src`` first on the path."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(ROOT / "src"), env.get("PYTHONPATH"))))
    return subprocess.run([sys.executable, *args], env=env, capture_output=True, text=True, timeout=60)


def loaded_after(code):
    """The names in ``sys.modules`` after a fresh interpreter runs ``code``."""
    result = run_python("-c", f"import json, sys\n{code}\nprint(json.dumps(sorted(sys.modules)))")
    assert result.returncode == 0, result.stderr
    return set(json.loads(result.stdout.splitlines()[-1]))


# Stdlib modules that would cost every call start-up time: dataclasses and inspect
# (the records), argparse with the gettext and locale it loads, json, and
# multiprocessing.
HEAVY_MODULES = {"dataclasses", "inspect", "argparse", "gettext", "locale", "json", "multiprocessing"}


@pytest.mark.parametrize("invocation", ["import", "opt", "seq", "verify", "help"])
def test_cli_loads_no_heavy_stdlib_module(tmp_path, invocation):
    path = tmp_path / "party.fvr"
    path.write_text("fvr 1\nm 4\nn 2\n0 1\n2 3\nk 2\nt 1\n", encoding="utf-8")
    args = {
        "import": ("-c", "import fvr.cli"),
        "opt": ("-m", "fvr.cli", "solve", str(path), "--rule", "opt"),
        "seq": ("-m", "fvr.cli", "solve", str(path), "--rule", "seq"),
        "verify": ("-m", "fvr.cli", "verify", "opt", "--n-max", "1", "--m-max", "2"),
        "help": ("-m", "fvr.cli", "--help"),
    }[invocation]
    result = run_python("-X", "importtime", *args)
    assert result.returncode == 0, result.stderr
    modules = {line.rpartition("|")[2].strip() for line in result.stderr.splitlines() if "|" in line}
    assert "fvr.core" in modules
    assert not HEAVY_MODULES & modules


def test_import_fvr_loads_no_submodule_and_no_fractions():
    modules = loaded_after("import fvr")
    assert "fvr" in modules
    assert not {name for name in modules if name.startswith("fvr.")}
    assert "fractions" not in modules and "decimal" not in modules


def test_a_name_loads_only_its_module_and_what_that_imports():
    modules = loaded_after("from fvr import HypParams")
    assert {name for name in modules if name.startswith("fvr.")} == {"fvr.core", "fvr.hypergeom"}


def test_import_fvr_cli_still_loads_verify_and_oracles():
    # The benchmark's tracer looks both up in sys.modules after ``import fvr.cli``.
    modules = loaded_after("import fvr.cli")
    assert {"fvr.verify", "fvr.oracles"} <= modules


def test_a_submodule_resolves_without_an_explicit_import():
    modules = loaded_after("import fvr\nassert fvr.oracles.DEFAULT_SEED == fvr.DEFAULT_SEED\nfvr.verify")
    assert {"fvr.oracles", "fvr.verify"} <= modules
    # In this process the submodule is already bound on the package, so ask the hook itself.
    assert fvr.__getattr__("verify") is sys.modules["fvr.verify"]


def test_every_exported_name_is_its_submodule_object():
    assert len(fvr.__all__) == len(set(fvr.__all__))
    for name in fvr.__all__:
        module = getattr(fvr, fvr._MODULE_OF[name])
        value = getattr(fvr, name)
        assert value is getattr(module, name), name
        # A class or function of fvr is listed under the module that defines it;
        # constants and aliases of outside types, such as Frac, have no fvr home.
        home = getattr(value, "__module__", None)
        if isinstance(value, type | FunctionType) and home.startswith("fvr."):
            assert home == module.__name__, name
    assert set(fvr.__all__) <= set(dir(fvr))
    assert {"cli", "core", "formats", "oracles", "verify"} <= set(dir(fvr))


def test_an_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="module 'fvr' has no attribute 'no_such_name'"):
        fvr.no_such_name  # noqa: B018
    with pytest.raises(ImportError):
        from fvr import no_such_name  # noqa: F401
    assert not hasattr(fvr, "_private")


def test_star_import_binds_every_exported_name():
    namespace = {}
    exec("from fvr import *", namespace)
    assert set(fvr.__all__) <= set(namespace)
    assert namespace["gen_random_instance"] is fvr.oracles.gen_random_instance
