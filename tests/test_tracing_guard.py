"""The per-layer tracer in bench/tracing.py patches the package's public
functions by name.  Deleting or renaming one of them would only break
``bench/run.py --trace 1``; here it fails the test suite instead.  Every
name in TRACED must be patched by Tracer.install, on its home module or
class and in every package module that imported it, and put back by
Tracer.uninstall."""

import importlib.util
from pathlib import Path

import netinfer
import netinfer.cli  # noqa: F401  (the tracer patches cli.main)

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("tracing_under_test", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _lookup(owner, attr):
    # read classes through __dict__ so that a classmethod compares unbound
    return owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)


def _bindings(tracing) -> list:
    """(owner, attribute) of every traced name: its home module or class,
    and each package module that holds the same object by name.  A traced
    name that no longer exists raises here."""
    modules = [getattr(netinfer, m) for m in tracing.PACKAGE_MODULES] + [netinfer]
    keys = []
    for layer, names in tracing.TRACED.items():
        home = getattr(netinfer, layer)
        for qual in names:
            cls_name, _, attr = qual.rpartition(".")
            owner = getattr(home, cls_name) if cls_name else home
            obj = _lookup(owner, attr)
            keys.append((owner, attr))
            keys += [(mod, attr) for mod in modules
                     if mod is not owner and getattr(mod, attr, None) is obj]
    return keys


def test_tracer_patches_and_restores_every_traced_name():
    tracing = _load_tracing()
    keys = _bindings(tracing)
    before = [_lookup(*key) for key in keys]
    tracer = tracing.Tracer()
    tracer.install(netinfer)
    try:
        during = [_lookup(*key) for key in keys]
    finally:
        tracer.uninstall()
    after = [_lookup(*key) for key in keys]
    unpatched = [f"{owner.__name__}.{attr}" for (owner, attr), a, b
                 in zip(keys, before, during) if a is b]
    assert unpatched == []
    assert all(a is b for a, b in zip(before, after))
