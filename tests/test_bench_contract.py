"""The benchmark tracer (bench/tracer.py) wraps selid functions and methods
named by string; a refactor that deletes or renames one of them must fail
here rather than in a traced benchmark run."""

import importlib
import importlib.util
from pathlib import Path

TRACER_PATH = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def _tracer():
    spec = importlib.util.spec_from_file_location("selid_bench_tracer", TRACER_PATH)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def _module(short: str):
    return importlib.import_module(f"selid.{short}")


def test_traced_names_exist():
    tr = _tracer()
    missing = [
        f"{mod}.{fname}"
        for entries in tr.FUNCTIONS.values()
        for mod, fname, _ in entries
        if not callable(getattr(_module(mod), fname, None))
    ]
    # the tracer rebinds methods through the class's own __dict__
    missing += [
        f"{mod}.{cls}.{meth}"
        for entries in tr.METHODS.values()
        for mod, cls, meth, _ in entries
        if meth not in vars(getattr(_module(mod), cls, object))
    ]
    assert not missing


def test_instrument_binds_every_name():
    tr = _tracer()
    modules = {
        m: _module(m)
        for m in ("graph", "estimand", "identify", "projection", "lsg", "oracle", "cli")
    }
    # prepares the wrappers without putting them in place
    tr.instrument(tr.Tracer(), modules)
