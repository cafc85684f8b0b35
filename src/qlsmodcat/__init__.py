"""Exact invariants of comodule algebras over bosonized quantum linear spaces."""

import importlib.util
import json
import sys

__version__ = "0.1.0"


def dumps_canonical(obj) -> str:
    """obj as canonical JSON: sorted keys and no spaces, so equal objects
    give equal text.  It lives here, not in serialize, so that the CLI
    can key and answer a cache hit without compiling the engine."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def _lazy(name: str):
    """The module qlsmodcat.<name>, compiled and run on its first attribute
    access; an entry already in sys.modules is returned as it is.

    Each CLI command runs in a fresh process, so a layer it never calls
    is then never compiled.  The handle goes into sys.modules and onto
    the package at once, as an import would put it, so every later
    import of the module gets the same object.
    """
    full = f"{__name__}.{name}"
    if full in sys.modules:
        return sys.modules[full]
    spec = importlib.util.find_spec(full)
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = importlib.util.module_from_spec(spec)
    sys.modules[full] = module
    globals()[name] = module
    spec.loader.exec_module(module)
    return module
