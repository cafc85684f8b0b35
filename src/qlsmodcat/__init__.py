"""Exact invariants of comodule algebras over bosonized quantum linear spaces."""

import importlib.util
import json
import marshal
import os
import sys
from importlib.machinery import PathFinder, SourceFileLoader
from pathlib import Path

__version__ = "0.1.0"


def dumps_canonical(obj) -> str:
    """obj as canonical JSON: sorted keys and no spaces, so equal objects
    give equal text.  It lives here, not in serialize, so that the CLI
    can key and answer a cache hit without compiling the engine."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def _lazy(name: str):
    """The module qlsmodcat.<name>, loaded and run on its first attribute
    access; an entry already in sys.modules is returned as it is.

    Each CLI command runs in a fresh process, so a layer it never calls
    is then never loaded, from the code cache or by compiling it.  The
    handle goes into sys.modules and onto the package at once, as an
    import would put it, so every later import of the module gets the
    same object.
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


# ------------------------------------------------------------------ cache

def _cache_dir() -> Path:
    """$QLSMODCAT_CACHE_DIR, else ~/.cache/qlsmodcat: the CLI's build
    results at its top, the package's compiled code under code/."""
    env = os.environ.get("QLSMODCAT_CACHE_DIR")
    if env:
        return Path(env)
    return Path.home() / ".cache" / "qlsmodcat"


def _store(path: Path, data: bytes, mode: int = 0o666) -> None:
    """Write a cache entry with permissions mode (less the umask) through
    a temporary file, so a reader never sees half an entry.  An entry
    that cannot be written is not stored."""
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, mode),
                  "wb") as f:
            f.write(data)
        os.replace(tmp, path)
    except OSError:
        try:
            tmp.unlink()
        except OSError:
            pass


def _private(st: os.stat_result) -> bool:
    """Whether only this user, and root, can change what st describes."""
    return st.st_uid == os.getuid() and not st.st_mode & 0o022


class _CodeLoader(SourceFileLoader):
    """A package module's code, compiled only the first time its exact
    source is seen.

    Every process is fresh and may write no __pycache__, so the compiled
    code goes to the cache directory's code/ instead.  An entry is keyed
    by the bytecode magic number, the optimize flag (-O code has no
    asserts), the resolved source path (a traceback names the file that
    ran) and the source's hash, and begins with that key.  Anything else
    in its place, unreadable, truncated or garbage, is a miss.

    The key is public, so an entry is code that runs only when no one
    else could have written it: code/ (made 0700) and the entry must
    belong to this user and be writable by neither group nor others.
    Otherwise code/ is neither read nor written.
    """

    def get_code(self, fullname):
        path = os.path.realpath(self.get_filename(fullname))
        source = self.get_data(path)
        key = b"%b%d\0%b\0%b" % (
            importlib.util.MAGIC_NUMBER, sys.flags.optimize,
            os.fsencode(path), importlib.util.source_hash(source))
        try:
            code_dir = _cache_dir() / "code"
            code_dir.mkdir(mode=0o700, parents=True, exist_ok=True)
            private = _private(code_dir.stat())
        except (RuntimeError, OSError):  # no home directory, or no code/
            private = False
        if not private:
            return self.source_to_code(source, path)
        entry = code_dir / f"{fullname}.{importlib.util.source_hash(key).hex()}"
        try:
            with open(entry, "rb") as f:
                if _private(os.fstat(f.fileno())):
                    data = f.read()
                    if data.startswith(key):
                        return marshal.loads(data[len(key):])
        except (OSError, EOFError, ValueError, TypeError):
            pass
        code = self.source_to_code(source, path)
        _store(entry, key + marshal.dumps(code), 0o600)
        return code


class _CodeFinder:
    """Gives each qlsmodcat.* module that has a plain source loader a
    _CodeLoader while Python may write no bytecode (-B or
    PYTHONDONTWRITEBYTECODE); otherwise __pycache__ is the cache.  Other
    packages, and a built kernel extension, are left to the finders
    after it."""

    @staticmethod
    def find_spec(fullname, path=None, target=None):
        if not (sys.dont_write_bytecode
                and fullname.startswith(f"{__name__}.")):
            return None
        spec = PathFinder.find_spec(fullname, path)
        if spec is None or type(spec.loader) is not SourceFileLoader:
            return None
        spec.loader = _CodeLoader(fullname, spec.origin)
        return spec


sys.meta_path.insert(0, _CodeFinder)
