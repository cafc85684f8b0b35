"""Exact invariants of comodule algebras over bosonized quantum linear spaces."""

import importlib.util
import json
import marshal
import os
import stat
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


def _private(st: os.stat_result) -> bool:
    """Whether only this user, and root, can change what st describes."""
    return st.st_uid == os.getuid() and not st.st_mode & 0o022


def _read_private(path: Path) -> bytes | None:
    """The bytes of the cache entry at path, or None unless it is a regular
    file that only this user can change (``_private``).  The entry is
    opened without blocking, so a FIFO in its place is a miss, not a
    hang."""
    try:
        with open(os.open(path, os.O_RDONLY | os.O_NONBLOCK), "rb") as f:
            st = os.fstat(f.fileno())
            if stat.S_ISREG(st.st_mode) and _private(st):
                return f.read()
    except OSError:
        pass
    return None


def _store(path: Path, data: bytes) -> None:
    """Write a cache entry, readable and writable by this user only,
    through a temporary file, so a reader never sees half an entry.  The
    temporary file is created afresh: anything already at its name, a
    symlink included, is left alone and the entry is not stored, as is
    an entry that cannot be written."""
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o600)
    except OSError:
        return
    try:
        with open(fd, "wb") as f:
            f.write(data)
        os.replace(tmp, path)
    except OSError:
        try:
            tmp.unlink()
        except OSError:
            pass


class _CodeLoader(SourceFileLoader):
    """A package module's code, compiled only the first time its exact
    source is seen.

    Python's own ``get_code`` reads a valid __pycache__ first and calls
    ``source_to_code`` only on a miss; a process that may write no
    bytecode would then compile on every run, so this compile step goes
    through the cache directory's code/ instead.  An entry is keyed by
    the bytecode magic number, the optimize flag (-O code has no
    asserts), the resolved source path (a traceback names the file that
    ran) and the source's hash, and begins with that key.  Anything else
    in its place, unreadable, truncated or garbage, is a miss.

    The key is public, so an entry is code that runs only when no one
    else could have written it: code/ (made 0700) and the entry
    (``_read_private``) must belong to this user and be writable by
    neither group nor others.  Otherwise code/ is neither read nor
    written.
    """

    def source_to_code(self, data, path):
        path = os.path.realpath(path)
        key = b"%b%d\0%b\0%b" % (
            importlib.util.MAGIC_NUMBER, sys.flags.optimize,
            os.fsencode(path), importlib.util.source_hash(data))
        try:
            code_dir = _cache_dir() / "code"
            code_dir.mkdir(mode=0o700, parents=True, exist_ok=True)
            private = _private(code_dir.stat())
        except (RuntimeError, OSError):  # no home directory, or no code/
            private = False
        if not private:
            return super().source_to_code(data, path)
        entry = code_dir / f"{self.name}.{importlib.util.source_hash(key).hex()}"
        stored = _read_private(entry)
        if stored is not None and stored.startswith(key):
            try:
                return marshal.loads(stored[len(key):])
            # marshal raises more than it documents on a damaged entry: a
            # truncated code object with a garbage tail can give SystemError
            except (EOFError, ValueError, TypeError, SystemError):
                pass
        code = super().source_to_code(data, path)
        _store(entry, key + marshal.dumps(code))
        return code


class _CodeFinder:
    """Gives each qlsmodcat.* module that has a plain source loader a
    _CodeLoader while Python may write no bytecode (-B or
    PYTHONDONTWRITEBYTECODE); otherwise, and for every module with valid
    bytecode, __pycache__ is the cache.  Other
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
