"""The package's compiled code, cached under the CLI cache directory's code/.

Every case runs against its own temporary cache directory.  The cases in
fresh processes run as a CLI command runs, with ``PYTHONDONTWRITEBYTECODE``
set, from the checkout's ``src`` or from a temporary copy of the package;
the cases in this process set ``sys.dont_write_bytecode`` as that does.
Root is denied no write by a directory's mode bits, so an unwritable
cache directory is a path through a regular file.
"""

from __future__ import annotations

import importlib
import marshal
import os
import shutil
import stat
import subprocess
import sys
from importlib.machinery import SourceFileLoader
from pathlib import Path

import pytest

import qlsmodcat
from qlsmodcat import _CodeFinder, _CodeLoader

ROOT = Path(__file__).resolve().parent.parent
DATUM = '{"group":{"orders":[8]},"g":[[1]],"chi":[[1]]}\n'


@pytest.fixture
def compiles(tmp_path, monkeypatch):
    """The source files compiled in this process while the test runs,
    against a cache directory of its own, with no bytecode written."""
    monkeypatch.setenv("QLSMODCAT_CACHE_DIR", str(tmp_path / "cache"))
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    names = []
    source_to_code = _CodeLoader.source_to_code

    def counted(self, data, path, **kwargs):
        names.append(Path(path).name)
        return source_to_code(self, data, path, **kwargs)

    monkeypatch.setattr(_CodeLoader, "source_to_code", counted)
    return names


def _get_code(fullname: str):
    package = importlib.import_module(fullname.rpartition(".")[0])
    spec = _CodeFinder.find_spec(fullname, package.__path__)
    assert type(spec.loader) is _CodeLoader
    return spec.loader.get_code(fullname)


def _run(tmp_path, argv, cache, src=ROOT / "src", flags=(), bytecode=False):
    env = dict(os.environ, PYTHONPATH=str(src), QLSMODCAT_CACHE_DIR=str(cache))
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    if not bytecode:
        env["PYTHONDONTWRITEBYTECODE"] = "1"
    return subprocess.run([sys.executable, *flags, *argv], env=env,
                          cwd=tmp_path, capture_output=True, timeout=300)


def _validate(tmp_path, cache, src=ROOT / "src"):
    datum = tmp_path / "datum.json"
    datum.write_text(DATUM)
    return _run(tmp_path, ["-m", "qlsmodcat.cli", "validate", str(datum)],
                cache, src)


def _copy(tmp_path, name: str) -> Path:
    """A copy of the package at tmp_path/name; the src to run it from."""
    src = tmp_path / name
    shutil.copytree(ROOT / "src" / "qlsmodcat", src / "qlsmodcat",
                    ignore=shutil.ignore_patterns("__pycache__"))
    return src


def test_a_second_load_compiles_nothing(tmp_path, compiles):
    first = _get_code("qlsmodcat.linalg")
    assert compiles == ["linalg.py"]
    assert _get_code("qlsmodcat.linalg") == first
    assert compiles == ["linalg.py"]
    (entry,) = (tmp_path / "cache" / "code").iterdir()
    assert entry.name.startswith("qlsmodcat.linalg.")


def test_package_modules_load_through_the_code_loader(tmp_path):
    """An import and a lazy handle both: LazyLoader wraps the same loader."""
    code = ("import qlsmodcat, qlsmodcat.cli as c; "
            "print(type(c.__loader__).__name__, "
            "type(qlsmodcat._lazy('classify').__spec__.loader).__name__)")
    proc = _run(tmp_path, ["-c", code], tmp_path / "cache")
    assert (proc.returncode, proc.stdout) == (0, b"_CodeLoader _CodeLoader\n")


def test_where_python_writes_bytecode_pycache_is_the_cache(tmp_path):
    """Without -B or PYTHONDONTWRITEBYTECODE, Python's own __pycache__
    serves the package: code/ is neither made nor read."""
    src = _copy(tmp_path, "src")
    cache = tmp_path / "cache"
    code = "import qlsmodcat.cli as c; print(type(c.__loader__).__name__)"
    for _ in range(2):
        proc = _run(tmp_path, ["-c", code], cache, src, bytecode=True)
        assert (proc.returncode, proc.stdout) == (0, b"SourceFileLoader\n")
    assert not (cache / "code").exists()
    assert list((src / "qlsmodcat" / "__pycache__").glob("cli.*.pyc"))


@pytest.mark.parametrize("name", ["json", "qlsmodcat", "qlsmodcatx",
                                  "qlsmodcatx.cli", "qlsmodcat.missing"])
def test_the_finder_leaves_other_names_alone(name, monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    assert _CodeFinder.find_spec(name, qlsmodcat.__path__) is None


def test_the_finder_stands_aside_where_python_writes_bytecode(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", False)
    assert _CodeFinder.find_spec("qlsmodcat.linalg", qlsmodcat.__path__) \
        is None
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = _CodeFinder.find_spec("qlsmodcat.linalg", qlsmodcat.__path__)
    assert type(spec.loader) is _CodeLoader


def _poison(entry: Path, real) -> None:
    """Put code that sets POISONED after entry's key, as someone who can
    write the entry could."""
    data = entry.read_bytes()
    key = data[:len(data) - len(marshal.dumps(real))]
    entry.write_bytes(key + marshal.dumps(compile("POISONED = 1", "x", "exec")))


def _served(code) -> bool:
    namespace = {}
    exec(code, namespace)
    return "POISONED" in namespace


def test_an_entry_only_its_owner_can_write_is_loaded(tmp_path, compiles):
    """The control for the cases below: their poisoned entry, left private
    to its owner, is served."""
    real = _get_code("qlsmodcat.errors")
    (entry,) = (tmp_path / "cache" / "code").iterdir()
    assert stat.S_IMODE(entry.stat().st_mode) == 0o600
    assert stat.S_IMODE(entry.parent.stat().st_mode) == 0o700
    _poison(entry, real)
    assert _served(_get_code("qlsmodcat.errors"))
    assert compiles == ["errors.py"]


@pytest.mark.parametrize("change", ["group-writable", "world-writable",
                                    "foreign-owned"])
def test_an_entry_others_could_write_is_recompiled_not_loaded(
        tmp_path, compiles, change):
    real = _get_code("qlsmodcat.errors")
    (entry,) = (tmp_path / "cache" / "code").iterdir()
    _poison(entry, real)
    if change == "foreign-owned":
        if os.getuid() != 0:
            pytest.skip("only root can give a file to another user")
        os.chown(entry, os.getuid() + 1, -1)
    else:
        entry.chmod(0o620 if change == "group-writable" else 0o602)
    assert _get_code("qlsmodcat.errors") == real
    assert compiles == ["errors.py"] * 2
    st = entry.stat()
    assert (st.st_uid, stat.S_IMODE(st.st_mode)) == (os.getuid(), 0o600)
    assert not _served(_get_code("qlsmodcat.errors"))
    assert compiles == ["errors.py"] * 2


@pytest.mark.parametrize("change", ["group-writable", "foreign-owned"])
def test_a_code_directory_others_could_write_is_neither_read_nor_written(
        tmp_path, compiles, change):
    real = _get_code("qlsmodcat.errors")
    code_dir = tmp_path / "cache" / "code"
    (entry,) = code_dir.iterdir()
    _poison(entry, real)
    poisoned = entry.read_bytes()
    if change == "foreign-owned":
        if os.getuid() != 0:
            pytest.skip("only root can give a directory to another user")
        os.chown(code_dir, os.getuid() + 1, -1)
    else:
        code_dir.chmod(0o770)
    assert _get_code("qlsmodcat.errors") == real
    assert _get_code("qlsmodcat.linalg")
    assert compiles == ["errors.py", "errors.py", "linalg.py"]
    assert list(code_dir.iterdir()) == [entry]
    assert entry.read_bytes() == poisoned


def test_a_changed_source_is_never_served_from_an_old_entry(tmp_path):
    """The edit keeps the file's size and modification time, so only
    the source itself tells the two apart."""
    src = _copy(tmp_path, "src")
    cache = tmp_path / "cache"
    for _ in range(2):
        proc = _validate(tmp_path, cache, src)
        assert (proc.returncode, proc.stdout) == (0, b"valid, N=[8]\n")
    target = src / "qlsmodcat" / "serialize.py"
    stat = target.stat()
    text = target.read_text()
    assert "MAX_GROUP_EXPONENT = 1024\n" in text
    target.write_text(text.replace("MAX_GROUP_EXPONENT = 1024\n",
                                   "MAX_GROUP_EXPONENT = 4   \n"))
    os.utime(target, ns=(stat.st_atime_ns, stat.st_mtime_ns))
    assert target.stat().st_size == stat.st_size
    proc = _validate(tmp_path, cache, src)
    assert proc.returncode == 1
    assert b"group exponent 8 exceeds the ceiling 4" in proc.stderr
    assert len(list((cache / "code").glob("qlsmodcat.serialize.*"))) == 2


def test_a_broken_entry_is_recompiled_and_replaced(tmp_path, compiles):
    """Entries truncated, with a garbage tail and all garbage: the command
    writes the same bytes, and the entries it rewrote load again."""
    assert Path(qlsmodcat.__file__).parent == ROOT / "src" / "qlsmodcat"
    cache = tmp_path / "cache"
    want = _validate(tmp_path, cache)
    assert want.returncode == 0
    entries = sorted((cache / "code").iterdir())
    assert len(entries) >= 3
    broken = {}
    for i, entry in enumerate(entries):
        data = entry.read_bytes()
        broken[entry] = [data[:len(data) // 2],
                         data[:len(data) // 2] + b"garbage" * 10,
                         b"garbage"][i % 3]
        entry.write_bytes(broken[entry])
    got = _validate(tmp_path, cache)
    assert (got.returncode, got.stdout, got.stderr) == (
        0, want.stdout, want.stderr)
    assert sorted((cache / "code").iterdir()) == entries
    for entry in entries:
        assert entry.read_bytes() != broken[entry]
        _get_code(entry.name.rsplit(".", 1)[0])
    assert compiles == []


def test_an_unwritable_cache_directory_costs_only_the_compile(tmp_path):
    datum = tmp_path / "datum.json"
    datum.write_text(DATUM)
    blocked = tmp_path / "file"
    blocked.write_text("")
    out = tmp_path / "out.hopf.json"
    runs = []
    for cache in (tmp_path / "cache", blocked / "cache"):
        proc = _run(tmp_path, ["-m", "qlsmodcat.cli", "build-hopf",
                               str(datum), "--out", str(out)], cache)
        assert proc.returncode == 0, proc.stderr
        runs.append((proc.stdout, out.read_bytes()))
    assert runs[0] == runs[1]
    assert blocked.read_text() == ""


def test_copies_at_two_paths_get_their_own_entries(tmp_path):
    """A traceback of each copy names that copy's file."""
    cache = tmp_path / "cache"
    code = "import qlsmodcat.cli as c; c._read_json(None)"
    for name in ("a", "b"):
        src = _copy(tmp_path, name)
        proc = _run(tmp_path, ["-c", code], cache, src)
        assert b"Traceback" in proc.stderr
        assert str(src / "qlsmodcat" / "cli.py").encode() in proc.stderr
        assert str(tmp_path / ("b" if name == "a" else "a")).encode() \
            not in proc.stderr
    assert len(list((cache / "code").glob("qlsmodcat.cli.*"))) == 2


def test_an_entry_written_under_O_is_not_loaded_without_it(tmp_path):
    """-O compiles __debug__ to False and strips asserts."""
    src = _copy(tmp_path, "src")
    with open(src / "qlsmodcat" / "errors.py", "a") as f:
        f.write("DEBUG = __debug__\n")
    cache = tmp_path / "cache"
    code = "import qlsmodcat.errors as e; print(e.DEBUG)"
    for flags, want in (["-O"], b"False\n"), ([], b"True\n"), \
            (["-O"], b"False\n"):
        proc = _run(tmp_path, ["-c", code], cache, src, flags)
        assert (proc.returncode, proc.stdout) == (0, want), flags
    assert len(list((cache / "code").glob("qlsmodcat.errors.*"))) == 2
