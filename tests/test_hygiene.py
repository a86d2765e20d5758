"""Import hygiene of each module, read from its syntax tree.

Every top-level import is read somewhere in its module, every name a
module lists in __all__ is defined there (the package's __init__ is the
one place that gathers names from other modules), and every private
top-level function, class or constant (a leading underscore, or left out
of its module's __all__) is read somewhere in the package.  So is every
public name in an __all__, and every public method or property of a
top-level class, read as an attribute, unless it is on its documented
allow-list.
"""

import ast
import functools
import pathlib

import pytest

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "causalgap"
FILES = sorted(p.name for p in SRC.glob("*.py"))
MODULES = [name for name in FILES if name != "__init__.py"]


def _tree(name: str) -> ast.Module:
    path = SRC / name
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def _top_level(tree: ast.Module):
    """Module statements, with the bodies of top-level if blocks (TYPE_CHECKING)."""
    for node in tree.body:
        yield node
        if isinstance(node, ast.If):
            yield from node.body


@pytest.mark.parametrize("name", MODULES)
def test_every_import_is_read(name):
    tree = _tree(name)
    bound = {}
    for node in _top_level(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                bound[alias.asname or alias.name.partition(".")[0]] = node.lineno
    read = {
        node.id for node in ast.walk(tree)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
    }
    unread = {n: line for n, line in bound.items() if n not in read}
    assert not unread, f"{name} imports names it never reads: {unread}"


def _defined_and_exported(name: str) -> tuple[dict[str, int], list[str] | None]:
    """Each top-level name the module defines, with its line, and the
    module's __all__, or None if it has none."""
    defined = {}
    exported = None
    for node in _top_level(_tree(name)):
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            defined[node.name] = node.lineno
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = {t.id for t in targets if isinstance(t, ast.Name)}
            defined.update((n, node.lineno) for n in names)
            if "__all__" in names:
                exported = ast.literal_eval(node.value)
    return defined, exported


@pytest.mark.parametrize("name", MODULES)
def test_all_lists_only_names_defined_here(name):
    defined, exported = _defined_and_exported(name)
    foreign = [n for n in exported or [] if n not in defined]
    assert not foreign, f"{name} re-exports names defined elsewhere: {foreign}"


@functools.cache
def _attributes_read() -> frozenset[str]:
    """Every attribute loaded anywhere in the package sources, as in x.times."""
    return frozenset(
        node.attr for name in FILES for node in ast.walk(_tree(name))
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
    )


@functools.cache
def _read_anywhere() -> frozenset[str]:
    """Every name or attribute loaded anywhere in the package sources."""
    return _attributes_read() | {
        node.id for name in FILES for node in ast.walk(_tree(name))
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
    }


#: public names nothing in src/ reads, each kept on purpose
_UNREAD_EXPORTS = {
    "impulse_response": "the paper's kernel h(t) at any points a caller gives",
    "limit_probe": "the public limit probe, which has no command-line command",
}


@pytest.mark.parametrize("name", FILES)
def test_every_exported_name_is_read(name):
    # dunder names such as __version__ are for callers, as in the private check
    unread = [
        n for n in _defined_and_exported(name)[1] or []
        if not n.startswith("__") and n not in _read_anywhere() and n not in _UNREAD_EXPORTS
    ]
    assert not unread, f"{name} exports names nothing in src/ reads: {unread}"


def test_unread_exports_allow_list_is_current():
    exported = {n for name in FILES for n in _defined_and_exported(name)[1] or []}
    stale = [n for n in _UNREAD_EXPORTS if n not in exported or n in _read_anywhere()]
    assert not stale, f"allow-list entries to drop: {stale}"


@pytest.mark.parametrize("name", FILES)
def test_every_private_top_level_name_is_read(name):
    # private: a leading underscore, or left out of the module's __all__
    defined, exported = _defined_and_exported(name)
    private = {
        n: line for n, line in defined.items()
        if not n.startswith("__") and (n.startswith("_") or exported is not None and n not in exported)
    }
    orphans = {n: line for n, line in private.items() if n not in _read_anywhere()}
    assert not orphans, f"{name} defines private names nothing in src/ reads: {orphans}"


#: public methods and properties nothing in src/ reads, each kept on purpose
_UNREAD_API = {
    "ApproximationReport.consistency_error":
        "states the report's invariant distance = kernel_norm * sin(angle) for callers",
}


def _public_methods(name: str) -> dict[str, int]:
    """'Class.method': line for each public method or property of a top-level class."""
    found = {}
    for node in _top_level(_tree(name)):
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                    found[f"{node.name}.{item.name}"] = item.lineno
    return found


@pytest.mark.parametrize("name", FILES)
def test_every_public_method_is_read(name):
    # read by name: an attribute load of that name anywhere in src/ counts,
    # a bare name of the same spelling, such as a local variable, does not
    unread = {
        m: line for m, line in _public_methods(name).items()
        if m.partition(".")[2] not in _attributes_read() and m not in _UNREAD_API
    }
    assert not unread, f"{name} defines public methods nothing in src/ reads: {unread}"


def test_unread_api_allow_list_is_current():
    # each entry names a public method that exists and that src/ still does not read
    methods = {m for name in FILES for m in _public_methods(name)}
    stale = [
        m for m in _UNREAD_API
        if m not in methods or m.partition(".")[2] in _attributes_read()
    ]
    assert not stale, f"allow-list entries to drop: {stale}"


#: numpy reductions that call BLAS, whose rounding depends on its thread count
_BLAS_CALLS = {"dot", "vdot", "inner", "matmul", "linalg.norm"}


def _dotted(node) -> str:
    """'np.linalg.norm' for that attribute chain, '' for anything else."""
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return ""
    return ".".join([node.id, *reversed(parts)])


# verify.py keeps its 64-point Gauss-Legendre np.dot: far below BLAS's
# threading size, and its detail string is pinned byte for byte
@pytest.mark.parametrize("name", [n for n in FILES if n != "verify.py"])
def test_no_blas_reductions(name):
    found = []
    for node in ast.walk(_tree(name)):
        if isinstance(node, ast.MatMult):
            found.append("@")
        elif isinstance(node, ast.Attribute):
            dotted = _dotted(node)
            if dotted.partition(".")[2] in _BLAS_CALLS and dotted.startswith(("np.", "numpy.")):
                found.append(dotted)
    assert not found, f"{name} sums through BLAS: {found}"


#: numpy submodules beyond its core: verify's draws and rule need none of them
_NUMPY_EXTRAS = {"random", "polynomial", "linalg", "fft"}


def _numpy_extra(dotted: str) -> bool:
    head, _, rest = dotted.partition(".")
    return head in ("np", "numpy") and rest.partition(".")[0] in _NUMPY_EXTRAS


@pytest.mark.parametrize("name", FILES)
def test_numpy_core_only(name):
    # numpy.random and numpy.polynomial add a fifth to verify's resident
    # memory, and numpy.linalg and numpy.fft are not needed either
    found = []
    for node in ast.walk(_tree(name)):
        if isinstance(node, ast.Import):
            found += [a.name for a in node.names if _numpy_extra(a.name)]
        elif isinstance(node, ast.ImportFrom) and node.module and node.module.startswith("numpy"):
            found += [
                f"{node.module}.{a.name}" for a in node.names
                if _numpy_extra(f"{node.module}.{a.name}")
            ]
        elif isinstance(node, ast.Attribute) and _numpy_extra(_dotted(node)):
            found.append(_dotted(node))
    assert not found, f"{name} uses numpy beyond its core: {found}"


#: modules for running work on other threads
_THREAD_MODULES = {"threading", "concurrent.futures", "contextvars"}


@pytest.mark.parametrize("name", FILES)
def test_no_threads(name):
    # every array is filled block by block on the caller's thread, so no
    # module starts threads or sizes a pool by os.sched_getaffinity
    found = []
    for node in ast.walk(_tree(name)):
        if isinstance(node, ast.Import):
            found += [a.name for a in node.names if a.name in _THREAD_MODULES]
        elif isinstance(node, ast.ImportFrom) and node.module in _THREAD_MODULES:
            found.append(node.module)
        elif isinstance(node, ast.Attribute) and node.attr == "sched_getaffinity":
            found.append(_dotted(node))
    assert not found, f"{name} uses threads: {found}"


def _unbounded_cache(node) -> str:
    """The text of node if it makes a cache that never evicts, else ''."""
    if isinstance(node, ast.ImportFrom) and node.module == "functools":
        return "from functools import cache" if "cache" in {a.name for a in node.names} else ""
    if isinstance(node, ast.Attribute) and node.attr == "cache" and _dotted(node) == "functools.cache":
        return "functools.cache"
    if isinstance(node, ast.Call) and _dotted(node.func).rpartition(".")[2] == "lru_cache":
        size = [k.value for k in node.keywords if k.arg == "maxsize"] + node.args[:1]
        if size and isinstance(size[0], ast.Constant) and size[0].value is None:
            return "lru_cache(maxsize=None)"
    return ""


@pytest.mark.parametrize("name", FILES)
def test_no_unbounded_cache(name):
    # a memo keyed by caller input grows without end in a long-lived
    # process, so every cache in the package names its maxsize
    found = [text for node in ast.walk(_tree(name)) if (text := _unbounded_cache(node))]
    assert not found, f"{name} makes unbounded caches: {found}"
