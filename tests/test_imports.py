"""Structure checks over the package's source: it runs on the standard
library and numpy alone, one helper decides whether a handle is in range,
one looks ids up row by row, one counts shared tags, one helper reads a
text file whole and one streams a raw file, ingest reads each raw file
once, and the canonical load parses each of its files once."""

from __future__ import annotations

import ast
import re
import sys
from pathlib import Path

import trustcf

ALLOWED = set(sys.stdlib_module_names) | {"numpy", "trustcf"}
MODULES = sorted(Path(trustcf.__file__).parent.rglob("*.py"))
OUT_OF_RANGE = re.compile(r"handle\b.*\bout of range")


def imported_packages(tree: ast.AST) -> set[str]:
    """Top-level names of the packages a module imports, relative imports aside."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module.split(".")[0])
    return names


def parse(path: Path) -> ast.AST:
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def test_modules_import_only_the_standard_library_and_numpy():
    assert len(MODULES) > 5
    for path in MODULES:
        tree = parse(path)
        assert imported_packages(tree) <= ALLOWED, (path.name, imported_packages(tree) - ALLOWED)


def handle_range_raisers(path: Path) -> set[tuple[str, str | None]]:
    """(module, innermost function) of each raise whose message says a
    handle is out of range, also where the message is an f-string."""
    found = set()

    def visit(node: ast.AST, func: str | None) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            func = node.name
        if isinstance(node, ast.Raise) and OUT_OF_RANGE.search(ast.unparse(node)):
            found.add((path.name, func))
        for child in ast.iter_child_nodes(node):
            visit(child, func)

    visit(parse(path), None)
    return found


def test_only_check_handles_raises_handle_out_of_range():
    raisers = set().union(*map(handle_range_raisers, MODULES))
    assert raisers == {("dataset.py", "check_handles")}



def calls(path: Path, wanted) -> list[tuple[str | None, ast.Call]]:
    """(innermost function, call) of each call for which ``wanted(call)``
    holds, in source order; a method is named with its class, as
    ``_Table.__init__``."""
    found = []

    def visit(node: ast.AST, func: str | None, cls: str | None) -> None:
        if isinstance(node, ast.ClassDef):
            cls = node.name
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            func, cls = (f"{cls}.{node.name}" if cls else node.name), None
        if isinstance(node, ast.Call) and wanted(node):
            found.append((func, node))
        for child in ast.iter_child_nodes(node):
            visit(child, func, cls)

    visit(parse(path), None, None)
    return found


def callers(path: Path, wanted) -> set[tuple[str, str | None]]:
    """(module, innermost function) of each call for which ``wanted(call)`` holds."""
    return {(path.name, func) for func, _ in calls(path, wanted)}


def calls_method(name: str):
    return lambda call: isinstance(call.func, ast.Attribute) and call.func.attr == name


def maps_a_lookup(call: ast.Call) -> bool:
    """``np.fromiter(map(x.get or x.__getitem__, ...))``: an array of values
    looked up one row at a time."""
    if not (calls_method("fromiter")(call) and call.args and isinstance(call.args[0], ast.Call)):
        return False
    inner = call.args[0]
    return (isinstance(inner.func, ast.Name) and inner.func.id == "map" and bool(inner.args)
            and isinstance(inner.args[0], ast.Attribute)
            and inner.args[0].attr in ("get", "__getitem__"))


def test_only_factorize_looks_ids_up_row_by_row():
    """Every id column reaches the builder as codes, or is factorized on the
    way in; nothing turns handles back into ids to look them up again."""
    # the one per-row lookup is factorize's own, and an Interner offers none
    assert set().union(*(callers(p, maps_a_lookup) for p in MODULES)) == {
        ("dataset.py", "factorize")}
    assert set().union(*(callers(p, calls_method("handles")) for p in MODULES)) == set()
    # nothing turns a handle column back into ids: the canonical render
    # encodes each id of Interner.ids once and gathers its bytes by handle
    assert set().union(*(callers(p, calls_method("externals")) for p in MODULES)) == set()


def test_one_tag_overlap_implementation():
    """Tag overlap is counted in one place, ``ItemCategories.shared`` over
    item bitsets, and only the diversity kernel asks for it; the categories
    keep no packed keys to search."""
    assert set().union(*(callers(p, calls_method("shared")) for p in MODULES)) == {
        ("evaluation.py", "_diversities")}
    named = lambda call: isinstance(call.func, ast.Name) and call.func.id == "search_keys"
    searchers = {func for p in MODULES for func, _ in calls(p, named)}
    assert searchers and not {f for f in searchers if f.startswith("ItemCategories.")}


def reads_a_file(call: ast.Call) -> bool:
    """``open(...)``, ``x.open(...)``, ``x.read_bytes()`` or ``x.read_text()``."""
    if isinstance(call.func, ast.Name):
        return call.func.id == "open"
    return isinstance(call.func, ast.Attribute) and call.func.attr in (
        "open", "read_bytes", "read_text")


def test_files_are_read_in_one_place_each():
    """Every text input, canonical or raw, is read whole by ``read_utf8`` or
    streamed by ``ingest._lines``; ``write_atomic`` opens what it writes,
    ``restaurants_food_closure`` reads the packaged closure, and the
    evaluation's ``_map_groups`` and ``_child`` open the fork pipes.  No
    other function opens or reads a file, so none can read one twice."""
    assert set().union(*(callers(path, reads_a_file) for path in MODULES)) == {
        ("canonical.py", "read_utf8"), ("canonical.py", "write_atomic"),
        ("ingest.py", "_lines"), ("ingest.py", "restaurants_food_closure"),
        ("evaluation.py", "_map_groups"), ("evaluation.py", "_child")}


def test_ingest_reads_each_raw_file_once():
    """A raw file is parsed by one loop of its reader; an error found after
    the parse is named from the lines that loop recorded, not by reading the
    file again."""
    path = Path(trustcf.__file__).parent / "ingest.py"

    def sites(name: str) -> list[tuple[str | None, str]]:
        """(caller, first argument) of each call of the function ``name``."""
        named = lambda call: isinstance(call.func, ast.Name) and call.func.id == name
        return sorted((func, ast.unparse(call.args[0])) for func, call in calls(path, named))

    assert sites("_iter_json_lines") == [
        ("ingest_yelp", name) for name in ("business_file", "review_file", "tip_file", "user_file")]
    assert sites("_iter_librarything") == [("ingest_librarything", "review_file")]
    assert sites("_lines") == [
        ("_iter_json_lines", "path"), ("_iter_librarything", "path"),
        ("ingest_librarything", "friend_file"), ("load_category_closure", "_require(Path(path))")]


def test_canonical_load_parses_each_file_once():
    """Each canonical TSV file is parsed by one ``_Table``, which also finds
    its repeated keys: ``canonical_load`` parses the ratings, categories and
    friends, ``_read_counters`` each counter file.  Only ``_Counters.fail``
    parses a file again, for the errors the build finds across files."""
    path = Path(trustcf.__file__).parent / "canonical.py"
    named = lambda call: isinstance(call.func, ast.Name) and call.func.id == "_Table"
    assert sorted((func, ast.unparse(call.args[0])) for func, call in calls(path, named)) == [
        ("_Counters.fail", "self.path"),
        ("_read_counters", "path"),
        ("canonical_load", "directory / 'friends.tsv'"),
        ("canonical_load", "directory / 'item_categories.tsv'"),
        ("canonical_load", "directory / 'ratings.tsv'"),
    ]


def test_canonical_save_sorts_no_lines():
    """A canonical file is written in handle order, or in the order of one
    lexsort over id ranks; no line is sorted as a string.  The only
    ``sorted`` calls in canonical.py order counter names."""
    path = Path(trustcf.__file__).parent / "canonical.py"
    named = lambda call: isinstance(call.func, ast.Name) and call.func.id == "sorted"
    assert sorted((func, ast.unparse(call.args[0])) for func, call in calls(path, named)) == [
        ("_read_counters", "known"),
        ("_render", "set(d.feedback.present()) | {'review_count'}"),
    ]


def unused_imports(source: str) -> list[str]:
    """Names a module imports but never references, except those whose
    line carries ``# noqa: F401``; ``__future__`` imports aside."""
    tree = ast.parse(source)
    lines = source.splitlines()
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                if name not in used and "# noqa: F401" not in lines[alias.lineno - 1]:
                    unused.append(name)
    return unused


def test_unused_imports_finds_each_kind_of_import():
    source = "\n".join([
        "from __future__ import annotations",
        "import os, re",
        "import os.path as osp",
        "from json import (",
        "    dumps,",
        "    loads as read,  # noqa: F401  (kept for a tracer)",
        ")",
        "re.compile('x')",
    ])
    assert unused_imports(source) == ["os", "osp", "dumps"]


def test_every_import_is_used_or_marked():
    """An import the package does not use is a name a reader must chase;
    one kept for an outside user (a tracer) says so with ``# noqa: F401``."""
    found = {path.name: unused_imports(path.read_text(encoding="utf-8"))
             for path in MODULES if path.name != "__init__.py"}
    assert {name: names for name, names in found.items() if names} == {}
