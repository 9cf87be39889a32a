"""Every public name in randmap has a caller outside the tests, every
private helper a reader inside randmap, every dataclass field a reader,
every defaulted parameter a call that passes it, and no module of randmap
or of the tests imports a name it never uses.

The first walk reads each module of src/randmap with `ast` and collects its
public top-level functions and classes and the public methods of those
classes. A name counts as called when it appears as an import alias or an
attribute in another module of src/randmap or in the benchmark harness
(perfbench/*.py), or as a name or attribute in its own module outside its
own def. Docstrings and other strings do not count. Code that only tests
compare against belongs in tests/oracles.py, not in the package.

The second walk does the same for the private top-level functions and the
private methods of src/randmap: each must be named (as a name, an
attribute or an import alias, which the third walk requires to be read)
somewhere in src/randmap outside its own def, so no helper is left behind
once its last caller is gone.

The third walk takes each name an import binds (`import a.b` binds a) and
requires it to be read as a name somewhere in the same module.

The fourth walk takes each field of each dataclass of src/randmap and
requires it to be read as an attribute (`obj.field` in load context)
somewhere in src/randmap or in the benchmark harness, so no field is kept
that nothing reads.

The fifth walk takes each parameter with a default of each function and
method of src/randmap (nested ones too) and requires some call in
src/randmap or in the benchmark harness to pass it, by keyword or by
position, so no knob is kept that no caller turns. Calls are matched to
definitions by bare name, as in the first walk; a method's first
parameter (self or cls) takes no position in its calls, and a call with
`*args` or `**kwargs` counts as passing every positional or keyword
parameter.

The sixth walk finds each top-level function and method of src/randmap
that opens a file for writing (`open` with a mode that writes, or a call
named write_text, write_bytes or savetxt) and requires them to be the two
writers, one per output format: `measures.write_rows` for every CSV file
and the CLI's JSON writer for `report.json` and `manifest.json`.

The seventh walk mirrors the sixth for input: it finds each top-level
function and method of src/randmap that opens a file for reading (`open`
with a mode that does not write, or a call named read_text, read_bytes,
loadtxt, genfromtxt or fromfile) and requires them to be the one reader
per way of reading: `measures.read_text` opens every input file as text,
and the CLI's hash of an input is the one read of a file as bytes. A call
of `read_text` by its bare name is the reader's own, not a read.

The eighth walk finds each top-level function and method outside
measures.py that calls `as_discrete` with an argument, and requires there
to be none: `measures` alone decides at how many subcells per cell a grid
density is read as atoms, such as the one resolution at which
`measures.atoms_1d` reads it for every 1D W1.
"""
import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "randmap"

# Kept without a caller: RandomMap defines what the kernel manifest's
# `interp` row means (nearest base point, or rejection under 'none'), by
# evaluating the family's maps at one shared draw omega.
ALLOWED = {"kernel.RandomMap"}

# Kept without a reader in randmap: the exact LP's dual potentials are its
# optimality certificate, which tests/test_transport.py checks.
ALLOWED_FIELDS = {"transport.TransportPlan.dual_u", "transport.TransportPlan.dual_v"}

# Kept without a randmap caller that passes them: the Sinkhorn settings of
# the W1 bound, which acceptance criteria 2 (tol=2e-4) and 5 (epsilon=2e-3)
# and the rounding property test (max_iter) set.
ALLOWED_PARAMETERS = {"measures.wasserstein_sinkhorn_upper(epsilon)",
                      "measures.wasserstein_sinkhorn_upper(max_iter)",
                      "measures.wasserstein_sinkhorn_upper(tol)"}

# The one writer per output format (see the sixth walk).
WRITERS = {"measures.write_rows", "cli._write_json"}

# The one reader per way of reading a file (see the seventh walk).
READERS = {"text": {"measures.read_text"}, "bytes": {"cli._sha256"}}


def _definitions(tree: ast.Module):
    """(qualified name, bare name, def node) of each public top-level
    function and class and each public method of those classes."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
            yield node.name, node.name, node
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if (isinstance(item, ast.FunctionDef)
                            and not item.name.startswith("_")):
                        yield f"{node.name}.{item.name}", item.name, item


def _references(tree: ast.AST, names: bool, skip: ast.AST | None = None) -> set[str]:
    """Import aliases and attributes in tree (and bare names too, if names),
    leaving out the subtree skip."""
    found = set()
    stack = [tree]
    while stack:
        node = stack.pop()
        if node is skip:
            continue
        if isinstance(node, ast.alias):
            found.add(node.name.rsplit(".", 1)[-1])
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
        elif names and isinstance(node, ast.Name):
            found.add(node.id)
        stack.extend(ast.iter_child_nodes(node))
    return found


def uncalled_names(package: Path, harness: Path) -> list[str]:
    """module.name of every public name in package with no caller (see above)."""
    modules = {path.stem: ast.parse(path.read_text()) for path in sorted(package.glob("*.py"))}
    imported = {stem: _references(tree, names=False) for stem, tree in modules.items()}
    harness_refs = set().union(*(_references(ast.parse(path.read_text()), names=False)
                                 for path in sorted(harness.glob("*.py"))))
    missing = []
    for stem, tree in modules.items():
        elsewhere = set().union(harness_refs, *(refs for other, refs in imported.items()
                                                if other != stem))
        for qualname, name, node in _definitions(tree):
            if name in elsewhere or name in _references(tree, names=True, skip=node):
                continue
            missing.append(f"{stem}.{qualname}")
    return missing


def test_every_public_name_has_a_non_test_caller():
    uncalled = set(uncalled_names(PACKAGE, ROOT / "perfbench"))
    assert uncalled == ALLOWED, (
        f"public names with no caller outside the tests: {sorted(uncalled - ALLOWED)}; "
        f"allowed names that have a caller now: {sorted(ALLOWED - uncalled)}")


def _private_definitions(tree: ast.Module):
    """(qualified name, bare name, def node) of each private top-level
    function and each private method of a top-level class (a leading
    underscore, not a dunder)."""
    def private(name):
        return name.startswith("_") and not name.endswith("__")

    for node in tree.body:
        if isinstance(node, ast.FunctionDef) and private(node.name):
            yield node.name, node.name, node
        elif isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and private(item.name):
                    yield f"{node.name}.{item.name}", item.name, item


def unread_private_names(package: Path) -> list[str]:
    """module.name of every private function and method in package that no
    code of package names outside its own def (see above)."""
    modules = {path.stem: ast.parse(path.read_text()) for path in sorted(package.glob("*.py"))}
    read = {stem: _references(tree, names=True) for stem, tree in modules.items()}
    missing = []
    for stem, tree in modules.items():
        elsewhere = set().union(*(refs for other, refs in read.items() if other != stem))
        for qualname, name, node in _private_definitions(tree):
            if name not in elsewhere and name not in _references(tree, names=True, skip=node):
                missing.append(f"{stem}.{qualname}")
    return missing


def test_every_private_helper_is_read_in_the_package():
    unread = unread_private_names(PACKAGE)
    assert not unread, f"private functions and methods nothing in randmap reads: {unread}"


def unused_imports(path: Path) -> list[str]:
    """path:line: name for each name an import in path binds and the module never reads."""
    tree = ast.parse(path.read_text())
    bound = {}
    for node in ast.walk(tree):
        if (isinstance(node, (ast.Import, ast.ImportFrom))
                and getattr(node, "module", None) != "__future__"):
            for alias in node.names:
                bound.setdefault(alias.asname or alias.name.split(".")[0], node.lineno)
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{path.relative_to(ROOT)}:{line}: {name}"
            for name, line in sorted(bound.items(), key=lambda item: item[1]) if name not in read]


def test_no_module_imports_a_name_it_never_uses():
    paths = sorted(PACKAGE.glob("*.py")) + sorted((ROOT / "tests").glob("*.py"))
    unused = [entry for path in paths for entry in unused_imports(path)]
    assert not unused, f"imported and never used: {unused}"


def _parsed(package: Path, harness: Path) -> tuple[dict, list]:
    """The modules of package by stem, and the parsed harness modules."""
    modules = {path.stem: ast.parse(path.read_text()) for path in sorted(package.glob("*.py"))}
    return modules, [ast.parse(path.read_text()) for path in sorted(harness.glob("*.py"))]


def _is_dataclass(node: ast.ClassDef) -> bool:
    for dec in node.decorator_list:
        target = dec.func if isinstance(dec, ast.Call) else dec
        if getattr(target, "id", getattr(target, "attr", None)) == "dataclass":
            return True
    return False


def unread_fields(package: Path, harness: Path) -> list[str]:
    """module.Class.field of every dataclass field in package that no code
    of package or harness reads as an attribute (see above)."""
    modules, others = _parsed(package, harness)
    read = {node.attr for tree in [*modules.values(), *others] for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}
    missing = []
    for stem, tree in modules.items():
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef) and _is_dataclass(node):
                missing += [f"{stem}.{node.name}.{item.target.id}" for item in node.body
                            if isinstance(item, ast.AnnAssign)
                            and isinstance(item.target, ast.Name)
                            and item.target.id not in read]
    return missing


def test_every_dataclass_field_is_read():
    unread = set(unread_fields(PACKAGE, ROOT / "perfbench"))
    assert unread == ALLOWED_FIELDS, (
        f"dataclass fields nothing reads: {sorted(unread - ALLOWED_FIELDS)}; "
        f"allowed fields that are read now: {sorted(ALLOWED_FIELDS - unread)}")


def _defaulted_parameters(func: ast.FunctionDef, method: bool):
    """(name, position or None) of each parameter of func with a default;
    the position counts from the call's first argument."""
    positional = [*func.args.posonlyargs, *func.args.args][1 if method else 0:]
    first = len(positional) - len(func.args.defaults)
    for pos, arg in enumerate(positional[first:], start=first):
        yield arg.arg, pos
    for arg, default in zip(func.args.kwonlyargs, func.args.kw_defaults):
        if default is not None:
            yield arg.arg, None


def _passes(call: ast.Call, name: str, pos: int | None) -> bool:
    if any(kw.arg == name or kw.arg is None for kw in call.keywords):
        return True
    if pos is None:
        return False
    return len(call.args) > pos or any(isinstance(a, ast.Starred) for a in call.args)


def unpassed_parameters(package: Path, harness: Path) -> list[str]:
    """module.function(parameter) of every defaulted parameter in package
    that no call in package or harness passes (see above)."""
    modules, others = _parsed(package, harness)
    calls = {}
    for tree in [*modules.values(), *others]:
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                name = getattr(node.func, "id", getattr(node.func, "attr", None))
                calls.setdefault(name, []).append(node)
    missing = []
    for stem, tree in modules.items():
        methods = {id(item): f"{node.name}.{item.name}" for node in ast.walk(tree)
                   if isinstance(node, ast.ClassDef) for item in node.body
                   if isinstance(item, ast.FunctionDef)
                   and not any(getattr(d, "id", None) == "staticmethod"
                               for d in item.decorator_list)}
        for node in ast.walk(tree):
            if not isinstance(node, ast.FunctionDef):
                continue
            for name, pos in _defaulted_parameters(node, id(node) in methods):
                if not any(_passes(call, name, pos) for call in calls.get(node.name, [])):
                    missing.append(f"{stem}.{methods.get(id(node), node.name)}({name})")
    return missing


def test_every_defaulted_parameter_is_passed():
    unpassed = set(unpassed_parameters(PACKAGE, ROOT / "perfbench"))
    assert unpassed == ALLOWED_PARAMETERS, (
        f"defaulted parameters no call passes: {sorted(unpassed - ALLOWED_PARAMETERS)}; "
        f"allowed parameters that a call passes now: {sorted(ALLOWED_PARAMETERS - unpassed)}")


def _writes_a_file(call: ast.Call) -> bool:
    """call opens a file for writing: an open whose mode is not a constant
    or holds w, a, x or +, or a write_text, write_bytes or savetxt call."""
    name = getattr(call.func, "id", getattr(call.func, "attr", None))
    if name in ("write_text", "write_bytes", "savetxt"):
        return True
    modes = call.args[1:2] + [kw.value for kw in call.keywords if kw.arg == "mode"]
    return name == "open" and any(not isinstance(mode, ast.Constant)
                                  or set(str(mode.value)) & set("wax+") for mode in modes)


def _functions(package: Path):
    """(module.name, def node) of every top-level function and method in package."""
    for path in sorted(package.glob("*.py")):
        tree = ast.parse(path.read_text())
        for node in tree.body:
            if isinstance(node, ast.FunctionDef):
                yield f"{path.stem}.{node.name}", node
            elif isinstance(node, ast.ClassDef):
                yield from ((f"{path.stem}.{node.name}.{item.name}", item) for item in node.body
                            if isinstance(item, ast.FunctionDef))


def _calls(node: ast.AST):
    return (call for call in ast.walk(node) if isinstance(call, ast.Call))


def file_writers(package: Path) -> set[str]:
    """module.name of every top-level function and method in package whose
    body (nested defs included) opens a file for writing."""
    return {name for name, node in _functions(package) if any(map(_writes_a_file, _calls(node)))}


def test_one_writer_per_output_format():
    writers = file_writers(PACKAGE)
    assert writers == WRITERS, (
        f"functions that write files besides the two writers: {sorted(writers - WRITERS)}; "
        f"writers that no longer write: {sorted(WRITERS - writers)}")


def _reads_a_file(call: ast.Call) -> str | None:
    """'bytes' or 'text' if call opens a file for reading (see the seventh
    walk), else None: an open with a constant mode that does not write, by
    whether the mode holds b; an attribute call read_bytes; an attribute
    call read_text (a bare read_text(...) is measures.read_text itself), or
    a call named loadtxt, genfromtxt or fromfile."""
    name = getattr(call.func, "id", getattr(call.func, "attr", None))
    attribute = isinstance(call.func, ast.Attribute)
    if name == "read_bytes" and attribute:
        return "bytes"
    if (name == "read_text" and attribute) or name in ("loadtxt", "genfromtxt", "fromfile"):
        return "text"
    if name != "open" or _writes_a_file(call):
        return None
    modes = call.args[1:2] + [kw.value for kw in call.keywords if kw.arg == "mode"]
    return "bytes" if any("b" in str(mode.value) for mode in modes) else "text"


def file_readers(package: Path) -> dict[str, set[str]]:
    """For 'text' and 'bytes', module.name of every top-level function
    and method in package whose body (nested defs included) opens a file
    for reading that way."""
    found = {"text": set(), "bytes": set()}
    for name, node in _functions(package):
        for kind in filter(None, map(_reads_a_file, _calls(node))):
            found[kind].add(name)
    return found


def test_one_reader_per_input_format():
    readers = file_readers(PACKAGE)
    assert readers == READERS, (
        f"functions that read files: {readers}; the one text reader and the one byte "
        f"reader: {READERS}")


def resolution_choosers(package: Path) -> set[str]:
    """module.name of every top-level function and method outside measures.py
    whose body calls `as_discrete` with an argument (see the eighth walk)."""
    return {name for name, node in _functions(package) if not name.startswith("measures.")
            and any(getattr(call.func, "attr", None) == "as_discrete"
                    and (call.args or call.keywords) for call in _calls(node))}


def test_only_measures_chooses_a_grid_resolution():
    choosers = resolution_choosers(PACKAGE)
    assert not choosers, f"functions outside measures that pick a grid resolution: {choosers}"
