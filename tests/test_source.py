"""Properties of the library source itself."""

import ast
import importlib.util
import re
from pathlib import Path

import klrcalc

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "klrcalc"


def test_library_has_no_assert_or_debug():
    """Checks that must hold are tests or explicit raises: ``python -O``
    strips assert statements and ``if __debug__`` blocks."""
    files = sorted(SRC.glob("*.py"))
    assert files
    found = []
    for path in files:
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.Assert) or (
                    isinstance(node, ast.Name) and node.id == "__debug__"):
                found.append(f"{path.name}:{node.lineno}")
    assert not found, found


def test_benchmark_tracer_targets_exist():
    """The benchmark's tracer (perfbench/tracer.py) wraps library functions
    by name at the package and methods on their class; every name it lists
    must still be there."""
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracer", ROOT / "perfbench" / "tracer.py")
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    targets = tracer._targets(klrcalc)
    assert targets
    missing = []
    for name, owner, attr, _, _ in targets:
        if isinstance(owner, type):
            fn = owner.__dict__.get(attr)
        else:
            fn = getattr(owner, attr, None)
        if not callable(fn):
            missing.append(f"{name}: {attr}")
    assert not missing, missing


def test_library_imports_are_used():
    """Every name a library module imports (at any depth, ``from
    __future__`` aside) is read somewhere in that module.  The package's
    ``__init__.py`` imports to re-export, so it is not checked."""
    files = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")
    assert files
    unused = []
    for path in files:
        tree = ast.parse(path.read_text(), filename=str(path))
        imported = {}
        used = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for a in node.names:
                    imported[(a.asname or a.name).split(".")[0]] = node.lineno
            elif (isinstance(node, ast.ImportFrom)
                  and node.module != "__future__"):
                for a in node.names:
                    imported[a.asname or a.name] = node.lineno
            elif isinstance(node, ast.Name):
                used.add(node.id)
        unused += [f"{path.name}:{line} {name}"
                   for name, line in imported.items() if name not in used]
    assert not unused, unused


def test_qring_divides_only_in_its_exact_helper():
    """qring.py has one true division, in `_div`, which stores an integral
    quotient as an int and any other as a Fraction.  A `/` anywhere else
    could put a float, or an integral Fraction, into a coefficient."""
    tree = ast.parse((SRC / "qring.py").read_text())
    helpers = [node for node in ast.walk(tree)
               if isinstance(node, ast.FunctionDef) and node.name == "_div"]
    assert len(helpers) == 1
    inside = {id(node) for node in ast.walk(helpers[0])}
    divisions = [node for node in ast.walk(tree)
                 if isinstance(node, (ast.BinOp, ast.AugAssign))
                 and isinstance(node.op, ast.Div)]
    assert any(id(node) in inside for node in divisions)
    stray = [node.lineno for node in divisions if id(node) not in inside]
    assert not stray, stray


# Modules below each key must not import the modules in its value: the
# algebra layers know nothing of the complexes, the form or the command
# line, and the form stays an independent oracle for the complexes.
LAYER_BANS = {
    **{low: {"adjoint", "uplus", "cli"}
       for low in ("rootdata", "polycalc", "qring", "klr")},
    # the polynomial action is the oracle for one-colour KLR products, so
    # it never calls the engine it checks
    "nilhecke": {"klr", "adjoint", "uplus", "cli"},
    "uplus": {"adjoint", "cli"},
}


def _package_imports(tree):
    """The klrcalc submodules a module imports, at any depth, relative or
    absolute."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            found.update(a.name.split(".")[1] for a in node.names
                         if a.name.startswith("klrcalc."))
        elif isinstance(node, ast.ImportFrom):
            if node.level:
                module = node.module
            elif (node.module or "").startswith("klrcalc"):
                module = node.module.partition(".")[2]
            else:
                continue
            if module:
                found.add(module.split(".")[0])
            else:
                found.update(a.name for a in node.names)
    return found


def test_library_layers_import_downwards():
    bad = []
    for name, banned in sorted(LAYER_BANS.items()):
        path = SRC / f"{name}.py"
        imports = _package_imports(ast.parse(path.read_text()))
        bad += [f"{name} imports {m}" for m in sorted(imports & banned)]
    assert not bad, bad


def test_layer_guard_sees_every_import_form():
    tree = ast.parse("from .adjoint import DimTable\n"
                     "from . import cli\n"
                     "import klrcalc.uplus\n"
                     "from klrcalc.qring import LaurentPoly\n"
                     "from fractions import Fraction\n"
                     "def f():\n"
                     "    from .nilhecke import nh_act\n")
    assert _package_imports(tree) == {"adjoint", "cli", "uplus", "qring",
                                      "nilhecke"}


def _readme_dotted_names(text):
    """The leading dotted name of each code span of the markdown text,
    fenced blocks aside: `KLRContext.pbw_cosets(ν)` gives
    KLRContext.pbw_cosets, and `cohomology_dims` gives nothing."""
    text = re.sub(r"```.*?```", "", text, flags=re.S)
    names = []
    for span in re.findall(r"`([^`\n]+)`", text):
        m = re.match(r"[A-Za-z_]\w*(?:\.[A-Za-z_]\w*)+", span)
        if m:
            names.append(m.group())
    return names


def test_readme_names_resolve():
    """Every dotted name in backticks in README.md whose head is klrcalc,
    one of its modules or one of its classes names something that
    exists, so the overview cannot keep naming deleted code."""
    modules = {p.stem: importlib.import_module(f"klrcalc.{p.stem}")
               for p in SRC.glob("*.py") if p.stem != "__init__"}
    classes = {name: obj for mod in modules.values()
               for name, obj in vars(mod).items()
               if isinstance(obj, type)
               and obj.__module__.startswith("klrcalc")}
    checked, missing = 0, []
    for name in _readme_dotted_names((ROOT / "README.md").read_text()):
        head, *rest = name.split(".")
        if head == "klrcalc":
            obj = klrcalc
        elif head in modules:
            obj = modules[head]
        elif head in classes:
            obj = classes[head]
        else:
            continue
        checked += 1
        for attr in rest:
            obj = getattr(obj, attr, None)
        if obj is None:
            missing.append(name)
    assert checked
    assert not missing, missing



def _is_empty_table(value):
    """{}, dict(), OrderedDict() or defaultdict(factory): a dict made
    empty, to be filled as the program runs."""
    if isinstance(value, ast.Dict):
        return not value.keys
    if not isinstance(value, ast.Call) or value.keywords:
        return False
    func = value.func
    name = func.id if isinstance(func, ast.Name) else getattr(func, "attr",
                                                              None)
    if name == "defaultdict":
        return len(value.args) <= 1
    return name in ("dict", "OrderedDict") and not value.args


def _empty_tables(tree):
    """The names that a statement of the module body, or of a class body
    in it, binds to an empty dict: tables that live as long as the
    process."""
    bodies = [tree.body] + [node.body for node in tree.body
                            if isinstance(node, ast.ClassDef)]
    found = []
    for stmt in (stmt for body in bodies for stmt in body):
        if isinstance(stmt, ast.Assign):
            targets = stmt.targets
        elif isinstance(stmt, ast.AnnAssign):
            targets = [stmt.target]
        else:
            continue
        if stmt.value is not None and _is_empty_table(stmt.value):
            found += [t.id for t in targets if isinstance(t, ast.Name)]
    return found


def test_plans_are_the_only_process_wide_table():
    """klr._PLANS, the colour-independent rewriting plans, is the one
    table the library creates empty at module or class level; every other
    memo lives on a context, a complex or a call, so a process-wide memo
    cannot slip in unnoticed."""
    found = [f"{path.stem}.{name}" for path in sorted(SRC.glob("*.py"))
             for name in _empty_tables(ast.parse(path.read_text()))]
    assert found == ["klr._PLANS"]


def test_table_guard_sees_every_empty_dict_form():
    tree = ast.parse("A = {}\n"
                     "B: dict = dict()\n"
                     "C = collections.OrderedDict()\n"
                     "D = defaultdict(list)\n"
                     "E = {1: 2}\n"
                     "F = dict(a=1)\n"
                     "G = []\n"
                     "class K:\n"
                     "    H = {}\n"
                     "def f():\n"
                     "    I = {}\n")
    assert _empty_tables(tree) == ["A", "B", "C", "D", "H"]


def _memo_decorators(tree):
    """The functions and classes of a module, at any depth, decorated
    with functools' cache or lru_cache, bare or called, by name or as an
    attribute: memos that live as long as the process and hold every
    argument, which the table guard, seeing only empty dicts, misses."""
    found = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef)):
            continue
        for dec in node.decorator_list:
            if isinstance(dec, ast.Call):
                dec = dec.func
            name = (dec.id if isinstance(dec, ast.Name)
                    else getattr(dec, "attr", None))
            if name in ("cache", "lru_cache"):
                found.append(node.name)
    return sorted(found)


def test_library_has_no_process_wide_memo_decorator():
    """No library function is memoized by functools.cache or lru_cache;
    a memo lives on a context, a complex or a call (klr._PLANS aside)."""
    found = [f"{path.stem}.{name}" for path in sorted(SRC.glob("*.py"))
             for name in _memo_decorators(ast.parse(path.read_text()))]
    assert not found, found


def test_memo_guard_sees_every_decorator_form():
    tree = ast.parse("@cache\n"
                     "def a(): pass\n"
                     "@lru_cache\n"
                     "def b(): pass\n"
                     "@functools.cache\n"
                     "def c(): pass\n"
                     "@functools.lru_cache(maxsize=None)\n"
                     "def d(): pass\n"
                     "@lru_cache(None)\n"
                     "async def e(): pass\n"
                     "class K:\n"
                     "    @ft.lru_cache()\n"
                     "    def f(self): pass\n"
                     "def g():\n"
                     "    @cache\n"
                     "    def h(): pass\n"
                     "@cache\n"
                     "class L: pass\n"
                     "@property\n"
                     "def i(): pass\n"
                     "@functools.wraps(a)\n"
                     "def j(): pass\n")
    assert _memo_decorators(tree) == ["L", "a", "b", "c", "d", "e", "f", "h"]


def _calls(tree, names):
    """(caller, callee) for each call in the module of a function named
    in names, as f(...) or as obj.f(...); the caller is the innermost
    function or method around the call (None at module level)."""
    found = []

    def visit(node, owner):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, child.name)
                continue
            if isinstance(child, ast.Call):
                func = child.func
                callee = (func.id if isinstance(func, ast.Name)
                          else getattr(func, "attr", None))
                if callee in names:
                    found.append((owner, callee))
            visit(child, owner)
    visit(tree, None)
    return found


def test_rank_layer_has_one_path():
    """Unit columns are peeled once, in ProjComplex._raw_columns, and a
    cohomology block is term dimension less ranks in one place: within
    the library, block_rank is called only by the per-block formula
    ProjComplex.cohomology_dim, and _matrix_rank only by block_rank."""
    found = sorted({f"{path.stem}.{owner} -> {callee}"
                    for path in SRC.glob("*.py")
                    for owner, callee in _calls(
                        ast.parse(path.read_text()),
                        {"block_rank", "_matrix_rank"})})
    assert found == ["adjoint.block_rank -> _matrix_rank",
                     "adjoint.cohomology_dim -> block_rank"]


def test_call_guard_sees_both_call_forms():
    tree = ast.parse("_matrix_rank(cols)\n"
                     "def f(cplx):\n"
                     "    return cplx.block_rank(1, 0, ()) + g()\n"
                     "class C:\n"
                     "    def h(self):\n"
                     "        def inner():\n"
                     "            return _matrix_rank([])\n"
                     "        return self.block_rank(1, 0, ()), inner\n"
                     "x = obj.block_rank\n")
    assert _calls(tree, {"block_rank", "_matrix_rank"}) == [
        (None, "_matrix_rank"), ("f", "block_rank"),
        ("inner", "_matrix_rank"), ("h", "block_rank")]


def _docstring_tables(doc):
    """The table names a docstring's bullet list gives: each _name between
    a line's leading "* " and the first colon."""
    found = []
    for line in doc.splitlines():
        line = line.strip()
        if line.startswith("* "):
            found += re.findall(r"\b_\w+", line[2:].split(":")[0])
    return found


def test_context_docstring_lists_its_memo_tables():
    """The memo list of the KLRContext docstring names exactly the tables
    a new context holds, its private attributes that start as empty
    dicts, so a table added or removed shows up in the list."""
    assert _docstring_tables("* _a: x _z\n  * _b, _c: y\n  not _d\n") == \
        ["_a", "_b", "_c"]
    ctx = klrcalc.KLRContext(klrcalc.CartanDatum(["i"], [[2]]))
    made = sorted(name for name, v in vars(ctx).items()
                  if name.startswith("_") and type(v) is dict and not v)
    assert made
    assert sorted(_docstring_tables(klrcalc.KLRContext.__doc__)) == made
