"""Source hygiene: every import in the package and in the tests is used,
no function body in either imports anything but a CLI command's opening
``from . import`` of the package modules it runs, each
``__all__`` matches its module and lists only names the package itself
reads, every third-party package imported is declared in
``pyproject.toml``, the tests import their conftest one way only, the
package calls the sparse factor ``splu`` at one site, the studies build
a grid at one site and a sweep result at one site, the band's level
system reads its spline tables through ``PPoly`` alone, the boundary
layer reads its forcing at one site, the speed zones are named in one
module and the validity gauge read in one function, the restated
validity forms, their desk-unit inputs and the external layer table of
``check`` are gone, the nonlinear cost is one power-law family, the
generator's 2/sigma^2 is formed in one band_zero function, the layer
shift wall_offset * eta^{1/3} in one package function, the DP's theta
difference in one hjb function, the DP oracle reads none of the band
theory it checks and stops on one test, and every attribute the
benchmark's spans hook exists.

A stdlib stand-in for a linter's unused-import rule.  A name a
module-level import binds counts as used when it is read anywhere in its
module or listed in ``__all__``, which is why ``__all__`` may list only
names its module defines; a name a function-body import binds must be
read in that function.  Imports belong at the top of the module, where
this check can see them.  The one exception is ``cli.py``: each command
opens, after its docstring, with one ``from . import`` of the package
modules it runs, so a process loads only the layers of the command it
dispatches (a DP run never loads the exact band's scipy stack).
"""

import ast
import dataclasses
import importlib
import pathlib
import re
import sys

import pytest

from bandlayer.model import CostParams

PACKAGE = pathlib.Path(__file__).resolve().parents[1] / "src" / "bandlayer"
MODULES = sorted(p.name for p in PACKAGE.glob("*.py"))
TESTS = pathlib.Path(__file__).resolve().parent
# package modules by bare name, test modules as tests/<name>
IMPORT_SOURCES = {**{m: PACKAGE / m for m in MODULES},
                  **{f"tests/{p.name}": p for p in TESTS.glob("*.py")}}
PYPROJECT = PACKAGE.parents[1] / "pyproject.toml"
SPANS = PACKAGE.parents[1] / "perfbench" / "spans.py"
# the package, the tests, and the test modules pytest puts on sys.path
FIRST_PARTY = {"bandlayer", "tests"} | {p.stem for p in TESTS.glob("*.py")}
FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)


def _bound_names(node):
    """Each name an import statement binds."""
    return [alias.asname or alias.name.split(".")[0] for alias in node.names]


def _imported_names(tree):
    """Name bound by each top-level import, with its line number."""
    for node in tree.body:
        if isinstance(node, ast.Import) or (
                isinstance(node, ast.ImportFrom)
                and node.module != "__future__"):
            for name in _bound_names(node):
                yield name, node.lineno


def _declared_all(tree):
    """The names listed in the module's ``__all__``, None without one."""
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__"
                        for t in node.targets)):
            return ast.literal_eval(node.value)
    return None


def _used_names(tree):
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    used.update(_declared_all(tree) or ())
    return used


def test_package_found():
    assert "cli.py" in MODULES


def _function_imports(node, fn=None):
    """(innermost enclosing function, import) for each import in a
    function body under ``node``."""
    for child in ast.iter_child_nodes(node):
        if fn is not None and isinstance(child, (ast.Import, ast.ImportFrom)):
            yield fn, child
        yield from _function_imports(
            child, child if isinstance(child, FUNCTIONS) else fn)


@pytest.mark.parametrize("module", sorted(IMPORT_SOURCES))
def test_module_imports_are_used(module):
    tree = ast.parse(IMPORT_SOURCES[module].read_text(encoding="utf-8"))
    used = _used_names(tree)
    unused = [f"{name} (line {line})" for name, line in _imported_names(tree)
              if name not in used]
    for fn, node in _function_imports(tree):
        read = {n.id for n in ast.walk(fn)
                if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
        unused += [f"{name} (line {node.lineno}, in {fn.name})"
                   for name in _bound_names(node) if name not in read]
    assert not unused, f"{module}: unused import(s) {', '.join(unused)}"


def _opening_statement(fn):
    """A function's first statement after its docstring, None if none."""
    body = fn.body[1:] if ast.get_docstring(fn) is not None else fn.body
    return body[0] if body else None


def _is_dispatch_import(node):
    """``from . import m1, m2`` of package modules, unaliased."""
    modules = {m[:-3] for m in MODULES} - {"__init__"}
    return (isinstance(node, ast.ImportFrom) and node.level == 1
            and node.module is None
            and all(a.asname is None and a.name in modules
                    for a in node.names))


@pytest.mark.parametrize("module", sorted(IMPORT_SOURCES))
def test_no_imports_in_function_bodies(module):
    # a CLI command imports the layers it runs at dispatch, in the statement
    # that opens it; everywhere else an import in a function body would hide
    # a dependency from the top of the module
    tree = ast.parse(IMPORT_SOURCES[module].read_text(encoding="utf-8"))
    lines = sorted({node.lineno for fn, node in _function_imports(tree)
                    if not (module == "cli.py" and _is_dispatch_import(node)
                            and node is _opening_statement(fn))})
    assert not lines, f"{module}: import(s) in a function body at line(s) {lines}"


def _top_level_definitions(tree):
    """(every name a top-level statement defines, the public defs/classes)."""
    defined, public = set(), set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            defined.add(node.name)
            if not node.name.startswith("_"):
                public.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) \
                else [node.target]
            defined.update(t.id for t in targets if isinstance(t, ast.Name))
    return defined, public


@pytest.mark.parametrize("module", MODULES)
def test_all_matches_module(module):
    tree = ast.parse((PACKAGE / module).read_text(encoding="utf-8"))
    listed = _declared_all(tree)
    if listed is None:
        return
    defined, public = _top_level_definitions(tree)
    undefined = [name for name in listed if name not in defined]
    unlisted = sorted(public - set(listed))
    assert not undefined, f"{module}: __all__ lists undefined {undefined}"
    assert not unlisted, f"{module}: public names missing from __all__ {unlisted}"


def _loaded_names(tree, skip=None):
    """Names and attribute names read anywhere in tree, outside skip."""
    inside = {id(n) for n in ast.walk(skip)} if skip is not None else set()
    for node in ast.walk(tree):
        if id(node) in inside:
            continue
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            yield node.id
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx,
                                                            ast.Load):
            yield node.attr


def test_all_names_are_read_by_the_package():
    # a name exported for tests alone is surface no command exercises
    trees = {m[:-3]: ast.parse((PACKAGE / m).read_text(encoding="utf-8"))
             for m in MODULES}
    unread = []
    for module, tree in trees.items():
        for name in _declared_all(tree) or ():
            own = next((n for n in tree.body
                        if getattr(n, "name", None) == name), None)
            read = any(name in _loaded_names(other, own if other is tree
                                             else None)
                       for other in trees.values())
            if not read:
                unread.append(f"{module}.{name}")
    assert not unread, f"public names only tests read: {unread}"


def test_one_sparse_factor_call_site():
    # every policy system is factored with one set of SuperLU arguments,
    # in hjb._solve_policy; a second call could take others, and the spies
    # on the module attribute hjb.splu that the tests and the benchmark's
    # factor span use must see every factor
    sites = [f"{m}:{node.lineno}" for m in MODULES
             for node in ast.walk(ast.parse((PACKAGE / m).read_text(
                 encoding="utf-8")))
             if isinstance(node, ast.Call)
             and "splu" in (getattr(node.func, "id", None),
                            getattr(node.func, "attr", None))]
    assert len(sites) == 1 and sites[0].startswith("hjb.py:"), sites


def test_one_grid_call_site_in_experiments():
    # both DP studies size their default grid by one rule,
    # experiments._study_grid; a second construction would be a second rule
    tree = ast.parse((PACKAGE / "experiments.py").read_text(encoding="utf-8"))
    sites = [(fn.name, node.lineno) for fn in tree.body
             if isinstance(fn, ast.FunctionDef)
             for node in ast.walk(fn)
             if isinstance(node, ast.Call)
             and ("Grid2D" == getattr(node.func, "id", None)
                  or getattr(node.func, "attr", None) == "regular")]
    assert [name for name, _ in sites] == ["_study_grid"], sites


def test_one_sweep_result_site_in_experiments():
    # both scaling studies end in experiments._fitted, which fits the
    # points and builds the result; a second construction would be a
    # second copy of the fit, its notes and its prediction plumbing
    tree = ast.parse((PACKAGE / "experiments.py").read_text(encoding="utf-8"))
    sites = [(fn.name, node.lineno) for fn in tree.body
             if isinstance(fn, ast.FunctionDef)
             for node in ast.walk(fn)
             if isinstance(node, ast.Call)
             and getattr(node.func, "id", None) == "SweepResult"]
    assert [name for name, _ in sites] == ["_fitted"], sites


def test_one_newton_in_band_zero():
    # the band's level system is solved by one batched Newton,
    # band_zero._newton_batch, and a single point is a batch of one; a
    # second step loop would be a second copy of its rules, and an
    # isinstance test on arrays a scalar path beside the batched one
    tree = ast.parse((PACKAGE / "band_zero.py").read_text(encoding="utf-8"))
    loops = [fn.name for fn in tree.body if isinstance(fn, ast.FunctionDef)
             for node in ast.walk(fn) if isinstance(node, ast.For)
             and any(getattr(n, "id", None) == "_NEWTON_ITERS"
                     for n in ast.walk(node.iter))]
    assert loops == ["_newton_batch"], loops
    array_tests = [node.lineno for node in ast.walk(tree)
                   if isinstance(node, ast.Call)
                   and getattr(node.func, "id", None) == "isinstance"
                   and "ndarray" in ast.unparse(node.args[1])]
    assert not array_tests, array_tests


def test_band_tables_read_through_ppoly():
    # the level system reads the pair's and the Green's Hermite tables by
    # calling their PPoly; a load of a coefficient array ``.c`` would be
    # a second spline evaluator beside scipy's
    tree = ast.parse((PACKAGE / "band_zero.py").read_text(encoding="utf-8"))
    loads = [node.lineno for node in ast.walk(tree)
             if isinstance(node, ast.Attribute) and node.attr == "c"
             and isinstance(node.ctx, ast.Load)]
    assert not loads, f"band_zero.py reads spline coefficients: {loads}"


def test_layer_reads_its_forcing_once():
    # the risk-adjusted edge 2 lam theta_b - mu - rho gamma is written once,
    # in band_zero.third_derivative_at_band; the layer takes its forcing
    # amp^2 = V_theta3 * D from it in layer_constants alone, so a read of
    # the drift, rho or gamma_lin in asymptotics would be a second copy
    tree = ast.parse((PACKAGE / "asymptotics.py").read_text(encoding="utf-8"))
    owners = [getattr(top, "name", f"line {top.lineno}")
              for top in tree.body for node in ast.walk(top)
              if isinstance(node, ast.Call)
              and "third_derivative_at_band" in (
                  getattr(node.func, "id", None),
                  getattr(node.func, "attr", None))]
    assert owners == ["layer_constants"], owners
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.keyword):
            names.add(node.arg)
        elif isinstance(node, ast.ImportFrom):
            names.update(a.asname or a.name for a in node.names)
    edge_terms = sorted(names & {"drift", "rho", "gamma_lin"})
    assert not edge_terms, f"asymptotics reads {edge_terms}"


def _identifiers(tree):
    """Every name a tree reads, binds, defines, imports or passes."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name
        elif isinstance(node, ast.alias):
            yield from (node.name.rsplit(".", 1)[-1], node.asname)
        elif isinstance(node, ast.keyword):
            yield node.arg


def test_one_power_law_cost():
    # the nonlinear cost is coeff |v|^power, with one formula per quantity
    # for every power: the config's two cost kinds are spellings of
    # powers 2 and 1.5, read in config.py alone, no module branches on a
    # cost or layer kind (CostKind, LayerKind), and none reads a per-kind
    # coefficient eta or zeta off a CostParams
    assert [f.name for f in dataclasses.fields(CostParams)] == [
        "gamma_lin", "coeff", "power"]
    trees = {name: ast.parse(path.read_text(encoding="utf-8"))
             for name, path in IMPORT_SOURCES.items()}
    spellings = sorted({m for m in MODULES for node in ast.walk(trees[m])
                        if isinstance(node, ast.Constant)
                        and node.value in ("quadratic", "three_halves")})
    assert spellings == ["config.py"], spellings
    kinds = sorted(f"{m}: {name}" for m, tree in trees.items()
                   for name in {"CostKind", "LayerKind"}
                   & set(_identifiers(tree)))
    assert not kinds, kinds
    reads = [f"{m}:{node.lineno}" for m in MODULES
             for node in ast.walk(trees[m])
             if isinstance(node, ast.Attribute)
             and node.attr in ("eta", "zeta")
             and "cost" in ast.unparse(node.value).lower()]
    assert not reads, f"per-kind coefficient read off the costs: {reads}"


def test_zones_are_named_in_experiments_only():
    # experiments.regime_map is the one zone classifier; a zone name
    # written in another module would be a second set of labels
    zones = {"LAYER", "SQRT", "LINEAR"}
    owners = sorted({m for m in MODULES
                     for node in ast.walk(ast.parse((PACKAGE / m).read_text(
                         encoding="utf-8")))
                     if isinstance(node, ast.Constant)
                     and node.value in zones})
    assert owners == ["experiments.py"], owners


def test_gauge_read_in_one_function():
    # the validity gauge, predicted shift / band width against GAUGE_MAX,
    # is computed by experiments.validity_gauge alone; the shift sweep and
    # the validate report both call it
    owners = sorted({getattr(top, "name", f"{m}:{top.lineno}")
                     for m in MODULES
                     for top in ast.parse((PACKAGE / m).read_text(
                         encoding="utf-8")).body
                     for node in ast.walk(top)
                     if isinstance(getattr(node, "ctx", None), ast.Load)
                     and "GAUGE_MAX" in (getattr(node, "id", None),
                                         getattr(node, "attr", None))})
    assert owners == ["validity_gauge"], owners


def test_restated_validity_forms_are_gone():
    # validate judges by the gauge alone, and check by the profile it
    # computes; the restated forms of the validity condition, the inputs
    # only they read (risk target, phi), and the external layer table
    # check once read are named nowhere in the package and by no
    # identifier in the tests (a test may still write an old config key
    # as data, to see it refused)
    gone = {"model_form", "risk_form", "forms_ratio", "risk_target",
            "gamma_phi", "margin_decades", "layer_table", "CheckSpec",
            "_read_layer_table"}
    hits = [f"src/bandlayer/{m}" for m in MODULES
            if gone & set(re.findall(r"\w+", (PACKAGE / m).read_text(
                encoding="utf-8")))]
    for path in sorted(TESTS.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            names = {getattr(node, field, None)
                     for field in ("id", "attr", "arg", "name")}
            hits += [f"tests/{path.name}:{node.lineno}" for _ in gone & names]
    assert not hits, f"restated validity forms named at {hits}"


def _owners(tree, match):
    """Top-level functions and class methods (as Class.method) of a module
    holding a node for which ``match`` is true, one entry per node."""
    tops = []
    for top in tree.body:
        if isinstance(top, ast.ClassDef):
            tops += [(f"{top.name}.{f.name}", f) for f in top.body
                     if isinstance(f, ast.FunctionDef)]
        elif isinstance(top, ast.FunctionDef):
            tops.append((top.name, top))
    return [name for name, top in tops for node in ast.walk(top)
            if match(node)]


def _mentions(node, word):
    """Whether a name or attribute under ``node`` contains ``word``."""
    return any(word in (getattr(n, "id", None) or getattr(n, "attr", None)
                        or "")
               for n in ast.walk(node))


def test_generator_inverse_diffusion_formed_once():
    # the no-trade generator's 2/sigma^2 scales the Green's kernel and
    # every curvature f'' = (2/sigma^2)(rho f - mu f' - source); it is
    # formed in band_zero._inverse_diffusion alone, and _curvature, the one
    # statement of the generator rule, reads it
    tree = ast.parse((PACKAGE / "band_zero.py").read_text(encoding="utf-8"))
    owners = _owners(tree, lambda n: (
        isinstance(n, ast.BinOp) and isinstance(n.op, ast.Div)
        and isinstance(n.left, ast.Constant) and n.left.value == 2
        and isinstance(n.right, ast.BinOp) and isinstance(n.right.op, ast.Pow)
        and _mentions(n.right.left, "sigma")))
    assert owners == ["_inverse_diffusion"], owners
    readers = _owners(tree, lambda n: (
        isinstance(n, ast.Call)
        and getattr(n.func, "id", None) == "_inverse_diffusion"))
    assert sorted(readers) == ["_curvature", "greens_particular"], readers


def test_layer_shift_formed_once():
    # the headline law, the inward shift wall_offset * eta^{1/3}, is also
    # the layer width; every reader calls LayerConstants.shift
    def cube_root(node):
        return (isinstance(node, ast.BinOp) and isinstance(node.op, ast.Pow)
                and ast.unparse(node.right) in ("1.0 / 3.0", "1 / 3"))

    owners = [f"{m}:{name}" for m in MODULES for name in _owners(
        ast.parse((PACKAGE / m).read_text(encoding="utf-8")),
        lambda n: (isinstance(n, ast.BinOp) and isinstance(n.op, ast.Mult)
                   and any(cube_root(a) and _mentions(b, "offset")
                           for a, b in ((n.left, n.right),
                                        (n.right, n.left)))))]
    assert owners == ["asymptotics.py:LayerConstants.shift"], owners


def test_theta_difference_taken_once():
    # the DP's trading slacks +-d - gamma_lin read one theta difference
    # d of V, taken in hjb._slacks; the policy and the onset both read
    # those node slacks (np.diff's other calls there difference index
    # arrays, not a field)
    tree = ast.parse((PACKAGE / "hjb.py").read_text(encoding="utf-8"))
    owners = _owners(tree, lambda n: (
        isinstance(n, ast.Call) and getattr(n.func, "attr", None) == "diff"
        and any(k.arg == "axis" for k in n.keywords)))
    assert owners == ["_slacks"], owners


def test_dp_oracle_reads_no_band_theory():
    # hjb is the brute-force check on the exact band and its layer: it
    # imports neither module, and no row of its scheme reads the
    # small-cost band estimate or the cost-free position around it
    tree = ast.parse((PACKAGE / "hjb.py").read_text(encoding="utf-8"))
    names = set(_identifiers(tree))
    modules = {(node.module or "").rsplit(".", 1)[-1]
               for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)}
    hits = ({"band_zero", "asymptotics"} & (modules | names)) | (
        {"small_cost_half_width", "markowitz_position"} & names)
    assert not hits, sorted(hits)


def test_dp_stops_on_one_test():
    # a target level of the DP stops on its backward-error test alone: the
    # update and rounding-floor tests, the floor refusal and the record
    # of which test fired are gone, and convergence_tol, which the
    # benchmark's configs still write, is read nowhere in the package
    # outside SolverConfig itself
    names = set(_identifiers(ast.parse(
        (PACKAGE / "hjb.py").read_text(encoding="utf-8"))))
    gone = {"_FLOOR_FACTOR", "_FLOOR_RESIDUAL_FACTOR", "_rounding_floor",
            "_bellman_residual", "stopped_by"}
    assert not gone & names, sorted(gone & names)
    readers = [f"{m}:{name}" for m in MODULES for name in _owners(
        ast.parse((PACKAGE / m).read_text(encoding="utf-8")),
        lambda n: getattr(n, "attr", None) == "convergence_tol")]
    assert readers == ["hjb.py:SolverConfig.__post_init__"], readers


def test_benchmark_hooks_resolve():
    # perfbench/spans.py hooks package attributes by name and reports a
    # missing one as absent, so a rename would only drop a span from a
    # traced run; its HOOKS table is read as source, nothing is imported
    tree = ast.parse(SPANS.read_text(encoding="utf-8"))
    hooks = next(ast.literal_eval(node.value) for node in tree.body
                 if isinstance(node, ast.Assign)
                 and any(getattr(t, "id", None) == "HOOKS"
                         for t in node.targets))
    missing = [f"{span}: bandlayer.{module}.{attr}"
               for span, (module, attr) in sorted(hooks.items())
               if not hasattr(importlib.import_module(f"bandlayer.{module}"),
                              attr)]
    assert hooks and not missing, f"unresolved benchmark hooks: {missing}"


def test_conftest_imported_as_conftest():
    # pytest loads tests/conftest.py as "conftest"; importing it as
    # "tests.conftest" makes a second module whose recorded acceptance
    # verdicts never reach the terminal summary
    offenders = []
    for path in sorted(TESTS.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            names = ([a.name for a in node.names]
                     if isinstance(node, ast.Import) else
                     [f"{node.module}.{a.name}" for a in node.names]
                     if isinstance(node, ast.ImportFrom) and node.module
                     else [])
            offenders += [f"{path.name}:{node.lineno}" for n in names
                          if n == "tests.conftest"
                          or n.startswith("tests.conftest.")]
    assert not offenders, f"tests.conftest imported at {offenders}"


def _third_party_imports(tree):
    """Top-level package of every absolute import that is neither stdlib
    nor first-party."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module.split(".")[0])
    return names - set(sys.stdlib_module_names) - FIRST_PARTY


def _declared(requirements):
    """Distribution names of PEP 508 requirement strings, normalized.

    Every dependency here is imported under its distribution name, so the
    two are compared directly.
    """
    return {re.match(r"[A-Za-z0-9._-]+", req).group(0).lower()
            .replace("-", "_") for req in requirements}


def test_third_party_imports_are_declared():
    tomllib = pytest.importorskip("tomllib")    # stdlib from Python 3.11
    project = tomllib.loads(PYPROJECT.read_text(encoding="utf-8"))["project"]
    runtime = _declared(project["dependencies"])
    test_only = _declared(project["optional-dependencies"]["test"])
    missing = []
    for name, path in sorted(IMPORT_SOURCES.items()):
        allowed = runtime if path.parent == PACKAGE else runtime | test_only
        tree = ast.parse(path.read_text(encoding="utf-8"))
        missing += [f"{name}: {pkg}"
                    for pkg in sorted(_third_party_imports(tree) - allowed)]
    assert not missing, f"undeclared third-party imports: {missing}"
