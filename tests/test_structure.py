"""Import structure of the package, read from the source with `ast`.

The schemes are defined in one module that needs no SciPy and that alone
tests a scheme by its name, the stability scans do not reach into the
solver, no module borrows a sibling's private helpers, every module-level
import is used, the Fraction oracle of the nested sums reads nothing of
the production nested-sum route, one solver kernel alone marches a
time level and raises a march's faults, one helper alone decides what a
count is, one helper alone builds a theta grid and one alone decides an
alpha range, no module imports `csv` or `io`, the CLI alone reads the
config and its commands take parsed values, and every public function and
class has a user outside the unit tests.
"""

import ast
import inspect
import re
from pathlib import Path

import pytest

import rieszkit
from rieszkit import cli
from rieszkit.schemes import SCHEMES

PACKAGE = Path(rieszkit.__file__).parent
MODULES = sorted(PACKAGE.glob("*.py"))


def _imports(path):
    """(module, imported names) of every import statement in `path`; a
    relative module keeps its leading dots, a plain `import` has no names."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            found.extend((alias.name, ()) for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            module = "." * node.level + (node.module or "")
            found.append((module, tuple(alias.name for alias in node.names)))
    return found


def _is_sibling(module):
    return module.startswith(".") or module.split(".")[0] == "rieszkit"


def _is_private(name):
    return name.startswith("_") and not (name.startswith("__")
                                         and name.endswith("__"))


def test_package_found():
    assert {"schemes.py", "solver.py", "stability.py"} <= {p.name for p in MODULES}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_no_private_names_from_siblings(path):
    borrowed = [f"{module}.{name}" for module, names in _imports(path)
                if _is_sibling(module) for name in names if _is_private(name)]
    assert borrowed == [], f"{path.stem} imports private names {borrowed}"


def test_schemes_needs_only_numpy_and_coefficients():
    modules = {module for module, _ in _imports(PACKAGE / "schemes.py")}
    assert modules <= {"__future__", "math", "numpy", ".coefficients"}, modules


def test_stability_does_not_import_solver():
    imports = _imports(PACKAGE / "stability.py")
    solver = [(module, names) for module, names in imports
              if module in (".solver", "rieszkit.solver")
              or module in (".", "rieszkit") and "solver" in names]
    assert solver == [], f"stability imports the solver: {solver}"


def _scheme_name_comparisons(path):
    """Lines of `path` where a comparison has a scheme name of SCHEMES as a
    literal in one of its operands."""
    tree = ast.parse(path.read_text(), filename=str(path))
    return sorted({node.lineno for node in ast.walk(tree)
                   if isinstance(node, ast.Compare)
                   for operand in (node.left, *node.comparators)
                   for leaf in ast.walk(operand)
                   if isinstance(leaf, ast.Constant) and leaf.value in SCHEMES})


@pytest.mark.parametrize("path", [p for p in MODULES if p.name != "schemes.py"],
                         ids=lambda p: p.stem)
def test_only_schemes_compares_scheme_names(path):
    # the scheme table owns what a name means; elsewhere a test such as
    # scheme == "order6" would miss the names that share its stencils
    lines = _scheme_name_comparisons(path)
    assert lines == [], f"{path.stem} compares scheme names on lines {lines}"


def _integer_type_tests(path):
    """Lines of `path` where isinstance or issubclass tests an argument
    against bool or a NumPy integer type."""
    tree = ast.parse(path.read_text(), filename=str(path))
    return sorted({node.lineno for node in ast.walk(tree)
                   if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                   and node.func.id in ("isinstance", "issubclass")
                   for leaf in ast.walk(node.args[-1])
                   if isinstance(leaf, ast.Name) and leaf.id == "bool"
                   or isinstance(leaf, ast.Attribute)
                   and leaf.attr in ("integer", "signedinteger", "bool_")})


@pytest.mark.parametrize("path", [p for p in MODULES if p.name != "coefficients.py"],
                         ids=lambda p: p.stem)
def test_only_check_count_decides_what_a_count_is(path):
    # coefficients.check_count owns the rule: an int or NumPy integer, not
    # a bool, within bounds; a second copy would drift from it
    lines = _integer_type_tests(path)
    assert lines == [], f"{path.stem} tests integer types on lines {lines}"


def _owners(path, found):
    """``module.function`` of each top-level definition of `path` (or
    ``module.<module>`` for module-level code) holding a node that
    ``found(node)`` accepts."""
    owners = set()
    for top in ast.parse(path.read_text(), filename=str(path)).body:
        name = top.name if isinstance(top, (ast.FunctionDef, ast.ClassDef)) else "<module>"
        if any(found(node) for node in ast.walk(top)):
            owners.add(f"{path.stem}.{name}")
    return owners


def _named(node, name):
    return (isinstance(node, ast.Name) and node.id == name
            or isinstance(node, ast.Attribute) and node.attr == name)


def _builds_theta_grid(node):
    """A linspace that starts at -pi, or a read of MAX_GRID."""
    if isinstance(node, ast.Call) and _named(node.func, "linspace") and node.args:
        start = node.args[0]
        return (isinstance(start, ast.UnaryOp) and isinstance(start.op, ast.USub)
                and _named(start.operand, "pi"))
    return (isinstance(node, ast.Name) and node.id == "MAX_GRID"
            and isinstance(node.ctx, ast.Load))


def test_only_theta_grid_builds_a_theta_grid():
    # symbol and stability scans take their extremes over one grid with one
    # bound on its count; the oracle of tests/naive_reference.py keeps its own
    owners = set().union(*(_owners(path, _builds_theta_grid) for path in MODULES))
    assert owners == {"coefficients.theta_grid"}, owners
    oracle = Path(__file__).with_name("naive_reference.py")
    assert "theta_grid" not in _referenced_names(oracle)
    assert _owners(oracle, _builds_theta_grid) == {"naive_reference.naive_stability_cells"}


def _guards_alpha_range(node):
    """An ``if`` that raises when `alpha`, a name or an attribute, compares
    in some way with a number."""
    if not (isinstance(node, ast.If)
            and any(isinstance(stmt, ast.Raise) for stmt in node.body)):
        return False
    for compare in ast.walk(node.test):
        if isinstance(compare, ast.Compare):
            operands = (compare.left, *compare.comparators)
            if (any(_named(op, "alpha") for op in operands)
                    and any(isinstance(op, ast.Constant) for op in operands)):
                return True
    return False


def test_only_validate_alpha_decides_an_alpha_range():
    # coefficients.validate_alpha(alpha, top) owns the (0, top) rule; riesz
    # owns the one domain with a hole, (0, 1) and (1, 2), in one helper
    owners = set().union(*(_owners(path, _guards_alpha_range) for path in MODULES))
    assert owners == {"coefficients.validate_alpha", "riesz._check_order"}, owners


# what production's nested-sum weights are built from
NESTED_SUM_ROUTE = {"closed_form_table", "_inner_weights", "_binomial_rows",
                    "_GENERATOR_COEFFS", "generator_polynomial"}


def test_fraction_oracle_is_independent_of_the_nested_sum_route():
    # the oracle keeps its own generator constant and ratio chains; reading
    # production's would make its bitwise comparisons circular
    path = Path(__file__).with_name("naive_reference.py")
    tree = ast.parse(path.read_text(), filename=str(path))
    reached = {alias.name.split(".")[-1] for node in ast.walk(tree)
               if isinstance(node, (ast.Import, ast.ImportFrom))
               for alias in node.names}
    reached |= {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
    assert reached & NESTED_SUM_ROUTE == set(), reached & NESTED_SUM_ROUTE


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_no_module_imports_csv_or_io(path):
    # reports.write_csv is the one writer of the unquoted dialect, and
    # read_convergence_csv its one reader; csv or io would bring back a
    # second, quoting path
    found = [module for module, _ in _imports(path)
             if module.split(".")[0] in ("csv", "io")]
    assert found == [], f"{path.stem} imports {found}"


# what reads a config file or section: configparser, cli's loaders and
# value parsers, and a section's get methods
CONFIG_NAMES = {"configparser", "load_config", "parse_word", "parse_int",
                "parse_float", "parse_float_list", "parse_ladder"}
SECTION_READS = {"get", "getint", "getfloat", "getboolean", "has_option"}


def test_only_cli_reads_the_config():
    # cli declares each subcommand's keys once and main alone parses them:
    # a command that read its section again could take a key that the
    # declarations, the unknown-key check and the docs do not know
    importers = {path.stem for path in MODULES for module, _ in _imports(path)
                 if module.split(".")[0] == "configparser"}
    assert importers == {"cli"}, importers
    readers = _functions_reading(PACKAGE / "cli.py", CONFIG_NAMES, SECTION_READS)
    assert {name for name in readers if name.startswith("_cmd_")} == set(), readers
    commands = {fn.__name__: len(keys) for fn, keys in cli._COMMANDS.values()}
    assert {name: len(inspect.signature(fn).parameters)
            for name, fn in vars(cli).items()
            if name.startswith("_cmd_")} == commands


def _unused_imports(path):
    """Names bound by the module-level imports of `path` that its code never
    reads; `from __future__` imports bind nothing."""
    tree = ast.parse(path.read_text(), filename=str(path))
    bound = []
    for node in tree.body:
        if isinstance(node, ast.Import):
            bound.extend(alias.asname or alias.name.split(".")[0]
                         for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound.extend(alias.asname or alias.name for alias in node.names)
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for name in bound if name not in read]


@pytest.mark.parametrize("path", [p for p in MODULES if p.name != "__init__.py"],
                         ids=lambda p: p.stem)
def test_every_import_is_used(path):
    unused = _unused_imports(path)
    assert unused == [], f"{path.stem} imports {unused} without using them"


def _functions_reading(path, names, attrs):
    """Top-level functions of `path` that read one of the global `names`
    or an attribute ``X.attr`` for one of `attrs`."""
    tree = ast.parse(path.read_text(), filename=str(path))
    return {fn.name for fn in tree.body if isinstance(fn, ast.FunctionDef)
            for node in ast.walk(fn)
            if isinstance(node, ast.Name) and node.id in names
            or isinstance(node, ast.Attribute) and node.attr in attrs}


def test_one_kernel_marches_a_level():
    # step and solve make no LAPACK call and no product with B of their
    # own: a second level loop would read dgetrs or mats.B
    readers = _functions_reading(PACKAGE / "solver.py", {"dgetrs"}, {"B"})
    assert readers == {"_march"}, readers


def test_march_faults_have_one_owner():
    # a march's faults are found and named in _march alone; assemble
    # refuses a singular system before any march
    tree = ast.parse((PACKAGE / "solver.py").read_text())
    builders = {top.name for top in tree.body
                if isinstance(top, (ast.FunctionDef, ast.ClassDef))
                for node in ast.walk(top)
                if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id == "SolverError"}
    assert builders == {"assemble", "_march"}, builders


# where a public name counts as used: the package itself, the benchmark,
# which also names what it traces in strings such as "solver.solve", and
# the acceptance gate
API_USERS = ([p for p in MODULES if p.name != "__init__.py"]
             + sorted((Path(__file__).parents[1] / "bench").glob("*.py"))
             + [Path(__file__).with_name("test_acceptance.py")])


def _referenced_names(path):
    """Names that `path` reads, imports, or ends a dotted string with."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name.split(".")[-1])
        elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
              and re.fullmatch(r"[\w.]+", node.value)):
            names.add(node.value.split(".")[-1])
    return names


def test_every_public_definition_has_a_user():
    # an export that only its unit tests call answers no question of the
    # paper that another function does not already answer
    used = set().union(*map(_referenced_names, API_USERS))
    unused = [f"{path.stem}.{node.name}" for path in MODULES
              if path.name != "__init__.py"
              for node in ast.parse(path.read_text()).body
              if isinstance(node, (ast.FunctionDef, ast.ClassDef))
              and not node.name.startswith("_") and node.name not in used]
    assert unused == [], f"public definitions without a user: {unused}"
