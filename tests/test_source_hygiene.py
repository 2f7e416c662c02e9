"""Static hygiene of the package sources (no linter is a dependency): no
unused imports, no module-level private name that nothing uses, and pieces
of numerics written once: left translation of matrix stacks in
``groups.left_translate``, the pulled field of the left-regular transform in
``sections.pulled_field`` (spelt as a matrix product, also on the field's
leading columns, or as an einsum; the Garding kernel sum folds its nodes
through it, each on the section's live fiber modes), the source lookup of a left
translation in ``sections.OrbitSampling.transport``, the RK4 stage
combination (once, under any names) in the ``combine`` of
``dynamics._rk4_steps``, the
split-step FFT in
``dynamics.reference_schrodinger`` (its resolution guard) and its Strang loop
``dynamics._strang_steps``, the measured refinement order (log2
of a residual ratio) in ``verify._order_gap``, the central-difference
stencil (a difference over 2 * step) in ``sections.central_difference``
(and the Hamiltonian self-check ``HamiltonianSpec.validate``), the
generator stencil ``1j * central_difference(...)`` in
``generators.generator_field``, and the
eigendecomposition of a generator's fiber Hamiltonian in
``actions.GeneratorData``, and the scaled squared radius (a squared
quotient) in ``groups.scaled_square_radius``; no ``setdiff1d`` (the
samples a transport loses are the -1 entries of its ``target``); no stored
field that nothing reads (a dataclass field or an attribute set in an
``__init__``, read neither in the package nor in ``perfbench``, except by
passing it back to its own class's constructor); no comparison of ``.rows`` with
None outside ``Section.__post_init__``, where an omitted ``rows`` becomes
every sample (a section has one storage, so no operation forks into a dense
and a row path); no ``scipy`` import (each group and the symplectic flow
give their exponentials in closed form, and scipy is a test-only
dependency); and no scenario sub-config default
spelt outside ``scenarios``, whose schema table holds every default (a
``.get`` on ``dynamics``, ``probes``, ``numerics`` or ``hamiltonian`` spells
one, None when it names none)."""

import ast
import re
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "scbundle"
PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _unused_imports(tree: ast.Module) -> list:
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[(alias.asname or alias.name).split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif (isinstance(node, ast.Assign)
              and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            used.update(e.value for e in node.value.elts)
    return sorted(f"{name} (line {line})" for name, line in imported.items()
                  if name not in used)


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert _unused_imports(ast.parse(path.read_text())) == []


def _private_definitions(tree: ast.Module) -> dict:
    """Module-level private functions, classes and constants -> line."""
    out = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [t.id for t in targets if isinstance(t, ast.Name)]
        else:
            continue
        for name in names:
            if name.startswith("_") and not name.startswith("__"):
                out[name] = node.lineno
    return out


def _references(tree: ast.Module) -> set:
    """Names read anywhere in a module: loaded names, attributes, and names
    imported from sibling modules."""
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            used.add(node.id)
        elif isinstance(node, ast.Attribute):
            used.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            used.update(alias.name for alias in node.names)
    return used


def test_no_unreferenced_private_names():
    trees = {path.name: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}
    used = set().union(*(_references(tree) for tree in trees.values()))
    orphans = [f"{name}:{line} {private}"
               for name, tree in trees.items()
               for private, line in _private_definitions(tree).items()
               if private not in used]
    assert orphans == []


# "ab,jbc->jac" and every renaming of its letters: g @ m over a stack
_LEFT_TRANSLATION = re.compile(r"^(\w)(\w),(\w)\2(\w)->\3\1\4$")


def _inside(tree: ast.Module, function: str) -> set:
    """ids of the nodes inside every function definition named ``function``."""
    return {id(n) for node in ast.walk(tree)
            if isinstance(node, ast.FunctionDef) and node.name == function
            for n in ast.walk(node)}


def _calls(node: ast.AST, name: str) -> bool:
    """Whether ``node`` calls ``name`` (a bare name or an attribute)."""
    return (isinstance(node, ast.Call)
            and getattr(node.func, "attr", getattr(node.func, "id", None)) == name)


def _einsum_left_translations(tree: ast.Module) -> list:
    """Lines of einsum calls whose subscripts spell a left translation of a
    matrix stack, outside ``left_translate`` itself."""
    skip = _inside(tree, "left_translate")
    out = []
    for node in ast.walk(tree):
        if (_calls(node, "einsum") and id(node) not in skip
                and node.args and isinstance(node.args[0], ast.Constant)
                and isinstance(node.args[0].value, str)
                and _LEFT_TRANSLATION.match(node.args[0].value.replace(" ", ""))):
            out.append(node.lineno)
    return out


def test_left_translation_pattern_is_recognised():
    tree = ast.parse('import numpy as np\n'
                     'a = np.einsum("ab,jbc->jac", g, m)\n'
                     'b = np.einsum("ab,kbc->kac", g, m)\n'
                     'c = np.einsum("kab,jbc->kjac", g, m)\n'
                     'd = np.einsum("mn,jn->jm", u, v)\n')
    assert _einsum_left_translations(tree) == [2, 3]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_left_translation_written_once(path):
    assert _einsum_left_translations(ast.parse(path.read_text())) == []


# "mn,jn->jm" and every renaming of its letters: V applied to each row
_FIBER_MOVE = re.compile(r"^(\w)(\w),(\w)\2->\3\1$")


def _on_left_translation(node: ast.AST) -> bool:
    """Whether ``node`` is a call with a left translation among its
    arguments."""
    return isinstance(node, ast.Call) and any(
        _calls(arg, "left_translate") for arg in node.args + [k.value for k in node.keywords])


def _unsubscripted(node: ast.AST) -> ast.AST:
    """``x`` for ``x[...]`` (any depth of subscripts), else ``node``."""
    while isinstance(node, ast.Subscript):
        node = node.value
    return node


def _pulled_fields(tree: ast.Module) -> list:
    """Lines of ``field(left_translate(...)) @ V.T``, also with the field's
    columns cut (``field(left_translate(...))[:, :k] @ V.T``), or its einsum
    spelling ``einsum("mn,jn->jm", V, field(left_translate(...)))`` -- a
    field pulled back along a left translation and moved by a fiber matrix
    -- outside ``pulled_field`` itself."""
    skip = _inside(tree, "pulled_field")
    return [node.lineno for node in ast.walk(tree) if id(node) not in skip and (
        (isinstance(node, ast.BinOp) and isinstance(node.op, ast.MatMult)
         and isinstance(node.right, ast.Attribute) and node.right.attr == "T"
         and _on_left_translation(_unsubscripted(node.left)))
        or (_calls(node, "einsum") and len(node.args) == 3
            and isinstance(node.args[0], ast.Constant)
            and isinstance(node.args[0].value, str)
            and _FIBER_MOVE.match(node.args[0].value.replace(" ", ""))
            and _on_left_translation(node.args[2])))]


def test_pulled_field_pattern_is_recognised():
    tree = ast.parse('a = pf(left_translate(inv, mats)) @ U.T\n'
                     'b = pf(mats=groups.left_translate(inv, mats)) @ T.T\n'
                     'c = pf(left_translate(inv, mats)) @ U\n'
                     'd = pf(mats) @ U.T\n'
                     'e = np.einsum("mn,jn->jm", wU, pf(left_translate(inv, mats)))\n'
                     'f = np.einsum("ab, kb -> ka", V, field(mats=left_translate(g, m)))\n'
                     'g = np.einsum("mn,jn->jm", wU, pf(mats))\n'
                     'h = np.einsum("mn,jm->jn", wU, pf(left_translate(inv, mats)))\n'
                     'i = pf(left_translate(inv, mats))[:, :k] @ V.T\n'
                     'j = pf(left_translate(inv, mats))[:, :k] @ V\n'
                     'k = pf(mats)[:, :k] @ V.T\n'
                     'def pulled_field(field, pull, V):\n'
                     '    return field(left_translate(pull, mats))[:, :k] @ V.T\n')
    assert _pulled_fields(tree) == [1, 2, 5, 6, 9]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_pulled_field_written_once(path):
    assert _pulled_fields(ast.parse(path.read_text())) == []


def _source_lookups(tree: ast.Module) -> list:
    """Lines of ``indices_of_matrices(left_translate(...))`` -- the sample
    indices of a left-translated matrix stack -- outside the ``transport``
    method of ``OrbitSampling``, which computes each once and caches it."""
    skip = {id(n) for cls in ast.walk(tree)
            if isinstance(cls, ast.ClassDef) and cls.name == "OrbitSampling"
            for node in cls.body
            if isinstance(node, ast.FunctionDef) and node.name == "transport"
            for n in ast.walk(node)}
    return [node.lineno for node in ast.walk(tree)
            if (_calls(node, "indices_of_matrices") and id(node) not in skip
                and _on_left_translation(node))]


def test_source_lookup_pattern_is_recognised():
    tree = ast.parse('a = s.indices_of_matrices(left_translate(inv, s.group_mats))\n'
                     'b = indices_of_matrices(mats=groups.left_translate(g, m))\n'
                     'c = s.indices_of_matrices(mats)\n'
                     'class OrbitSampling:\n'
                     '    def transport(self, g):\n'
                     '        return self.indices_of_matrices(left_translate(g, m))\n'
                     'class Other:\n'
                     '    def transport(self, g):\n'
                     '        return self.indices_of_matrices(left_translate(g, m))\n')
    assert _source_lookups(tree) == [1, 2, 9]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_source_lookup_written_once(path):
    assert _source_lookups(ast.parse(path.read_text())) == []


def _sites(tree: ast.Module, match) -> list:
    """For each node ``match`` accepts, the name of the innermost function
    that holds it (``<module>`` for module-level code)."""
    out = []

    def visit(node, owner):
        for child in ast.iter_child_nodes(node):
            if match(child):
                out.append(owner)
            visit(child, child.name if isinstance(child, ast.FunctionDef) else owner)

    visit(tree, "<module>")
    return out


def _owners(tree: ast.Module, match) -> set:
    return set(_sites(tree, match))


def _package_sites(match) -> list:
    return sorted((path.name, owner) for path in sorted(SRC.glob("*.py"))
                  for owner in _sites(ast.parse(path.read_text()), match))


def _package_owners(match) -> set:
    return set(_package_sites(match))


def _is_sum(node: ast.AST) -> bool:
    return isinstance(node, ast.BinOp) and isinstance(node.op, ast.Add)


def _is_multiple(node: ast.AST, factor: int) -> bool:
    """``factor * x`` or ``x * factor``, for any x; the factor may be
    written as an int or a float (``2`` or ``2.0``)."""
    return (isinstance(node, ast.BinOp) and isinstance(node.op, ast.Mult)
            and any(isinstance(side, ast.Constant) and side.value == factor
                    for side in (node.left, node.right)))


def _is_twice(node: ast.AST) -> bool:
    """``2 * x`` or ``x * 2.0``, for any x."""
    return _is_multiple(node, 2)


def _is_rk4_combination(node: ast.AST) -> bool:
    """``k1 + 2 * k2 + 2 * k3 + k4`` for any four operands: names,
    subscripts, attributes or calls."""
    return (_is_sum(node) and _is_sum(node.left) and _is_twice(node.left.right)
            and _is_sum(node.left.left) and _is_twice(node.left.left.right))


def _is_fft(node: ast.AST) -> bool:
    return _calls(node, "fft")


def _is_order_estimate(node: ast.AST) -> bool:
    """log2 of a quotient: the order measured from two residuals."""
    return (_calls(node, "log2") and bool(node.args)
            and isinstance(node.args[0], ast.BinOp) and isinstance(node.args[0].op, ast.Div))


def _is_central_stencil(node: ast.AST) -> bool:
    """A quotient over twice a step, ``... / (2 * h)`` or ``... / (h * 2.0)``,
    or the five-point one over twelve steps, ``... / (12 * h)`` or
    ``... / (h * 12.0)``."""
    return (isinstance(node, ast.BinOp) and isinstance(node.op, ast.Div)
            and (_is_multiple(node.right, 2) or _is_multiple(node.right, 12)))


def _is_generator_stencil(node: ast.AST) -> bool:
    """``1j * central_difference(...)``: the generator of Eq. (16a)."""
    return (isinstance(node, ast.BinOp) and isinstance(node.op, ast.Mult)
            and isinstance(node.left, ast.Constant) and node.left.value == 1j
            and _calls(node.right, "central_difference"))


def _is_generator_eigh(node: ast.AST) -> bool:
    """``eigh`` of an expression that reads a ``fiber_hamiltonian``."""
    return _calls(node, "eigh") and any(
        isinstance(n, ast.Attribute) and n.attr == "fiber_hamiltonian"
        for arg in node.args for n in ast.walk(arg))


def _is_squared_quotient(node: ast.AST) -> bool:
    """``(a / b) ** 2``: one term of a scaled squared radius."""
    return (isinstance(node, ast.BinOp) and isinstance(node.op, ast.Pow)
            and isinstance(node.left, ast.BinOp) and isinstance(node.left.op, ast.Div)
            and isinstance(node.right, ast.Constant) and node.right.value == 2)


def _is_setdiff(node: ast.AST) -> bool:
    return _calls(node, "setdiff1d")


def _is_scipy_import(node: ast.AST) -> bool:
    """``import scipy...``, ``from scipy... import ...``, or a dynamic import
    (``import_module`` or ``__import__``) of a constant naming scipy."""
    if isinstance(node, ast.Import):
        return any(alias.name.split(".")[0] == "scipy" for alias in node.names)
    if isinstance(node, ast.ImportFrom):
        return (node.module or "").split(".")[0] == "scipy"
    return ((_calls(node, "import_module") or _calls(node, "__import__")) and bool(node.args)
            and isinstance(node.args[0], ast.Constant)
            and str(node.args[0].value).split(".")[0] == "scipy")


_EQUALITY_OPS = (ast.Is, ast.IsNot, ast.Eq, ast.NotEq)


def _compares_rows_with_none(node: ast.AST) -> bool:
    """``<x>.rows is None`` and its kin (``is not``, ``==``, ``!=``, either
    side): the test on which a dense/row fork turns."""
    if not isinstance(node, ast.Compare) or not all(
            isinstance(op, _EQUALITY_OPS) for op in node.ops):
        return False
    operands = [node.left, *node.comparators]
    return (any(isinstance(n, ast.Attribute) and n.attr == "rows" for n in operands)
            and any(isinstance(n, ast.Constant) and n.value is None for n in operands))


_SUB_CONFIGS = {"dynamics", "probes", "numerics", "hamiltonian"}


def _is_sub_config_default(node: ast.AST) -> bool:
    """``<x>.dynamics.get(...)`` and the like: a lookup on a scenario
    sub-config that spells the field's default."""
    return (_calls(node, "get") and isinstance(node.func, ast.Attribute)
            and isinstance(node.func.value, ast.Attribute)
            and node.func.value.attr in _SUB_CONFIGS)


def test_written_once_patterns_are_recognised():
    tree = ast.parse('import numpy as np\n'
                     'def step(a, b, c, d):\n'
                     '    return (a + 2 * b + 2.0 * c + d) / 6\n'
                     'def outer():\n'
                     '    def inner(k1, k2, k3, k4):\n'
                     '        return k1 + 2 * k2 + 2 * k3 + k4\n'
                     '    return np.fft.fft(inner(1, 2, 3, 4))\n'
                     'def other(a, b, c, d):\n'
                     '    return a + 2 * b + 3 * c + d, np.fft.ifft(a), fft(b)\n'
                     'def order(r12, r24):\n'
                     '    return float(np.log2(r12 / r24)), np.log2(r12), log2(r12 / 2)\n')
    assert _owners(tree, _is_rk4_combination) == {"step", "inner"}
    assert _owners(tree, _is_fft) == {"outer", "other"}
    assert _owners(tree, _is_order_estimate) == {"order"}
    tree = ast.parse('def twin(k1, k2, k3, k4, y):\n'
                     '    s = k1[0] + 2 * k2[0] + 2 * k3[0] + k4[0]\n'
                     '    return s, y.a + y.b * 2 + 2.0 * y.c + y.d\n'
                     'def near(a, b, c, d):\n'
                     '    return (a + 2 * b - 2 * c + d, a - 2 * b + 2 * c + d,\n'
                     '            a + 2 * b + 2 * c, a + 2 * b + 2 * c * d,\n'
                     '            a + 3 * b + 2 * c + d, a + 2 * (b + c) + d)\n')
    assert _sites(tree, _is_rk4_combination) == ["twin", "twin"]
    tree = ast.parse('def fd(f, t):\n'
                     '    return (f(t) - f(-t)) / (2 * t), 1j / (2.0 * t) * f(t)\n'
                     'def five(f, t):\n'
                     '    return (8 * (f(t) - f(-t)) - (f(2 * t) - f(-2 * t))) / (12 * t)\n'
                     'def five_float(f, t):\n'
                     '    return f(t) / (t * 12.0)\n'
                     'def other(f, t, d):\n'
                     '    return f(t) / (t * 2), f(t) / (3 * t), f(t) / 2, f(t) * (2 * t)\n'
                     'def near(f, t):\n'
                     '    return f(t) / (11 * t), f(t) / 12, f(t) * (12 * t), f(t) / (12 + t)\n'
                     'def spectrum(d, H):\n'
                     '    return np.linalg.eigh(d.directions[0].fiber_hamiltonian), eigh(H)\n'
                     'def elsewhere(d):\n'
                     '    return eigh(d.fiber_hamiltonian.T)\n')
    assert _owners(tree, _is_central_stencil) == {"fd", "five", "five_float", "other"}
    assert _owners(tree, _is_generator_eigh) == {"spectrum", "elsewhere"}
    tree = ast.parse('def gen(f, t, s):\n'
                     '    return 1j * central_difference(f, t), 1j * s.central_difference(f, t)\n'
                     'def other(f, t):\n'
                     '    return (2j * central_difference(f, t), central_difference(f, t) * 1j,\n'
                     '            -1j * central_difference(f, t), 1j * difference(f, t))\n')
    assert _sites(tree, _is_generator_stencil) == ["gen", "gen"]
    tree = ast.parse('def bump(t, s):\n'
                     '    return np.sum((t / s) ** 2, axis=-1), (t / s) ** 2.0\n'
                     'def other(t, s, j, kept):\n'
                     '    return (t / s) ** 3, (t * s) ** 2, t / s ** 2, np.union1d(t, s)\n'
                     'def lost(j, kept):\n'
                     '    return np.setdiff1d(np.arange(j), kept), setdiff1d(j, kept)\n')
    assert _owners(tree, _is_squared_quotient) == {"bump"}
    assert _owners(tree, _is_setdiff) == {"lost"}
    tree = ast.parse('import scipy\n'
                     'def a():\n'
                     '    import scipy.linalg as sl\n'
                     'def b():\n'
                     '    from scipy.linalg import expm\n'
                     'def c():\n'
                     '    return importlib.import_module("scipy.linalg"), __import__("scipy")\n'
                     'def other():\n'
                     '    import scipyx, numpy.linalg\n'
                     '    from . import scipy_like\n'
                     '    return importlib.import_module("numpy"), __import__(name)\n')
    assert _sites(tree, _is_scipy_import) == ["<module>", "a", "b", "c", "c"]
    tree = ast.parse('def spelt(scn, s):\n'
                     '    t = float(scn.dynamics.get("t_final", 1.0))\n'
                     '    return t, s.scenario.probes.get("count"), scn.hamiltonian.get("x", 2)\n'
                     'def read(scn, cfg, os):\n'
                     '    return (scn.setting("dynamics.t_final"), scn.dynamics["t_final"],\n'
                     '            cfg.get("t_final", 1.0), os.environ.get("SEED", "1"),\n'
                     '            dict(scn.numerics, dt=2e-3), scn.probes.keys(),\n'
                     '            scn.get("dynamics"), dynamics.get("t_final", 1.0))\n')
    assert _sites(tree, _is_sub_config_default) == ["spelt"] * 3
    tree = ast.parse('def fork(psi, s):\n'
                     '    if psi.rows is None or s.rows is not None:\n'
                     '        return None == psi.rows, psi.rows != None\n'
                     'def other(psi, rows):\n'
                     '    return (rows is None, psi.rows is psi.all_rows, psi.field is None,\n'
                     '            len(psi.rows) == 0, psi.rows < None)\n')
    assert _sites(tree, _compares_rows_with_none) == ["fork"] * 4


def test_rk4_stage_combination_written_once():
    """Once in the package, so floats and stacks share one step."""
    assert _package_sites(_is_rk4_combination) == [("dynamics.py", "combine")]


def test_split_step_fft_written_once():
    assert _package_owners(_is_fft) == {("dynamics.py", "reference_schrodinger"),
                                        ("dynamics.py", "_strang_steps")}


def test_refinement_order_measured_once():
    assert _package_owners(_is_order_estimate) == {("verify.py", "_order_gap")}


def test_central_difference_written_once():
    assert _package_owners(_is_central_stencil) == {
        ("sections.py", "central_difference"), ("dynamics.py", "validate")}


def test_generator_stencil_written_once():
    """The action's and the reconstructed generator share one field map."""
    assert _package_sites(_is_generator_stencil) == [("generators.py", "generator_field")]


def test_generator_spectrum_computed_once():
    assert _package_owners(_is_generator_eigh) == {("actions.py", "_spectrum")}


def test_scaled_square_radius_written_once():
    assert _package_owners(_is_squared_quotient) == {("groups.py", "scaled_square_radius")}


def test_no_setdiff_in_the_package():
    assert _package_owners(_is_setdiff) == set()


def test_rows_meet_none_only_where_a_section_is_built():
    """The dense/row fork cannot come back: only the constructor reads an
    omitted ``rows``."""
    assert _package_sites(_compares_rows_with_none) == [("sections.py", "__post_init__")]


def test_no_scipy_in_the_package():
    assert _package_sites(_is_scipy_import) == []


def test_sub_config_defaults_live_in_the_schema():
    assert [site for site in _package_sites(_is_sub_config_default)
            if site[0] != "scenarios.py"] == []


def _is_dataclass(cls: ast.ClassDef) -> bool:
    """Whether ``cls`` is decorated ``@dataclass``, called or not, bare or
    through its module."""
    for decorator in cls.decorator_list:
        target = decorator.func if isinstance(decorator, ast.Call) else decorator
        if getattr(target, "id", getattr(target, "attr", None)) == "dataclass":
            return True
    return False


def _stored_fields(tree: ast.Module) -> list:
    """``(class, field)`` for every dataclass field and every attribute that
    an ``__init__`` sets on ``self``."""
    out = []
    for cls in ast.walk(tree):
        if not isinstance(cls, ast.ClassDef):
            continue
        for node in cls.body:
            if (_is_dataclass(cls) and isinstance(node, ast.AnnAssign)
                    and isinstance(node.target, ast.Name)):
                out.append((cls.name, node.target.id))
            elif isinstance(node, ast.FunctionDef) and node.name == "__init__":
                out += [(cls.name, n.attr) for n in ast.walk(node)
                        if isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Store)
                        and isinstance(n.value, ast.Name) and n.value.id == "self"]
    return out


def _attribute_loads(tree: ast.Module) -> set:
    """``(attribute, callee)`` for every attribute load: ``callee`` names the
    call it is passed to directly (positionally or by keyword), None for any
    other load."""
    callee = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            name = getattr(node.func, "id", getattr(node.func, "attr", None))
            for arg in node.args + [k.value for k in node.keywords]:
                callee[id(arg)] = name
    return {(node.attr, callee.get(id(node))) for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}


def _write_only_fields(stored: list, readers: list) -> list:
    """``Class.field`` for each field stored in the ``stored`` modules that
    no module of ``readers`` loads, a load passed straight back to its own
    class's constructor not counting."""
    loads = set().union(*(_attribute_loads(tree) for tree in readers))
    return sorted(f"{cls}.{field}" for tree in stored for cls, field in _stored_fields(tree)
                  if not any(attr == field and callee != cls for attr, callee in loads))


def test_write_only_field_pattern_is_recognised():
    tree = ast.parse('from dataclasses import dataclass\n'
                     '@dataclass(frozen=True)\n'
                     'class Kept:\n'
                     '    read: int\n'
                     '    copied: int\n'
                     '    unread: int\n'
                     '    passed: int = 0\n'
                     '    nested: int = 0\n'
                     '    LIMIT = 3\n'
                     '    def total(self):\n'
                     '        return self.read\n'
                     '@dataclasses.dataclass\n'
                     'class Bare:\n'
                     '    x: int\n'
                     'class Plain:\n'
                     '    note: int\n'
                     '    def __init__(self, a):\n'
                     '        self.a = a\n'
                     '        self.b, self.c = a, a\n'
                     '        self._d: int = a\n'
                     '    def other(self):\n'
                     '        self.e = 1\n'
                     '        return self.c\n'
                     'def use(k, p):\n'
                     '    return (Kept(1, k.copied, 0), Kept(1, 2, 3, copied=k.copied),\n'
                     '            Other(k.passed), Kept(1, 2, 3, nested=abs(k.nested)), p._d)\n')
    reader = ast.parse('def read(k, p):\n'
                       '    return k.unread, Plain(p.a)\n')
    assert _write_only_fields([tree], [tree]) == [
        "Bare.x", "Kept.copied", "Kept.unread", "Plain.a", "Plain.b"]
    assert _write_only_fields([tree], [tree, reader]) == [
        "Bare.x", "Kept.copied", "Plain.a", "Plain.b"]


def test_no_write_only_fields():
    """Every stored field has a reader; ``BaseFunction.fn`` waits for
    ``perfbench/test_perfbench.py`` to stop passing it (ROADMAP item 9)."""
    package = [ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))]
    bench = [ast.parse(path.read_text()) for path in sorted(PERFBENCH.glob("*.py"))]
    assert _write_only_fields(package, package + bench) == ["BaseFunction.fn"]
