"""Catalog reach: every function-body statement of ``src/scbundle`` that the
shipped catalog never runs is named, with its reason, in ``ALLOWED``.

One subprocess, with ``SCBUNDLE_SEED`` unset and one BLAS thread, installs
``sys.settrace`` and ``threading.settrace`` before it imports ``scbundle``
and then runs the command line three ways: ``verify`` of every catalog
scenario (each to its own ``--out`` file), one ``verify --format csv`` of a
catalog config given by its path, and ``convergence`` of the cubic
scenario.  It reports every line on which a line event fell.

A statement is an ``ast.stmt`` in a function body; docstrings do not
count, and neither do ``raise`` statements and the bodies of ``except``
handlers, which the error-path tests reach.  Module- and class-level
statements run at import and do not count either.  A statement is reached
when a line event falls anywhere within its header (a simple statement's
lines, a compound statement's lines before its first body statement).

An entry of ``ALLOWED`` is (module, function, text, reason).  The function
is named as ``Class.method`` or ``outer.inner``.  The text is the stripped
first line of one statement, which names it and the statements nested in
it, or ``*`` for the whole function and the functions nested in it.  Keyed
on source text, the entries stay put when lines move.  The guard fails on an unreached statement that no
entry names, and on an entry that names no statement: generality the
catalog does not reach either goes or shows up here, in review.
"""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
PACKAGE = SRC / "scbundle"

ALLOWED = [
    ("dynamics", "Trajectory.__len__", "return self.rows.shape[0]",
     "read only by perfbench/ (a traced flow's step count), which keeps it "
     "until its upkeep change"),
    ("dynamics", "reference_schrodinger", "if blocks > 1:",
     "the CPU split: a machine runs the serial loop (one CPU or one row) or "
     "the row blocks, not both"),
    ("dynamics", "_strang_blocks", "*",
     "the threaded side of the CPU split: several CPUs and several rows"),
    ("dynamics", "_symplectic_exp", "cs = lambda t: (np.cosh(w * t), np.sinh(w * t) / w)",
     "det K < 0, a negative hamiltonian.omega2: a valid config that no "
     "catalog scenario sets"),
    ("sections", "Section.from_field",
     "block = np.pad(block, ((0, 0), (0, sampling.fiber_dim - modes)))",
     "a field narrower than the fiber: the generator along a zero direction "
     "of the family reaches it"),
    ("sections", "Section.norm", "return 0.0", "the sup-norm of an empty block"),
    ("sections", "BaseFunction.eval_on", "return self.eval_rows(sampling.base_array)",
     "read only by perfbench/, which keeps it until its upkeep change"),
    ("report", "Report.failing", "return tuple(r for r in self.records if not r.passed)",
     "read only by perfbench/, which keeps it until its upkeep change"),
    ("scenarios", "Scenario.seed", "if env.strip().isdecimal():",
     "the SCBUNDLE_SEED branch: the guard runs with the variable unset"),
    ("scenarios", "_describe", "*", "builds ConfigError messages"),
]

# the traced run: argv[1] is the output directory, argv[2] the source root
_RUN = r"""
import io, json, os, sys, threading
from contextlib import redirect_stdout
from pathlib import Path

package = os.path.join(os.path.abspath(sys.argv[2]), "scbundle") + os.sep
out = Path(sys.argv[1])
lines = set()


def local(frame, event, arg):
    if event == "line":
        lines.add((frame.f_code.co_filename, frame.f_lineno))
    return local


def tracer(frame, event, arg):
    if frame.f_code.co_filename.startswith(package):
        return local(frame, event, arg)
    return None


sys.settrace(tracer)
threading.settrace(tracer)
from scbundle import cli
from scbundle.scenarios import catalog_names

codes = {}
for name in catalog_names():
    codes[name] = cli.main(["verify", name, "--out", str(out / f"{name}.json")])
with redirect_stdout(io.StringIO()):
    codes["csv"] = cli.main(["verify", os.path.join(package, "scenarios", "so2-rotor.json"),
                             "--format", "csv"])
    codes["convergence"] = cli.main(["convergence", "cubic-perturbed-oscillator"])
sys.settrace(None)
threading.settrace(None)
print(json.dumps({"codes": codes,
                  "lines": sorted([os.path.basename(f)[:-3], n] for f, n in lines)}))
"""


def _counted(body, qualname, enclosing, out):
    """Append (qualname, node, enclosing) for each counted statement of
    ``body`` and of the compound statements in it, ``enclosing`` the nodes
    of the compound statements around it in its function; a nested function
    gets its own name."""
    for node in body:
        if isinstance(node, ast.Raise):
            continue
        out.append((qualname, node, enclosing))
        if isinstance(node, ast.FunctionDef):
            _function(node, f"{qualname}.{node.name}", out)
        else:
            for field in ("body", "orelse", "finalbody"):
                _counted(getattr(node, field, []), qualname, enclosing + (node,), out)


def _function(node, qualname, out):
    body = node.body
    if (isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant)
            and isinstance(body[0].value.value, str)):
        body = body[1:]
    _counted(body, qualname, (), out)


def _header(node) -> range:
    """The lines of a simple statement; of a compound one, those before
    its first body statement (its decorators included)."""
    first = min([node.lineno] + [d.lineno for d in getattr(node, "decorator_list", [])])
    body = getattr(node, "body", None)
    last = node.end_lineno if not body else max(node.lineno, body[0].lineno - 1)
    return range(first, last + 1)


def statements() -> list:
    """(module, qualname, texts, header lines) of every counted statement
    of the package; ``texts`` holds the stripped first line of the
    statement and of each compound statement around it."""
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        source = path.read_text()
        lines = source.splitlines()
        out = []
        for node in ast.parse(source).body:
            if isinstance(node, ast.FunctionDef):
                _function(node, node.name, out)
            elif isinstance(node, ast.ClassDef):
                for method in node.body:
                    if isinstance(method, ast.FunctionDef):
                        _function(method, f"{node.name}.{method.name}", out)
        found += [(path.stem, qualname,
                   tuple(lines[n.lineno - 1].strip() for n in (node, *enclosing)),
                   _header(node))
                  for qualname, node, enclosing in out]
    return found


def _names(entry, statement) -> bool:
    """Whether the allowlist ``entry`` names the statement (module,
    qualname, texts, ...)."""
    module, qualname, text, _ = entry
    if module != statement[0]:
        return False
    if text == "*":
        return statement[1] == qualname or statement[1].startswith(qualname + ".")
    return statement[1] == qualname and text in statement[2]


@pytest.fixture(scope="module")
def reached(tmp_path_factory):
    """The (module, line) pairs of the traced run's line events."""
    env = {k: v for k, v in os.environ.items() if k != "SCBUNDLE_SEED"}
    env.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1",
               PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")])))
    out = tmp_path_factory.mktemp("reach")
    done = subprocess.run([sys.executable, "-c", _RUN, str(out), str(SRC)], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout)
    # every run got as far as its verdict (exit 2 is an error)
    assert set(result["codes"].values()) <= {0, 1}, result["codes"]
    return {tuple(line) for line in result["lines"]}


def test_every_unreached_statement_is_allowlisted(reached):
    unnamed = [f"{module}.{qualname}: {texts[0]}"
               for module, qualname, texts, header in statements()
               if not any((module, line) in reached for line in header)
               and not any(_names(entry, (module, qualname, texts)) for entry in ALLOWED)]
    assert unnamed == []


def test_every_allowlist_entry_names_a_statement():
    found = statements()
    assert len(ALLOWED) <= 10
    stale = [entry[:3] for entry in ALLOWED if not any(_names(entry, s) for s in found)]
    assert stale == []
