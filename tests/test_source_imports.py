"""No module of the package keeps a module-level import it never reads, nor a
private name the package never uses, nor a public name nothing reaches, nor
reaches into another module's private names, and one function derives every seed.
The import check also covers the code the tests keep beside them, `reference.py`
and `local_mapping.py`, which left the package because no command runs it.

Static checks on the source with `ast` (no lint tool is needed): every name a
module-level `import` binds must be read somewhere in the module (`from
__future__` imports and imports under `if TYPE_CHECKING:` are exempt), every
private module-level function, class or assignment (`_x`) must be referenced
somewhere in the package outside its own definition, no module imports a
private name (`from m import _x`) or reads one off a module it imported
(`m._x`), and `SeedSequence` is named in exactly one function of the package.
Every public module-level function or class, and every public method of such a
class, is referenced elsewhere in the package, imported by `perfbench/` or named
by its tracing layers, or listed with its reason in `REACH_ALLOWLIST`.  Every
parameter with a default of a public module-level function is passed by some
call in the package or in `perfbench/`, or listed with its reason in
`PARAM_ALLOWLIST`.  And the simulator's gate table holds exactly the kinds that
the commands' circuits use.
"""
import ast
import math
from collections import Counter
from dataclasses import replace
from pathlib import Path

import pytest

TESTS = Path(__file__).resolve().parent
SRC = TESTS.parent / "src" / "hubbard_gf"
PERFBENCH = SRC.parent.parent / "perfbench"


def _unused_imports(source: str) -> list[str]:
    """Names bound by the module's top-level imports and never loaded in the module."""
    tree = ast.parse(source)
    bound = {}
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                bound[name] = node.lineno
    loaded = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
    return [f"{name} (line {line})" for name, line in bound.items() if name not in loaded]


def test_the_check_flags_an_unused_import_and_spares_the_exempt_ones():
    source = (
        "from __future__ import annotations\n"
        "import math\n"
        "import os.path\n"
        "from typing import TYPE_CHECKING\n"
        "from json import dumps as to_json, loads\n"
        "if TYPE_CHECKING:\n"
        "    from collections import OrderedDict\n"
        "def f(x: OrderedDict) -> float:\n"
        "    return math.pi + len(os.sep) + len(to_json(x))\n"
    )
    assert _unused_imports(source) == ["loads (line 5)"]


@pytest.mark.parametrize(
    "path", [*sorted(SRC.glob("*.py")), TESTS / "reference.py", TESTS / "local_mapping.py"], ids=lambda p: p.name
)
def test_no_module_keeps_an_unused_import(path):
    assert _unused_imports(path.read_text()) == []


def _is_private(name: str) -> bool:
    return name.startswith("_") and not name.startswith("__")


def _private_definitions(tree: ast.Module):
    """(name, node) per module-level function, class or assigned name that starts with one _."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
        else:
            continue
        for name in filter(_is_private, names):
            yield name, node


def _references(node: ast.AST) -> Counter:
    """How often each name is read, reached as an attribute or imported under node."""
    out = Counter()
    for n in ast.walk(node):
        if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load):
            out[n.id] += 1
        elif isinstance(n, ast.Attribute):
            out[n.attr] += 1
        elif isinstance(n, ast.alias):
            out[n.name] += 1
    return out


def _unreferenced_privates(sources: dict[str, str]) -> list[str]:
    """Private module-level names of these modules that no module references outside their definition."""
    trees = {module: ast.parse(source) for module, source in sources.items()}
    everywhere = sum((_references(tree) for tree in trees.values()), Counter())
    unused = []
    for module, tree in trees.items():
        for name, node in _private_definitions(tree):
            # an assignment's targets are stores; a def or class may name itself inside
            own = _references(node)[name] if not isinstance(node, (ast.Assign, ast.AnnAssign)) else 0
            if everywhere[name] == own:
                unused.append(f"{module}.{name} (line {node.lineno})")
    return unused


def test_the_check_flags_an_unreferenced_private_name():
    sources = {
        "a": (
            "_LIMIT = 3\n"
            "_CACHE: dict = {}\n"
            "_UNUSED = 4\n"
            "def _helper(k):\n"
            "    return _helper(k - 1) if k else _LIMIT\n"
            "def _used_elsewhere():\n"
            "    return 0\n"
            "class _Dead:\n"
            "    _also = _Dead\n"
            "def public():\n"
            "    _CACHE[0] = 1\n"
        ),
        "b": "from .a import _used_elsewhere\n",
    }
    assert _unreferenced_privates(sources) == ["a._UNUSED (line 3)", "a._helper (line 4)", "a._Dead (line 8)"]


def test_no_private_name_goes_unreferenced():
    sources = {path.stem: path.read_text() for path in sorted(SRC.glob("*.py"))}
    assert _unreferenced_privates(sources) == []


def _public_definitions(tree: ast.Module):
    """(name, node) per public module-level function or class, and per public method of a
    module-level class as Class.method."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
            yield node.name, node
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)) and not item.name.startswith("_"):
                    yield f"{node.name}.{item.name}", item


def _outside_references(sources: dict[str, str]) -> set[str]:
    """The package names these (perfbench) modules reach: what they import from hubbard_gf, and
    each dotted part of the attribute strings of the Layer entries in tracing.LAYERS, which
    Recorder.install resolves with getattr."""
    reached = set()
    for source in sources.values():
        for n in ast.walk(ast.parse(source)):
            if isinstance(n, ast.ImportFrom) and (n.module or "").startswith("hubbard_gf"):
                reached.update(alias.name for alias in n.names)
            elif isinstance(n, ast.Call) and isinstance(n.func, ast.Name) and n.func.id == "Layer":
                reached.update(part for attr in ast.literal_eval(n.args[1]) for part in attr.split("."))
    return reached


def _unreached_publics(sources: dict[str, str], outside: set[str]) -> list[str]:
    """Public names of these modules (module.name) that no module references outside their
    definition and that the outside names do not include."""
    trees = {module: ast.parse(source) for module, source in sources.items()}
    everywhere = sum((_references(tree) for tree in trees.values()), Counter())
    unreached = []
    for module, tree in trees.items():
        for name, node in _public_definitions(tree):
            short = name.split(".")[-1]
            if everywhere[short] == _references(node)[short] and short not in outside:
                unreached.append(f"{module}.{name}")
    return unreached


def test_the_check_flags_an_unreached_public_name():
    sources = {
        "a": (
            "def used():\n"
            "    return 1\n"
            "def traced():\n"
            "    return 2\n"
            "def imported():\n"
            "    return 3\n"
            "def dead(k):\n"
            "    return dead(k - 1) if k else used()\n"
            "class Model:\n"
            "    def method(self):\n"
            "        return self.helper()\n"
            "    def helper(self):\n"
            "        return 4\n"
            "    def _private(self):\n"
            "        return 5\n"
        ),
        "b": "from .a import Model\n",
    }
    outside = {
        "bench": (
            "from hubbard_gf.a import imported\n"
            "from json import dead\n"  # not the package's
            "LAYERS = {'t': Layer('hubbard_gf.a', ('traced', 'Model.__init__'))}\n"
        ),
    }
    assert _outside_references(outside) == {"imported", "traced", "Model", "__init__"}
    assert _unreached_publics(sources, _outside_references(outside)) == ["a.dead", "a.Model.method"]


# Public names the reach rule does not see used, each with what it serves; anything else unreached is deleted
REACH_ALLOWLIST = {
    "pauli.commutes": "criterion 7",
    "noise.NoiseModel.to_json": "perfbench's workloads write the noisy example's model file with it",
    "pauli.PauliString.to_matrix": "perfbench/checks.py builds its dense Majorana matrices with it",
}


def test_every_public_name_is_reached():
    # by the package, by perfbench, or by one entry above; no entry outlives its reason
    sources = {path.stem: path.read_text() for path in sorted(SRC.glob("*.py"))}
    outside = _outside_references({path.stem: path.read_text() for path in sorted(PERFBENCH.glob("*.py"))})
    assert sorted(_unreached_publics(sources, outside)) == sorted(REACH_ALLOWLIST)


def _defaulted_parameters(tree: ast.Module):
    """(function, parameter, position) per parameter with a default of each public module-level
    function; the position is None for a keyword-only parameter."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and not node.name.startswith("_"):
            positional = node.args.posonlyargs + node.args.args
            first = len(positional) - len(node.args.defaults)
            for i, arg in enumerate(positional[first:], first):
                yield node.name, arg.arg, i
            for arg, default in zip(node.args.kwonlyargs, node.args.kw_defaults):
                if default is not None:
                    yield node.name, arg.arg, None


def _tuple_lengths(trees) -> dict[str, int]:
    """name -> k per module-level dict whose values are all tuple displays of length k."""
    lengths = {}
    for tree in trees:
        for node in tree.body:
            if isinstance(node, ast.Assign) and isinstance(node.value, ast.Dict):
                sizes = {len(v.elts) if isinstance(v, ast.Tuple) else -1 for v in node.value.values}
                if len(sizes) == 1 and -1 not in sizes:
                    lengths.update((t.id, *sizes) for t in node.targets if isinstance(t, ast.Name))
    return lengths


def _passed_parameters(sources: dict[str, str]) -> set[tuple[str, str | int]]:
    """What the calls in these modules pass, by the called name (a name or an attribute):
    (name, keyword) per keyword argument and (name, i) per positional index.  A starred
    subscript of a module-level dict of k-tuples (*DIMER_PAIRS[name]) passes k positions;
    any other *args passes every index, written as (name, -1)."""
    trees = [ast.parse(source) for source in sources.values()]
    lengths = _tuple_lengths(trees)
    passed = set()
    for n in (n for tree in trees for n in ast.walk(tree)):
        if not isinstance(n, ast.Call):
            continue
        name = n.func.id if isinstance(n.func, ast.Name) else getattr(n.func, "attr", None)
        passed.update((name, k.arg) for k in n.keywords if k.arg)
        width = 0
        for a in n.args:
            if not isinstance(a, ast.Starred):
                width += 1
            elif isinstance(a.value, ast.Subscript) and getattr(a.value.value, "id", None) in lengths:
                width += lengths[a.value.value.id]
            else:
                passed.add((name, -1))
        passed.update((name, i) for i in range(width))
    return passed


def _unreached_parameters(sources: dict[str, str], callers: dict[str, str]) -> list[str]:
    """Defaulted parameters (module.function.parameter) of these modules' public functions
    that no call in the callers passes."""
    passed = _passed_parameters(callers)
    unreached = []
    for module, source in sources.items():
        for function, param, position in _defaulted_parameters(ast.parse(source)):
            ways = {(function, param)} | ({(function, position), (function, -1)} if position is not None else set())
            if not ways & passed:
                unreached.append(f"{module}.{function}.{param}")
    return unreached


def test_the_check_flags_a_parameter_no_call_passes():
    sources = {
        "a": (
            "def f(x, y=1, z=2, *, k=3, m=4):\n"
            "    return x\n"
            "def g(a, b=1, /, c=2):\n"
            "    return a\n"
            "def h(level=0):\n"
            "    return h(level=level + 1) if level < 3 else level\n"
            "def _private(q=1):\n"
            "    return q\n"
            "def s(p, q, r=1, w=2):\n"
            "    return p\n"
            "class C:\n"
            "    def method(self, r=1):\n"
            "        return r\n"
        ),
        "b": (
            "from .a import f, g, s\n"
            "PAIRS = {'one': (0, 1), 'two': (2, 3)}\n"
            "MIXED = {'one': (0,), 'two': (2, 3)}\n"
            "def use(args, obj, key):\n"
            "    return f(0, 1, k=2) + g(*args) + obj.f(0, m=5) + s(*PAIRS[key], 4)\n"
        ),
    }
    # *PAIRS[key] passes two positions, so s's w stays unpassed; *args passes every index
    assert _tuple_lengths([ast.parse(sources["b"])]) == {"PAIRS": 2}
    assert _unreached_parameters(sources, sources) == ["a.f.z", "a.s.w"]
    assert _unreached_parameters(sources, {"b": sources["b"]}) == ["a.f.z", "a.h.level", "a.s.w"]
    starred_mixed = {"b": sources["b"].replace("s(*PAIRS[key], 4)", "s(*MIXED[key], 4)")}
    assert _unreached_parameters(sources, starred_mixed) == ["a.f.z", "a.h.level"]


# Defaulted parameters that no call in src/ or perfbench/ passes, each with what sets it
PARAM_ALLOWLIST = {
    "greens.dimer_suite.pairs": "ROADMAP item 2 (correlator --pair is to pass it); test_greens pins a one-pair run",
    **dict.fromkeys(
        ("greens.hadamard_test.kind", "greens.advanced_hadamard_test.kind"),
        "cli.cmd_correlator passes it by position through `runner`, a name the rule does not resolve",
    ),
    "noise.run_noisy.measure_qubits": "the seeded-counts pin and the outcome-index convention read chosen qubits",
    "vha.measure_energy.seed": "the shot-mode energy tests draw at chosen seeds",
}


def test_every_defaulted_parameter_is_passed():
    # by a call in the package or in perfbench, or by one entry above; no entry outlives its reason
    sources = {path.stem: path.read_text() for path in sorted(SRC.glob("*.py"))}
    callers = sources | {f"perfbench.{path.stem}": path.read_text() for path in sorted(PERFBENCH.glob("*.py"))}
    assert sorted(_unreached_parameters(sources, callers)) == sorted(PARAM_ALLOWLIST)


def _command_circuits():
    """The circuits the commands build, at the README settings: the five dump-circuit
    builders; every pair's noisy point circuit, twirled, decoupled under drift and folded;
    the Hadamard step and ground circuit; the VHA sweep's blocks and bond basis change."""
    from hubbard_gf.circuit import (
        TrotterPlan, dimer_hopping_layer, dimer_interaction_step, dimer_trotter_step, hop_basis_circuit,
        hopping_step, repulsion_step,
    )
    from hubbard_gf.greens import DIMER_PAIRS, dimer_ground_circuit, direct_point_circuit
    from hubbard_gf.noise import dynamical_decoupling, fold_circuit, kolkata_dimer_model, pauli_twirl
    from hubbard_gf.vha import VhaParams, optimal_angles, slater_prep_circuit, vha_circuit

    t, u, plan = 1.0, 4.0, TrotterPlan(0.314, 6)
    yield slater_prep_circuit()
    yield vha_circuit(VhaParams(*optimal_angles(t, u)))
    yield dimer_trotter_step(t, u, plan.dtau)
    yield hopping_step(1, 2, "up", 0.3, 2)
    yield repulsion_step(1, 0.3, 2)
    drifting = replace(kolkata_dimer_model(), idle_rate=dict.fromkeys(range(5), 2e5))
    for source, probe in DIMER_PAIRS.values():
        circuit, _, _ = direct_point_circuit(source, probe, t, u, plan, plan.steps, math.pi / 2, math.pi / 2)
        yield circuit
        yield from pauli_twirl(circuit, 4, 42)
        yield dynamical_decoupling(circuit, drifting)
        yield from (fold_circuit(circuit, scale)[0] for scale in (1.5, 2.0))
    yield dimer_ground_circuit(t, u)
    yield dimer_interaction_step(0.3)
    yield dimer_hopping_layer(0.3)
    yield hop_basis_circuit(0, 1, 4)


def test_the_gate_table_holds_exactly_the_kinds_the_commands_use():
    # a kind no command emits is dead weight in the table, a kind missing from it cannot run
    from hubbard_gf.statevector import ONE_QUBIT_KINDS, TWO_QUBIT_KINDS, ZERO_QUBIT_KINDS

    used = {g.kind for circuit in _command_circuits() for g in circuit.gates}
    assert sorted(used) == sorted(ZERO_QUBIT_KINDS + ONE_QUBIT_KINDS + TWO_QUBIT_KINDS)


def _private_imports(sources: dict[str, str]) -> list[str]:
    """Private names these modules take from another module, in source order: imported with
    `from m import _x`, or read as `m._x` off a name that an import binds."""
    found = []
    for module, source in sources.items():
        tree = ast.parse(source)
        imports = [n for n in ast.walk(tree) if isinstance(n, (ast.Import, ast.ImportFrom))]
        modules = {alias.asname or alias.name.split(".")[0] for n in imports for alias in n.names}
        for n in ast.walk(tree):
            if isinstance(n, ast.ImportFrom):
                names = [alias.name for alias in n.names]
            elif isinstance(n, ast.Attribute) and isinstance(n.value, ast.Name) and n.value.id in modules:
                names = [f"{n.value.id}.{n.attr}"]
            else:
                continue
            found += [(module, n.lineno, n.col_offset, name) for name in names if _is_private(name.split(".")[-1])]
    return [f"{module}: {name} (line {line})" for module, line, _, name in sorted(found)]


def test_the_check_flags_a_private_name_taken_from_another_module():
    sources = {
        "a": (
            "_LIMIT = 3\n"
            "def _helper():\n"
            "    return _LIMIT\n"
            "def public(parser):\n"
            "    return _helper() + len(parser._actions)\n"
        ),
        "b": (
            "from __future__ import annotations\n"
            "import numpy as np\n"
            "from . import a\n"
            "from .a import _helper, public\n"
            "def f(x):\n"
            "    from .a import _LIMIT\n"
            "    return a._helper() + a.public(x) + np.__version__ + np._core + x._private + _LIMIT\n"
        ),
    }
    assert _private_imports(sources) == [
        "b: _helper (line 4)", "b: _LIMIT (line 6)", "b: a._helper (line 7)", "b: np._core (line 7)"
    ]


def test_no_module_takes_another_modules_private_name():
    sources = {path.stem: path.read_text() for path in sorted(SRC.glob("*.py"))}
    assert _private_imports(sources) == []


def _sites_naming(sources: dict[str, str], name: str) -> list[str]:
    """Where these modules name `name` (as a name, an attribute or an import), sorted and
    distinct: the innermost enclosing def or class as module.outer.inner, or the module."""
    sites = set()

    def visit(node: ast.AST, where: str) -> None:
        for child in ast.iter_child_nodes(node):
            scope = isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
            inner = f"{where}.{child.name}" if scope else where
            if (isinstance(child, ast.Name) and child.id == name) or (
                isinstance(child, ast.Attribute) and child.attr == name
            ) or (isinstance(child, ast.alias) and child.name.split(".")[-1] == name):
                sites.add(inner)
            visit(child, inner)

    for module, source in sources.items():
        visit(ast.parse(source), module)
    return sorted(sites)


def test_the_check_finds_every_site_that_names_seedsequence():
    sources = {
        "a": (
            "import numpy as np\n"
            "def seeds(s, n):\n"
            "    return np.random.SeedSequence(s).generate_state(n)\n"
            "class Draws:\n"
            "    def child(self, s):\n"
            "        def inner():\n"
            "            return SS(s)\n"
            "        return inner\n"
        ),
        "b": (
            "from numpy.random import SeedSequence as SS\n"
            "def words(n):\n"
            "    \"\"\"SeedSequence in a docstring names nothing.\"\"\"\n"
            "    return SS(n)\n"
        ),
    }
    assert _sites_naming(sources, "SeedSequence") == ["a.seeds", "b"]
    assert _sites_naming(sources, "SS") == ["a.Draws.child.inner", "b.words"]


def test_one_function_derives_every_seed():
    # the seed tree has one rule: statevector.child_seeds
    sources = {path.stem: path.read_text() for path in sorted(SRC.glob("*.py"))}
    assert _sites_naming(sources, "SeedSequence") == ["statevector.child_seeds"]
