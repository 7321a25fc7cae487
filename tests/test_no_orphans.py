"""Every public function, class and field in ``src/lookdown`` is used there.

Code that only tests use belongs in ``tests/``.  The guard parses the
package with ``ast`` and collects, for each module-level public function or
class and each public method, property or annotated field of a module-level
class (instance, class- and staticmethods alike), the references outside its
own definition.  The package ``__init__`` re-exports do not count, nor does
an import that is never used.  A module-level name counts as referenced by a
bare name or as an attribute of an imported module (``engine.mrca_time``,
not ``obs.mrca_time``); a method, property or field by any attribute load of
its name.  A constructor keyword does not read a field.  Matching is by name
alone, so a member is missed when another class has one of the same name
(``ParticleRunResult.config`` was hidden by ``stream.config``).
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "lookdown"

# Public entry points with no caller inside the package, one reason each.
ALLOWED = {
    "backward_level": "public query for X_s^t(j), the ancestor level of one "
                      "individual; the scans use the same kernel directly",
    "mrca_time": "public query for A_t alone; observables_at reads it off "
                 "the same drops together with B_t and Z_t",
    "from_events": "replay entry point: builds a stream from given events, "
                   "for hand-made and recorded streams",
    "joint_I": "paper law of the nested coalescent levels I^2 < I^3 < ..., "
               "kept for the exact finite-N (L, I) target",
    "pmf_LI_blocks_tail": "paper law P[L = l, I > b], kept for the exact "
                          "finite-N (L, I) target",
    "exit_configs": "the paper's configuration at each MRCA establishment, "
                    "the state a new MRCA is established in",
    "final_levels": "the configuration at the horizon, from which a run "
                    "can be continued",
    "sample_times": "the time of each sample_configs entry, so a sample "
                    "can be placed on the run's trajectory",
}


def _modules() -> dict[Path, ast.Module]:
    return {path: ast.parse(path.read_text(), filename=str(path))
            for path in sorted(PACKAGE.rglob("*.py"))}


def _definitions(modules):
    """(name, kind, path, node) for every public module-level function or
    class and every public method, property or annotated field of a
    module-level class."""
    out = []
    for path, tree in modules.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) \
                    and not node.name.startswith("_"):
                out.append((node.name, "module", path, node))
            if not isinstance(node, ast.ClassDef):
                continue
            for sub in node.body:
                if (isinstance(sub, ast.FunctionDef)
                        and not sub.name.startswith("_")):
                    out.append((sub.name, "method", path, sub))
                elif (isinstance(sub, ast.AnnAssign)
                        and isinstance(sub.target, ast.Name)
                        and not sub.target.id.startswith("_")):
                    out.append((sub.target.id, "field", path, sub))
    return out


def _module_aliases(tree: ast.Module) -> set[str]:
    """Names bound to modules by this file's imports."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            out.update((a.asname or a.name).split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module is None:
            out.update(a.asname or a.name for a in node.names)
    return out


def _references(modules):
    """name -> [(path, node)] for loaded bare names and module attributes
    (kind "module") and for any loaded attribute (kinds "method" and
    "field")."""
    names: dict[str, list] = {}
    attrs: dict[str, list] = {}
    for path, tree in modules.items():
        if path.name == "__init__.py":
            continue
        aliases = _module_aliases(tree)
        for node in ast.walk(tree):
            if not isinstance(getattr(node, "ctx", None), ast.Load):
                continue   # a field or variable named like a function
            if isinstance(node, ast.Name):
                names.setdefault(node.id, []).append((path, node))
            elif isinstance(node, ast.Attribute):
                attrs.setdefault(node.attr, []).append((path, node))
                if isinstance(node.value, ast.Name) and node.value.id in aliases:
                    names.setdefault(node.attr, []).append((path, node))
    return {"module": names, "method": attrs, "field": attrs}


def _inside(node: ast.AST, definition: ast.AST) -> bool:
    return (definition.lineno <= node.lineno
            and node.end_lineno <= definition.end_lineno)


def find_orphans() -> list[str]:
    modules = _modules()
    refs = _references(modules)
    out = []
    for name, kind, path, node in _definitions(modules):
        callers = [ref for ref_path, ref in refs[kind].get(name, [])
                   if not (ref_path == path and _inside(ref, node))]
        if not callers:
            out.append(name)
    return sorted(out)


def test_every_public_definition_has_a_caller_in_src():
    orphans = set(find_orphans())
    unexpected = sorted(orphans - ALLOWED.keys())
    assert not unexpected, (
        f"no caller in src/lookdown for {unexpected}: delete them, move "
        "them to tests/, or allowlist them with a reason")


def test_allowlist_is_current():
    # an allowlisted name that gained a caller or was deleted leaves the list
    stale = sorted(ALLOWED.keys() - set(find_orphans()))
    assert not stale, f"allowlisted but not orphaned: {stale}"


def test_guard_sees_an_orphan(tmp_path, monkeypatch):
    pkg = tmp_path / "lookdown"
    pkg.mkdir()
    (pkg / "__init__.py").write_text("from .a import used, unused\n")
    (pkg / "a.py").write_text(
        "import math\n"
        "def used():\n    return used_twice()\n"
        "def used_twice():\n    return 1\n"
        "def unused():\n    return unused()\n"   # only calls itself
        "class Box:\n"
        "    unused: int = 0\n"                   # a field, not a call
        "    spare: int = 0\n"                    # a field nothing reads
        "    @classmethod\n    def make(cls):\n        return cls()\n"
        "    def value(self):\n        return self.value()\n"  # only itself
        "    @property\n    def size(self):\n        return math.pi\n"
        "    def scale(self):\n        return 2 * self.size\n")
    (pkg / "b.py").write_text(
        "from . import a\nfrom .a import used, unused\n"  # imports only
        "def caller(obj):\n"
        "    return a.used(), obj.unused, a.Box(spare=1), obj.scale()\n")
    monkeypatch.setattr(sys.modules[__name__], "PACKAGE", pkg)
    assert find_orphans() == ["caller", "make", "spare", "unused", "value"]
