"""Every public function, class and field in ``src/lookdown`` is used there.

Code that only tests use belongs in ``tests/``.  The guard parses the
package with ``ast`` and collects, for each module-level public function or
class and each public method, property or annotated field of a module-level
class (instance, class- and staticmethods alike), the references outside its
own definition.  The package ``__init__`` re-exports do not count, nor does
an import that is never used.  A module-level name counts as referenced by a
bare name or as an attribute of an imported module (``engine.observables_at``,
not ``obs.observables_at``).  A member counts as read by ``self.name``
inside its own class, and by any other attribute load of its name.  A
constructor keyword does not read a field.

``ast`` cannot tell whose member ``obj.name`` reads, so where two classes
define members of one name, a read of one hides an unread other
(``ParticleRunResult.config`` was hidden by ``stream.config``).  Every such
name is pinned in ``SHARED`` with the reason each of its members is kept,
and a shared name missing from ``SHARED``, or pinned there but no longer
shared, fails the guard.
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path

import pytest

import lookdown
from lookdown import engine

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "lookdown"

# Public entry points with no caller inside the package, one reason each.
ALLOWED = {
    "backward_level": "public query for X_s^t(j), the ancestor level of one "
                      "individual; kept for the kernel that reads T_c off "
                      "the engine (ROADMAP item 5)",
    "joint_I": "paper law of the nested coalescent levels I^2 < I^3 < ..., "
               "kept for the exact finite-N (L, I) target (ROADMAP item 4)",
    "pmf_LI_blocks_tail": "paper law P[L = l, I > b], kept for the exact "
                          "finite-N (L, I) target (ROADMAP item 4)",
}

# Member names that two or more package classes define, and why each of
# those members is kept.
SHARED = {
    "burn_in": "EngineConfig and ParticleSimConfig each read their own, to "
               "open the window and to start the run",
    "counters": "EventStream.counters and ParticleRunResult.counters are "
                "the work of the two simulators in the CLI's manifests; the "
                "particle run's also fills verify's CheckResult.work",
    "levels": "ParticleConfig.levels is the state simulate starts from; "
              "TransitionEvent.levels, the state after a transition, is "
              "written to trajectory.jsonl and replayed by verify",
    "living": "MrcaPointProcess.living holds the B of each pair, which "
              "mutations marks; ParticleRunResult.living, the arrival "
              "time of each exit's particle, is how verify builds the "
              "pairs of criteria 7 and 11",
    "mrca_time": "CoalescentCurve.mrca_time is read by verify's duality "
                 "check; MrcaObservables.mrca_time is the A column of "
                 "simulate-lookdown",
    "n": "GofReport.n is the sample size in every report; PmfTable.n, the "
         "sample size of an empirical table, is what chi_square_gof tests",
    "name": "CheckResult, GofReport and PmfTable each write their own name "
            "in their reports",
    "passed": "CheckResult.passed and GofReport.passed are the verdicts "
              "verify combines",
    "path_levels": "CurvePassResult's lists become FixationCurve's arrays "
                   "in extract_fixation_curves; FixationCurve.steps reads "
                   "its own",
    "path_times": "as path_levels",
    "seed": "EngineConfig, MutationConfig and ParticleSimConfig seed their "
            "own generators; SuiteResult.seed goes to verify_report.json",
    "steps": "verify compares FixationCurve.steps with CoalescentCurve.steps "
             "back from the curve's exit",
    "time": "MrcaObservables.time is the t column of simulate-lookdown, "
            "TransitionEvent.time goes to trajectory.jsonl and "
            "SubstitutionEvent.time to verify's dispersion check",
    "to_dict": "SuiteResult is verify_report.json; CheckResult, "
               "ExitGapSummary and GofReport each serialize into it, "
               "ExitGapSummary also into the CLI's gap summary",
    "window": "EngineConfig.window and EventStream.window bound every "
              "query; MrcaPointProcess.window, the window its points were "
              "taken in, has no reader in src/, but bench/ and tests/ "
              "build point processes with window=",
}


def _modules() -> dict[Path, ast.Module]:
    return {path: ast.parse(path.read_text(), filename=str(path))
            for path in sorted(PACKAGE.rglob("*.py"))}


def _members(cls: ast.ClassDef) -> list[tuple[str, ast.AST]]:
    """(name, node) for each public method, property or annotated field."""
    out = []
    for sub in cls.body:
        if isinstance(sub, ast.FunctionDef) and not sub.name.startswith("_"):
            out.append((sub.name, sub))
        elif (isinstance(sub, ast.AnnAssign)
                and isinstance(sub.target, ast.Name)
                and not sub.target.id.startswith("_")):
            out.append((sub.target.id, sub))
    return out


def _definitions(modules):
    """(name, owner, path, node) for every public module-level function or
    class (owner None) and every public member of a module-level class
    (owner the class name)."""
    out = []
    for path, tree in modules.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) \
                    and not node.name.startswith("_"):
                out.append((node.name, None, path, node))
            if isinstance(node, ast.ClassDef):
                out.extend((name, node.name, path, sub)
                           for name, sub in _members(node))
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
    """(names, attrs, own) of (path, node) lists: loaded bare names and
    module attributes by name, other attribute loads by name, and
    ``self.name`` loads inside a class that defines the name by
    (path, class, name)."""
    names: dict[str, list] = {}
    attrs: dict[str, list] = {}
    own: dict[tuple, list] = {}
    for path, tree in modules.items():
        if path.name == "__init__.py":
            continue
        aliases = _module_aliases(tree)
        for top in tree.body:
            defined = ({name for name, _ in _members(top)}
                       if isinstance(top, ast.ClassDef) else set())
            for node in ast.walk(top):
                if not isinstance(getattr(node, "ctx", None), ast.Load):
                    continue   # a field or variable named like a function
                if isinstance(node, ast.Name):
                    names.setdefault(node.id, []).append((path, node))
                    continue
                if not isinstance(node, ast.Attribute):
                    continue
                value = getattr(node.value, "id", None)
                if value == "self" and node.attr in defined:
                    own.setdefault((path, top.name, node.attr), []).append(
                        (path, node))
                    continue
                attrs.setdefault(node.attr, []).append((path, node))
                if value in aliases:
                    names.setdefault(node.attr, []).append((path, node))
    return names, attrs, own


def _inside(node: ast.AST, definition: ast.AST) -> bool:
    return (definition.lineno <= node.lineno
            and node.end_lineno <= definition.end_lineno)


def find_orphans() -> list[str]:
    """Public definitions with no reference outside themselves: module-level
    ones by name, members as ``Class.name``."""
    modules = _modules()
    names, attrs, own = _references(modules)
    out = []
    for name, owner, path, node in _definitions(modules):
        refs = (names.get(name, []) if owner is None else
                attrs.get(name, []) + own.get((path, owner, name), []))
        if all(ref_path == path and _inside(ref, node)
               for ref_path, ref in refs):
            out.append(name if owner is None else f"{owner}.{name}")
    return sorted(out)


def shared_members() -> dict[str, list[str]]:
    """Member name -> the classes that define it, where two or more do."""
    owners: dict[str, set[str]] = {}
    for name, owner, _, _ in _definitions(_modules()):
        if owner is not None:
            owners.setdefault(name, set()).add(owner)
    return {name: sorted(c) for name, c in owners.items() if len(c) > 1}


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


def test_shared_member_names_are_pinned():
    shared = shared_members()
    unlisted = {name: shared[name] for name in sorted(shared.keys()
                                                       - SHARED.keys())}
    assert not unlisted, (
        f"member names defined by several classes {unlisted}: a read of one "
        "hides the others, so rename one or pin the name in SHARED with the "
        "reason each member is kept")
    stale = sorted(SHARED.keys() - shared.keys())
    assert not stale, f"pinned in SHARED but not shared: {stale}"


def test_reexports_resolve():
    # the guard skips __init__, so a re-export of a deleted name would
    # otherwise fail only on import *
    for module in (lookdown, engine):
        missing = [name for name in module.__all__
                   if not hasattr(module, name)]
        assert not missing, f"{module.__name__}.__all__ names {missing}"


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
        "    def scale(self):\n        return 2 * self.size\n"
        "class Crate:\n"
        "    @property\n    def size(self):\n        return 1\n"  # not Box's
        "    def scale(self):\n        return 3\n")  # hidden behind Box's
    (pkg / "b.py").write_text(
        "from . import a\nfrom .a import used, unused\n"  # imports only
        "def caller(obj):\n"
        "    return (a.used(), obj.unused, a.Box(spare=1), a.Crate(),\n"
        "            obj.scale())\n")
    monkeypatch.setattr(sys.modules[__name__], "PACKAGE", pkg)
    assert find_orphans() == ["Box.make", "Box.spare", "Box.value",
                              "Crate.size", "caller", "unused"]
    # obj.scale() may call either scale: only the shared-name check sees
    # that Crate.scale has no reader
    assert shared_members() == {"scale": ["Box", "Crate"],
                                "size": ["Box", "Crate"]}
    with pytest.raises(AssertionError, match=r"'scale': \['Box', 'Crate'\]"):
        test_shared_member_names_are_pinned()
    monkeypatch.setattr(sys.modules[__name__], "SHARED",
                        {"scale": "", "size": "", "gone": ""})
    with pytest.raises(AssertionError, match=r"not shared: \['gone'\]"):
        test_shared_member_names_are_pinned()
