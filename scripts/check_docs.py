#!/usr/bin/env python
"""Doc-freshness gate: the docs must describe the tree that exists.

Checks, without importing the package:

1. ``README.md`` and ``docs/ARCHITECTURE.md`` exist.
2. Every module the README's module-map table names (the first
   backticked cell of each ``| `name` | ...`` row) exists under
   ``src/repro/`` as a package or module.
3. The converse: every subpackage of ``src/repro/`` appears somewhere in
   the README, so new packages can't ship undocumented.
4. Cross-references used by the quickstart (``scripts/check.sh``,
   ``benchmarks/README.md``, the example scripts) resolve.
5. Every dotted ``repro.…`` name, every ``tests/…py`` path and every
   module path (``[src/][repro/]<subpackage>/<module>.py``) in the
   README, ``docs/ARCHITECTURE.md`` and ``benchmarks/README.md``
   resolves: the longest module prefix of a name must exist as a file
   under ``src/``, and what follows it must be bound at that module's
   top level, optionally followed by one name defined in that class
   (a class imported from another ``repro`` module is followed there);
   a module path must name a file under ``src/repro/``.

Exits non-zero with a list of stale references; run by ``scripts/check.sh``.
"""

from __future__ import annotations

import ast
import re
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

#: Documents whose code references must resolve (check 5).
REFERENCE_DOCS = ("README.md", "docs/ARCHITECTURE.md", "benchmarks/README.md")

_DOTTED_NAME = re.compile(r"(?<![\w/.])repro(?:\.[A-Za-z_]\w*)+")
_TEST_PATH = re.compile(r"(?<![\w/.])tests/[\w/.-]*?\.py\b")
#: A module file under ``src/repro/``; a path into one of the repository's
#: own top-level directories is not one.
_MODULE_PATH = re.compile(
    r"(?<![\w/.])(?!(?:tests|benchmarks|scripts|examples)/)(?:src/)?(?:repro/)?\w+/\w+\.py\b"
)


def module_map_entries(readme_text: str) -> list[str]:
    """First backticked cell of each module-map table row."""
    entries = []
    for line in readme_text.splitlines():
        match = re.match(r"\|\s*`([A-Za-z_][A-Za-z0-9_.]*)`\s*\|", line)
        if match:
            entries.append(match.group(1))
    return entries


def _module_file(package_root: Path, parts: list[str]) -> Path | None:
    base = package_root.joinpath(*parts)
    for path in (base / "__init__.py", base.with_suffix(".py")):
        if path.is_file():
            return path
    return None


def _bindings(body: list[ast.stmt]) -> set[str]:
    """Names a module or class body binds directly."""
    names: set[str] = set()
    for node in body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names.update((alias.asname or alias.name).split(".")[0] for alias in node.names)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                names.update(n.id for n in ast.walk(target) if isinstance(n, ast.Name))
    return names


def _class_members(cls: ast.ClassDef) -> set[str]:
    """Names bound in the class body plus ``self.<name>`` assignments."""
    names = _bindings(cls.body)
    for node in ast.walk(cls):
        if (
            isinstance(node, ast.Attribute)
            and isinstance(node.ctx, ast.Store)
            and isinstance(node.value, ast.Name)
            and node.value.id == "self"
        ):
            names.add(node.attr)
    return names


def resolves(dotted: str, package_root: Path) -> bool:
    """Whether a dotted ``repro.…`` name names a module or a definition."""
    parts = dotted.split(".")[1:]
    for split in range(len(parts), -1, -1):
        module = _module_file(package_root, parts[:split])
        if module is not None:
            break
    else:
        return False
    rest = parts[split:]
    if not rest:
        return True
    tree = ast.parse(module.read_text())
    if len(rest) == 1:
        return rest[0] in _bindings(tree.body)
    if len(rest) > 2:
        return False
    name, member = rest
    for node in tree.body:
        if isinstance(node, ast.ClassDef) and node.name == name:
            return member in _class_members(node)
        if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("repro."):
            for alias in node.names:
                if (alias.asname or alias.name) == name:
                    return resolves(f"{node.module}.{alias.name}.{member}", package_root)
    return False


def stale_references(text: str, root: Path = ROOT) -> list[str]:
    """The ``repro.…`` names, ``tests/…py`` paths and module paths in
    ``text`` that do not resolve under ``root``, each once, in order of
    appearance."""
    package_root = root / "src" / "repro"
    stale: list[str] = []
    for name in dict.fromkeys(_DOTTED_NAME.findall(text)):
        if not resolves(name, package_root):
            stale.append(name)
    for path in dict.fromkeys(_TEST_PATH.findall(text)):
        if not (root / path).is_file():
            stale.append(path)
    for path in dict.fromkeys(_MODULE_PATH.findall(text)):
        if not (package_root / path.removeprefix("src/").removeprefix("repro/")).is_file():
            stale.append(path)
    return stale


def main() -> int:
    problems: list[str] = []
    readme = ROOT / "README.md"
    architecture = ROOT / "docs" / "ARCHITECTURE.md"
    for doc in (readme, architecture):
        if not doc.is_file():
            problems.append(f"missing document: {doc.relative_to(ROOT)}")
    if problems:
        print("\n".join(problems), file=sys.stderr)
        return 1

    readme_text = readme.read_text()
    package_root = ROOT / "src" / "repro"

    listed = module_map_entries(readme_text)
    if not listed:
        problems.append("README.md module map: no `module` table rows found")
    for name in listed:
        path = package_root / name
        if not (path.is_dir() or path.with_suffix(".py").is_file()):
            problems.append(
                f"README.md module map names `{name}` but src/repro/{name} does not exist"
            )

    actual = sorted(
        p.name
        for p in package_root.iterdir()
        if p.is_dir() and (p / "__init__.py").is_file()
    )
    for name in actual:
        if f"`{name}`" not in readme_text:
            problems.append(
                f"src/repro/{name} exists but README.md's module map never mentions `{name}`"
            )

    for ref in ("scripts/check.sh", "benchmarks/README.md", "docs/ARCHITECTURE.md"):
        if ref in readme_text and not (ROOT / ref).exists():
            problems.append(f"README.md references missing path {ref}")
    for match in re.finditer(r"`examples/([a-z0-9_]+\.py)`", readme_text):
        name = match.group(1)
        if not (ROOT / "examples" / name).is_file():
            problems.append(f"README.md references missing example examples/{name}")

    for doc in REFERENCE_DOCS:
        for ref in stale_references((ROOT / doc).read_text()):
            problems.append(f"{doc} references `{ref}`, which does not resolve")

    if problems:
        print("doc-freshness check failed:", file=sys.stderr)
        for problem in problems:
            print(f"  - {problem}", file=sys.stderr)
        return 1
    print(
        f"doc-freshness ok: {len(listed)} module-map entries verified, "
        f"{len(actual)} subpackages all documented, code references resolve"
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
