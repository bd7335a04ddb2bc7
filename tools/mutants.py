"""Mutation sweep over `src/videoqa`: which small changes to the code does
the test suite let through?

Four operators, each applied at one site at a time:

  if       an `if` statement's test becomes `False`: its block never runs
           (and its `else`, when it has one, always does)
  compare  one comparison operator moves to its neighbour: `<` `<=`,
           `>` `>=`, `==` `!=`, `in` `not in`, `is` `is not`
  boolop   `and` becomes `or`, and `or` becomes `and`
  int      an integer literal grows by 1

Expressions inside f-strings are not mutated. Each mutant is written into
a scratch copy of the repository (one copy for each of the `JOBS` mutants
run at once, under `--workdir`) and run with `PYTHONDONTWRITEBYTECODE=1`,
so no stale bytecode hides it. The
mutated module's own test file (`tests/test_<module>.py`, or the test files
that import the module when it has none) runs first, stopping at the first
failure; a mutant it does not kill then runs the whole suite. A run that
fails, or outlasts the timeout, kills the mutant; one that passes leaves it
a survivor, unless `EQUIVALENT` names it as a mutant no input can tell from
the code. Before any mutant, the unmutated copy must pass the suite, and
its time sets the timeout (three times it, plus 30 s).

Usage:

  python tools/mutants.py                       # every module, every operator
  python tools/mutants.py --modules captioning  # one module
  python tools/mutants.py --list                # print the sites, run nothing

Prints one line per mutant, then a table of sites, kills and survivors by
module and operator, and the time taken. Exits 1 when a mutant survives
that `EQUIVALENT` does not name, and 2, before any mutant runs, when an
`EQUIVALENT` entry for a swept module names no site (an edit left it
stale) or the unmutated suite fails. Standard library only; the sweep is
not part of the test suite.
"""

from __future__ import annotations

import argparse
import ast
import os
import re
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path
from queue import Queue

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = "src/videoqa"
OPERATORS = ("if", "compare", "boolop", "int")
JOBS = 2  # mutants run at once, one repository copy each
FLIP = {ast.Lt: ast.LtE, ast.LtE: ast.Lt, ast.Gt: ast.GtE, ast.GtE: ast.Gt,
        ast.Eq: ast.NotEq, ast.NotEq: ast.Eq, ast.In: ast.NotIn,
        ast.NotIn: ast.In, ast.Is: ast.IsNot, ast.IsNot: ast.Is}
PYTEST = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
          "--continue-on-collection-errors"]
COPY_IGNORE = shutil.ignore_patterns(".git", "__pycache__", ".hypothesis",
                                     ".pytest_cache", ".perfbench_out",
                                     ".benchmarks", "*.egg-info")

# Mutants no input can tell from the code, each with the reason. Keyed by
# module, enclosing name and the text before and after, so that an edit
# elsewhere in the module does not unname one.
EQUIVALENT = {
    ("tree", "kmeans", "if np.array_equal(assign, prev):", "if False:"):
        "Lloyd's iterations stop at a fixed point, so running all 100 "
        "changes only how many run",
    ("ingest", "<module>", "_BLOCK_ROWS = 256", "_BLOCK_ROWS = 257"):
        "`_BLOCK_ROWS` sizes only a temporary: a row's norm and whether "
        "it is finite are the same in any block",
    ("ingest", "_by_block", "max(len(matrix) - overlap, 1)",
     "max(len(matrix) - overlap, 2)"):
        "a matrix of at most `overlap` + 1 rows is one block at row 0 "
        "either way",
    ("orchestrator", "execute_workflow", "[0]", "[1]"):
        "the first evidence stage's count reads 1 from its first step on; "
        "before that step the bound it puts on the second stage, budget "
        "- 1, is still at or above that stage's sequential allowance, so "
        "only calls the cut discards can change",
    ("tree", "_node_seed", "_seed_sequence((master_seed, node_id), 1)",
     "_seed_sequence((master_seed, node_id), 2)"):
        "SeedSequence's first word does not depend on how many follow it",
    ("tree", "_randint", "_seed_sequence((seed,), 8)",
     "_seed_sequence((seed,), 9)"):
        "SeedSequence's first 8 words do not depend on how many follow them",
}


@dataclass
class Site:
    module: str
    operator: str
    index: int      # the site's position among its module's sites of this operator
    line: int
    where: str      # the enclosing function or class, dotted
    before: str
    after: str
    outcome: str = ""
    killer: str = ""

    def label(self) -> str:
        return (f"{self.module}.py:{self.line} {self.operator} in {self.where}: "
                f"{self.before}  ->  {self.after}")


# ---------------------------------------------------------------------------
# Sites and mutants
# ---------------------------------------------------------------------------

def _candidates(tree: ast.AST, operator: str) -> list[tuple[ast.AST, int]]:
    """(node, slot) for every site of `operator`, in a fixed order; `slot`
    is the comparison operator's position in a chained comparison."""
    inside_fstring = {id(n) for js in ast.walk(tree)
                      if isinstance(js, ast.JoinedStr) for n in ast.walk(js)}
    found = []
    for node in ast.walk(tree):
        if id(node) in inside_fstring:
            continue
        if operator == "if" and isinstance(node, ast.If):
            found.append((node, 0))
        elif operator == "compare" and isinstance(node, ast.Compare):
            found.extend((node, i) for i in range(len(node.ops)))
        elif operator == "boolop" and isinstance(node, ast.BoolOp):
            found.append((node, 0))
        elif (operator == "int" and isinstance(node, ast.Constant)
              and type(node.value) is int):
            found.append((node, 0))
    return sorted(found, key=lambda c: (c[0].lineno, c[0].col_offset, c[1]))


def _splice(source: str, node: ast.AST, text: str) -> str:
    """`source` with `node`'s span replaced by `text`; ast offsets count
    UTF-8 bytes."""
    lines = source.encode().splitlines(keepends=True)
    first, last = node.lineno - 1, node.end_lineno - 1
    head = lines[first][:node.col_offset]
    tail = lines[last][node.end_col_offset:]
    return b"".join(lines[:first] + [head + text.encode() + tail]
                    + lines[last + 1:]).decode()


def _where(tree: ast.AST, target: ast.AST) -> str:
    def walk(node, names):
        for child in ast.iter_child_nodes(node):
            if child is target:
                return names
            inner = names
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                                  ast.ClassDef)):
                inner = names + [child.name]
            found = walk(child, inner)
            if found is not None:
                return found
        return None
    return ".".join(walk(tree, []) or ["<module>"])


def mutate(source: str, operator: str, index: int) -> tuple[str, str, str, int, str]:
    """The source of mutant `index` of `operator`, with its before and after
    text, line and enclosing name. An integer's text is that of the node
    holding it, so two literals on one line read apart. The mutant's parse
    is checked against the mutated tree, so a splice cannot change anything
    else."""
    tree = ast.parse(source)
    node, slot = _candidates(tree, operator)[index]
    where = _where(tree, node)
    shown = node
    if operator == "int":
        parent = next(p for p in ast.walk(tree)
                      if any(c is node for c in ast.iter_child_nodes(p)))
        if not isinstance(parent, ast.arguments):  # a default shows alone
            shown = parent
    if operator == "if":
        before = f"if {ast.unparse(node.test)}:"
        target, node.test = node.test, ast.Constant(False)
        after, text = "if False:", "False"
    else:
        before = ast.unparse(shown)
        if operator == "compare":
            node.ops[slot] = FLIP[type(node.ops[slot])]()
        elif operator == "boolop":
            node.op = ast.Or() if isinstance(node.op, ast.And) else ast.And()
        else:
            node.value += 1
        target, after = node, ast.unparse(shown)
        text = f"({ast.unparse(node)})"
    mutant = _splice(source, target, text)
    if ast.dump(ast.parse(mutant)) != ast.dump(tree):
        raise AssertionError(f"splice of {operator} #{index} changed more "
                             "than its site")
    return mutant, _short(before), _short(after), target.lineno, where


def _short(text: str, width: int = 70) -> str:
    text = " ".join(text.split())
    return text if len(text) <= width else text[:width - 3] + "..."


def sites(modules: list[str]) -> list[Site]:
    found = []
    for module in modules:
        source = (ROOT / PACKAGE / f"{module}.py").read_text(encoding="utf-8")
        for operator in OPERATORS:
            for index in range(len(_candidates(ast.parse(source), operator))):
                _, before, after, line, where = mutate(source, operator, index)
                found.append(Site(module, operator, index, line, where,
                                  before, after))
    return found


# ---------------------------------------------------------------------------
# Running
# ---------------------------------------------------------------------------

def own_tests(module: str, root: Path) -> list[str]:
    """The module's own test file under `root`, or, for a module without
    one, the test files that import it by name."""
    own = root / "tests" / f"test_{module}.py"
    if own.exists():
        return [str(own.relative_to(root))]
    pattern = re.compile(rf"videoqa\.{module}\b|from videoqa import [^\n]*\b{module}\b")
    return sorted(str(p.relative_to(root)) for p in (root / "tests").glob("test_*.py")
                  if pattern.search(p.read_text(encoding="utf-8")))


def run_tests(copy: Path, paths: list[str], timeout: float) -> tuple[str, str]:
    """("pass" | "fail" | "timeout", the first failing test) of pytest over
    `paths` (the whole suite when empty) in `copy`."""
    shutil.rmtree(copy / ".hypothesis", ignore_errors=True)
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1", PYTHONPATH="src")
    proc = subprocess.Popen(PYTEST + paths, cwd=copy, env=env, text=True,
                            stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        return "timeout", ""
    if proc.returncode in (0, 5):  # 5: the files hold no test
        return "pass", ""
    failed = re.search(r"^(?:FAILED|ERROR) (\S+)", out, re.M)
    return "fail", failed.group(1) if failed else f"exit {proc.returncode}"


def run_site(site: Site, copy: Path, timeout: float) -> Site:
    path = copy / PACKAGE / f"{site.module}.py"
    original = path.read_text(encoding="utf-8")
    path.write_text(mutate(original, site.operator, site.index)[0],
                    encoding="utf-8")
    try:
        for stage, paths in (("own", own_tests(site.module, copy)), ("full", [])):
            if stage == "own" and not paths:
                continue
            result, killer = run_tests(copy, paths, timeout)
            if result != "pass":
                site.outcome = f"killed ({stage}{', timeout' if result == 'timeout' else ''})"
                site.killer = killer
                return site
        key = (site.module, site.where, site.before, site.after)
        site.outcome = "equivalent" if key in EQUIVALENT else "survived"
        return site
    finally:
        path.write_text(original, encoding="utf-8")


def table(found: list[Site]) -> str:
    rows = [("module", "operator", "sites", "killed own", "killed full",
             "survived", "equivalent")]
    keys = sorted({(s.module, s.operator) for s in found},
                  key=lambda k: (k[0], OPERATORS.index(k[1])))
    groups = [((m, o), [s for s in found if (s.module, s.operator) == (m, o)])
              for m, o in keys]
    groups.append((("all", ""), found))
    for (module, operator), group in groups:
        rows.append((module, operator, str(len(group)),
                     str(sum(s.outcome.startswith("killed (own") for s in group)),
                     str(sum(s.outcome.startswith("killed (full") for s in group)),
                     str(sum(s.outcome == "survived" for s in group)),
                     str(sum(s.outcome == "equivalent" for s in group))))
    widths = [max(len(r[i]) for r in rows) for i in range(len(rows[0]))]
    return "\n".join("  ".join(c.ljust(w) for c, w in zip(r, widths)).rstrip()
                     for r in rows)


def main(argv: list[str] | None = None) -> int:
    all_modules = sorted(p.stem for p in (ROOT / PACKAGE).glob("*.py"))
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--modules", nargs="+", choices=all_modules,
                        default=all_modules)
    parser.add_argument("--workdir", help="where the copies go (default: a "
                        "temporary directory, removed afterwards)")
    parser.add_argument("--list", action="store_true",
                        help="print the sites and run nothing")
    args = parser.parse_args(argv)

    found = sites(args.modules)
    named = {(s.module, s.where, s.before, s.after) for s in found}
    stranded = [key for key in EQUIVALENT
                if key[0] in args.modules and key not in named]
    for key in stranded:
        print("EQUIVALENT names no site: {} in {}: {}  ->  {}".format(*key))
    if stranded:
        return 2
    if args.list:
        for site in found:
            print(site.label())
        print(f"{len(found)} sites")
        return 0

    started = time.monotonic()
    with tempfile.TemporaryDirectory(dir=args.workdir) as workdir:
        copies: Queue[Path] = Queue()
        for job in range(JOBS):
            copy = Path(workdir) / f"copy{job}"
            shutil.copytree(ROOT, copy, ignore=COPY_IGNORE)
            copies.put(copy)
        copy = copies.get()
        result, killer = run_tests(copy, [], timeout=1800)
        copies.put(copy)
        if result != "pass":
            print(f"the unmutated suite does not pass ({killer or result})")
            return 2
        timeout = 3 * (time.monotonic() - started) + 30
        print(f"{len(found)} sites; unmutated suite passed; timeout {timeout:.0f} s",
              flush=True)

        def run(site: Site) -> Site:
            copy = copies.get()
            try:
                return run_site(site, copy, timeout)
            finally:
                copies.put(copy)

        with ThreadPoolExecutor(JOBS) as pool:
            for site in pool.map(run, found):
                print(f"{site.outcome:<24} {site.label()}"
                      f"{'  [' + site.killer + ']' if site.killer else ''}",
                      flush=True)

    survivors = [s for s in found if s.outcome == "survived"]
    print("\n" + table(found))
    for site in found:
        if site.outcome == "equivalent":
            print(f"\nequivalent: {site.label()}\n  "
                  + EQUIVALENT[site.module, site.where, site.before, site.after])
    if survivors:
        print("\nsurvivors:")
        for site in survivors:
            print("  " + site.label())
    print(f"\n{len(found)} mutants in {time.monotonic() - started:.0f} s")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
