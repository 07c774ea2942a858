"""Run tier-1 against named mutants of the closure engine.

Each mutant is a list of exact ``old`` -> ``new`` edits to
``src/qchar/expansion.py``, a fault that a past change checked its tests
against.  For each mutant the script copies the checkout to a temporary
directory, applies the edits there and runs tier-1 with ``-x``, then reports
the mutant as killed, with the first failing test, or as survived, and the
time the run took.  An ``old`` text that does not occur exactly once is an
error, so a refactor of the engine must update this list.  The checkout
itself is never edited.  Run from anywhere, outside tier-1:

    python3 scripts/mutants.py             # every mutant
    python3 scripts/mutants.py --list      # their names
    python3 scripts/mutants.py NAME ...    # the named mutants only

It exits 0 if every mutant run was killed, 1 if one survived and 2 if an
edit does not apply.
"""

from __future__ import annotations

import argparse
import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TARGET = Path("src/qchar/expansion.py")

# name -> the (old, new) edits that make the mutant
MUTANTS = {
    # the process pops a level in push order, not in tie order
    "process-no-level-sort": [
        ("        level.sort(key=read)  # keys are unique, so this is the tie order\n",
         ""),
    ],
    # the process takes one expansion more than its budget
    "process-steps-past-budget": [
        ("                if steps >= budget:\n",
         "                if steps > budget:\n"),
    ],
    # nodes with different r_i share one rank-1 expansion
    "content-key-without-r_i": [
        ("known = self._contents.get((ri, pairs))",
         "known = self._contents.get(pairs)"),
        ("known = self._contents[ri, pairs] = (",
         "known = self._contents[pairs] = ("),
    ],
    # a run that stops on dominant keeps a chain for every monomial
    "stopping-run-keeps-every-chain": [
        ("    for last in dominant if stop_on_dominant else links:\n",
         "    for last in links:\n"),
    ],
    # the closure replays the level it stops in in push order
    "closure-stop-level-in-push-order": [
        ("            if not ordered:\n                level.sort(key=tie)\n", ""),
    ],
    # the closure cuts the level its budget ends in in push order
    "closure-budget-level-in-push-order": [
        ("        ordered = capped or order_within_level\n",
         "        ordered = order_within_level\n"),
    ],
    # the closure settles one monomial past its budget
    "closure-one-settle-past-budget": [
        ("            del level[budget - steps:]\n",
         "            del level[budget - steps + 1:]\n"),
    ],
    # a restriction whose templates reach past the window is packed anyway
    "no-window-check": [
        ("        if restr and restr[-1][0][1] + 2 * ri >= self.base + self.window:\n",
         "        if False:\n"),
    ],
    # the packed identity leaves the last slot out
    "identity-without-last-slot": [
        ("(((1 << stride * len(self._slot)) - 1)",
         "(((1 << stride * (len(self._slot) - 1)) - 1)"),
    ],
    # any window width, also one at which root steps keep the int hash
    "no-hash-spread": [
        ("        while window % 61 not in self._spread:\n            window += 1\n",
         ""),
    ],
}


def mutate(text: str, edits) -> str:
    """``text`` with each edit applied; an ``old`` that does not occur
    exactly once raises ValueError."""
    for old, new in edits:
        count = text.count(old)
        if count != 1:
            raise ValueError(f"found {count} times, not once: {old!r}")
        text = text.replace(old, new)
    return text


def first_failure(output: str) -> str:
    """The first FAILED or ERROR test id in pytest's short summary."""
    for line in output.splitlines():
        if line.startswith(("FAILED ", "ERROR ")):
            return line.split(" ", 1)[1].split(" - ", 1)[0]
    return "(no test named; see pytest's output)"


def run(name: str, source: str) -> tuple:
    """(killed, first failing test, seconds) of one mutant."""
    with tempfile.TemporaryDirectory(prefix=f"mutant-{name}-") as tmp:
        copy = Path(tmp) / "checkout"
        shutil.copytree(ROOT, copy, ignore=shutil.ignore_patterns(
            ".git", "__pycache__", ".pytest_cache", "out"))
        (copy / TARGET).write_text(source)
        env = dict(os.environ, PYTHONPATH=str(copy / "src"),
                   PYTHONDONTWRITEBYTECODE="1")
        start = time.perf_counter()
        done = subprocess.run(
            [sys.executable, "-m", "pytest", "-x", "-q", "-rfE",
             "-p", "no:cacheprovider"],
            cwd=copy, env=env, capture_output=True, text=True)
        seconds = time.perf_counter() - start
    killed = done.returncode != 0
    return killed, first_failure(done.stdout) if killed else "", seconds


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("names", nargs="*", help="mutants to run (default: all)")
    parser.add_argument("--list", action="store_true", help="print the mutant names")
    args = parser.parse_args(argv)
    if args.list:
        print("\n".join(MUTANTS))
        return 0
    unknown = [n for n in args.names if n not in MUTANTS]
    if unknown:
        parser.error(f"unknown mutant(s): {', '.join(unknown)}")
    original = (ROOT / TARGET).read_text()
    sources = {}
    for name in args.names or MUTANTS:
        try:
            sources[name] = mutate(original, MUTANTS[name])
        except ValueError as err:
            print(f"{name}: edit does not apply: {err}", file=sys.stderr)
            return 2
    survived = 0
    for name, source in sources.items():
        killed, test, seconds = run(name, source)
        survived += not killed
        verdict = f"killed by {test}" if killed else "SURVIVED"
        print(f"{name}: {verdict} ({seconds:.1f} s)", flush=True)
    print(f"{len(sources) - survived} of {len(sources)} mutants killed")
    return 1 if survived else 0


if __name__ == "__main__":
    sys.exit(main())
