"""Mutation runner for the lines a change touches: does the suite notice?

Each mutant flips one operator on one changed line of ``src/`` (``<``/``<=``,
``>``/``>=``, ``==``/``!=``, ``+``/``-``, ``*``/``/``, ``+=``/``-=``,
``*=``/``/=``, ``and``/``or``, ``is``/``is not``, and ``not x`` → ``x``), and
the test command runs on it in a temporary copy of the checkout, one mutant
at a time.  The unmutated copy runs first and is timed; each mutant may then
run ``SLACK`` times as long plus ``FLOOR`` seconds.  A mutant is KILLED when
the command fails, SURVIVED when it passes, and TIMEOUT when it runs past
that limit (a mutant can make a search loop forever), which counts as killed
but is reported apart.  A surviving mutant listed in
``equivalent_mutants.json`` next to this file is EQUIVALENT, reported apart
from SURVIVED: the list holds the mutants known to change no behaviour, each
with its file, its source line as text, its operator swap, which occurrence
of that operator on the line it is (counting from 1), and the reason; an
entry that names no mutant of the checkout's sources is printed as STALE
first.  A mutant that does not compile is not run.  The checkout itself is
never written to.

    python tools/mutants.py                 # lines changed since HEAD~1
    python tools/mutants.py --base main     # lines changed since main
    python tools/mutants.py --all           # every line (slow: hours)

"Changed" means the lines of the working tree that ``git diff BASE`` adds or
rewrites, plus every line of an untracked file.  Standard library only; not
part of the test suite.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import re
import shutil
import signal
import subprocess
import sys
import tempfile
import time
import tokenize
from pathlib import Path

SWAPS = {
    "<": "<=", "<=": "<", ">": ">=", ">=": ">", "==": "!=", "!=": "==",
    "+": "-", "-": "+", "*": "/", "/": "*", "+=": "-=", "-=": "+=", "*=": "/=", "/=": "*=",
    "and": "or", "or": "and",
}
SLACK, FLOOR = 5.0, 10.0  # a mutant's time limit: SLACK × the unmutated run + FLOOR s
EQUIVALENTS = Path(__file__).resolve().with_name("equivalent_mutants.json")
HUNK = re.compile(r"^@@ -\S+ \+(\d+)(?:,(\d+))? @@")


def git(root: Path, *args: str) -> str:
    return subprocess.run(["git", *args], cwd=root, check=True, capture_output=True, text=True).stdout


def tracked(root: Path, *args: str) -> list[str]:
    """The files ``git ls-files -z ARGS`` names."""
    return [f for f in git(root, "ls-files", "-z", *args).split("\0") if f]


def changed_lines(root: Path, base: str, everything: bool) -> dict[str, set[int]]:
    """{file: line numbers} of the Python files under ``src`` to mutate."""
    files = tracked(root, "-co", "--exclude-standard", "--", "src")
    files = [f for f in files if f.endswith(".py") and (root / f).is_file() and not (root / f).is_symlink()]
    if everything:
        return {f: set(range(1, len((root / f).read_text().splitlines()) + 1)) for f in files}
    out: dict[str, set[int]] = {}
    current = None
    for line in git(root, "diff", "-U0", base, "--", "src").splitlines():
        if line.startswith("+++ "):
            current = line[6:] if line.startswith("+++ b/") else None
        elif current and current.endswith(".py") and (m := HUNK.match(line)):
            start, count = int(m.group(1)), int(m.group(2) or 1)
            out.setdefault(current, set()).update(range(start, start + count))
    for f in tracked(root, "--others", "--exclude-standard", "--", "src"):
        if f in files:
            out[f] = set(range(1, len((root / f).read_text().splitlines()) + 1))
    return {f: lines for f, lines in out.items() if lines and f in files}


def sites(source: str, lines: set[int]) -> list[tuple[int, int, str, str]]:
    """(line, column, old, new) of every mutant on ``lines``, in source
    order; ``not`` is deleted with the space after it, ``is`` gains a
    ``not`` and ``is not`` loses it.  A ``*`` or ``/`` right after ``(`` or
    ``,`` is a parameter marker or an unpacking star, not an operator, and
    is left alone."""
    found = []
    text_lines = source.splitlines()
    tokens = list(tokenize.generate_tokens(io.StringIO(source).readline))
    for n in range(1, len(tokens) - 1):
        prev, tok, nxt = tokens[n - 1 : n + 2]
        (row, col), text = tok.start, tok.string
        if row not in lines or tok.type not in (tokenize.OP, tokenize.NAME):
            continue
        line = text_lines[row - 1]
        if text in ("*", "/") and prev.string in ("(", ","):
            continue  # a keyword-only or positional-only marker, or an unpacking star
        if text in SWAPS:
            found.append((row, col, text, SWAPS[text]))
        elif text == "is" and nxt.string == "not":
            found.append((row, col, line[col : nxt.end[1]], "is"))
        elif text == "is":
            found.append((row, col, "is", "is not"))
        elif text == "not" and prev.string != "is" and nxt.start[0] == row:
            found.append((row, col, line[col : nxt.start[1]], ""))
    return found


def site_keys(f: str, source: str, found: list[tuple[int, int, str, str]]) -> list[tuple[str, str, str, str, int]]:
    """(file, stripped line, old, new, occurrence) of each of ``found``, the
    sites of ``source``: the identity an equivalent mutant is listed under.
    The occurrence counts the sites with the same old text on the line,
    from 1, so it holds while the line's text does."""
    text_lines = source.splitlines()
    seen: dict[tuple[int, str], int] = {}
    keys = []
    for row, _, old, new in found:
        seen[row, old] = seen.get((row, old), 0) + 1
        keys.append((f, text_lines[row - 1].strip(), old, new, seen[row, old]))
    return keys


def load_equivalents(path: Path = EQUIVALENTS) -> dict[tuple[str, str, str, str, int], str]:
    """{site key: reason} of the listed equivalent mutants."""
    return {
        (e["file"], e["line"], e["old"], e["new"], e["occurrence"]): e["reason"]
        for e in json.loads(path.read_text())
    }


def stale(root: Path, equivalents: dict) -> list[tuple[str, str, str, str, int]]:
    """The listed keys that name no mutant of their file under ``root``: a
    line that changed, moved to another file or lost its operator."""
    found = set()
    for f in {key[0] for key in equivalents}:
        path = root / f
        if path.is_file():
            source = path.read_text()
            found.update(site_keys(f, source, sites(source, set(range(1, source.count("\n") + 2)))))
    return [key for key in equivalents if key not in found]


def verdict(outcome: str, key: tuple[str, str, str, str, int], equivalents: dict) -> str:
    """EQUIVALENT for a listed survivor, else the run's outcome."""
    return "EQUIVALENT" if outcome == "SURVIVED" and key in equivalents else outcome


def mutate(source: str, row: int, col: int, old: str, new: str) -> str:
    lines = source.splitlines(keepends=True)
    line = lines[row - 1]
    assert line[col:col + len(old)] == old, (row, col, old)
    lines[row - 1] = line[:col] + new + line[col + len(old):]
    return "".join(lines)


def run(cmd: list[str], cwd: Path, timeout: float | None) -> str:
    """KILLED, SURVIVED or TIMEOUT for ``cmd`` in ``cwd``, with no limit
    when ``timeout`` is None; a timed-out run is killed with its whole
    process group."""
    env = dict(os.environ, PYTHONPATH=str(cwd / "src"), PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.Popen(
        cmd, cwd=cwd, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL, start_new_session=True
    )
    try:
        return "SURVIVED" if proc.wait(timeout=timeout) == 0 else "KILLED"
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        return "TIMEOUT"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", default="HEAD~1", help="revision the changed lines are taken against")
    parser.add_argument("--all", action="store_true", help="mutate every line, not only the changed ones")
    args = parser.parse_args(argv)

    root = Path(git(Path.cwd(), "rev-parse", "--show-toplevel").strip())
    targets = changed_lines(root, args.base, args.all)
    equivalents = load_equivalents()
    for f, line, old, new, n in stale(root, equivalents):
        print(f"STALE      {f}: {line!r} has no {old!r} -> {new!r} number {n}; re-justify or drop it", flush=True)
    plan = []
    for f in sorted(targets):
        source = (root / f).read_text()
        found = sites(source, targets[f])
        for (row, col, old, new), key in zip(found, site_keys(f, source, found)):
            mutant = mutate(source, row, col, old, new)
            try:
                compile(mutant, f, "exec")
            except SyntaxError:
                continue
            plan.append((f, row, col, old, new, mutant, key))
    cmd = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider"]
    tally = {"KILLED": 0, "SURVIVED": 0, "TIMEOUT": 0, "EQUIVALENT": 0}
    with tempfile.TemporaryDirectory(prefix="mutants-") as tmp:
        copy = Path(tmp)
        for f in tracked(root, "-co", "--exclude-standard"):
            (copy / f).parent.mkdir(parents=True, exist_ok=True)
            if (root / f).is_symlink():
                os.symlink(os.readlink(root / f), copy / f)
            elif (root / f).is_file():
                shutil.copy2(root / f, copy / f)
        began = time.monotonic()
        if run(cmd, copy, None) != "SURVIVED":
            print("the unmutated copy fails its tests; nothing to measure", file=sys.stderr)
            return 2
        limit = SLACK * (time.monotonic() - began) + FLOOR
        print(f"{len(plan)} mutants, {limit:.0f} s each at most", flush=True)
        for f, row, col, old, new, mutant, key in plan:
            original = (copy / f).read_text()
            (copy / f).write_text(mutant)
            began = time.monotonic()
            try:
                outcome = verdict(run(cmd, copy, limit), key, equivalents)
            finally:
                (copy / f).write_text(original)
            tally[outcome] += 1
            print(f"{outcome:10} {f}:{row}:{col + 1}  {old!r} -> {new!r}  ({time.monotonic() - began:.0f} s)", flush=True)
    print(
        f"{len(plan)} mutants: {tally['KILLED']} killed, {tally['TIMEOUT']} timed out, "
        f"{tally['EQUIVALENT']} equivalent, {tally['SURVIVED']} survived"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
