#!/usr/bin/env python3
"""Check that every documented lamsdlc_cli / lamsdlcd command line parses.

Collects each command line from the fenced code blocks of README.md and
docs/*.md, appends `--help` (which makes any command parse-only: the flag
parser checks every flag before it, then prints the flag table and exits 0),
and runs it.  A documented flag that was renamed, removed or given an
operand the tool now rejects fails the check.

What counts as a command line:
  - in a block that uses a `$ ` prompt (a pasted transcript), only the
    prompted lines; the rest is program output;
  - blocks drawn with box-drawing characters are diagrams and are skipped;
  - lines elided with `...` or `…` are skipped.
A trailing backslash joins the next line.  `# comments`, pipes, `&&`
chains, redirections and a trailing `&` are dropped, as are a leading `$ `
and `./build/tools/`.  Placeholders such as STPORT or BPORT become a port
number.

Usage: scripts/check_doc_commands.py BIN_DIR   (run from the source root)
"""

import glob
import re
import shlex
import subprocess
import sys

TOOLS = ("lamsdlc_cli", "lamsdlcd")
FENCE = re.compile(r"^\s*```")
BOX = re.compile("[─-╿]")
PLACEHOLDER = re.compile(r"\b[A-Z]*PORT\b")


def code_blocks(path):
    """Yield lists of (line_number, text) for each fenced code block."""
    block = None
    with open(path, encoding="utf-8") as f:
        for n, line in enumerate(f, 1):
            if FENCE.match(line):
                if block is None:
                    block = []
                else:
                    yield block
                    block = None
            elif block is not None:
                block.append((n, line.rstrip("\n")))


def logical_lines(block):
    """Join backslash continuations; yield (line_number, text)."""
    start, parts = None, []
    for n, text in block:
        if start is None:
            start = n
        if text.rstrip().endswith("\\"):
            parts.append(text.rstrip()[:-1])
            continue
        parts.append(text)
        yield start, " ".join(parts)
        start, parts = None, []
    if parts:
        yield start, " ".join(parts)


def command_argv(text):
    """The argv of a documented tool invocation in `text`, or None."""
    words = text.split()
    kept = []
    for i, w in enumerate(words):
        if w.startswith("#") or w in ("|", "&&", "&"):
            break
        if w in ("<", ">", ">>") or (i and words[i - 1] in ("<", ">", ">>")):
            continue
        kept.append(w)
    if not kept:
        return None
    kept[0] = kept[0].removeprefix("./build/tools/")
    if kept[0] not in TOOLS:
        return None
    return shlex.split(PLACEHOLDER.sub("4000", " ".join(kept)))


def main():
    if len(sys.argv) != 2:
        sys.exit(__doc__)
    bin_dir = sys.argv[1]
    checked = skipped = 0
    failures = []
    for path in ["README.md"] + sorted(glob.glob("docs/*.md")):
        for block in code_blocks(path):
            if any(BOX.search(text) for _, text in block):
                continue
            transcript = any(text.startswith("$ ") for _, text in block)
            for n, text in logical_lines(block):
                if transcript and not text.startswith("$ "):
                    continue
                argv = command_argv(text.removeprefix("$ ").strip())
                if argv is None:
                    continue
                body = text.split(" #")[0]
                if "..." in body or "…" in body:
                    skipped += 1
                    continue
                checked += 1
                run = [f"{bin_dir}/{argv[0]}"] + argv[1:] + ["--help"]
                try:
                    r = subprocess.run(run, capture_output=True, text=True,
                                       timeout=30)
                    ok, out = r.returncode == 0, r.stderr.strip()
                except subprocess.TimeoutExpired:
                    ok, out = False, "timed out"
                if not ok:
                    failures.append(f"{path}:{n}: {' '.join(argv)}\n  {out}")
    for f in failures:
        print(f"FAIL {f}")
    print(f"{checked} documented command lines checked, {len(failures)} "
          f"failed, {skipped} elided lines skipped")
    sys.exit(1 if failures or checked == 0 else 0)


if __name__ == "__main__":
    main()
