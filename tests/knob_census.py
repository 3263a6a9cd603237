#!/usr/bin/env python3
"""Knob census: every DICE_* runtime knob is one row of the table in
src/common/knobs.cpp, read only through that module, and README's
"Knobs" table lists the same rows.

    python3 tests/knob_census.py <source dir>

Fails (exit 1, one line per finding) when
  - a file under src/, bench/ or examples/ other than the knob module
    calls getenv on a DICE_* name, or on a name it computes;
  - a string literal under src/ or bench/ names a DICE_* variable that
    is not a table row;
  - README's "Knobs" table and the code table differ in names,
    defaults or order.
"""

import os
import re
import sys

KNOB_MODULE = os.path.join("src", "common", "knobs.cpp")
TABLE_ROW = re.compile(r'\{"(DICE_\w+)",\s*"([^"]*)",\s*KnobRule::\w+,')
README_ROW = re.compile(r"^\|\s*`(DICE_\w+)`\s*\|\s*([^|]*?)\s*\|")
# Comments, string literals, and character literals (not the digit
# separators of 40'000).
TOKEN = re.compile(r'//[^\n]*|/\*.*?\*/|"(?:[^"\\\n]|\\.)*"|'
                   r"(?<!\w)'(?:[^'\\\n]|\\.)*'", re.S)
GETENV = re.compile(r"\bgetenv\s*\(\s*([^)]*)\)")
DICE_NAME = re.compile(r"\bDICE_[A-Z0-9_]+")


def sources(root, dirs):
    for d in dirs:
        for base, _, files in os.walk(os.path.join(root, d)):
            for f in sorted(files):
                if f.endswith((".cpp", ".hpp")):
                    path = os.path.join(base, f)
                    yield os.path.relpath(path, root), open(path).read()


def split_code(text):
    """(code with comments blanked and literals kept, string literals)."""
    literals = []

    def keep(m):
        tok = m.group(0)
        if tok.startswith("//") or tok.startswith("/*"):
            return " " + "\n" * tok.count("\n")  # keep line numbers
        if tok.startswith('"'):
            literals.append(tok)
        return tok

    return TOKEN.sub(keep, text), literals


def code_table(root):
    text = open(os.path.join(root, KNOB_MODULE)).read()
    return TABLE_ROW.findall(text)


def readme_table(root):
    rows, in_section = [], False
    for line in open(os.path.join(root, "README.md")):
        if line.startswith("#"):
            in_section = line.strip("# \n") == "Knobs"
            continue
        m = README_ROW.match(line) if in_section else None
        if m:
            default = m.group(2)
            default = "" if default == "—" else default.strip("`")
            rows.append((m.group(1), default))
    return rows


def main():
    if len(sys.argv) != 2:
        sys.exit(__doc__)
    root = sys.argv[1]
    table = code_table(root)
    names = {name for name, _ in table}
    errors = []
    if not table:
        errors.append("%s: no knob table rows found" % KNOB_MODULE)

    for path, text in sources(root, ["src", "bench", "examples"]):
        code, literals = split_code(text)
        if path != KNOB_MODULE:
            for m in GETENV.finditer(code):
                arg = m.group(1).strip()
                if not arg.startswith('"') or arg.startswith('"DICE_'):
                    line = code.count("\n", 0, m.start()) + 1
                    errors.append("%s:%d: getenv(%s) outside the knob "
                                  "module" % (path, line, arg))
        if path.startswith("examples"):
            continue
        for lit in literals:
            for name in DICE_NAME.findall(lit):
                if name not in names:
                    errors.append("%s: %s is not a knob table name"
                                  % (path, name))

    readme = readme_table(root)
    for i in range(max(len(readme), len(table))):
        got = readme[i] if i < len(readme) else None
        want = table[i] if i < len(table) else None
        if got != want:
            errors.append("README Knobs row %d is %s; the code table "
                          "has %s" % (i + 1, got, want))
            break

    for e in errors:
        print("knob_census: " + e)
    if errors:
        sys.exit(1)
    print("knob_census: %d knobs, all declared once" % len(table))


if __name__ == "__main__":
    main()
