#!/usr/bin/env python3
"""Fails when a library header has no caller outside the tests.

src/ is the product: a header under src/ earns its place only if code
outside tests/ includes it. This script lists every src/**/*.h that no
tracked source file in src/, bench/, examples/ or perfbench/ #includes,
not counting the header's own .cc. Such a header serves only the tests:
move it to the jinfer_testing library (tests/testing/) if a test compares
against it, or delete it.

Includes are matched by their spelling, which in this tree is always the
path relative to src/ ("core/oracle.h").

Run from anywhere: paths resolve against the repo root. Exit code 1 lists
every uncalled header.
"""

import pathlib
import re
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent

CALLER_DIRS = ("src", "bench", "examples", "perfbench")
SOURCE_SUFFIXES = {".h", ".cc", ".cpp"}
INCLUDE = re.compile(r'^\s*#\s*include\s+"([^"]+)"', re.MULTILINE)


def tracked_sources():
    out = subprocess.run(["git", "ls-files", *CALLER_DIRS], cwd=ROOT,
                         check=True, capture_output=True, text=True).stdout
    for line in out.splitlines():
        path = pathlib.PurePosixPath(line)
        if path.suffix in SOURCE_SUFFIXES:
            yield path


def main() -> int:
    sources = list(tracked_sources())
    headers = [p.relative_to("src") for p in sources
               if p.parts[0] == "src" and p.suffix == ".h"]
    includers = {}  # src-relative header spelling -> including files
    for path in sources:
        text = (ROOT / path).read_text(encoding="utf-8")
        for spelling in INCLUDE.findall(text):
            includers.setdefault(spelling, set()).add(path)

    uncalled = []
    for header in headers:
        own = {pathlib.PurePosixPath("src") / header,
               pathlib.PurePosixPath("src") / header.with_suffix(".cc")}
        if not includers.get(str(header), set()) - own:
            uncalled.append(header)

    for header in uncalled:
        print(f"src/{header}: included by nothing outside tests/ but its "
              "own .cc")
    if uncalled:
        print(f"{len(uncalled)} library header(s) without a caller; move "
              "test oracles to tests/testing/, delete dead code",
              file=sys.stderr)
        return 1
    print(f"ok: every one of {len(headers)} library headers has a caller")
    return 0


if __name__ == "__main__":
    sys.exit(main())
