#!/usr/bin/env python3
"""Lints the production metric namespace (DESIGN.md §13.4).

src/obs/metric_names.h is the single registry of production metric names.
This script fails CI when that contract rots:

  1. Every name in metric_names.h matches jinfer_<subsystem>_<metric> —
     lowercase [a-z0-9_], at least three underscore-separated words, and
     the jinfer_ prefix.
  2. No two constants carry the same name string.
  3. The kind-suffix convention holds at every registration site: a
     constant passed to Registry::counter() or attached to an instance-
     owned obs::OwnedCounter ends in _total, one passed to histogram()
     ends in _nanos, and one passed to gauge() or attached to an
     obs::OwnedGauge ends in neither (gauges name the level they report).
     Kinds are inferred from usage under src/, so a constant registered as
     two different kinds is also caught (the registry aborts on that at
     runtime; this catches it in review).
  4. No '"jinfer_' string literal appears under src/ outside
     metric_names.h — a metric that is not registered there does not
     exist. bench/ and tests/ are exempt: scratch metrics in benchmarks
     and goldens in tests are not production names.
  5. Every constant in metric_names.h has a registration site under src/
     — a name whose last user was deleted is an orphan, not a metric.

Run from anywhere: paths resolve against the repo root. Exit code 1 lists
every violation with file:line.
"""

import pathlib
import re
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
NAMES_HEADER = ROOT / "src" / "obs" / "metric_names.h"

NAME_RE = re.compile(r"^jinfer_[a-z0-9]+(_[a-z0-9]+)+$")
# `inline constexpr char kFoo[] =` possibly wrapping to the next line
# before the string literal.
CONST_RE = re.compile(
    r"inline\s+constexpr\s+char\s+(k\w+)\[\]\s*=\s*\n?\s*\"([^\"]*)\"",
    re.MULTILINE)
# Registry lookups: `Registry::Global().counter(obs::kFoo)` (the obs::
# qualifier is dropped inside namespace obs).
USE_RE = re.compile(
    r"\b(counter|gauge|histogram)\(\s*(?:obs::)?(k[A-Z]\w*)\s*\)")
# Instance-owned cells: `obs::OwnedCounter lookups{obs::kFoo};`, the
# initializer possibly on the next line.
OWNED_RE = re.compile(
    r"\b(OwnedCounter|OwnedGauge)\s+\w+\s*[{(]\s*(?:obs::)?(k[A-Z]\w*)")
OWNED_KIND = {"OwnedCounter": "counter", "OwnedGauge": "gauge"}
LITERAL_RE = re.compile(r"\"jinfer_[^\"]*\"")

KIND_SUFFIX = {
    "counter": lambda n: n.endswith("_total"),
    "histogram": lambda n: n.endswith("_nanos"),
    "gauge": lambda n: not n.endswith(("_total", "_nanos")),
}
KIND_RULE = {
    "counter": "counters must end in _total",
    "histogram": "histograms must end in _nanos",
    "gauge": "gauges must not carry a _total/_nanos suffix",
}


def line_of(text, pos):
    return text.count("\n", 0, pos) + 1


def main():
    errors = []
    header_text = NAMES_HEADER.read_text()
    rel_header = NAMES_HEADER.relative_to(ROOT)

    constants = {}  # identifier -> name string
    seen_names = {}  # name string -> identifier
    for m in CONST_RE.finditer(header_text):
        ident, name = m.group(1), m.group(2)
        line = line_of(header_text, m.start())
        constants[ident] = name
        if not NAME_RE.match(name):
            errors.append(
                f"{rel_header}:{line}: {ident} = \"{name}\" does not match "
                "jinfer_<subsystem>_<metric> ([a-z0-9_], >= 3 words)")
        if name in seen_names:
            errors.append(
                f"{rel_header}:{line}: duplicate metric name \"{name}\" "
                f"({ident} and {seen_names[name]})")
        else:
            seen_names[name] = ident
    if not constants:
        errors.append(f"{rel_header}: found no metric name constants — "
                      "the extraction regex no longer matches the header")

    # Walk src/ once: collect registration kinds and stray literals.
    kinds = {}  # identifier -> {kind: first file:line}
    for path in sorted((ROOT / "src").rglob("*")):
        if path.suffix not in (".h", ".cc") or path == NAMES_HEADER:
            continue
        text = path.read_text()
        rel = path.relative_to(ROOT)
        sites = [(m.group(1), m.group(2), m.start())
                 for m in USE_RE.finditer(text)]
        sites += [(OWNED_KIND[m.group(1)], m.group(2), m.start())
                  for m in OWNED_RE.finditer(text)]
        for kind, ident, pos in sites:
            if ident not in constants:
                errors.append(
                    f"{rel}:{line_of(text, pos)}: obs::{ident} is "
                    f"registered as a {kind} but is not defined in "
                    f"{rel_header}")
                continue
            kinds.setdefault(ident, {}).setdefault(
                kind, f"{rel}:{line_of(text, pos)}")
        for m in LITERAL_RE.finditer(text):
            errors.append(
                f"{rel}:{line_of(text, m.start())}: metric name literal "
                f"{m.group(0)} outside {rel_header} — register it there "
                "and reference the constant")

    for ident, name in sorted(constants.items()):
        if ident not in kinds:
            errors.append(
                f"{rel_header}: {ident} = \"{name}\" has no registration "
                "site under src/ — delete it or register it")

    for ident, by_kind in sorted(kinds.items()):
        name = constants[ident]
        if len(by_kind) > 1:
            sites = ", ".join(f"{k} at {v}" for k, v in sorted(by_kind.items()))
            errors.append(
                f"{rel_header}: \"{name}\" is registered under multiple "
                f"kinds: {sites}")
        for kind, site in sorted(by_kind.items()):
            if not KIND_SUFFIX[kind](name):
                errors.append(
                    f"{site}: \"{name}\" is registered as a {kind}; "
                    f"{KIND_RULE[kind]}")

    if errors:
        print(f"{len(errors)} metric-name violation(s):\n", file=sys.stderr)
        for e in errors:
            print(f"  {e}", file=sys.stderr)
        return 1
    print(f"checked {len(constants)} metric names in {rel_header}: "
          f"{len(kinds)} registered under src/, all conforming")
    return 0


if __name__ == "__main__":
    sys.exit(main())
