"""Count the settable surface of the `opentapioca_ray` package.

Prints five numbers, one per line:
  lines     total lines of the package's .py files
  defaults  parameters of `def` functions that have a default value
            (positional and keyword-only, found with `ast`)
  regime    parameters named `mode` or `concurrency` that have a default
            (caller-set regime switches, found with `ast`)
  cutoffs   parameters named `*_limit` or `*_threshold` that have a
            default (caller-set size cut-offs, found with `ast`)
  limits    lines that name a `_LIMIT =`, `_THRESHOLD =` or
            `local_threshold` (size constants and cut-offs)

Usage: python tools/count_knobs.py [package_dir]
"""

from __future__ import annotations

import ast
import re
import sys
from pathlib import Path

_REGIME = {"mode", "concurrency"}
_CUTOFF = ("_limit", "_threshold")
_LIMIT = re.compile(r"_LIMIT =|_THRESHOLD =|local_threshold")


def count(package: Path) -> dict[str, int]:
    out = {"lines": 0, "defaults": 0, "regime": 0, "cutoffs": 0, "limits": 0}
    for path in sorted(package.rglob("*.py")):
        text = path.read_text()
        lines = text.splitlines()
        out["lines"] += len(lines)
        out["limits"] += sum(1 for line in lines if _LIMIT.search(line))
        for node in ast.walk(ast.parse(text, filename=str(path))):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                args = node.args
                positional = args.posonlyargs + args.args
                defaulted = positional[len(positional) - len(args.defaults):]
                defaulted += [a for a, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None]
                out["defaults"] += len(defaulted)
                out["regime"] += sum(1 for a in defaulted if a.arg in _REGIME)
                out["cutoffs"] += sum(1 for a in defaulted if a.arg.endswith(_CUTOFF))
    return out


def main(argv: list[str]) -> int:
    package = Path(argv[0]) if argv else Path(__file__).resolve().parent.parent / "opentapioca_ray"
    for name, value in count(package).items():
        print(f"{name:<9}{value:>8,}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
