"""Count the settable surface of the `opentapioca_ray` package.

Prints four numbers, one per line:
  lines     total lines of the package's .py files
  defaults  parameters of `def` functions that have a default value
            (positional and keyword-only, found with `ast`)
  auto      `mode: str = "auto"` sites (caller-set regime switches)
  limits    lines that name a `_LIMIT =`, `_THRESHOLD =` or
            `local_threshold` (size constants and cut-offs)

Usage: python tools/count_knobs.py [package_dir]
"""

from __future__ import annotations

import ast
import re
import sys
from pathlib import Path

_AUTO = 'mode: str = "auto"'
_LIMIT = re.compile(r"_LIMIT =|_THRESHOLD =|local_threshold")


def count(package: Path) -> dict[str, int]:
    out = {"lines": 0, "defaults": 0, "auto": 0, "limits": 0}
    for path in sorted(package.rglob("*.py")):
        text = path.read_text()
        lines = text.splitlines()
        out["lines"] += len(lines)
        out["auto"] += text.count(_AUTO)
        out["limits"] += sum(1 for line in lines if _LIMIT.search(line))
        for node in ast.walk(ast.parse(text, filename=str(path))):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                args = node.args
                out["defaults"] += len(args.defaults)
                out["defaults"] += sum(1 for d in args.kw_defaults if d is not None)
    return out


def main(argv: list[str]) -> int:
    package = Path(argv[0]) if argv else Path(__file__).resolve().parent.parent / "opentapioca_ray"
    for name, value in count(package).items():
        print(f"{name:<9}{value:>8,}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
