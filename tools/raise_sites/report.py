"""Count the raise statements of src/survnet reached by a traced run.

    mkdir -p /tmp/trace
    SURVNET_RAISE_TRACE=/tmp/trace PYTHONPATH=tools/raise_sites:src python -m pytest -q
    python tools/raise_sites/report.py /tmp/trace

prints ``N of M raise sites reached``, then each raise statement not reached
as ``path:line``. The sites are the ``raise`` statements of
src/survnet/*.py, as the CI step that counts them finds them; a site is
reached when its first line ran (see sitecustomize.py).
"""

import ast
import glob
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


def raise_sites():
    """(module file name, line) of every raise statement in src/survnet."""
    sites = set()
    for path in sorted(glob.glob(os.path.join(ROOT, "src", "survnet", "*.py"))):
        with open(path) as fh:
            tree = ast.parse(fh.read())
        sites |= {(os.path.basename(path), node.lineno)
                  for node in ast.walk(tree) if isinstance(node, ast.Raise)}
    return sites


def hits(trace_dir):
    """(module file name, line) of every line a traced process ran in survnet."""
    found = set()
    for name in os.listdir(trace_dir):
        with open(os.path.join(trace_dir, name)) as fh:
            for entry in fh.read().splitlines():
                path, line = entry.rsplit(":", 1)
                found.add((os.path.basename(path), int(line)))
    return found


def main(argv):
    if len(argv) != 2:
        print(f"usage: python {argv[0]} TRACE_DIR", file=sys.stderr)
        return 2
    sites = raise_sites()
    reached = sites & hits(argv[1])
    print(f"{len(reached)} of {len(sites)} raise sites reached")
    for name, line in sorted(sites - reached):
        print(f"  not reached: src/survnet/{name}:{line}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
