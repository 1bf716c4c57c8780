"""Record the lines of survnet that a Python process runs.

With this directory on PYTHONPATH and SURVNET_RAISE_TRACE naming a directory,
every Python process that starts, a test run and each command-line child it
spawns alike, notes each line it runs in a survnet module and writes those
lines to ``<pid>.txt`` in that directory when it exits. ``report.py`` beside
this file counts the raise statements among them. Without
SURVNET_RAISE_TRACE nothing is traced.

Only survnet frames get a local trace function, so code outside the package
costs one call per Python function call.
"""

import atexit
import os
import sys
import threading

_OUT_DIR = os.environ.get("SURVNET_RAISE_TRACE")
_PACKAGE = os.sep + "survnet" + os.sep
_hits = set()


def _local(frame, event, arg):
    if event == "line":
        _hits.add((frame.f_code.co_filename, frame.f_lineno))
    return _local


def _global(frame, event, arg):
    return _local if _PACKAGE in frame.f_code.co_filename else None


def _write():
    with open(os.path.join(_OUT_DIR, f"{os.getpid()}.txt"), "w") as fh:
        fh.writelines(f"{path}:{line}\n" for path, line in sorted(_hits))


if _OUT_DIR:
    sys.settrace(_global)
    threading.settrace(_global)
    atexit.register(_write)
