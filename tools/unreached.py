"""Functions of the `sfrac` package that no case of artifact_digests.py enters.

Runs every case of `tools/artifact_digests.py` in-process under a profiler
hook (`sys.setprofile`, and `threading.setprofile` for worker threads) and
records each function entered.  It then prints one `module line name lines`
line for every function or method defined in the package that no case
entered, with `lines` counted from its `def` (or first decorator) to its
last line, docstring included, and last the total of those lines.  A
function nested in an unreached one counts within it and is not listed:

    python tools/unreached.py
    python tools/unreached.py --src OTHER_TREE/src

`--src` names the directory that holds the `sfrac` package (default: the
`src` beside this file's parent).
"""

from __future__ import annotations

import argparse
import ast
import contextlib
import io
import os
import sys
import threading

import artifact_digests


def _unreached(path: str, entered: set):
    """(start line, qualified name, lines) of every function in `path` that
    is not in `entered` and not nested in a function that is not either."""
    with open(path) as fh:
        tree = ast.parse(fh.read(), path)
    out = []

    def walk(node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                # a code object starts at its first decorator
                start = min([d.lineno for d in child.decorator_list]
                            + [child.lineno])
                name = prefix + child.name
                if (path, start) in entered:
                    walk(child, name + ".")
                else:
                    out.append((start, name, child.end_lineno - start + 1))
            elif isinstance(child, ast.ClassDef):
                walk(child, prefix + child.name + ".")
            else:
                walk(child, prefix)

    walk(tree, "")
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--src", default=os.path.join(artifact_digests.ROOT,
                                                      "src"),
                        help="directory holding the sfrac package")
    args = parser.parse_args(argv)
    package = os.path.realpath(os.path.join(args.src, "sfrac"))

    entered = set()

    def hook(frame, event, arg):
        if event == "call":
            code = frame.f_code
            entered.add((code.co_filename, code.co_firstlineno))

    sys.setprofile(hook)
    threading.setprofile(hook)
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            artifact_digests.main(["--src", args.src])
    finally:
        threading.setprofile(None)
        sys.setprofile(None)

    import sfrac
    # code objects carry the path the package was imported under
    loaded = os.path.dirname(sfrac.__file__)
    if os.path.realpath(loaded) != package:
        raise SystemExit(f"sfrac was imported from {loaded}, not {package}")
    total = 0
    for fname in sorted(os.listdir(loaded)):
        if not fname.endswith(".py"):
            continue
        module = "sfrac." + fname[:-3]
        for start, name, lines in _unreached(os.path.join(loaded, fname),
                                             entered):
            print(f"{module} {start} {name} {lines}")
            total += lines
    print(f"total {total}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
