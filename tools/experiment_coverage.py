#!/usr/bin/env python3
"""Union the gcov line and function coverage of several --coverage build trees.

Used by the "Code no experiment runs" recipe in DESIGN.md: build the root
project and chasebench/ with `-O0 --coverage`, run the experiments, then

    python3 tools/experiment_coverage.py --src src BUILD_DIR [BUILD_DIR ...]

prints the executed/executable line totals over src/**/*.cpp and one line per
src/ function no run reached. A line or function counts as reached if any
build tree's counters reached it, so the root benches and chasebench's own
copy of the libraries add up.
"""

import argparse
import json
import os
import subprocess
import sys
from collections import defaultdict


def gcov_records(build_dir):
    """Yield gcov's JSON record of every object compiled under build_dir.

    Walks the .gcno notes, not the .gcda counters: an object that no run
    executed has no .gcda, and gcov then reports all of its lines and
    functions as not executed, which is what the table has to show.
    """
    # gcov runs inside each object directory, so the walk must yield
    # absolute paths or a relative build_dir would not resolve there.
    for root, _, files in os.walk(os.path.abspath(build_dir)):
        for name in sorted(files):
            if not name.endswith(".gcno"):
                continue
            out = subprocess.run(
                ["gcov", "--json-format", "--stdout", os.path.join(root, name)],
                cwd=root, capture_output=True, text=True, check=True).stdout
            for line in out.splitlines():
                if line.strip():
                    yield json.loads(line)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", required=True, help="the repository's src/ directory")
    parser.add_argument("builds", nargs="+", help="--coverage build trees")
    args = parser.parse_args()
    src = os.path.realpath(args.src)

    # file -> line -> reached?; file -> (start, end, name) -> reached?
    lines = defaultdict(dict)
    functions = defaultdict(dict)
    for build in args.builds:
        for record in gcov_records(build):
            for entry in record["files"]:
                path = os.path.realpath(os.path.join(record["current_working_directory"],
                                                     entry["file"]))
                if not path.startswith(src + os.sep) or not path.endswith(".cpp"):
                    continue
                rel = os.path.relpath(path, os.path.dirname(src))
                for line in entry["lines"]:
                    n = line["line_number"]
                    lines[rel][n] = lines[rel].get(n, False) or line["count"] > 0
                for fn in entry["functions"]:
                    # Coroutine ramp/actor/destroy clones share one source
                    # range; key on the range so they merge.
                    key = (fn["start_line"], fn["end_line"])
                    name = fn["demangled_name"].split(" [clone")[0]
                    reached = fn["execution_count"] > 0
                    old = functions[rel].get(key)
                    functions[rel][key] = (old[0] if old else name,
                                           (old[1] if old else False) or reached)

    executable = sum(len(v) for v in lines.values())
    executed = sum(sum(v.values()) for v in lines.values())
    print(f"src/*.cpp lines executed: {executed} of {executable}"
          f" ({100.0 * executed / max(executable, 1):.1f}%)")
    unreached = [(rel, key, name) for rel, fns in sorted(functions.items())
                 for key, (name, reached) in sorted(fns.items()) if not reached]
    print(f"unreached functions: {len(unreached)}")
    for rel, (start, _), name in unreached:
        print(f"{rel}:{start}\t{name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
