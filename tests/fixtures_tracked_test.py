#!/usr/bin/env python3
"""Untracked-fixture guard.

A test that opens a file missing from version control passes in the tree
where the file was created and fails on every fresh clone. This check
lists the files the suite opens and fails when any of them is not in
`git ls-files`:

  - tests/golden/* and examples/netlists/*,
  - every path named in tests/CMakeLists.txt: sources in add_executable,
    ${CMAKE_CURRENT_SOURCE_DIR}/... and ${CMAKE_SOURCE_DIR}/... arguments,
    and add_subdirectory() directories (a directory stands for every file
    under it).

Outside a git checkout (a source tarball, or no git binary) there is no
index to compare against, so the script exits with ctest's skip code.

Usage: fixtures_tracked_test.py <repo_root>
"""

import os
import re
import subprocess
import sys

SKIP = 77  # SKIP_RETURN_CODE in tests/CMakeLists.txt


def tracked_files(root):
    try:
        p = subprocess.run(["git", "-C", root, "ls-files", "-z"],
                           capture_output=True, timeout=60)
    except (OSError, subprocess.TimeoutExpired):
        return None
    if p.returncode != 0:
        return None
    return {os.path.normpath(f) for f in p.stdout.decode().split("\0") if f}


def named_paths(root):
    """Repo-relative paths named in tests/CMakeLists.txt."""
    with open(os.path.join(root, "tests", "CMakeLists.txt")) as f:
        text = re.sub(r"#[^\n]*", "", f.read())
    paths = {"tests/CMakeLists.txt"}
    for rel in re.findall(r"\$\{CMAKE_CURRENT_SOURCE_DIR\}/([\w./-]+)", text):
        paths.add(os.path.join("tests", rel))
    for rel in re.findall(r"\$\{CMAKE_SOURCE_DIR\}/([\w./-]+)", text):
        paths.add(rel)
    for rel in re.findall(r"add_subdirectory\(\s*([\w./-]+)\s*\)", text):
        paths.add(os.path.join("tests", rel))
    for rel in re.findall(r"(?<![\w/$}.-])([\w-]+\.(?:cpp|hpp|py))\b", text):
        paths.add(os.path.join("tests", rel))
    return paths


def expand(root, rel):
    """Files under a repo-relative path (the path itself for a file)."""
    full = os.path.join(root, rel)
    if not os.path.isdir(full):
        return [os.path.normpath(rel)]
    out = []
    for d, dirs, files in os.walk(full):
        dirs[:] = [x for x in dirs if x != "__pycache__"]
        for name in files:
            out.append(os.path.relpath(os.path.join(d, name), root))
    return out


def main():
    root = os.path.abspath(sys.argv[1])
    tracked = tracked_files(root)
    if tracked is None:
        print("skip: not a git checkout")
        return SKIP

    fixtures = set()
    for rel in named_paths(root) | {"tests/golden", "examples/netlists"}:
        fixtures.update(expand(root, rel))

    missing = sorted(f for f in fixtures
                     if not os.path.exists(os.path.join(root, f)))
    untracked = sorted(f for f in fixtures
                       if f not in tracked and f not in missing)
    for f in missing:
        print(f"FAIL {f}: named by the suite but does not exist")
    for f in untracked:
        print(f"FAIL {f}: opened by the suite but not in git ls-files")
    if missing or untracked:
        return 1
    print(f"ok   {len(fixtures)} fixture files, all tracked")
    return 0


if __name__ == "__main__":
    sys.exit(main())
