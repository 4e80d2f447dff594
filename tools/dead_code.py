#!/usr/bin/env python3
"""Dead-code census for the rfic library.

Lists every out-of-line function of the project's static library that no
program links, and fails on any such function missing from a checked-in
allowlist. A path with no user gets deleted; the allowlist names the few
functions that stay although no program calls them, each with a reason.

How it works:
  1. Configure the source tree at -O0 -g1 -ffunction-sections (nothing is
     inlined, every function gets its own section) and build the library
     plus every executable that links it, except those defined under a
     `tests` directory.
  2. Relink each of those programs with the whole library archive forced
     in (-Wl,--whole-archive) and section garbage collection on
     (-Wl,--gc-sections), so a program keeps exactly the functions it can
     reach from its entry point, static initializers and vtables.
  3. Read every text symbol of the library and of each relinked program
     with `nm -l`. A symbol's source location is the line where its
     definition starts, so all instantiations of a template, and the
     constructor/destructor variants, share one location: that is one
     source-level declaration. A declaration is dead when no program keeps
     a copy of any symbol at its location. Findings are limited to the
     library's source directory (standard-library instantiations are not
     the project's code); lambdas are folded into the function defining
     them.
  4. Two more relinks, rooted with -Wl,--undefined, find the findings that
     need no entry: what an unused instantiation of a live template calls
     (a template is dead only when every instantiation is), and what an
     allowlisted function calls.

Known limits: a header-inline function that nothing odr-uses is never
emitted, and a virtual override is kept alive by its vtable, so the census
sees neither kind.

Allowlist: one entry per line, `name | category | reason`, where name is
the qualified function name as reported (no template arguments, no
parameters) and category is one of
  paper-api  API the paper specifies that no program reproduces a number
             with yet; tests pin it.
  test-hook  a function a test calls to drive or observe other, live
             behaviour.
An entry that matches no finding is stale (the function now links, no
longer exists, or is reached from live code) and fails the check, as does
an entry without a category or a reason. Blank lines and `#` comments are
ignored.

Usage: dead_code.py [--source DIR] [--build-dir DIR] [--allowlist FILE]
                    [--jobs N]
  exit 0 = every finding allowlisted or kept (step 4), no stale or
           malformed entry,
  1 = check failed, 2 = the build or a tool failed.
"""

import argparse
import json
import os
import re
import shlex
import shutil
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
CATEGORIES = ("paper-api", "test-hook")
CENSUS_FLAGS = "-O0 -g1 -ffunction-sections"
TEXT_TYPES = set("TtWw")
# `addr type name<TAB>file:line` as printed by `nm -l`.
NM_LINE_RE = re.compile(r"^[0-9a-fA-F]+ ([A-Za-z]) (.*?)\t(.*):(\d+)$")


class ToolError(Exception):
    pass


def run(cmd, cwd=None, stdin=None):
    proc = subprocess.run(cmd, cwd=cwd, input=stdin, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True)
    if proc.returncode != 0:
        raise ToolError(f"`{' '.join(map(str, cmd))}` failed "
                        f"(exit {proc.returncode}):\n{proc.stdout}"
                        f"{proc.stderr}")
    return proc.stdout


def parse_allowlist(path):
    """Return ({name: (lineno, category)}, [errors])."""
    entries, errors = {}, []
    for lineno, raw in enumerate(Path(path).read_text().splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        fields = [f.strip() for f in line.split("|", 2)]
        where = f"{display_path(Path(path).resolve())}:{lineno}"
        if len(fields) != 3 or not all(fields):
            errors.append(f"{where}: malformed entry `{line}`: want "
                          "`name | category | reason`, all three non-empty")
            continue
        name, category, _ = fields
        if category not in CATEGORIES:
            errors.append(f"{where}: {name}: unknown category `{category}` "
                          f"(one of {', '.join(CATEGORIES)})")
        elif name in entries:
            errors.append(f"{where}: {name}: duplicate entry (first at line "
                          f"{entries[name][0]})")
        else:
            entries[name] = (lineno, category)
    return entries, errors


ANON = "(anonymous namespace)"
OPERATOR_RE = re.compile(r"operator(?:\(\)|\[\]|[-+*/%^&|~!=<>,]+)")


def declaration_name(demangled):
    """Qualified function name without return type, template arguments or
    parameters: `R ns::f<int>(int) const` -> `ns::f`."""
    s = demangled.replace(ANON, "@anon@")
    out, depth, i = [], 0, 0
    while i < len(s):
        op = OPERATOR_RE.match(s, i) if depth == 0 else None
        if op and (i == 0 or not (s[i - 1].isalnum() or s[i - 1] == "_")):
            out.append(op.group(0))
            i = op.end()
            continue
        ch = s[i]
        if ch == "<":
            depth += 1
        elif ch == ">":
            depth = max(0, depth - 1)
        elif ch == "(" and depth == 0:
            break
        elif depth == 0:
            out.append(ch)
        i += 1
    return "".join(out).split(" ")[-1].replace("@anon@", ANON)


def configure_and_build(source, build, jobs):
    query = build / ".cmake" / "api" / "v1" / "query"
    query.mkdir(parents=True, exist_ok=True)
    (query / "codemodel-v2").touch()
    cmake = shutil.which("cmake") or "cmake"
    run([cmake, "-S", str(source), "-B", str(build), "-G", "Unix Makefiles",
         "-DCMAKE_BUILD_TYPE=None", f"-DCMAKE_CXX_FLAGS={CENSUS_FLAGS}"])

    reply = build / ".cmake" / "api" / "v1" / "reply"
    index = json.loads(sorted(reply.glob("index-*.json"))[-1].read_text())
    codemodel_file = next(o["jsonFile"] for o in index["objects"]
                          if o["kind"] == "codemodel")
    codemodel = json.loads((reply / codemodel_file).read_text())
    targets = [json.loads((reply / t["jsonFile"]).read_text())
               for t in codemodel["configurations"][0]["targets"]]

    # Target paths are relative to the top-level trees unless outside them.
    top = Path(codemodel["paths"]["source"])
    for t in targets:
        t["source_dir"] = os.path.normpath(top / t["paths"]["source"])
        t["build_dir"] = build / t["paths"]["build"]
        if t.get("artifacts"):
            t["artifact"] = build / t["artifacts"][0]["path"]

    libraries = [t for t in targets if t["type"] == "STATIC_LIBRARY"]
    if len(libraries) != 1:
        raise ToolError("expected exactly one static library target, found "
                        f"{[t['name'] for t in libraries]}")
    library = libraries[0]
    # Tests are not roots: a program defined under a `tests` directory of
    # the project (the library's parent directory) does not count.
    project = os.path.dirname(library["source_dir"])
    programs = [
        t for t in targets
        if t["type"] == "EXECUTABLE"
        and "tests" not in Path(os.path.relpath(t["source_dir"],
                                                project)).parts
        and any(d["id"] == library["id"] for d in t.get("dependencies", []))
    ]
    if not programs:
        raise ToolError(f"no executable links {library['name']}")
    run([cmake, "--build", str(build), f"-j{jobs}", "--target",
         library["name"], *[t["name"] for t in programs]])
    return library, programs


def relink(library, program, out, roots=()):
    """Relink `program` to `out` with the whole library forced in and
    gc-sections on; `roots` are extra symbols kept as if a caller used
    them (-Wl,--undefined, passed through a response file)."""
    tdir = program["build_dir"]
    link_txt = tdir / "CMakeFiles" / f"{program['name']}.dir" / "link.txt"
    archive = library["artifact"].name
    cmd, forced = [], False
    args = iter(shlex.split(link_txt.read_text().strip().splitlines()[0]))
    for arg in args:
        if arg == "-o":
            next(args)
            cmd += ["-o", str(out)]
        elif Path(arg).name == archive:
            cmd += ["-Wl,--whole-archive", arg, "-Wl,--no-whole-archive"]
            forced = True
        else:
            cmd.append(arg)
    if not forced:
        raise ToolError(f"{link_txt}: {archive} not on the link line")
    if roots:
        rsp = out.with_suffix(".rsp")
        rsp.write_text("".join(f"-Wl,--undefined={r}\n" for r in roots))
        cmd.append(f"@{rsp}")
    run(cmd + ["-Wl,--gc-sections"], cwd=tdir)
    return out


def text_symbols(binary):
    """Yield (type, mangled name, (file, line)) per defined text symbol."""
    for line in run(["nm", "--defined-only", "-l", str(binary)]).splitlines():
        m = NM_LINE_RE.match(line)
        if m and m.group(1) in TEXT_TYPES:
            yield (m.group(1), m.group(2),
                   (os.path.normpath(m.group(3)), int(m.group(4))))


def linked_locations(binary):
    return {loc for _, _, loc in text_symbols(binary)}


class Census:
    """Which of the library's declarations the programs link."""

    def __init__(self, source, build, jobs):
        self.library, programs = configure_and_build(source, build, jobs)
        self.programs = [t["name"] for t in programs]
        self.outdir = build / "census"
        self.outdir.mkdir(exist_ok=True)
        lib_dir = self.library["source_dir"] + os.sep

        symbols = [(typ, mangled, loc) for typ, mangled, loc
                   in text_symbols(self.library["artifact"])
                   if loc[0].startswith(lib_dir)]
        mangled = sorted({m for _, m, _ in symbols})
        demangled = dict(zip(mangled, run(["c++filt"],
                                          stdin="\n".join(mangled))
                             .splitlines()))
        self.declarations = {}  # loc -> declaration name
        self.globals_at = {}    # loc -> global symbols (linker roots)
        for typ, sym, loc in symbols:
            name = demangled[sym]
            if "{lambda" in name:  # dies with the function defining it
                continue
            decl = declaration_name(name)
            if loc not in self.declarations or decl < self.declarations[loc]:
                self.declarations[loc] = decl
            if typ.isupper():
                self.globals_at.setdefault(loc, set()).add(sym)

        kept = set()
        with ThreadPoolExecutor(max_workers=jobs) as pool:
            for locs in pool.map(
                    lambda t: linked_locations(
                        relink(self.library, t, self.outdir / t["name"])),
                    programs):
                kept |= locs
        self.live = set(self.declarations) & kept
        self.dead = {loc: name for loc, name in self.declarations.items()
                     if loc not in kept}
        self._root_program = programs[0]

    def reached_from(self, locs, tag):
        """Dead locations some symbol at `locs` reaches."""
        roots = sorted(r for loc in locs for r in self.globals_at.get(loc, ()))
        if not roots:
            return set()
        out = relink(self.library, self._root_program,
                     self.outdir / f"roots-{tag}", roots)
        return linked_locations(out) & set(self.dead)


def display_path(file):
    try:
        return str(Path(file).relative_to(REPO))
    except ValueError:
        return str(file)


def main(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--source", type=Path, default=REPO / "perfbench",
                    help="CMake source tree whose programs are the roots "
                         "(default: perfbench, which adds the repository "
                         "and the traced job runner)")
    ap.add_argument("--build-dir", type=Path, default=REPO / "build-dead-code")
    ap.add_argument("--allowlist", type=Path,
                    default=REPO / "tools" / "dead_code_allowlist.txt")
    ap.add_argument("--jobs", type=int, default=os.cpu_count() or 1)
    args = ap.parse_args(argv)

    allow, errors = parse_allowlist(args.allowlist)
    if errors:
        for e in errors:
            print(f"dead_code: {e}")
        return 1
    try:
        c = Census(args.source.resolve(), args.build_dir.resolve(),
                   max(1, args.jobs))
        # A template is dead only when every instantiation is: what an
        # unused instantiation of a live template calls stays. So does
        # what an allowlisted function calls.
        via_live = c.reached_from(c.live, "live")
        allowed = {loc for loc, name in c.dead.items() if name in allow}
        via_allowed = c.reached_from(allowed, "allowlisted") - via_live - allowed
    except ToolError as e:
        print(f"dead_code: {e}", file=sys.stderr)
        return 2

    print(f"dead_code: {len(c.dead)} functions that none of "
          f"{len(c.programs)} programs links")
    failed = 0
    needed = set()
    for loc, name in sorted(c.dead.items(), key=lambda kv: (kv[1], kv[0])):
        if loc in via_live:
            tag = "kept: reached from an unused instantiation of a live template"
        elif name in allow:
            tag = f"allowlisted ({allow[name][1]})"
            needed.add(name)
        elif loc in via_allowed:
            tag = "kept: reached from an allowlisted function"
        else:
            tag = "DEAD: delete it or allowlist it with a reason"
            failed += 1
        print(f"{display_path(loc[0])}:{loc[1]}: {name}: {tag}")
    declared = set(c.declarations.values())
    for name, (lineno, _) in sorted(allow.items(), key=lambda kv: kv[1]):
        if name in needed:
            continue
        if name in c.dead.values():
            why = "is reached from live code"
        elif name in declared:
            why = "now links"
        else:
            why = "no longer exists"
        print(f"{display_path(args.allowlist.resolve())}:{lineno}: {name}: "
              f"stale entry: it {why}")
        failed += 1
    print(f"dead_code: {len(c.dead)} findings: {len(allowed - via_live)} "
          f"allowlisted, {len(via_allowed)} reached from allowlisted "
          f"functions, {len(via_live)} from live templates; {failed} failures")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
