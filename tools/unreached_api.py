#!/usr/bin/env python3
"""Fails when a library function is linked into no shipped executable.

Build the tree with section garbage collection and without the exported
dynamic symbol table, so that each executable keeps only the functions it
reaches:

    cmake -B build-gc -S . -DCMAKE_BUILD_TYPE=None -DROPUS_BUILD_TESTS=OFF \
      -DCMAKE_CXX_FLAGS="-O0 -ffunction-sections" \
      -DCMAKE_EXE_LINKER_FLAGS="-Wl,--gc-sections" \
      -DCMAKE_CXX_STANDARD_LIBRARIES="-Wl,--no-export-dynamic"
    cmake --build build-gc -j
    # perfbench/ the same way, into build-gc-perfbench

    python3 tools/unreached_api.py build-gc build-gc-perfbench

The library functions are the strong text symbols (`nm` type T) of the
`libropus_*.a` archives under the first directory's `src/`. The executables
are every ELF executable under the given directories, outside `CMakeFiles/`.
A function counts as reached when any executable defines a symbol of the
same demangled name.

Exit 1 when a library function is unreached and not on the allowlist, when
an allowlist entry names no library function, or when an allowlisted
function is reached after all (its entry is then no longer needed). Each
allowlist line reads `<kind> <demangled signature> -- <why>`, where kind is
`seam` (a test reaches shipped behaviour through it), `oracle` (a test checks
a shipped path against it) or `golden` (a golden fixture pins its output).
"""
import argparse
import os
import subprocess
import sys

KINDS = ("seam", "oracle", "golden")


def text_symbols(path):
    out = subprocess.run(["nm", "-C", "--defined-only", path],
                         capture_output=True, text=True, check=True).stdout
    names = set()
    for line in out.splitlines():
        parts = line.split(" ", 2)
        if len(parts) == 3 and parts[1] == "T":
            names.add(parts[2])
    return names


def is_elf_executable(path):
    if not os.access(path, os.X_OK) or not os.path.isfile(path):
        return False
    with open(path, "rb") as f:
        return f.read(4) == b"\x7fELF"


def find(root, accept):
    for dirpath, dirnames, filenames in os.walk(root):
        dirnames[:] = sorted(d for d in dirnames if d != "CMakeFiles")
        for name in sorted(filenames):
            path = os.path.join(dirpath, name)
            if accept(name, path):
                yield path


def read_allowlist(path):
    entries = {}
    problems = []
    with open(path) as f:
        for number, raw in enumerate(f, 1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            kind, _, rest = line.partition(" ")
            symbol, _, why = rest.partition(" -- ")
            symbol = symbol.strip()
            if kind not in KINDS or not symbol or not why.strip():
                problems.append(f"{path}:{number}: expected "
                                f"'<{'|'.join(KINDS)}> <symbol> -- <why>'")
                continue
            entries[symbol] = kind
    return entries, problems


def main():
    here = os.path.dirname(os.path.abspath(__file__))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("builds", nargs="+",
                        help="build directories; libraries come from the "
                             "first one's src/")
    parser.add_argument("--allowlist",
                        default=os.path.join(here, "unreached_api_allowlist.txt"))
    args = parser.parse_args()

    libraries = list(find(os.path.join(args.builds[0], "src"),
                          lambda name, _: name.startswith("libropus_")
                          and name.endswith(".a")))
    executables = [path for root in args.builds
                   for path in find(root, lambda _, p: is_elf_executable(p))]
    if not libraries or not executables:
        print("unreached_api: no libropus_*.a or no executables found",
              file=sys.stderr)
        return 1

    defined = set()
    for lib in libraries:
        defined |= text_symbols(lib)
    reached = set()
    for exe in executables:
        reached |= text_symbols(exe)
    unreached = defined - reached

    allowed, problems = read_allowlist(args.allowlist)
    for symbol in sorted(unreached - allowed.keys()):
        problems.append(f"unreached and not allowlisted: {symbol}")
    for symbol in sorted(allowed.keys() - defined):
        problems.append(f"allowlisted but not a library function: {symbol}")
    for symbol in sorted(allowed.keys() & reached):
        problems.append(f"allowlisted but reached: {symbol}")

    print(f"unreached_api: {len(defined)} library functions in "
          f"{len(libraries)} archives, {len(unreached)} reached by none of "
          f"{len(executables)} executables, {len(allowed)} allowlisted")
    for problem in problems:
        print(problem)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
