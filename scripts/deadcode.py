#!/usr/bin/env python3
"""Lists evsys functions that no production target reaches.

The production targets are the `evsys` CLI, the `bench_*` programs, the
`examples/*` programs and the e2ebench driver. The scan builds all of them
(Release, tests off) with `-ffunction-sections -fdata-sections
-Wl,--gc-sections` into --build-dir, the e2ebench driver in
<build-dir>/e2ebench, and reports two kinds of function:

* Out-of-line functions: a text symbol of an `ev::` function that some
  `libev_*.a` archive defines but no production executable keeps, after
  `[clone .cold]`-style copies, thunks and lambdas are folded into the
  function they belong to. A function that its own translation unit calls
  may have been inlined there, so such a symbol is kept when its defining
  source names it outside a declaration or definition, unless every such
  reference sits in the body of a function that is itself reported.
* Header functions: a function declared in a module header whose name no
  production source (src, tools, bench, examples, e2ebench) uses outside a
  declaration or definition. Header inlines never reach `nm`, so only this
  scan sees them.

Each is reported as its qualified name without parameters (overloads share
one line). Names listed in scripts/deadcode_allow.txt, one per line followed
by the reason it stays, are suppressed; an allowlist line whose name is no
longer reported fails the scan, so a stale exemption cannot linger.

    python3 scripts/deadcode.py --build-dir build-deadcode
    python3 scripts/deadcode.py --self-test   # canned fixture, no build

Exit codes: 0 nothing to report, 1 unlisted functions or stale allowlist
lines, 2 usage or build error.
"""

from __future__ import annotations

import argparse
import os
import re
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
ALLOWLIST = REPO / "scripts" / "deadcode_allow.txt"
FIXTURE = REPO / "tests" / "data" / "deadcode"

PRODUCTION_DIRS = ("src", "tools", "bench", "examples", "e2ebench")
SOURCE_SUFFIXES = (".h", ".cpp")
SCAN_FLAGS = [
    "-DCMAKE_BUILD_TYPE=Release",
    "-DCMAKE_CXX_FLAGS=-ffunction-sections -fdata-sections",
    "-DCMAKE_EXE_LINKER_FLAGS=-Wl,--gc-sections",
]

# Words that may precede a call but never a declared name.
NOT_A_TYPE = {
    "return", "co_return", "co_yield", "co_await", "else", "case", "throw",
    "new", "delete", "sizeof", "and", "or", "not", "do", "goto",
}
TOKEN = re.compile(r"[A-Za-z_]\w*|::|->|&&|\S")
OPERATOR_CHARS = str.maketrans("<>()", "{}[]")


# ------------------------------------------------------------------ symbols --

def normalize(demangled: str) -> str | None:
    """Returns the `ns::Class::name` key of an `ev::` function symbol, folding
    clones, thunks and lambdas into their owner; None for anything else.
    A `[clone ...]` suffix and a lambda's `::{lambda(...)#n}::operator()`
    follow the owner's parameter list, and a thunk prefix precedes the name
    like a return type, so all three fall away with them."""
    name = re.sub(r"\[abi:\w+\]", "", demangled)
    name = name.replace("(anonymous namespace)", "{anon}")
    # Operator names hide their brackets so the scan below sees only the
    # template and parameter brackets.
    name = re.sub(r"operator(\(\)|\[\]|[^\w\s(]+)",
                  lambda m: "operator" + m.group(1).translate(OPERATOR_CHARS), name)
    depth = 0
    head = name
    last_space = -1
    for i, ch in enumerate(name):
        if ch in "<(":
            if ch == "(" and depth == 0:
                head = name[:i]  # the parameter list starts here
                break
            depth += 1
        elif ch in ">)":
            depth -= 1
        elif ch == " " and depth == 0:
            last_space = i  # after a template function's return type
    head = head[last_space + 1:]
    head = re.sub(r"<.*>$", "", head)  # f<int> -> f
    return head if head.startswith("ev::") else None


def simple_name(key: str) -> str:
    return key.rsplit("::", 1)[-1]


def parse_nm(text: str) -> list[tuple[str, str, str]]:
    """Parses `nm -C --defined-only` output into (member, type, name) rows;
    member is the archive member ('' for an executable)."""
    rows = []
    member = ""
    for line in text.splitlines():
        if line.endswith(".o:") and " " not in line:
            member = line[:-1]
            continue
        parts = line.split(" ", 2)
        if len(parts) == 3 and len(parts[1]) == 1:
            rows.append((member, parts[1], parts[2]))
    return rows


def text_keys(rows) -> set[str]:
    return {key for _, kind, name in rows if kind in "TtWw"
            for key in [normalize(name)] if key}


# ------------------------------------------------------------------ sources --

def tokens_of(path: Path) -> list[str]:
    text = path.read_text(errors="replace")
    text = re.sub(r"//[^\n]*|/\*.*?\*/", " ", text, flags=re.S)
    text = re.sub(r'R"\((?:.|\n)*?\)"', '""', text)
    text = re.sub(r'"(?:\\.|[^"\\\n])*"', '""', text)
    text = re.sub(r"'(?:\\.|[^'\\\n])*'", "''", text)
    text = re.sub(r"^\s*#[^\n]*", " ", text, flags=re.M)
    return TOKEN.findall(text)


def is_ident(tok: str) -> bool:
    return tok[0].isalpha() or tok[0] == "_"


def declares(toks: list[str], i: int) -> bool:
    """True when toks[i] (a name followed by '(') is declared or defined
    there rather than used: `T name(`, `T Q::name(`, `Q::Q(`, `~Q(`."""
    j = i - 1
    qualifier = None
    while j >= 1 and toks[j] == "::" and is_ident(toks[j - 1]):
        qualifier = qualifier or toks[j - 1]
        j -= 2
    if qualifier is not None and qualifier == toks[i]:
        return True  # Q::Q( constructor definition
    if j < 0:
        return True
    prev = toks[j]
    if prev == "~":
        return True
    if prev in ("*", "&", "&&"):
        return j >= 1 and (is_ident(toks[j - 1]) or toks[j - 1] == ">")
    if prev == ">":
        return True
    return is_ident(prev) and prev not in NOT_A_TYPE


@dataclass
class Source:
    path: Path
    toks: list[str]
    # (first token, last token, qualified tail "Q::name" or "name") of each
    # function body in the file.
    bodies: list[tuple[int, int, str]] = field(default_factory=list)


def load_source(path: Path) -> Source:
    toks = tokens_of(path)
    src = Source(path, toks)
    for i in range(1, len(toks)):
        if toks[i] != "(" or not is_ident(toks[i - 1]) or not declares(toks, i - 1):
            continue
        k = skip_group(toks, i)
        # Qualifiers and a trailing return type up to the body or the ';'.
        while k < len(toks) and toks[k] not in ("{", ";", "=", ":"):
            k = skip_group(toks, k) if toks[k] in "([" else k + 1
        while k < len(toks) and toks[k] in (":", ","):  # member initializers
            k += 1
            while k < len(toks) and toks[k] not in ("(", "{", ";"):
                k += 1
            if k < len(toks) and toks[k] != ";":
                k = skip_group(toks, k)
        if k < len(toks) and toks[k] == "{":
            name = toks[i - 1]
            qual = toks[i - 3] if i >= 3 and toks[i - 2] == "::" else None
            src.bodies.append((k, skip_group(toks, k) - 1, f"{qual}::{name}" if qual else name))
    return src


def skip_group(toks: list[str], k: int) -> int:
    """Index just past the bracket group that opens at toks[k]."""
    close = {"(": ")", "[": "]", "{": "}"}[toks[k]]
    depth = 0
    for m in range(k, len(toks)):
        if toks[m] == toks[k]:
            depth += 1
        elif toks[m] == close:
            depth -= 1
            if depth == 0:
                return m + 1
    return len(toks)


def enclosing(src: Source, pos: int) -> str | None:
    best = None
    for first, last, name in src.bodies:
        if first <= pos <= last and (best is None or first >= best[0]):
            best = (first, name)
    return best[1] if best else None


def uses(src: Source, name: str) -> list[int]:
    """Token positions where \\p name is used, not declared."""
    toks = src.toks
    out = []
    for i, tok in enumerate(toks):
        if tok != name:
            continue
        if i + 1 < len(toks) and toks[i + 1] == "(" and declares(toks, i):
            continue
        if i + 1 < len(toks) and toks[i + 1] == "::":
            continue  # a qualifier, as in Name::member
        if i >= 1 and toks[i - 1] in ("class", "struct", "enum", "union"):
            continue
        out.append(i)
    return out


def header_declarations(src: Source) -> set[str]:
    """`ns::Class::name` of every function declared at namespace or class
    scope of a header."""
    toks = src.toks
    scopes: list[tuple[str, str | None]] = []  # (kind, name)
    pending: tuple[str, str | None] | None = None
    found = set()
    for i, tok in enumerate(toks):
        if tok == "namespace":
            j = i + 1
            parts = []
            while j < len(toks) and toks[j] != "{" and toks[j] != ";" and toks[j] != "=":
                if is_ident(toks[j]):
                    parts.append(toks[j])
                j += 1
            pending = ("namespace", "::".join(parts) or "{anon}")
        elif tok in ("class", "struct", "union") and i + 1 < len(toks) and is_ident(toks[i + 1]) \
                and (i == 0 or toks[i - 1] not in ("enum", "friend")):
            pending = ("class", toks[i + 1])
        elif tok == ";":
            pending = None
        elif tok == "{":
            scopes.append(pending or ("block", None))
            pending = None
        elif tok == "}":
            if scopes:
                scopes.pop()
        elif tok == "(" and i > 0 and is_ident(toks[i - 1]) and toks[i - 1] != "operator" \
                and all(kind != "block" for kind, _ in scopes) and scopes \
                and pending is None and declares(toks, i - 1):
            name = toks[i - 1]
            cls = scopes[-1][1] if scopes[-1][0] == "class" else None
            if name != cls and not (i >= 2 and toks[i - 2] == "~"):
                found.add("::".join([n for _, n in scopes if n] + [name]))
    return found


def source_files(root: Path) -> list[Path]:
    return sorted(p for top in PRODUCTION_DIRS for p in (root / top).rglob("*")
                  if p.suffix in SOURCE_SUFFIXES)


# ----------------------------------------------------------------- analysis --

@dataclass
class Report:
    dead: dict[str, str]  # key -> where it is defined or declared
    allowed: set[str]
    stale: set[str]
    errors: list[str]


def analyze(root: Path, exe_listings: list[str], archive_listings: dict[str, str],
            allowlist_text: str) -> Report:
    allow, errors = {}, []
    for number, line in enumerate(allowlist_text.splitlines(), 1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        key, _, reason = line.partition(" ")
        if not reason.strip():
            errors.append(f"allowlist line {number}: '{key}' gives no reason")
        allow[key] = number

    kept = set()
    for text in exe_listings:
        kept |= text_keys(parse_nm(text))

    sources = {p: load_source(p) for p in source_files(root)}

    # Out-of-line candidates with the source file that defines each one.
    candidates: dict[str, set[Path]] = {}
    for archive, text in archive_listings.items():
        module = re.fullmatch(r"libev_(\w+)\.a", archive)
        for member, kind, name in parse_nm(text):
            key = normalize(name)
            if kind not in "Tt" or not key or key in kept:
                continue
            defining = root / "src" / (module.group(1) if module else "") / "src" / member[:-2]
            candidates.setdefault(key, set()).add(defining)

    # Fixpoint: a use inside the body of a function that is itself reported
    # (and not allowlisted) does not keep a name.
    dead = set(candidates)
    while True:
        unkept = dead - allow.keys()
        tails = {"::".join(k.split("::")[-2:]) for k in unkept} | {simple_name(k) for k in unkept}
        alive = set()
        for key in dead:
            own = {"::".join(key.split("::")[-2:]), simple_name(key)}
            for path in candidates[key]:
                src = sources.get(path)
                if src is None:
                    continue
                for pos in uses(src, simple_name(key)):
                    if enclosing(src, pos) not in tails | own:
                        alive.add(key)
                        break
        if not alive:
            break
        dead -= alive

    where = {key: ", ".join(sorted(str(p.relative_to(root)) for p in candidates[key])) for key in dead}

    # Header functions no production source uses.
    used_names = set()
    for src in sources.values():
        for i, tok in enumerate(src.toks):
            if is_ident(tok) and i + 1 < len(src.toks) and src.toks[i + 1] == "(" \
                    and declares(src.toks, i):
                continue
            used_names.add(tok)
    for path, src in sources.items():
        if path.suffix != ".h" or "src" != path.relative_to(root).parts[0]:
            continue
        for key in header_declarations(src):
            if key.startswith("ev::") and simple_name(key) not in used_names and key not in where:
                where[key] = str(path.relative_to(root))

    allowed = allow.keys() & where.keys()
    for key in allowed:
        del where[key]
    return Report(where, allowed, set(allow) - allowed, errors)


def print_report(report: Report) -> int:
    for key in sorted(report.dead):
        print(f"deadcode: {key}  ({report.dead[key]})")
    for key in sorted(report.stale):
        print(f"deadcode: stale allowlist entry {key}: no longer reported")
    for err in report.errors:
        print(f"deadcode: {err}")
    print(f"deadcode: {len(report.dead)} unreached, {len(report.allowed)} allowlisted, "
          f"{len(report.stale)} stale")
    return 1 if report.dead or report.stale or report.errors else 0


# --------------------------------------------------------------------- scan --

def run(cmd: list[str]) -> str:
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    if proc.returncode != 0:
        print(f"deadcode: {' '.join(cmd)} exited {proc.returncode}", file=sys.stderr)
        raise SystemExit(2)
    return proc.stdout


def build(build_dir: Path) -> None:
    jobs = str(os.cpu_count() or 2)
    run(["cmake", "-S", str(REPO), "-B", str(build_dir), "-DEVSYS_BUILD_TESTS=OFF", *SCAN_FLAGS])
    run(["cmake", "--build", str(build_dir), "-j", jobs])
    e2e = build_dir / "e2ebench"
    run(["cmake", "-S", str(REPO / "e2ebench"), "-B", str(e2e), *SCAN_FLAGS])
    run(["cmake", "--build", str(e2e), "-j", jobs, "--target", "e2ebench"])


def executables(build_dir: Path) -> list[Path]:
    found = [build_dir / "tools" / "evsys", build_dir / "e2ebench" / "e2ebench"]
    for sub in ("bench", "examples"):
        found += sorted(p for p in (build_dir / sub).iterdir()
                        if p.is_file() and os.access(p, os.X_OK))
    return found


def scan(build_dir: Path) -> int:
    build(build_dir)
    exes = executables(build_dir)
    archives = sorted((build_dir / "src").glob("*/libev_*.a"))
    nm = ["nm", "-C", "--defined-only"]
    report = analyze(REPO, [run(nm + [str(p)]) for p in exes],
                     {p.name: run(nm + [str(p)]) for p in archives},
                     ALLOWLIST.read_text() if ALLOWLIST.exists() else "")
    print(f"deadcode: {len(exes)} executables, {len(archives)} archives")
    return print_report(report)


def self_test() -> int:
    """Runs the analysis over tests/data/deadcode: canned nm listings of one
    executable and one archive, the sources they come from, an allowlist."""
    nm_dir = FIXTURE / "nm"
    exes = [p.read_text() for p in sorted(nm_dir.glob("exe_*.txt"))]
    archives = {p.name[: -len(".txt")]: p.read_text() for p in sorted(nm_dir.glob("libev_*.a.txt"))}
    report = analyze(FIXTURE, exes, archives, (FIXTURE / "allow.txt").read_text())
    checks = [
        ("an archive-only function is reported", "ev::demo::Widget::unused" in report.dead),
        ("a function only a dead function calls is reported",
         "ev::demo::Widget::helper_of_unused" in report.dead),
        ("a call to itself does not keep a function", "ev::demo::Widget::unused" in report.dead),
        ("an allowlisted function keeps its callees",
         "ev::demo::Widget::helper_of_kept" not in report.dead
         and "ev::demo::Widget::kept" in report.allowed),
        ("a function an executable keeps is not reported", "ev::demo::Widget::run" not in report.dead),
        ("a function inlined into its own TU is not reported",
         "ev::demo::Widget::step" not in report.dead),
        ("a .cold clone and a lambda fold into their owner",
         "ev::demo::Widget::run" not in report.dead and not any("clone" in k or "lambda" in k
                                                                for k in report.dead)),
        ("a thunk folds into its owner", "ev::demo::Gadget::poll" not in report.dead),
        ("a header inline nothing calls is reported", "ev::demo::Widget::spare" in report.dead),
        ("an [abi:...] tag is not part of the name", "ev::demo::Widget::label" in report.dead),
        ("a header inline production calls is not reported", "ev::demo::Widget::size" not in report.dead),
        ("an allowlisted function is suppressed",
         "ev::demo::Widget::probe" in report.allowed and "ev::demo::Widget::probe" not in report.dead),
        ("a stale allowlist line fails", report.stale == {"ev::demo::Widget::removed"}),
        ("the report is exactly the expected set", set(report.dead) == {
            "ev::demo::Widget::unused", "ev::demo::Widget::helper_of_unused",
            "ev::demo::Widget::spare", "ev::demo::Widget::label"}),
    ]
    failed = 0
    for what, ok in checks:
        print(f"{'ok  ' if ok else 'FAIL'} {what}")
        failed += not ok
    if failed:
        print_report(report)
    return 1 if failed else 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    mode = parser.add_mutually_exclusive_group(required=True)
    mode.add_argument("--build-dir", type=Path, help="scan build tree (configured and built here)")
    mode.add_argument("--self-test", action="store_true", help="check the scanner on its fixture")
    args = parser.parse_args()
    if args.self_test:
        return self_test()
    return scan(args.build_dir.resolve())


if __name__ == "__main__":
    sys.exit(main())
