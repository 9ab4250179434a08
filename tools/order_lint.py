#!/usr/bin/env python3
"""Source lint for order-nondeterminism the binary symbol walk can't see.

tools/symlint.py proves the day loop reaches no banned *symbol* —
but iteration order is not a symbol. Walking a std::unordered_map in
a merge or export path calls nothing forbidden, yet its order depends
on libstdc++ version, bucket-count history, and hash seeding, so any
output it feeds stops being a pure function of (universe seed, day).
The repo's own flat tables (util::FlatMap / FlatSet) have the same
property: iteration order is probe-sequence order, stable for one
binary but not a contract. This lint flags the three shapes of that
bug at the source level:

  unordered-iteration   a range-for / .begin() / .for_each over an
                        unordered container (std::unordered_map/set,
                        util::FlatMap/FlatSet, and aliases of them).
  ptr-key-ordered       a std::map/std::set keyed by a raw pointer:
                        "ordered", but the order is the allocator's
                        address layout (ASLR), not the data's.
  fp-accum-parallel     floating-point accumulation (+=, -=, *=)
                        inside an engine parallel_for body: float
                        addition is not associative, so the sum
                        depends on chunk boundaries and thread
                        count. Integer accumulation and disjoint
                        index-addressed writes stay legal.

Allowlisting is *per site and in the source*: a flagged line is
accepted only if it (or one of the two lines above it) carries a
justification marker

    // order_lint: allow(<why this site is order-insensitive>)

e.g. "sorted-after" for collect-then-sort, "sum-commutative" for
pure counter folds. There is deliberately no file-level or global
allowlist — every hatch is visible next to the code it excuses, and
a new unordered iteration anywhere fails CI until it either sorts or
justifies itself (README "Correctness tooling" has the policy table).
A marker whose reach (its own line and the two below) holds no
finding is itself a finding, stale-allow: a hatch must not outlive
the code it excused, or it silently excuses whatever lands under it
next.

How it reads C++
----------------
A self-contained lexer, no dependencies: comments and literals are
stripped, declarations of unordered-typed identifiers (including
aliases and sequence-of-unordered elements) are tracked across each
file's quoted-#include closure (-I adds include roots), then
range-fors / member calls / compound assigns are matched against
them. It catches everything the repo and its fixtures contain, and by
construction slightly under-approximates on arbitrary C++ (e.g. a
container reached through a function return value).

Exit status: 0 clean, 1 unallowed finding(s), 2 tool/usage error.
--expect-violation swaps 0/1 (the order_lint_negative and
order_lint_stale_negative fixture ctests assert the lint still bites).
"""

import argparse
import os
import re
import sys

UNORDERED_BASES = ("unordered_map", "unordered_set", "unordered_multimap",
                   "unordered_multiset", "FlatMap", "FlatSet")
INCLUDE_RE = re.compile(r'^\s*#\s*include\s*"([^"]+)"', re.M)
SEQUENCE_BASES = ("vector", "array", "deque", "span")
MARKER_RE = re.compile(r"order_lint:\s*allow\(([^)]+)\)")
IDENT_RE = re.compile(r"[A-Za-z_]\w*")
CPP_KEYWORDS = frozenset({
    "auto", "const", "constexpr", "static", "mutable", "volatile",
    "register", "inline", "extern", "typename", "struct", "class",
    "unsigned", "signed", "int", "long", "short", "char", "bool",
    "float", "double", "void", "if", "for", "while", "return", "new",
    "delete", "sizeof", "this", "true", "false", "nullptr", "using",
    "namespace", "template", "operator", "std",
})


class Finding:
    def __init__(self, path, line, check, message):
        self.path = path
        self.line = line  # 1-based
        self.check = check
        self.message = message
        self.allow_reason = None


def fail(msg):
    print(msg, file=sys.stderr)
    sys.exit(2)


# --------------------------------------------------------------- text
def strip_code(text):
    """Blank comments and string/char literals, preserving offsets and
    newlines, so structural regexes can't match inside either."""
    out = list(text)
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        if c == "/" and i + 1 < n and text[i + 1] == "/":
            j = text.find("\n", i)
            j = n if j == -1 else j
            for k in range(i, j):
                out[k] = " "
            i = j
        elif c == "/" and i + 1 < n and text[i + 1] == "*":
            j = text.find("*/", i + 2)
            j = n - 2 if j == -1 else j
            for k in range(i, j + 2):
                if out[k] != "\n":
                    out[k] = " "
            i = j + 2
        elif c in "\"'":
            quote = c
            j = i + 1
            while j < n and text[j] != quote:
                j = j + 2 if text[j] == "\\" else j + 1
            for k in range(i + 1, min(j, n)):
                if out[k] != "\n":
                    out[k] = " "
            i = j + 1
        else:
            i += 1
    return "".join(out)


def line_of(text, pos):
    return text.count("\n", 0, pos) + 1


def skip_balanced(text, pos, open_ch, close_ch):
    """pos points at open_ch; return index just past its match."""
    depth = 0
    i = pos
    n = len(text)
    while i < n:
        c = text[i]
        if c == open_ch:
            depth += 1
        elif c == close_ch:
            depth -= 1
            if depth == 0:
                return i + 1
        # Inside template args a '>>' closes two levels, which the
        # per-char loop already handles; '->' false-positives are
        # avoided by never calling this with '<' from a position that
        # follows a '-'.
        i += 1
    return n


def marker_for(raw_lines, line):
    """The allow marker covering a finding at `line` (1-based): on the
    line itself or up to two lines above (so it can sit above a for
    statement or a declaration)."""
    for probe in range(max(0, line - 3), line):
        m = MARKER_RE.search(raw_lines[probe])
        if m:
            reason = m.group(1).strip()
            if reason:
                return reason
    return None


def stale_markers(path, raw_lines, finding_lines):
    """Allow markers whose reach — the marker's own line and the two
    below it, the mirror of marker_for — holds no finding."""
    stale = []
    for index, text in enumerate(raw_lines):
        line = index + 1
        if MARKER_RE.search(text) and not any(
                line <= f <= line + 2 for f in finding_lines):
            stale.append(Finding(
                path, line, "stale-allow",
                "allow marker covers no finding on its line or the two "
                "below it: delete the marker"))
    return stale


# ------------------------------------------------------------- lexer
def include_closures(raw, roots):
    """path -> set of scanned paths reachable through quoted #includes
    (plus itself). Identifier classification is scoped to this closure
    so a `counts_` that is a FlatMap in one subsystem doesn't taint an
    unrelated std::map member of the same name elsewhere. Quoted
    includes resolve against the including file's directory and each
    scanned root directory; unresolved (system) includes are ignored."""
    norm = {os.path.normpath(p): p for p in raw}
    direct = {}
    for path, text in raw.items():
        deps = set()
        for m in INCLUDE_RE.finditer(text):
            inc = m.group(1)
            candidates = [os.path.join(os.path.dirname(path), inc)]
            candidates += [os.path.join(r, inc) for r in roots]
            for c in candidates:
                hit = norm.get(os.path.normpath(c))
                if hit:
                    deps.add(hit)
                    break
        direct[path] = deps
    closures = {p: {p} | direct[p] for p in raw}
    changed = True
    while changed:
        changed = False
        for p in raw:
            grown = set()
            for d in closures[p]:
                grown |= direct.get(d, set())
            if not grown <= closures[p]:
                closures[p] |= grown
                changed = True
    return closures


def collect_aliases(codes):
    """Names that are aliases of unordered containers, to fixpoint
    (`using CountMap = util::FlatMap<...>;` makes CountMap unordered).
    `codes` maps path -> comment-stripped text of the file under lint
    plus its include closure, so an alias declared in a header is
    known when its user .cpp is linted."""
    names = set(UNORDERED_BASES)
    changed = True
    while changed:
        changed = False
        pattern = re.compile(
            r"\busing\s+(\w+)\s*=\s*[^;]*?\b("
            + "|".join(re.escape(n) for n in names) + r")\b")
        for code in codes.values():
            for m in pattern.finditer(code):
                if m.group(1) not in names:
                    names.add(m.group(1))
                    changed = True
    return names


def type_mention(names):
    return re.compile(r"\b(" + "|".join(re.escape(n) for n in names)
                      + r")\b(\s*<)?")


DECLARATOR_RE = re.compile(r"\s*(?:const\b\s*)?[&*]*\s*(\w+)\s*(?=[;,)=({\[])")


def collect_idents(codes, names):
    """identifier -> 'direct' (is an unordered container) or 'element'
    (is a sequence whose elements are unordered containers), across
    the file's include closure — members declared in headers are
    iterated in .cpps."""
    idents = {}
    mention = type_mention(names)
    seq_re = re.compile(r"\b(?:std::)?(" + "|".join(SEQUENCE_BASES)
                        + r")\s*<")
    for code in codes.values():
        # Direct: an unordered type (or alias) starting a declaration.
        for m in mention.finditer(code):
            end = m.end()
            if m.group(2):  # template-id: skip the <...> args
                end = skip_balanced(code, m.end(2) - 1, "<", ">")
            d = DECLARATOR_RE.match(code, end)
            if d and d.group(1) not in CPP_KEYWORDS:
                idents.setdefault(d.group(1), "direct")
        # Element: vector/array/deque/span of an unordered type.
        for m in seq_re.finditer(code):
            end = skip_balanced(code, m.end() - 1, "<", ">")
            if not mention.search(code, m.end(), end - 1):
                continue
            d = DECLARATOR_RE.match(code, end)
            if d and d.group(1) not in CPP_KEYWORDS:
                idents.setdefault(d.group(1), "element")
    return idents


def top_level_colon(text):
    """Index of the range-for ':' (depth 0, not '::'), or -1."""
    depth = 0
    for i, c in enumerate(text):
        if c in "<([{":
            depth += 1
        elif c in ">)]}":
            depth -= 1
        elif c == ":" and depth <= 0:
            before = text[i - 1] if i > 0 else ""
            after = text[i + 1] if i + 1 < len(text) else ""
            if before != ":" and after != ":":
                return i
    return -1


def lint_text(path, text, code, idents, names):
    findings = []
    mention = type_mention(names)
    local = dict(idents)  # loop vars promoted element -> direct

    # Range-fors, in file order so an outer loop over a sequence of
    # unordered containers promotes its loop variable before the
    # inner loop over that variable is examined.
    for m in re.finditer(r"\bfor\s*\(", code):
        close = skip_balanced(code, m.end() - 1, "(", ")")
        head = code[m.end():close - 1]
        colon = top_level_colon(head)
        if colon < 0:
            continue  # classic for
        decl, range_expr = head[:colon], head[colon + 1:]
        range_idents = [t for t in IDENT_RE.findall(range_expr)
                        if t not in CPP_KEYWORDS]
        direct = (mention.search(range_expr) is not None
                  or any(local.get(t) == "direct" for t in range_idents))
        if direct:
            findings.append(Finding(
                path, line_of(code, m.start()), "unordered-iteration",
                "range-for over an unordered container "
                f"({range_expr.strip()}): iteration order is not a pure "
                "function of the data"))
            continue
        if any(local.get(t) == "element" for t in range_idents):
            # Iterating the sequence is fine (stable order); its loop
            # variable IS an unordered container from here on.
            loop_vars = IDENT_RE.findall(decl)
            if loop_vars:
                local[loop_vars[-1]] = "direct"

    # Explicit iterator / traversal calls on unordered identifiers.
    for m in re.finditer(r"\b(\w+)\s*\.\s*(begin|cbegin|rbegin|for_each)"
                         r"\s*\(", code):
        if local.get(m.group(1)) == "direct":
            findings.append(Finding(
                path, line_of(code, m.start()), "unordered-iteration",
                f"{m.group(2)}() on unordered container '{m.group(1)}'"))

    # Pointer-keyed ordered containers: sorted by address, i.e. ASLR.
    for m in re.finditer(r"\bstd::(multi)?(map|set)\s*<", code):
        close = skip_balanced(code, m.end() - 1, "<", ">")
        args = code[m.end():close - 1]
        depth = 0
        first = args
        for i, c in enumerate(args):
            if c in "<([":
                depth += 1
            elif c in ">)]":
                depth -= 1
            elif c == "," and depth == 0:
                first = args[:i]
                break
        if first.strip().endswith("*"):
            findings.append(Finding(
                path, line_of(code, m.start()), "ptr-key-ordered",
                f"std::{m.group(1) or ''}{m.group(2)} keyed by a raw "
                "pointer: iteration order is address-layout order"))

    # Floating-point accumulation inside parallel bodies.
    fp_vars = {m.group(1) for m in re.finditer(
        r"\b(?:double|float)\b\s*&?\s*(\w+)\s*[;=,)(]", code)
        if m.group(1) not in CPP_KEYWORDS}
    for m in re.finditer(r"\bparallel_for\s*\(", code):
        close = skip_balanced(code, m.end() - 1, "(", ")")
        extent = code[m.end():close - 1]
        base = m.end()
        for lam in re.finditer(r"\[[^\]]*\]", extent):
            i = lam.end()
            while i < len(extent) and extent[i] in " \t\n":
                i += 1
            if i < len(extent) and extent[i] == "(":
                i = skip_balanced(extent, i, "(", ")")
                while i < len(extent) and extent[i] in " \t\n":
                    i += 1
            if i >= len(extent) or extent[i] != "{":
                continue
            body_end = skip_balanced(extent, i, "{", "}")
            body = extent[i:body_end]
            body_fp = fp_vars | {fm.group(1) for fm in re.finditer(
                r"\b(?:double|float)\b\s*&?\s*(\w+)\s*[;=]", body)}
            for am in re.finditer(r"\b(\w+)\s*(\+=|-=|\*=)", body):
                if am.group(1) in body_fp:
                    findings.append(Finding(
                        path, line_of(code, base + i + am.start()),
                        "fp-accum-parallel",
                        f"floating-point '{am.group(1)} {am.group(2)}' "
                        "inside a parallel_for body: float addition is "
                        "not associative, the sum depends on chunking"))
    return findings


# ---------------------------------------------------------------- cli
def gather_paths(paths):
    files = []
    for p in paths:
        if os.path.isdir(p):
            for root, _dirs, names in os.walk(p):
                for name in sorted(names):
                    if name.endswith((".h", ".hpp", ".cpp", ".cc")):
                        files.append(os.path.join(root, name))
        elif os.path.isfile(p):
            files.append(p)
        else:
            fail(f"order_lint: no such file or directory: {p}")
    return sorted(set(files))


def main(argv=None):
    parser = argparse.ArgumentParser(
        description="flag order-nondeterminism at the source level "
                    "(see the module docstring)")
    parser.add_argument("paths", nargs="+",
                        help="source files or directories to lint")
    parser.add_argument("--include", "-I", action="append", default=[],
                        help="extra root for resolving quoted #includes")
    parser.add_argument("--expect-violation", action="store_true",
                        help="invert: succeed only if an unallowed "
                             "finding exists (negative fixture test)")
    args = parser.parse_args(argv)

    files = gather_paths(args.paths)
    raw = {}
    codes = {}
    for path in files:
        try:
            with open(path, "r", encoding="utf-8", errors="replace") as fh:
                raw[path] = fh.read()
        except OSError as err:
            fail(f"order_lint: cannot read {path}: {err}")
        codes[path] = strip_code(raw[path])

    closures = include_closures(
        raw, [p for p in args.paths if os.path.isdir(p)] + args.include)

    findings = []
    for path in files:
        scope = {p: codes[p] for p in closures[path]}
        names = collect_aliases(scope)
        idents = collect_idents(scope, names)
        findings += lint_text(path, raw[path], codes[path], idents, names)

    flagged, allowed = [], []
    for f in sorted(findings, key=lambda f: (f.path, f.line, f.check)):
        f.allow_reason = marker_for(raw[f.path].splitlines(), f.line)
        (allowed if f.allow_reason else flagged).append(f)
    # Stale markers join after the split: a marker never excuses itself.
    for path in files:
        flagged += stale_markers(path, raw[path].splitlines(),
                                 {f.line for f in findings if f.path == path})
    flagged.sort(key=lambda f: (f.path, f.line, f.check))

    for f in allowed:
        print(f"{f.path}:{f.line}: allowed [{f.check}] "
              f"({f.allow_reason})")
    for f in flagged:
        print(f"{f.path}:{f.line}: [{f.check}] {f.message}",
              file=sys.stderr)
    print(f"order_lint: {len(files)} file(s), "
          f"{len(flagged)} finding(s), {len(allowed)} allowlisted "
          f"site(s)")

    if args.expect_violation:
        if flagged:
            print("order_lint: violation found, as the fixture expects")
            return 0
        print("order_lint: expected a violation but found none — "
              "the lint has gone blind", file=sys.stderr)
        return 1
    return 1 if flagged else 0


if __name__ == "__main__":
    sys.exit(main())
