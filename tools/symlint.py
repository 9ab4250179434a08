#!/usr/bin/env python3
"""Multi-policy static symbol lint over the machine-code call graph.

One engine, several *policies*: one objdump call-graph walker, with
"which leaf symbols are forbidden from which roots, and which nodes
are cut from the walk" as declarative policy records. The repo's
reproducibility contract — a longitudinal campaign's daily outputs
are byte-identical for any thread count — is thereby proven on every
build along four axes:

  noalloc          the warm day loop reaches no operator new / malloc
                   outside the named capacity-elastic growth members;
                   it needs no hatch beyond them.
  nodeterminism    the day loop reaches no wall clock, no entropy
                   source, no environment read, no locale machinery —
                   nothing whose value varies across runs, hosts, or
                   configurations. The one documented hatch is
                   obs::Observability::now_ns (telemetry timestamps
                   never feed pipeline outputs); it is passed as a
                   lint-visible --allow next to the root declarations
                   in CMakeLists, not buried here.
  noio             the steady-state day loop performs no file or
                   stream I/O: no read/write/open, no stdio, no
                   iostream. Telemetry export (trace_json) and the
                   bench writers are cold-path by design and live
                   outside the rooted graph; this policy is what keeps
                   them there.
  nothrow-hotpath  the scan/probe kernels reach no __cxa_throw /
                   __cxa_allocate_exception / std::__throw_* helper:
                   the branchless sweep can never unwind. (The
                   capacity-elastic growth members may throw
                   length_error/bad_alloc by contract; they are cut
                   from the walk under the same justification as in
                   noalloc — the runtime counting-allocator tests
                   prove the warm loop never enters them.)

How the engine works
--------------------
The CMake target `symlint_objs` compiles the hot-path translation
units with `-fno-inline`, so every libstdc++ helper stays an
out-of-line call and forbidden leaf symbols keep their own name
instead of being inlined into their caller. This script disassembles
those objects (`objdump -dr`), collects caller -> callee edges from
direct call/jmp instructions and their relocations, and searches
breadth-first from the roots. A path from a root to a banned symbol is
reported with its full witness call chain. Nodes matching a policy's
allowlist (built-in + per-invocation --allow) are *cut*: the walk
reports nothing through them and does not descend into them.

The shared growth allowlist (see README "Correctness tooling")
--------------------------------------------------------------
Every policy cuts the same capacity-elastic growth members from the
traversal:

 * std::vector's growth/refill machinery (_M_realloc_insert,
   _M_default_append, _M_fill_assign, ... and reserve). These are the
   paths the zero-alloc design *relies on*: they allocate (and may
   throw length_error) while a buffer warms up and never again, which
   is exactly what the runtime counting-allocator tests pin down. The
   static lint cannot tell a warm vector from a cold one, so the two
   checks split the work: the lint proves no *other* route to a
   banned symbol exists, the runtime tests prove the growth routes go
   quiet.

 * The project's own capacity-elastic growth member, under the same
   policy: FlatMap/FlatSet::rehash (the flat tables' ONLY allocation
   site — grow() and reserve() both route through it). Only the
   named growth member is cut: an unexpected banned symbol anywhere
   else in those containers still trips.

Per-invocation --allow entries are the *policy hatches* and must be
declared next to the roots in CMakeLists with a justification comment
(no blanket hatches). The only one is Observability::now_ns for
nodeterminism.

Known limits: indirect calls are not walked. Two kinds remain under
the day roots: the util::FunctionRef thunks of engine::parallel_for
(each chunk body is also a direct fn(0, n) call on the inline branch,
which the walk does follow), and the TelemetrySink::on_day virtual
dispatch, which runs only with an Observability attached — sinks are
consumer-owned code outside the library's contract. Anonymous-namespace
symbols are keyed by mangled name only, which is unique per TU in
practice for this object set.

Exit status: 0 clean, 1 violation(s) found, 2 tool/usage error.
With --expect-violation the 0/1 meanings swap (the negative fixture
tests assert each policy actually bites).
"""

import argparse
import re
import shutil
import subprocess
import sys
from collections import defaultdict, deque

# --------------------------------------------------------------------
# Shared growth allowlist: capacity-elastic members cut from every
# policy's walk (see the module docstring for the justification).
GROWTH_ALLOWLIST = [
    r"\bstd::vector<.*>::_M_(realloc_insert|realloc_append|default_append|"
    r"fill_assign|fill_insert|assign_aux|range_insert|insert_aux|"
    r"emplace_back_aux|append)\s*[<(]",
    r"\bstd::vector<.*>::reserve\(",
    # The project's own capacity-elastic growth member. Template
    # members demangle with a leading return type, hence \b anchors.
    r"\bv6h::util::Flat(Map|Set)<.*>::rehash\(",
]


def _is_operator_new(mangled, pretty):
    """noalloc's banned-leaf predicate for operator new. Placement new
    (operator new(size_t, void*)) constructs in place and allocates
    nothing; with -fno-inline it shows up as a real call from
    std::construct_at, so it must not count."""
    if ", void*)" in pretty:
        return False
    if mangled.startswith(("_Znw", "_Zna")):
        return True
    return pretty.startswith("operator new")


class Policy:
    """One lint policy: which leaf symbols are banned, which nodes are
    cut from the walk. `banned_plain` matches unmangled (C) symbol
    names exactly; `banned_pretty` are regexes over demangled names;
    `banned_predicate` is an optional (mangled, pretty) -> bool hook
    for cases a regex can't express (operator-new flavors vs placement
    new)."""

    def __init__(self, name, doc, banned_plain=(), banned_pretty=(),
                 banned_predicate=None, default_allow=()):
        self.name = name
        self.doc = doc
        self.banned_plain = frozenset(banned_plain)
        self.banned_pretty = [re.compile(p) for p in banned_pretty]
        self.banned_predicate = banned_predicate
        self.default_allow = list(default_allow)

    def is_banned(self, mangled, pretty):
        if mangled in self.banned_plain:
            return True
        if self.banned_predicate is not None and self.banned_predicate(
                mangled, pretty):
            return True
        return any(p.search(pretty) for p in self.banned_pretty)


POLICIES = {
    "noalloc": Policy(
        "noalloc",
        "no operator new / malloc outside capacity-elastic growth",
        banned_plain={
            "malloc", "calloc", "realloc", "aligned_alloc",
            "posix_memalign", "strdup", "__strdup", "valloc", "pvalloc",
            "memalign",
        },
        banned_predicate=_is_operator_new,
        default_allow=GROWTH_ALLOWLIST,
    ),
    "nodeterminism": Policy(
        "nodeterminism",
        "no wall clock, entropy, environment, or locale reads",
        banned_plain={
            # Wall clocks and timers. vdso or not, every one of these
            # returns host state, not a function of (seed, day).
            "time", "clock", "clock_gettime", "gettimeofday", "ftime",
            "timespec_get", "localtime", "localtime_r", "gmtime",
            "gmtime_r", "mktime",
            # libc PRNGs and kernel entropy.
            "rand", "rand_r", "srand", "random", "srandom", "random_r",
            "drand48", "erand48", "lrand48", "nrand48", "mrand48",
            "jrand48", "getentropy", "getrandom",
            # Environment and locale: host configuration leaking into
            # outputs (a comma decimal point is the classic one).
            "getenv", "secure_getenv", "__secure_getenv", "setlocale",
            "localeconv", "nl_langinfo", "uselocale", "newlocale",
        },
        banned_pretty=[
            r"\bstd::random_device::",
            r"\bstd::chrono::(_V2::)?system_clock::",
            r"\bstd::chrono::(_V2::)?steady_clock::",
            r"\bstd::locale\b",
            r"\bstd::use_facet\b",
        ],
        default_allow=GROWTH_ALLOWLIST,
    ),
    "noio": Policy(
        "noio",
        "no file or stream I/O from the steady-state day loop",
        banned_plain={
            # Descriptor I/O.
            "read", "write", "pread", "pwrite", "pread64", "pwrite64",
            "readv", "writev", "open", "open64", "openat", "openat64",
            "creat", "close", "fsync", "fdatasync", "send", "recv",
            "sendto", "recvfrom", "ioctl", "poll", "select",
            # stdio streams (plus the _chk flavors fortified builds
            # emit instead).
            "fopen", "fopen64", "freopen", "fclose", "fread", "fwrite",
            "fread_unlocked", "fwrite_unlocked", "fprintf", "vfprintf",
            "printf", "vprintf", "fputs", "fputc", "fputs_unlocked",
            "puts", "putc", "putchar", "fflush", "fgets", "fgetc",
            "getchar", "scanf", "fscanf", "perror", "getline",
            "getdelim", "__printf_chk", "__fprintf_chk",
            "__vfprintf_chk", "__vprintf_chk",
        },
        banned_pretty=[
            # Any iostream machinery: reaching operator<< or a stream
            # ctor means a stray std::cout/cerr (or an ostringstream
            # somebody thinks is "just formatting" — it still drags
            # locale and stream state into the day loop).
            r"\bstd::basic_[io]stream<",
            r"\bstd::basic_(ofstream|ifstream|fstream|filebuf)<",
            r"\bstd::ios_base\b",
        ],
        default_allow=GROWTH_ALLOWLIST,
    ),
    "nothrow-hotpath": Policy(
        "nothrow-hotpath",
        "no reachable throw from the scan/probe kernels",
        banned_plain={
            "__cxa_throw", "__cxa_allocate_exception", "__cxa_rethrow",
            "__cxa_bad_cast", "__cxa_bad_typeid",
        },
        banned_pretty=[
            # libstdc++'s out-of-line throw helpers: every checked
            # accessor (vector::at, stoi, ...) funnels through these.
            r"\bstd::__throw_",
        ],
        # Growth machinery throws length_error/bad_alloc by contract;
        # cut under the same cold-path justification as in noalloc.
        default_allow=GROWTH_ALLOWLIST,
    ),
}

FUNC_RE = re.compile(r"^[0-9a-f]+ <([^>]+)>:$")
CALL_TARGET_RE = re.compile(
    r"\b(?:call|jmp)q?\s+[0-9a-f]+\s+<([^>+]+)(?:\+0x[0-9a-f]+)?>")
RELOC_RE = re.compile(
    r"^\s+[0-9a-f]+:\s+R_X86_64_(?:PLT32|PC32|GOTPCRELX?|REX_GOTPCRELX)"
    r"\s+(\S+?)(?:[+-]0x[0-9a-f]+)?$")
SUFFIX_RE = re.compile(r"(\.cold|\.part\.\d+|\.isra\.\d+|\.constprop\.\d+|"
                       r"\.localalias(\.\d+)?)+$")


def base_symbol(name):
    """Fold compiler-split clones (.cold/.part/.isra) into their parent
    so a banned call in a cold split is attributed to the function it
    was split from, and strip symbol versioning (foo@GLIBC_...) so the
    plain-name ban sets match linked and unlinked objects alike."""
    return SUFFIX_RE.sub("", name.split("@", 1)[0])


def fail(msg):
    print(msg, file=sys.stderr)
    sys.exit(2)


def parse_objects(objdump, paths, tag):
    """caller -> set(callee) over all objects/archives, mangled names."""
    edges = defaultdict(set)
    defined = set()
    for path in paths:
        try:
            out = subprocess.run(
                [objdump, "-dr", "--no-show-raw-insn", path],
                check=True, capture_output=True, text=True).stdout
        except (subprocess.CalledProcessError, FileNotFoundError) as err:
            fail(f"{tag}: objdump failed on {path}: {err}")
        current = None
        pending_call = False  # last instruction was a call/jmp
        tentative = None  # call target named in the instruction itself
        def commit():
            nonlocal tentative
            if tentative is not None and not tentative.startswith("."):
                edges[current].add(base_symbol(tentative))
            tentative = None
        for line in out.splitlines():
            m = FUNC_RE.match(line)
            if m:
                if current is not None:
                    commit()
                current = base_symbol(m.group(1))
                defined.add(current)
                pending_call = False
                tentative = None
                continue
            if current is None:
                continue
            m = RELOC_RE.match(line)
            if m:
                # A relocation belongs to the preceding instruction
                # and names the real target; the angle-bracket operand
                # of a relocated call is a placeholder (objdump
                # resolves the unrelocated offset to whatever symbol
                # happens to sit at that address), so the relocation
                # REPLACES the tentative edge. Only control transfers
                # count — data refs would over-connect the graph.
                if pending_call:
                    tentative = None
                    edges[current].add(base_symbol(m.group(1)))
                continue
            commit()  # previous instruction had no relocation
            m = CALL_TARGET_RE.search(line)
            if m:
                tentative = m.group(1)
            pending_call = "\tcall" in line or "\tjmp" in line
        if current is not None:
            commit()
    return edges, defined


def demangle(cxxfilt, names, tag):
    ordered = sorted(names)
    try:
        out = subprocess.run([cxxfilt], input="\n".join(ordered) + "\n",
                             check=True, capture_output=True,
                             text=True).stdout.splitlines()
    except (subprocess.CalledProcessError, FileNotFoundError) as err:
        fail(f"{tag}: {cxxfilt} failed: {err}")
    if len(out) != len(ordered):
        fail(f"{tag}: demangler line count mismatch")
    return dict(zip(ordered, out))


def build_arg_parser():
    parser = argparse.ArgumentParser(
        description="policy-driven static symbol lint over the machine-"
                    "code call graph (see the module docstring)")
    parser.add_argument("objects", nargs="*",
                        help="object files or static archives to analyze")
    parser.add_argument("--policy", required=False,
                        choices=sorted(POLICIES),
                        help="which banned-symbol policy to enforce")
    parser.add_argument("--list-policies", action="store_true",
                        help="print the policy table and exit")
    parser.add_argument("--root", action="append", default=[],
                        help="demangled-name prefix of a hot-path root "
                             "(repeatable, at least one required)")
    parser.add_argument("--allow", action="append", default=[],
                        help="extra allowlist regex over demangled names "
                             "(a policy hatch: declare it next to the "
                             "roots in CMakeLists with a justification)")
    parser.add_argument("--no-default-allowlist", action="store_true",
                        help="drop the built-in growth allowlist")
    parser.add_argument("--expect-violation", action="store_true",
                        help="invert: succeed only if a violation is found "
                             "(negative fixture test)")
    parser.add_argument("--objdump", default=shutil.which("objdump")
                        or shutil.which("llvm-objdump") or "objdump")
    parser.add_argument("--cxxfilt", default=shutil.which("c++filt")
                        or shutil.which("llvm-cxxfilt") or "c++filt")
    return parser


def run(args, parser):
    if args.list_policies:
        for name in sorted(POLICIES):
            print(f"{name:18} {POLICIES[name].doc}")
        return 0
    if args.policy is None:
        parser.error("--policy is required (or --list-policies)")
    if not args.root:
        parser.error("at least one --root is required")
    if not args.objects:
        parser.error("at least one object file is required")
    policy = POLICIES[args.policy]
    tag = f"symlint[{policy.name}]"

    allow_patterns = ([] if args.no_default_allowlist else
                      list(policy.default_allow)) + args.allow
    allow_re = [re.compile(p) for p in allow_patterns]

    # CMake's $<TARGET_OBJECTS:...> reaches add_test as one
    # semicolon-joined argument; accept both forms.
    objects = [o for arg in args.objects for o in arg.split(";") if o]
    edges, defined = parse_objects(args.objdump, objects, tag)
    names = set(defined) | set(edges)
    for callees in edges.values():
        names |= callees
    pretty = demangle(args.cxxfilt, names, tag)

    roots = sorted(sym for sym in defined
                   if any(pretty[sym].startswith(r) for r in args.root))
    missing = [r for r in args.root
               if not any(pretty[sym].startswith(r) for sym in defined)]
    if missing:
        # A renamed root must fail loudly, or the lint goes vacuous.
        fail(f"{tag}: root(s) not found in the object set: "
             + ", ".join(missing))

    def allowed(sym):
        return any(p.search(pretty[sym]) for p in allow_re)

    # BFS; remember one parent per node to reconstruct a witness path.
    parent = {sym: None for sym in roots}
    queue = deque(roots)
    violations = []
    while queue:
        node = queue.popleft()
        for callee in sorted(edges.get(node, ())):
            if callee in parent:
                continue
            if policy.is_banned(callee, pretty.get(callee, callee)):
                chain = [callee, node]
                walk = node
                while parent[walk] is not None:
                    walk = parent[walk]
                    chain.append(walk)
                violations.append(list(reversed(chain)))
                continue
            parent[callee] = node
            if not allowed(callee):  # cut: don't descend into allowlist
                queue.append(callee)

    if violations:
        print(f"{tag}: {len(violations)} banned path(s) from "
              f"{len(roots)} root(s):", file=sys.stderr)
        for chain in violations:
            print("  " + "\n    -> ".join(pretty.get(s, s) for s in chain),
                  file=sys.stderr)
    else:
        reachable = sum(1 for s in parent if s in defined)
        print(f"{tag}: OK — {reachable} reachable functions from "
              f"{len(roots)} root(s), no banned symbol outside the "
              f"allowlist")

    if args.expect_violation:
        if violations:
            print(f"{tag}: violation found, as the fixture expects")
            return 0
        print(f"{tag}: expected a violation but found none — "
              "the lint has gone blind", file=sys.stderr)
        return 1
    return 1 if violations else 0


def main(argv=None):
    parser = build_arg_parser()
    return run(parser.parse_args(argv), parser)


if __name__ == "__main__":
    sys.exit(main())
