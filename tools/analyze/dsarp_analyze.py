#!/usr/bin/env python3
"""dsarp-analyze: the repo's static checker.

Each rule guards a contract the compiler cannot see, and each was born
from a real bug class in this codebase.

Determinism rules.  The event engine, the sharded SweepRunner, and the
multi-tenant traffic injector all promise byte-identical results
across cycle-vs-event engines, any ``--jobs`` count, and skipTicks
replay.  The bug classes that silently break those promises are
statically detectable.  These five rules read src/ only:

1. ordered-iteration -- a range-for or ``.begin()`` iterator loop over
   a ``std::unordered_map``/``unordered_set``.  Hash-table iteration
   order is implementation- and insertion-history-dependent; the
   moment it feeds a stat counter, the command log, a histogram, or an
   energy accumulator, two bit-identical runs stop being comparable.
   Iterate a sorted copy, or keep the container vector-backed.

2. blessed-rng-sites -- an ``Rng`` draw (next/below/uniform/chance/
   discard) outside the audited draw sites.  The event engine's
   skipTicks replays exactly the draws a skipped tick would have made;
   a draw added anywhere else desynchronizes the stream between the
   cycle and event engines.  Blessed: workload generation, the traffic
   injector's arrival instants, the opportunistic-probe path in the
   controller (the oppDraws_ replay contract), and the refresh
   schedulers' idle-bank picks, all listed in RNG_TUS.

3. fp-accumulation-order -- a ``double`` ``+=`` reduction inside a
   loop outside the blessed accumulation points (FP_ACCUM_TUS).
   Floating-point addition is not associative; when shard or container
   order can change, the sum -- and every figure derived from it --
   changes in the last ulp and the byte-identity gate trips.

4. stat-write-outside-accounting -- mutation of a component's stat
   counters (``stats_.x``, ``.stats.x``, or through a ``stats()``
   accessor) outside the owning component's accounting TU
   (STAT_ACCOUNTING_TUS).  Scattered writers make the counters
   impossible to audit for engine bit-identity.

5. pointer-ordered-containers -- ``std::map``/``std::set`` (or
   ``std::less``) keyed on a raw pointer.  Pointer order is allocator
   order; it varies run to run under ASLR and across ``--jobs``
   shards, so anything iterated from such a container is
   nondeterministic even though the container is "ordered".

Repo invariants.  These read src/, tests/*.cc, bench/, tools/*.cc and
examples/, minus the exemptions each one names:

6. unit-honest-conversion -- no arithmetic against the clock period
   (``/ tCkNs``, ``* tCkNs``) outside the conversion TUs,
   src/dram/timing.cc and src/dram/spec.cc.  Every other file converts
   through TimingParams::nsToCycles / nsToCyclesFloor (this is the bug
   class that once understated LPDDR4 refresh energy 2x).
   ``tCkNs.ns()`` is the documented way to read the raw figure for
   printing and for energy math (mA x ns).

7. config-key-once -- every ExperimentConfig key string is declared
   exactly once, in src/sim/config_keys.hh.  A string literal under
   src/ that respells a key (``"refresh.fgrRate"``) or quotes one in a
   message (``"config key 'refresh.fgrRate' must ..."``) forks the
   user-facing vocabulary; library code builds the text from the
   keys::k* constant.  Tests and tools spell keys as a user would.

8. registrar-once -- each ``DSARP_REGISTER_*`` registration lives in
   one .cc file; the registrar families are the ``#define
   DSARP_REGISTER_*`` macros in src/ headers.  A copy-pasted registrar
   aborts at startup in every binary.

9. single-thread-spawn-point -- no ``std::thread``/``std::jthread``
   spawn or ``std::async`` launch outside src/sim/parallel.{hh,cc}.
   Every parallel path funnels through parallelFor()/SweepRunner so it
   inherits their exception handling and byte-identical-results
   contract.  Static queries (``std::thread::hardware_concurrency``)
   and tests/, which probe thread-cleanliness on purpose, are exempt.

10. tags-by-name-only -- no assignment to a config's ``.refresh``,
    ``.sarp`` or ``.hira`` tag outside src/refresh/*.cc.
    RefreshPolicyRegistry::resolve() resets all three from
    MemConfig::policy, so a stray ``cfg.mem.refresh =
    RefreshMode::kPerBank`` would silently run REFab; select the
    mechanism by setting ``policy`` instead.

11. fuzz-corpus -- every tests/fuzz/fuzz_*.cc harness has a non-empty
    seed corpus under tests/fuzz/corpus/<name>/; without one its ctest
    replay entry asserts nothing.

False positives are suppressed in place with a documented comment on
the offending line or the line above::

    // dsarp-analyze: allow(fp-accumulation-order): indexed channel
    // order is deterministic

Exit status 0 when clean, 1 with findings (one
``file:line: rule: message`` per line), 2 on usage errors.
``--self-test`` runs the rules over tests/fixtures/analyze/, a tree
that seeds violations of every rule beside clean counterexamples, and
requires exactly the ``file:line: rule`` lines of its expected.txt
(at least one per rule), then requires the real tree to be clean.
"""

import argparse
import re
import sys
from collections import Counter
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import cpptok  # noqa: E402

REPO = Path(__file__).resolve().parent.parent.parent
FIXTURES = REPO / "tests/fixtures/analyze"

# The files the rules read; the determinism rules read the src/ part.
SOURCE_GLOBS = ("src/**/*.cc", "src/**/*.hh", "tests/*.cc",
                "bench/*.cc", "bench/*.hh", "tools/*.cc",
                "examples/*.cpp")

# --- Allowlists (repo-relative), with the rationale for each entry. ---

# Rng draw sites whose determinism contract is audited by tests:
#   - rng.hh: the generator itself (discard() is the replay primitive).
#   - workload/, core/trace.cc, core/cache.cc: synthetic generation,
#     seeded per run; draws happen at fixed points of the instruction
#     stream.
#   - workload/arrival.*: the injector draws only at arrival instants
#     (pinned by tests/test_traffic.cc bit-identity cases).
#   - controller/controller.cc: the opportunistic-probe draw, replayed
#     by skipTicks via the oppDraws_ counter.
#   - refresh/{darp,hira}.cc: idle-unit/coverage picks on the
#     scheduler stream (schedulerRng), identical in both engines.
#   - sim/parallel.*: pointSeed derivation (splitmix64 per point).
RNG_TUS = {
    "src/common/rng.hh",
    "src/workload/workload.cc",
    "src/workload/arrival.hh",
    "src/workload/arrival.cc",
    "src/core/trace.cc",
    "src/core/cache.cc",
    "src/controller/controller.cc",
    "src/refresh/darp.cc",
    "src/refresh/hira.cc",
    "src/sim/parallel.hh",
    "src/sim/parallel.cc",
}

# Blessed floating-point accumulation points: reductions whose
# iteration order is fixed (indexed loops over per-channel/per-core
# vectors) and pinned by the golden baselines.
FP_ACCUM_TUS = {
    "src/common/stats.cc",   # RunningStat / LatencyHistogram merge
    "src/common/stats.hh",
    "src/sim/energy.cc",     # per-channel energy assembly
    "src/sim/metrics.cc",    # WS/HS summary reductions
}

# The accounting TUs: each owns the stats struct it mutates.
STAT_ACCOUNTING_TUS = {
    "src/dram/channel.hh",        # ChannelStats (inline tick hooks)
    "src/dram/channel.cc",
    "src/controller/controller.cc",  # ControllerStats
    "src/core/core.cc",           # CoreStats
    "src/workload/arrival.cc",    # TenantStats
    "src/refresh/scheduler.hh",   # RefreshSchedStats (base resets)
    "src/refresh/all_bank.cc",
    "src/refresh/per_bank.cc",
    "src/refresh/elastic.cc",
    "src/refresh/fgr.cc",
    "src/refresh/darp.cc",
    "src/refresh/hira.cc",
    "src/common/stats.cc",        # the stat helpers themselves
}

# The ns -> cycles conversion implementations themselves.
CONVERSION_TUS = {"src/dram/timing.cc", "src/dram/spec.cc"}

# The audited thread-spawn point (see src/sim/parallel.hh).
THREAD_SPAWN_TUS = {"src/sim/parallel.hh", "src/sim/parallel.cc"}

CONFIG_KEYS_HH = "src/sim/config_keys.hh"

RNG_DRAW_METHODS = {"next", "below", "uniform", "chance", "discard"}
MUTATING_OPS = {"=", "+=", "-=", "*=", "/=", "++", "--", "|=", "&=", "^="}
SCALING_OPS = {"*", "/", "*=", "/="}
RESOLVED_TAGS = {"refresh", "sarp", "hira"}
REGISTRAR_DEFINE_RE = re.compile(
    r"^\s*#\s*define\s+(DSARP_REGISTER_\w+)\s*\(", re.MULTILINE)


class FileInfo:
    """Token stream plus per-file declaration tables."""

    def __init__(self, rel, text):
        self.rel = rel
        self.text = text
        self.toks, self.suppress = cpptok.lex(text)
        self.unordered = set()    # names declared as unordered containers
        self.doubles = set()      # names declared double
        self.rng_vars = set()     # names declared Rng / Rng& / Rng*
        self.rng_fns = set()      # functions returning Rng&
        self._scan_decls()

    def _scan_decls(self):
        toks = self.toks
        for i, t in enumerate(toks):
            if t.kind != "id":
                continue
            if t.text in ("unordered_map", "unordered_set",
                          "unordered_multimap", "unordered_multiset"):
                j = cpptok.skip_template_args(toks, i + 1)
                if j > i + 1 and j < len(toks) and toks[j].kind == "id":
                    self.unordered.add(toks[j].text)
                # `using Alias = std::unordered_map<...>;` -> treat the
                # alias name as an unordered type for later decls.
                if i >= 3 and toks[i - 1].text == "::":
                    i -= 2
                if (i >= 2 and toks[i - 1].text == "=" and
                        toks[i - 2].kind == "id"):
                    self.unordered.add(toks[i - 2].text)
            elif t.text == "double":
                j = i + 1
                while j < len(toks) and toks[j].text in ("&", "*", "const"):
                    j += 1
                if (j < len(toks) and toks[j].kind == "id" and
                        j + 1 < len(toks) and
                        toks[j + 1].text in (";", "=", ",", "{", ")")):
                    self.doubles.add(toks[j].text)
            elif t.text == "Rng":
                j = i + 1
                is_ref = False
                while j < len(toks) and toks[j].text in ("&", "*", "const"):
                    is_ref = is_ref or toks[j].text == "&"
                    j += 1
                if j < len(toks) and toks[j].kind == "id":
                    if j + 1 < len(toks) and toks[j + 1].text == "(":
                        if is_ref:
                            self.rng_fns.add(toks[j].text)
                    else:
                        self.rng_vars.add(toks[j].text)

    def suppressed(self, line, rule):
        if rule in self.suppress.get(line, set()):
            return True
        # A suppression comment may sit on its own line (or a short
        # comment block) directly above the flagged statement.
        token_lines = getattr(self, "_token_lines", None)
        if token_lines is None:
            token_lines = {t.line for t in self.toks}
            self._token_lines = token_lines
        probe = line - 1
        while probe > 0 and probe >= line - 8 and probe not in token_lines:
            if rule in self.suppress.get(probe, set()):
                return True
            probe -= 1
        return False


class Tree:
    """The files under *root* that the rules read, lexed once, plus the
    declaration tables of src/: members declared in a header must be
    recognized in the .cc files that use them."""

    def __init__(self, root):
        self.root = Path(root)
        self.files = [
            FileInfo(path.relative_to(self.root),
                     path.read_text(errors="replace"))
            for pattern in SOURCE_GLOBS
            for path in sorted(self.root.glob(pattern))]
        self.src = [f for f in self.files if f.rel.parts[0] == "src"]

        # Locals resolve within their own file; only member-style names
        # (trailing underscore) carry over tree-wide.
        def members(names):
            return {n for n in names if n.endswith("_")}

        self.unordered_members = set()
        self.double_members = set()
        self.rng_members = set()
        self.rng_fns = set()
        self.loop_lines = {}
        for info in self.src:
            self.unordered_members |= members(info.unordered)
            self.double_members |= members(info.doubles)
            self.rng_members |= members(info.rng_vars)
            self.rng_fns |= info.rng_fns
            self.loop_lines[str(info.rel)] = loop_lines(info.toks)


def chain_start(toks, i):
    """Index of the first token of the member-access chain whose last
    identifier is toks[i]: walks back over `(id|)) (.|->)` pairs, so
    for ``a.b().c_`` it lands on ``a``."""
    j = i
    while j >= 2 and toks[j - 1].text in (".", "->"):
        k = j - 2
        if toks[k].text == ")":
            depth = 0
            while k >= 0:
                if toks[k].text == ")":
                    depth += 1
                elif toks[k].text == "(":
                    depth -= 1
                    if depth == 0:
                        k -= 1
                        break
                k -= 1
        if k < 0 or toks[k].kind != "id":
            break
        j = k
    return j


def receiver_name(toks, i):
    """Name of the receiver of the member access at toks[i] ('.'/'->').

    Walks back over one trailing call ``()`` so ``schedulerRng().next``
    resolves to ``schedulerRng``.
    """
    j = i - 1
    if j >= 0 and toks[j].text == ")":
        depth = 0
        while j >= 0:
            if toks[j].text == ")":
                depth += 1
            elif toks[j].text == "(":
                depth -= 1
                if depth == 0:
                    j -= 1
                    break
            j -= 1
    if j >= 0 and toks[j].kind == "id":
        return toks[j].text
    return None


def loop_lines(toks):
    """Set of line numbers inside loop bodies (incl. the loop header)."""
    lines = set()
    n = len(toks)
    spans = []  # (start_idx, end_idx) token ranges inside loops

    def matching(open_i, open_ch, close_ch):
        depth = 0
        k = open_i
        while k < n:
            if toks[k].text == open_ch:
                depth += 1
            elif toks[k].text == close_ch:
                depth -= 1
                if depth == 0:
                    return k
            k += 1
        return n - 1

    i = 0
    while i < n:
        t = toks[i]
        if t.kind == "id" and t.text in ("for", "while"):
            # `while` of a do-while has no body after it; the `do`
            # branch below already covered the body.
            j = i + 1
            if j < n and toks[j].text == "(":
                close = matching(j, "(", ")")
                body = close + 1
                if body < n and toks[body].text == "{":
                    end = matching(body, "{", "}")
                else:
                    end = body
                    while end < n and toks[end].text != ";":
                        if toks[end].text == "{":
                            end = matching(end, "{", "}")
                        end += 1
                spans.append((i, end))
                i = body
                continue
        elif t.kind == "id" and t.text == "do":
            if i + 1 < n and toks[i + 1].text == "{":
                end = matching(i + 1, "{", "}")
                spans.append((i, end))
        i += 1
    for start, end in spans:
        for k in range(start, min(end + 1, n)):
            lines.add(toks[k].line)
    return lines


# ---------------------------------------------------------------------------
# Determinism rules.  Each takes (info, tree, findings) for one src/ file;
# the tree carries the declaration tables.
# ---------------------------------------------------------------------------

def rule_ordered_iteration(info, tree, findings):
    toks = info.toks
    names = info.unordered | tree.unordered_members
    for i, t in enumerate(toks):
        if t.kind != "id" or t.text not in names:
            continue
        line = t.line
        # Range-for: `for ( decl : expr.name )` -- walk back over the
        # member chain, then scan for ':' inside a for header.
        j = chain_start(toks, i) - 1
        if j >= 0 and toks[j].text == ":":
            k = j - 1
            depth = 0
            while k >= 0:
                txt = toks[k].text
                if txt == ")":
                    depth += 1
                elif txt == "(":
                    if depth == 0:
                        break
                    depth -= 1
                elif txt in (";", "{", "}"):
                    k = -1
                    break
                k -= 1
            if (k > 0 and toks[k - 1].kind == "id" and
                    toks[k - 1].text == "for"):
                emit(findings, info, line, "ordered-iteration",
                     f"range-for over unordered container '{t.text}'; "
                     "iteration order leaks into results -- iterate a "
                     "sorted copy or use vector-backed storage")
                continue
        # Iterator loop: `name.begin()` (or cbegin) anywhere.
        if (i + 2 < len(toks) and toks[i + 1].text in (".", "->") and
                toks[i + 2].kind == "id" and
                toks[i + 2].text in ("begin", "cbegin", "rbegin")):
            emit(findings, info, line, "ordered-iteration",
                 f"iterator walk over unordered container '{t.text}'; "
                 "iteration order leaks into results -- iterate a "
                 "sorted copy or use vector-backed storage")


def rule_blessed_rng_sites(info, tree, findings):
    if str(info.rel) in RNG_TUS:
        return
    toks = info.toks
    rng_vars = info.rng_vars | tree.rng_members
    for i, t in enumerate(toks):
        if (t.kind != "id" or t.text not in RNG_DRAW_METHODS or
                i == 0 or toks[i - 1].text not in (".", "->") or
                i + 1 >= len(toks) or toks[i + 1].text != "("):
            continue
        recv = receiver_name(toks, i - 1)
        if recv is None:
            continue
        if (recv in rng_vars or recv in tree.rng_fns or
                "rng" in recv.lower()):
            emit(findings, info, t.line, "blessed-rng-sites",
                 f"Rng draw '{recv}.{t.text}()' outside the blessed "
                 "draw sites; a stray draw desynchronizes skipTicks "
                 "replay between the cycle and event engines")


def rule_fp_accumulation_order(info, tree, findings):
    rel = str(info.rel)
    if rel in FP_ACCUM_TUS:
        return
    toks = info.toks
    in_loop = tree.loop_lines[rel]
    doubles = info.doubles | tree.double_members
    for i, t in enumerate(toks):
        if t.text != "+=" or t.kind != "punct":
            continue
        if t.line not in in_loop:
            continue
        j = i - 1
        if j < 0 or toks[j].kind != "id":
            continue
        name = toks[j].text
        # Accept member chains: the accumulated lvalue is the last
        # identifier before '+='.
        if name in doubles:
            emit(findings, info, t.line, "fp-accumulation-order",
                 f"double accumulation '{name} +=' inside a loop "
                 "outside the blessed accumulation points; if shard or "
                 "container order can change, the fp sum changes -- "
                 "accumulate at a blessed point or document with a "
                 "suppression")


def rule_stat_write_outside_accounting(info, tree, findings):
    if str(info.rel) in STAT_ACCOUNTING_TUS:
        return
    toks = info.toks
    n = len(toks)
    for i, t in enumerate(toks):
        if t.kind != "id" or t.text not in ("stats_", "stats"):
            continue
        # `stats()` accessor or `x.stats.` / `x.stats_.` member chain;
        # bare local variables named `stats` don't count unless
        # accessed as a member of something or a member of this.
        is_accessor = (i + 1 < n and toks[i + 1].text == "(" and
                       i + 2 < n and toks[i + 2].text == ")")
        j = i + (3 if is_accessor else 1)
        if t.text == "stats" and not is_accessor:
            if i == 0 or toks[i - 1].text not in (".", "->"):
                continue
        if j >= n or toks[j].text not in (".", "->"):
            continue
        if j + 1 >= n or toks[j + 1].kind != "id":
            continue
        field = toks[j + 1].text
        k = j + 2
        # `.merge(` and method calls that mutate are accounted writes
        # only in accounting TUs; flag assignments and inc/dec here.
        start = chain_start(toks, i)
        if k < n and toks[k].text in MUTATING_OPS and toks[k].text != "=":
            pass
        elif k < n and toks[k].text == "=":
            if k + 1 < n and toks[k + 1].text == "=":
                continue  # == comparison
        elif start >= 1 and toks[start - 1].text in ("++", "--"):
            pass  # prefix inc/dec of the whole chain
        else:
            continue
        emit(findings, info, t.line, "stat-write-outside-accounting",
             f"stat counter '{field}' mutated outside the owning "
             "component's accounting TU; route the write through the "
             "component so engine bit-identity stays auditable")


def rule_pointer_ordered_containers(info, tree, findings):
    toks = info.toks
    for i, t in enumerate(toks):
        if t.kind != "id" or t.text not in (
                "map", "set", "multimap", "multiset", "less", "greater"):
            continue
        # Require std:: (or at least a template argument list).
        if i < 2 or toks[i - 1].text != "::" or toks[i - 2].text != "std":
            continue
        if i + 1 >= len(toks) or toks[i + 1].text != "<":
            continue
        arg = cpptok.template_arg_tokens(toks, i + 1)
        if any(a.text == "*" for a in arg):
            emit(findings, info, t.line, "pointer-ordered-containers",
                 f"std::{t.text} keyed on a raw pointer; pointer order "
                 "is allocator order and varies under ASLR/--jobs -- "
                 "key on a stable id instead")


def in_src(rule):
    """Run a one-file determinism rule over every src/ file."""
    def run(tree, findings):
        for info in tree.src:
            rule(info, tree, findings)
    return run


# ---------------------------------------------------------------------------
# Repo invariants.  Each takes (tree, findings) and picks its own files.
# ---------------------------------------------------------------------------

def rule_unit_honest_conversion(tree, findings):
    for info in tree.files:
        if str(info.rel) in CONVERSION_TUS:
            continue
        toks = info.toks
        for i, t in enumerate(toks):
            if t.kind != "id" or t.text != "tCkNs":
                continue
            if [x.text for x in toks[i + 1:i + 5]] == [".", "ns", "(", ")"]:
                continue  # the documented raw read
            start = chain_start(toks, i)
            before = toks[start - 1].text if start > 0 else ""
            after = toks[i + 1].text if i + 1 < len(toks) else ""
            if before in SCALING_OPS or after in SCALING_OPS:
                emit(findings, info, t.line, "unit-honest-conversion",
                     "raw tCK arithmetic outside timing.cc/spec.cc; "
                     "convert via TimingParams::nsToCycles")


def declared_keys(info):
    """The string token of each ``constexpr char kX[] = "key"``."""
    toks = info.toks
    keys = []
    for i in range(len(toks) - 1):
        if toks[i].text != "constexpr" or toks[i + 1].text != "char":
            continue
        j = i + 2
        while j < len(toks) and toks[j].text != ";":
            if toks[j].kind == "str":
                keys.append(toks[j])
                break
            j += 1
    return keys


def rule_config_key_once(tree, findings):
    header = next((f for f in tree.src if str(f.rel) == CONFIG_KEYS_HH),
                  None)
    decls = declared_keys(header) if header else []
    if not decls:
        findings.append((CONFIG_KEYS_HH, 1, "config-key-once",
                         "missing or declares no keys"))
        return
    first = {}
    for tok in decls:
        if tok.text in first:
            emit(findings, header, tok.line, "config-key-once",
                 f"key \"{tok.text}\" declared twice (first at line "
                 f"{first[tok.text]})")
        else:
            first[tok.text] = tok.line
    for info in tree.src:
        if info is header:
            continue
        for t in info.toks:
            if t.kind != "str":
                continue
            if t.text in first:
                emit(findings, info, t.line, "config-key-once",
                     f"config key \"{t.text}\" respelled; use the "
                     "keys::k* constant from sim/config_keys.hh")
            for key in sorted(first):
                if f"'{key}'" in t.text:
                    emit(findings, info, t.line, "config-key-once",
                         f"config key '{key}' quoted in a message "
                         "literal; build it from the keys::k* constant "
                         "in sim/config_keys.hh")


def rule_registrar_once(tree, findings):
    families = {m.group(1) for info in tree.src if info.rel.suffix == ".hh"
                for m in REGISTRAR_DEFINE_RE.finditer(info.text)}
    owners = {}
    for info in tree.files:
        if info.rel.suffix != ".cc":
            continue
        toks = info.toks
        for i, t in enumerate(toks[:-2]):
            if (t.kind != "id" or t.text not in families or
                    toks[i + 1].text != "(" or toks[i + 2].kind != "id"):
                continue
            entry = (t.text, toks[i + 2].text)
            if entry in owners:
                emit(findings, info, t.line, "registrar-once",
                     f"registry entry '{entry[1]}' also registered at "
                     f"{owners[entry]}; each entry must live in exactly "
                     "one TU")
            else:
                owners[entry] = f"{info.rel}:{t.line}"


def rule_single_thread_spawn_point(tree, findings):
    for info in tree.files:
        if (str(info.rel) in THREAD_SPAWN_TUS or
                info.rel.parts[0] == "tests"):
            continue
        toks = info.toks
        for i, t in enumerate(toks):
            if (t.kind != "id" or
                    t.text not in ("thread", "jthread", "async") or
                    i < 2 or toks[i - 1].text != "::" or
                    toks[i - 2].text != "std"):
                continue
            if (t.text != "async" and i + 1 < len(toks) and
                    toks[i + 1].text == "::"):
                continue  # a static query such as hardware_concurrency
            emit(findings, info, t.line, "single-thread-spawn-point",
                 "raw thread spawn outside src/sim/parallel.*; route "
                 "through parallelFor/SweepRunner (the audited spawn "
                 "point)")


def rule_tags_by_name_only(tree, findings):
    for info in tree.files:
        if info.rel.parent == Path("src/refresh") and info.rel.suffix == ".cc":
            continue
        toks = info.toks
        for i in range(1, len(toks) - 1):
            t = toks[i]
            if (t.kind == "id" and t.text in RESOLVED_TAGS and
                    toks[i - 1].text in (".", "->") and
                    toks[i + 1].text == "="):
                emit(findings, info, t.line, "tags-by-name-only",
                     f"assignment to the '{t.text}' tag outside "
                     "src/refresh/*.cc; resolve() resets it from "
                     "MemConfig::policy, so set policy instead")


def rule_fuzz_corpus(tree, findings):
    for harness in sorted(tree.root.glob("tests/fuzz/fuzz_*.cc")):
        name = harness.stem[len("fuzz_"):]
        corpus = tree.root / "tests/fuzz/corpus" / name
        if corpus.is_dir() and any(p.is_file() for p in corpus.iterdir()):
            continue
        findings.append((harness.relative_to(tree.root), 1, "fuzz-corpus",
                         f"no seed corpus at tests/fuzz/corpus/{name}/; "
                         "the ctest replay entry would assert nothing"))


RULES = {
    "ordered-iteration": in_src(rule_ordered_iteration),
    "blessed-rng-sites": in_src(rule_blessed_rng_sites),
    "fp-accumulation-order": in_src(rule_fp_accumulation_order),
    "stat-write-outside-accounting":
        in_src(rule_stat_write_outside_accounting),
    "pointer-ordered-containers": in_src(rule_pointer_ordered_containers),
    "unit-honest-conversion": rule_unit_honest_conversion,
    "config-key-once": rule_config_key_once,
    "registrar-once": rule_registrar_once,
    "single-thread-spawn-point": rule_single_thread_spawn_point,
    "tags-by-name-only": rule_tags_by_name_only,
    "fuzz-corpus": rule_fuzz_corpus,
}


def emit(findings, info, line, rule, message):
    if not info.suppressed(line, rule):
        findings.append((info.rel, line, rule, message))


def analyze(root):
    """(file, line, rule, message) for every finding under *root*."""
    tree = Tree(root)
    findings = []
    for rule in RULES.values():
        rule(tree, findings)
    return findings


def self_test():
    """The fixture tree must give exactly expected.txt, which names
    every rule, and the real tree must be clean."""
    got = Counter(f"{rel}:{line}: {rule}"
                  for rel, line, rule, _ in analyze(FIXTURES))
    want = Counter(line for line in
                   (FIXTURES / "expected.txt").read_text().splitlines()
                   if line.strip())
    failures = [f"missing: {line}" for line in sorted(want - got)]
    failures += [f"extra: {line}" for line in sorted(got - want)]
    failures += [f"expected.txt names no finding of rule '{rule}'"
                 for rule in RULES
                 if not any(line.endswith(f": {rule}") for line in want)]
    failures += ["real tree not clean: {}:{}: {}: {}".format(*f)
                 for f in analyze(REPO)]
    for msg in failures:
        print(f"self-test: {msg}")
    if failures:
        return 1
    print(f"dsarp-analyze self-test: {sum(want.values())} fixture "
          "finding(s) match expected.txt, real tree clean")
    return 0


def main():
    parser = argparse.ArgumentParser(
        description="the repo's static checker: determinism rules and "
                    "repo invariants")
    parser.add_argument("--root", type=Path, default=REPO,
                        help="tree to analyze (default: the repo)")
    parser.add_argument("--self-test", action="store_true",
                        help="check the rules against "
                             "tests/fixtures/analyze and the real tree")
    args = parser.parse_args()

    if args.self_test:
        return self_test()
    findings = analyze(args.root)
    for rel, line, rule, message in findings:
        print(f"{rel}:{line}: {rule}: {message}")
    if findings:
        print(f"dsarp-analyze: {len(findings)} finding(s)")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
