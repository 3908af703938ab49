#!/usr/bin/env python3
"""dsarp-analyze: determinism audit for the bit-identical contracts.

The event engine, the sharded SweepRunner, and the multi-tenant
traffic injector all promise byte-identical results across
cycle-vs-event engines, any ``--jobs`` count, and skipTicks replay.
The bug classes that silently break those promises are statically
detectable; each one here is a rule with a repo-specific allowlist:

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

False positives are suppressed in place with a documented comment on
the offending line or the line above::

    // dsarp-analyze: allow(fp-accumulation-order): indexed channel
    // order is deterministic

Exit status 0 when clean, 1 with findings (one
``file:line: rule: message`` per line), 2 on usage errors.
``--self-test`` seeds one violation per rule in a temp tree and
asserts each is caught (and that every allowlist and the suppression
syntax actually work).  Translation units come from
``compile_commands.json`` when the build tree provides one, else from
the source globs.
"""

import argparse
import json
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import cpptok  # noqa: E402

REPO = Path(__file__).resolve().parent.parent.parent

RULES = (
    "ordered-iteration",
    "blessed-rng-sites",
    "fp-accumulation-order",
    "stat-write-outside-accounting",
    "pointer-ordered-containers",
)

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

SOURCE_GLOBS = ("src/**/*.cc", "src/**/*.hh")

RNG_DRAW_METHODS = {"next", "below", "uniform", "chance", "discard"}
MUTATING_OPS = {"=", "+=", "-=", "*=", "/=", "++", "--", "|=", "&=", "^="}


def source_files(root, compdb=None):
    """TUs to analyze: compile_commands.json entries under src/ when a
    build tree provides one, else the globs; headers always via glob."""
    files = []
    seen = set()
    if compdb:
        for entry in compdb:
            path = Path(entry.get("file", ""))
            if not path.is_absolute():
                path = Path(entry.get("directory", ".")) / path
            try:
                rel = path.resolve().relative_to(root.resolve())
            except ValueError:
                continue
            if rel.parts[:1] == ("src",) and rel not in seen:
                seen.add(rel)
                files.append(root / rel)
    for pattern in SOURCE_GLOBS:
        for path in sorted(root.glob(pattern)):
            rel = path.relative_to(root)
            if rel not in seen:
                seen.add(rel)
                files.append(path)
    return files


def load_compdb(root, build_dirs=("build", "build-asan", "build-tsan")):
    for d in build_dirs:
        db = root / d / "compile_commands.json"
        if db.exists():
            try:
                return json.loads(db.read_text())
            except json.JSONDecodeError:
                return None
    return None


class FileInfo:
    """Token stream plus per-file declaration tables."""

    def __init__(self, rel, text):
        self.rel = rel
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
# Rules.  Each takes (info, ctx, findings); ctx carries tree-wide
# declaration tables so member containers declared in a header are
# recognized in the .cc that iterates them.
# ---------------------------------------------------------------------------

def rule_ordered_iteration(info, ctx, findings):
    toks = info.toks
    names = info.unordered | ctx["unordered_members"]
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


def rule_blessed_rng_sites(info, ctx, findings):
    rel = str(info.rel)
    if rel in RNG_TUS:
        return
    toks = info.toks
    rng_vars = info.rng_vars | ctx["rng_members"]
    rng_fns = ctx["rng_fns"]
    for i, t in enumerate(toks):
        if (t.kind != "id" or t.text not in RNG_DRAW_METHODS or
                i == 0 or toks[i - 1].text not in (".", "->") or
                i + 1 >= len(toks) or toks[i + 1].text != "("):
            continue
        recv = receiver_name(toks, i - 1)
        if recv is None:
            continue
        if (recv in rng_vars or recv in rng_fns or
                "rng" in recv.lower()):
            emit(findings, info, t.line, "blessed-rng-sites",
                 f"Rng draw '{recv}.{t.text}()' outside the blessed "
                 "draw sites; a stray draw desynchronizes skipTicks "
                 "replay between the cycle and event engines")


def rule_fp_accumulation_order(info, ctx, findings):
    rel = str(info.rel)
    if rel in FP_ACCUM_TUS:
        return
    toks = info.toks
    in_loop = ctx["loop_lines"][rel]
    # Locals resolve within their own file; only member-style names
    # (trailing underscore) carry over from headers tree-wide, so a
    # local `x` here never collides with a `double x` elsewhere.
    doubles = info.doubles | ctx["double_members"]
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


def rule_stat_write_outside_accounting(info, ctx, findings):
    rel = str(info.rel)
    if rel in STAT_ACCOUNTING_TUS:
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


def rule_pointer_ordered_containers(info, ctx, findings):
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


RULE_FNS = {
    "ordered-iteration": rule_ordered_iteration,
    "blessed-rng-sites": rule_blessed_rng_sites,
    "fp-accumulation-order": rule_fp_accumulation_order,
    "stat-write-outside-accounting": rule_stat_write_outside_accounting,
    "pointer-ordered-containers": rule_pointer_ordered_containers,
}


def emit(findings, info, line, rule, message):
    if info.suppressed(line, rule):
        return
    findings.append(f"{info.rel}:{line}: {rule}: {message}")


def analyze(root, rules=RULES, compdb=None):
    root = Path(root)
    infos = []
    for path in source_files(root, compdb):
        try:
            text = path.read_text(errors="replace")
        except OSError:
            continue
        infos.append(FileInfo(path.relative_to(root), text))

    # Tree-wide declaration tables: members declared in headers must be
    # recognized in the .cc files that use them.
    def members(names):
        return {n for n in names if n.endswith("_")}

    ctx = {
        "unordered_members": set(),
        "double_members": set(),
        "rng_members": set(),
        "rng_fns": set(),
        "loop_lines": {},
    }
    for info in infos:
        ctx["unordered_members"] |= members(info.unordered)
        ctx["double_members"] |= members(info.doubles)
        ctx["rng_members"] |= members(info.rng_vars)
        ctx["rng_fns"] |= info.rng_fns
        ctx["loop_lines"][str(info.rel)] = loop_lines(info.toks)

    findings = []
    for info in infos:
        for rule in rules:
            RULE_FNS[rule](info, ctx, findings)
    return findings


# ---------------------------------------------------------------------------
# Self-test: one seeded violation per rule, plus counterexamples that
# must stay clean (blessed TUs, suppression comments, ordered
# containers, non-double accumulators).  Mirrors tools/lint/lint.py.
# ---------------------------------------------------------------------------

# Keep SELF_TEST_SEEDS keys in sync with RULES; lint.py rule 5
# (selftest-coverage) fails the build when a rule has no seed here.
SELF_TEST_SEEDS = {
    "ordered-iteration": (
        "src/sim/bad_iter.cc",
        "#include <unordered_map>\n"
        "struct S { std::unordered_map<int, int> hist_; };\n"
        "int sum(S &s) {\n"
        "    int total = 0;\n"
        "    for (const auto &kv : s.hist_) total += kv.second;\n"
        "    return total;\n"
        "}\n"),
    "blessed-rng-sites": (
        "src/dram/bad_rng.cc",
        "struct Rng { double uniform(); };\n"
        "double jitter(Rng &rng) { return rng.uniform(); }\n"),
    "fp-accumulation-order": (
        "src/sim/bad_sum.cc",
        "double total(const double *xs, int n) {\n"
        "    double sum = 0;\n"
        "    for (int i = 0; i < n; ++i) sum += xs[i];\n"
        "    return sum;\n"
        "}\n"),
    "stat-write-outside-accounting": (
        "src/sim/bad_stat.cc",
        "struct ChannelStats { unsigned long long reads; };\n"
        "struct Ch { ChannelStats stats_; };\n"
        "void poke(Ch &ch) { ++ch.stats_.reads; }\n"),
    "pointer-ordered-containers": (
        "src/dram/bad_ptr.cc",
        "#include <map>\n"
        "struct Bank;\n"
        "std::map<Bank *, int> order_;\n"),
}

# Counterexamples: each must produce zero findings.
SELF_TEST_CLEAN = {
    # Blessed RNG site: the workload generator draws on purpose.
    "src/workload/workload.cc":
        "struct Rng { double uniform(); };\n"
        "double pick(Rng &rng) { return rng.uniform(); }\n",
    # Blessed fp accumulation point.
    "src/common/stats.cc":
        "void add(double &sum_, const double *xs, int n) {\n"
        "    for (int i = 0; i < n; ++i) sum_ += xs[i];\n"
        "}\n",
    # Accounting TU mutating its own counters.
    "src/core/core.cc":
        "struct CoreStats { unsigned long long retired; };\n"
        "struct Core { CoreStats stats_; void tick() "
        "{ ++stats_.retired; } };\n",
    # Ordered map iteration is fine; string keys are fine.
    "src/sim/fine_map.cc":
        "#include <map>\n#include <string>\n"
        "int count(const std::map<std::string, int> &m) {\n"
        "    int n = 0;\n"
        "    for (const auto &kv : m) n += kv.second;\n"
        "    return n;\n"
        "}\n",
    # A documented suppression silences the finding.
    "src/sim/suppressed_sum.cc":
        "double total(const double *xs, int n) {\n"
        "    double sum = 0;\n"
        "    for (int i = 0; i < n; ++i) {\n"
        "        // dsarp-analyze: allow(fp-accumulation-order): index\n"
        "        // order is fixed\n"
        "        sum += xs[i];\n"
        "    }\n"
        "    return sum;\n"
        "}\n",
    # Integer accumulation in a loop: not an fp-order hazard.
    "src/sim/int_sum.cc":
        "long total(const long *xs, int n) {\n"
        "    long acc = 0;\n"
        "    for (int i = 0; i < n; ++i) acc += xs[i];\n"
        "    return acc;\n"
        "}\n",
}


def self_test():
    failures = []
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        for rule, (rel, text) in SELF_TEST_SEEDS.items():
            path = root / rel
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(text)
        findings = analyze(root)
        for rule in RULES:
            hits = [f for f in findings if f" {rule}: " in f]
            seed_rel = SELF_TEST_SEEDS[rule][0]
            if not any(seed_rel in f for f in hits):
                failures.append(
                    f"self-test: rule '{rule}' missed its seeded "
                    f"violation in {seed_rel} (findings: {findings})")

        # Counterexamples replace the seeds; the tree must go clean.
        for rel, _ in SELF_TEST_SEEDS.values():
            (root / rel).unlink()
        for rel, text in SELF_TEST_CLEAN.items():
            path = root / rel
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(text)
        for f in analyze(root):
            failures.append(f"self-test: clean counterexample flagged: {f}")

    real = analyze(REPO, compdb=load_compdb(REPO))
    for f in real:
        failures.append(f"self-test: real tree not clean: {f}")

    for msg in failures:
        print(msg)
    return 1 if failures else 0


def main():
    parser = argparse.ArgumentParser(
        description="determinism audit for the bit-identical contracts")
    parser.add_argument("--root", type=Path, default=REPO,
                        help="tree to analyze (default: the repo)")
    parser.add_argument("--rule", action="append", choices=RULES,
                        help="run only this rule (repeatable)")
    parser.add_argument("--list-rules", action="store_true",
                        help="print the rule names and exit")
    parser.add_argument("--self-test", action="store_true",
                        help="seed violations and assert detection")
    args = parser.parse_args()

    if args.list_rules:
        for rule in RULES:
            print(rule)
        return 0
    if args.self_test:
        rc = self_test()
        if rc == 0:
            print("dsarp-analyze self-test: all seeded violations "
                  "caught, counterexamples clean")
        return rc

    rules = tuple(args.rule) if args.rule else RULES
    findings = analyze(args.root, rules=rules,
                       compdb=load_compdb(args.root))
    for f in findings:
        print(f)
    if findings:
        print(f"dsarp-analyze: {len(findings)} finding(s)")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
