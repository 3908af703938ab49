#!/usr/bin/env python3
"""Repo-specific lint for invariants the compiler cannot see.

Six checks, each born from a real bug class in this codebase:

1. unit-honest-conversion -- no raw arithmetic against the clock
   period (``/ tCkNs`` or ``* tCkNs``) outside the two blessed
   translation units, src/dram/timing.cc and src/dram/spec.cc.  Every
   other file must convert through TimingParams::nsToCycles /
   nsToCyclesFloor (this is the bug class that once understated
   LPDDR4 refresh energy 2x).

2. config-key-once -- every ExperimentConfig key string is declared
   exactly once, in src/sim/config_keys.hh.  A string literal under
   src/ that respells a known key (e.g. "refresh.fgrRate"), or quotes
   one inside a message (e.g. "config key 'refresh.fgrRate' must
   ..."), forks the user-facing vocabulary; library code must build
   the text from the keys::k* constant instead.  Comments, and
   tests/tools that exercise the public string API the way a user
   would, are exempt.

3. registrar-once -- every DSARP_REGISTER_REFRESH_POLICY /
   DSARP_REGISTER_DRAM_SPEC / DSARP_REGISTER_ADDRESS_MAP identifier
   appears in exactly one
   translation unit.  A copy-pasted registrar aborts at startup in
   every binary; catch it before the build does.

4. single-thread-spawn-point -- no raw ``std::thread`` /
   ``std::jthread`` / ``std::async`` under src/, bench/, or tools/
   outside the audited spawn point src/sim/parallel.{hh,cc}.  Every
   parallel path must funnel through parallelFor()/SweepRunner so it
   inherits their exception handling and byte-identical-results
   contract; an ad-hoc thread next to the shared alone-IPC memo is a
   data race waiting for a TSan run to find it.  Static queries
   (``std::thread::hardware_concurrency``) and tests/ (which probe
   thread-cleanliness on purpose) are exempt.

5. selftest-coverage -- every mechanically-checked contract carries
   the seed that proves its checker still fires: each rule in
   tools/analyze/dsarp_analyze.py RULES has a SELF_TEST_SEEDS entry,
   each tests/fuzz/fuzz_*.cc harness has a non-empty seed corpus
   under tests/fuzz/corpus/<name>/, and each ``#define
   DSARP_REGISTER_*`` registrar family under src/ is matched by this
   linter's REGISTRAR_RE (check 3).  A checker without a seed rots
   silently: the gate keeps passing after the check stops firing.

6. tags-by-name-only -- no assignment to a config's ``.refresh``,
   ``.sarp`` or ``.hira`` tag outside the policies' own translation
   units, src/refresh/*.cc.  RefreshPolicyRegistry::resolve() resets
   all three from MemConfig::policy, so a stray
   ``cfg.mem.refresh = RefreshMode::kPerBank`` would silently run REFab;
   select the mechanism by setting ``policy`` instead.

Exit status 0 when clean, 1 with findings (one ``file:line: message``
per line), 2 on usage errors.  ``--self-test`` seeds one violation of
each invariant in a temp tree and asserts the linter reports it.
"""

import argparse
import re
import sys
import tempfile
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent.parent

# Files allowed to do raw tCK arithmetic: the single-point conversion
# implementations themselves.
CONVERSION_TUS = {
    Path("src/dram/timing.cc"),
    Path("src/dram/spec.cc"),
}

# Unit-blind arithmetic against the clock period.  The explicit
# `.ns()` escape hatch is excluded: it is the documented way to read
# the raw figure for printing and for energy math (mA x ns), where no
# ns -> cycles conversion is happening.
RAW_TCK_RE = re.compile(
    r"[*/]\s*(?:\w+(?:\.|->))?tCkNs\b(?!\s*\.\s*ns\(\))"
    r"|\btCkNs\s*[*/]")
COMMENT_RE = re.compile(r"^\s*(?://|\*|/\*)")

STRING_LIT_RE = re.compile(r'"((?:[^"\\]|\\.)*)"')
REGISTRAR_RE = re.compile(
    r"DSARP_REGISTER_(?:REFRESH_POLICY|DRAM_SPEC|ADDRESS_MAP)"
    r"\(\s*(\w+)")

# The audited thread-spawn point (see src/sim/parallel.hh).
THREAD_SPAWN_TUS = {
    Path("src/sim/parallel.hh"),
    Path("src/sim/parallel.cc"),
}

# A raw thread spawn: std::thread/std::jthread used as a type (the
# `::` lookahead exempts static queries like hardware_concurrency),
# or any std::async launch.
THREAD_SPAWN_RE = re.compile(
    r"std::j?thread\b(?!\s*::)|std::async\b")

# A write to a resolve()-owned tag (`=` but not `==`), and the
# translation units allowed one: the policies' config bundles.
TAG_WRITE_RE = re.compile(r"[.>]\s*(refresh|sarp|hira)\s*=[^=]")
TAG_WRITE_DIR = Path("src/refresh")

SOURCE_GLOBS = ("src/**/*.cc", "src/**/*.hh", "tests/*.cc",
                "bench/*.cc", "bench/*.hh", "tools/*.cc",
                "examples/*.cpp")


def source_files(root):
    out = []
    for pattern in SOURCE_GLOBS:
        out.extend(sorted(root.glob(pattern)))
    return out


def config_keys(root):
    """Key literals declared in config_keys.hh, in declaration order."""
    header = root / "src/sim/config_keys.hh"
    if not header.exists():
        return []
    keys = []
    for line in header.read_text().splitlines():
        if "constexpr char" not in line:
            continue
        m = STRING_LIT_RE.search(line)
        if m:
            keys.append(m.group(1))
    return keys


def check_unit_conversions(root, findings):
    for path in source_files(root):
        rel = path.relative_to(root)
        if rel in CONVERSION_TUS:
            continue
        for lineno, line in enumerate(path.read_text().splitlines(), 1):
            if COMMENT_RE.match(line):
                continue
            if RAW_TCK_RE.search(line):
                findings.append(
                    f"{rel}:{lineno}: raw tCK arithmetic outside "
                    "timing.cc/spec.cc; convert via "
                    "TimingParams::nsToCycles")


def check_config_keys(root, findings):
    keys = set(config_keys(root))
    if not keys:
        findings.append(
            "src/sim/config_keys.hh: missing or declares no keys")
        return
    header = Path("src/sim/config_keys.hh")
    for path in source_files(root):
        rel = path.relative_to(root)
        if rel == header or rel.parts[0] != "src":
            continue
        for lineno, line in enumerate(path.read_text().splitlines(), 1):
            if COMMENT_RE.match(line):
                continue
            for m in STRING_LIT_RE.finditer(line):
                if m.group(1) in keys:
                    findings.append(
                        f"{rel}:{lineno}: config key "
                        f"\"{m.group(1)}\" respelled; use the keys::k* "
                        "constant from sim/config_keys.hh")
                for key in sorted(keys):
                    if f"'{key}'" in m.group(1):
                        findings.append(
                            f"{rel}:{lineno}: config key '{key}' quoted "
                            "in a message literal; build it from the "
                            "keys::k* constant in sim/config_keys.hh")
    seen = {}
    for lineno, line in enumerate(
            (root / header).read_text().splitlines(), 1):
        if "constexpr char" not in line:
            continue
        m = STRING_LIT_RE.search(line)
        if m and m.group(1) in seen:
            findings.append(
                f"{header}:{lineno}: key \"{m.group(1)}\" declared "
                f"twice (first at line {seen[m.group(1)]})")
        elif m:
            seen[m.group(1)] = lineno


def check_registrars(root, findings):
    owners = {}
    for path in source_files(root):
        rel = path.relative_to(root)
        if path.suffix != ".cc":
            continue
        for lineno, line in enumerate(path.read_text().splitlines(), 1):
            for m in REGISTRAR_RE.finditer(line):
                ident = m.group(1)
                if ident in owners:
                    prev_rel, prev_line = owners[ident]
                    findings.append(
                        f"{rel}:{lineno}: registry entry '{ident}' "
                        f"also registered at {prev_rel}:{prev_line}; "
                        "each entry must live in exactly one TU")
                else:
                    owners[ident] = (rel, lineno)


def check_thread_spawns(root, findings):
    for path in source_files(root):
        rel = path.relative_to(root)
        if rel in THREAD_SPAWN_TUS or rel.parts[0] == "tests":
            continue
        for lineno, line in enumerate(path.read_text().splitlines(), 1):
            if COMMENT_RE.match(line):
                continue
            if THREAD_SPAWN_RE.search(line):
                findings.append(
                    f"{rel}:{lineno}: raw thread spawn outside "
                    "src/sim/parallel.*; route through parallelFor/"
                    "SweepRunner (the audited spawn point)")


def check_tag_writes(root, findings):
    for path in source_files(root):
        rel = path.relative_to(root)
        if rel.parent == TAG_WRITE_DIR and rel.suffix == ".cc":
            continue
        for lineno, line in enumerate(path.read_text().splitlines(), 1):
            if COMMENT_RE.match(line):
                continue
            m = TAG_WRITE_RE.search(line)
            if m:
                findings.append(
                    f"{rel}:{lineno}: assignment to the '{m.group(1)}' "
                    "tag outside src/refresh/*.cc; resolve() resets it "
                    "from MemConfig::policy, so set policy instead")


ANALYZER_REL = Path("tools/analyze/dsarp_analyze.py")
RULES_NAME_RE = re.compile(r'^\s*"([a-z][a-z-]*)"')
REGISTRAR_DEFINE_RE = re.compile(r"#define\s+DSARP_REGISTER_(\w+)\s*\(")


def _block_names(text, opener, closer):
    """String names inside a top-level ``NAME = (``/``{`` block."""
    names, active = [], False
    for line in text.splitlines():
        if line.startswith(opener):
            active = True
            continue
        if active and line.startswith(closer):
            break
        if active:
            m = RULES_NAME_RE.match(line)
            if m:
                names.append(m.group(1))
    return names


def check_selftest_coverage(root, findings):
    # a) Every analyzer rule has a seeded self-test violation.
    analyzer = root / ANALYZER_REL
    if analyzer.exists():
        text = analyzer.read_text()
        rules = _block_names(text, "RULES = (", ")")
        seeds = set(_block_names(text, "SELF_TEST_SEEDS = {", "}"))
        for rule in rules:
            if rule not in seeds:
                findings.append(
                    f"{ANALYZER_REL}: rule '{rule}' has no "
                    "SELF_TEST_SEEDS entry; a rule without a seeded "
                    "violation can silently stop firing")

    # b) Every fuzz harness has a non-empty seed corpus to replay.
    for harness in sorted(root.glob("tests/fuzz/fuzz_*.cc")):
        rel = harness.relative_to(root)
        corpus = root / "tests/fuzz/corpus" / harness.stem[len("fuzz_"):]
        seeded = corpus.is_dir() and any(
            p.is_file() for p in corpus.glob("*"))
        if not seeded:
            findings.append(
                f"{rel}: no seed corpus at "
                f"tests/fuzz/corpus/{harness.stem[len('fuzz_'):]}/; "
                "the ctest replay entry would assert nothing")

    # c) Every registrar macro family is known to check 3 above.
    for path in sorted(root.glob("src/**/*.hh")):
        rel = path.relative_to(root)
        for lineno, line in enumerate(path.read_text().splitlines(), 1):
            m = REGISTRAR_DEFINE_RE.search(line)
            if m and m.group(1) not in REGISTRAR_RE.pattern:
                findings.append(
                    f"{rel}:{lineno}: registrar family "
                    f"'DSARP_REGISTER_{m.group(1)}' is not covered by "
                    "lint.py REGISTRAR_RE; duplicate registrations "
                    "would go unlinted")


def run_checks(root):
    findings = []
    check_unit_conversions(root, findings)
    check_config_keys(root, findings)
    check_registrars(root, findings)
    check_thread_spawns(root, findings)
    check_selftest_coverage(root, findings)
    check_tag_writes(root, findings)
    return findings


def self_test():
    """Seed one violation per invariant; the linter must catch all."""
    failures = []
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        (root / "src/dram").mkdir(parents=True)
        (root / "src/sim").mkdir(parents=True)
        (root / "tests").mkdir()

        (root / "src/sim/config_keys.hh").write_text(
            'inline constexpr char kFgrRate[] = "refresh.fgrRate";\n')

        # 1. Raw tCK conversion outside the blessed TUs.
        (root / "src/dram/bad_convert.cc").write_text(
            "int cycles(double ns, double tCkNs)\n"
            "{ return static_cast<int>(ns / tCkNs); }\n")
        # 2. A respelled config key in library code (tests/tools may
        # spell keys out; src/ must not), and one quoted inside a
        # diagnostic.
        (root / "src/sim/bad_key.cc").write_text(
            'const char *k = "refresh.fgrRate";\n')
        (root / "src/sim/bad_msg.cc").write_text(
            'std::string e = "config key \'refresh.fgrRate\' must be 0";\n')
        # 3. A registrar duplicated across two TUs.
        (root / "src/dram/reg_a.cc").write_text(
            "DSARP_REGISTER_DRAM_SPEC(ddr9, spec());\n")
        (root / "src/dram/reg_b.cc").write_text(
            "DSARP_REGISTER_DRAM_SPEC(ddr9, spec());\n")
        # 4. A raw thread spawn outside the audited spawn point.
        (root / "src/sim/bad_spawn.cc").write_text(
            "void f() { std::thread t([] {}); t.join(); }\n")
        # 5a. An analyzer rule with no seeded self-test violation.
        (root / "tools/analyze").mkdir(parents=True)
        (root / "tools/analyze/dsarp_analyze.py").write_text(
            'RULES = (\n    "seeded-rule",\n    "orphan-rule",\n)\n'
            'SELF_TEST_SEEDS = {\n'
            '    "seeded-rule": ("src/x.cc", "int x;"),\n'
            '}\n')
        # 5b. A fuzz harness with no seed corpus.
        (root / "tests/fuzz").mkdir(parents=True)
        (root / "tests/fuzz/fuzz_orphan.cc").write_text(
            "extern int LLVMFuzzerTestOneInput();\n")
        # 5c. A registrar family REGISTRAR_RE does not know about.
        (root / "src/sim/new_registry.hh").write_text(
            "#define DSARP_REGISTER_FROBNICATOR(ident, ...) x\n")
        # 6. A tag written outside a policy's translation unit.
        (root / "tests/test_tag.cc").write_text(
            "void f(SystemConfig &cfg)\n"
            "{ cfg.mem.refresh = RefreshMode::kPerBank; }\n")

        findings = run_checks(root)
        for needle in ("raw tCK arithmetic", "respelled",
                       "quoted in a message literal",
                       "exactly one TU", "raw thread spawn",
                       "no SELF_TEST_SEEDS entry", "no seed corpus",
                       "not covered by lint.py REGISTRAR_RE",
                       "assignment to the 'refresh' tag"):
            if not any(needle in f for f in findings):
                failures.append(f"self-test: no finding matching "
                                f"'{needle}' in {findings}")
        # The seeded rule must NOT be flagged (counterexample for 5a),
        # and known registrar families stay clean (5c).
        for f in findings:
            if "'seeded-rule'" in f:
                failures.append(f"self-test: covered rule flagged: {f}")
            if "DSARP_REGISTER_REFRESH_POLICY" in f:
                failures.append(
                    f"self-test: known registrar family flagged: {f}")

        # A message built from the constant, a quoted key in a
        # comment, and a longer name that merely starts with a key
        # are clean (counterexamples for 2).
        (root / "src/sim/bad_msg.cc").unlink()
        (root / "src/sim/good_msg.cc").write_text(
            "// Rejects 'refresh.fgrRate' values other than 0/1/2/4.\n"
            'std::string e = std::string("config key \'") + '
            'keys::kFgrRate + "\' must be 0";\n'
            'std::string n = "field \'refresh.fgrRateMax\'";\n')
        for f in run_checks(root):
            if "good_msg.cc" in f:
                failures.append(f"self-test: clean message flagged: {f}")

        # A harness with a seeded corpus is clean (counterexample 5b).
        (root / "tests/fuzz/corpus/orphan").mkdir(parents=True)
        (root / "tests/fuzz/corpus/orphan/seed1").write_text("x")
        for f in run_checks(root):
            if "no seed corpus" in f:
                failures.append(f"self-test: seeded corpus flagged: {f}")

        # The blessed TUs must stay allowed.
        (root / "src/dram/bad_convert.cc").unlink()
        (root / "src/dram/timing.cc").write_text(
            "int c(double ns, double tCkNs) { return int(ns / tCkNs); }\n")
        for f in run_checks(root):
            if "raw tCK" in f:
                failures.append(f"self-test: blessed TU flagged: {f}")

        # The audited spawn point, static queries, and tests/ must all
        # stay allowed.
        (root / "src/sim/bad_spawn.cc").unlink()
        (root / "src/sim/parallel.cc").write_text(
            "void pool() { std::thread t([] {}); t.join(); }\n")
        (root / "src/sim/query.cc").write_text(
            "unsigned n() { return std::thread::hardware_concurrency(); }\n")
        (root / "tests/test_spawn.cc").write_text(
            "void probe() { std::thread t([] {}); t.join(); }\n")
        for f in run_checks(root):
            if "thread spawn" in f:
                failures.append(f"self-test: exempt spawn flagged: {f}")

        # A policy's config bundle may set the tags, and comparisons
        # are not assignments (counterexamples for 6).
        (root / "tests/test_tag.cc").unlink()
        (root / "src/refresh").mkdir()
        (root / "src/refresh/my_policy.cc").write_text(
            "void bundle(MemConfig &m) { m.sarp = true; }\n")
        (root / "src/sim/query_tag.cc").write_text(
            "bool f(const MemConfig *c) { return c->hira == true; }\n")
        for f in run_checks(root):
            if "tag outside src/refresh" in f:
                failures.append(f"self-test: exempt tag use flagged: {f}")

    # The real tree must currently be clean, or the lint gate is dead
    # on arrival.
    real = run_checks(REPO)
    for f in real:
        failures.append(f"self-test: real tree not clean: {f}")

    for msg in failures:
        print(msg)
    return 1 if failures else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--self-test", action="store_true",
                        help="seed violations and assert detection")
    parser.add_argument("--root", type=Path, default=REPO,
                        help="tree to lint (default: the repo)")
    args = parser.parse_args()

    if args.self_test:
        rc = self_test()
        if rc == 0:
            print("lint self-test: all seeded violations caught")
        return rc

    findings = run_checks(args.root)
    for f in findings:
        print(f)
    if findings:
        print(f"lint: {len(findings)} finding(s)")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
