"""planet_rules — rule plumbing shared by planet_lint and planet_analyze.

Both tools scan the same tree with the same suppression grammar and the
same primitive-ban patterns; this module is the single definition of that
contract so the two can never drift:

  * the `// planet-lint: allow(rule)` / `allow-file(rule)` grammar,
  * the comment/string sanitizer that keeps patterns from matching prose,
  * the simulated-world / emit-context path scopes,
  * the wall-clock / unseeded-random / blocking-primitive pattern sets
    (planet_lint applies them line-locally inside the sim-world scope;
    planet_analyze extracts them as *facts* tree-wide and propagates them
    through the call graph),
  * file collection (extensions, build-dir pruning).

Import from tools/lint (the scripts sys.path-insert this directory):

    import planet_rules as pr
"""

import os
import re

# Directories whose code runs inside the deterministic simulator: one seed
# must fix every decision, so wall clocks / OS randomness / blocking are
# banned outright (common/ is excluded: ThreadPool is host-side code).
SIM_WORLD = ("src/sim", "src/mdcc", "src/planet", "src/fault",
             "src/storage", "src/workload", "src/check", "src/harness")

# Emit contexts: code that renders experiment output (tables, JSON).
EMIT_WORLD = ("src/harness", "bench", "tools")

# Call-graph roots for planet_analyze's transitive passes: the protocol
# stacks whose helpers must stay pure however deep the call chain goes.
ANALYZE_ROOTS = ("src/sim", "src/mdcc", "src/planet")

DEFAULT_SCAN = ("src", "bench", "tools", "examples")

SOURCE_EXT = (".h", ".cc", ".cpp", ".hpp")

# The three purity bans, shared verbatim between the line-local lint rules
# and the analyzer's transitive fact extraction. Keys are the lint rule ids;
# planet_analyze prefixes findings with "transitive-".
PURITY_PATTERNS = {
    "wall-clock": [
        r"std::chrono::(system_clock|steady_clock|high_resolution_clock)",
        r"\b(gettimeofday|clock_gettime|localtime|gmtime|mktime)\s*\(",
        r"\btime\s*\(\s*(NULL|nullptr|0)?\s*\)",
        r"\bclock\s*\(\s*\)",
    ],
    "unseeded-random": [
        r"\brand\s*\(\s*\)",
        r"\bsrand\s*\(",
        r"std::random_device",
        r"std::mt19937",
        r"std::default_random_engine",
        r"std::minstd_rand",
    ],
    "blocking-primitive": [
        r"std::condition_variable",
        r"\bsleep_for\b|\bsleep_until\b",
        r"\b(usleep|nanosleep)\s*\(",
        r"\bsleep\s*\(",
        r"std::this_thread",
        # Real threads and locks (std:: or the project's annotated
        # wrappers) don't belong in simulated-world code either: one
        # event loop, one owner. `(?!\s*::)` keeps std::thread::id (a
        # value type used by ThreadChecker, not a thread) out of the ban.
        r"std::(thread|jthread)\b(?!\s*::)",
        r"std::(recursive_|shared_|timed_)?mutex\b",
        r"\b(Mutex|MutexLock|CondVar)\b",
    ],
}

ALLOW_LINE = re.compile(r"//\s*planet-lint:\s*allow\(([\w,\s-]+)\)")
ALLOW_FILE = re.compile(r"//\s*planet-lint:\s*allow-file\(([\w,\s-]+)\)")

STRING_RE = re.compile(r'"(\\.|[^"\\])*"')
CHAR_RE = re.compile(r"'(\\.|[^'\\])*'")
LINE_COMMENT_RE = re.compile(r"//.*$")


def in_scope(relpath, scopes):
    """True if `relpath` (repo-relative, /-separated) is under any scope."""
    return any(relpath == s or relpath.startswith(s + "/") for s in scopes)


def sanitize(lines):
    """Strips string/char literals, // comments, and /* */ blocks so lint
    patterns only match code. Returns the code lines (same count/offsets as
    the input)."""
    out = []
    in_block = False
    for raw in lines:
        line = raw
        if in_block:
            end = line.find("*/")
            if end < 0:
                out.append("")
                continue
            line = " " * (end + 2) + line[end + 2:]
            in_block = False
        line = STRING_RE.sub('""', line)
        line = CHAR_RE.sub("''", line)
        line = LINE_COMMENT_RE.sub("", line)
        while True:
            start = line.find("/*")
            if start < 0:
                break
            end = line.find("*/", start + 2)
            if end < 0:
                line = line[:start]
                in_block = True
                break
            line = line[:start] + " " * (end + 2 - start) + line[end + 2:]
        out.append(line)
    return out


def _matches(probe, rule_ids, pattern):
    m = pattern.search(probe)
    if not m:
        return False
    allowed_ids = [r.strip() for r in m.group(1).split(",")]
    return any(rule_id in allowed_ids for rule_id in rule_ids)


def allowed(raw_lines, idx, rule_id):
    """True if a finding on raw_lines[idx] is suppressed for `rule_id` (or
    any of the ids, if a tuple/list is given) by an allow() comment on the
    line or the line above."""
    rule_ids = (rule_id,) if isinstance(rule_id, str) else tuple(rule_id)
    for probe in (raw_lines[idx], raw_lines[idx - 1] if idx > 0 else ""):
        if _matches(probe, rule_ids, ALLOW_LINE):
            return True
    return False


def file_allowed(raw_lines, rule_id):
    """True if the whole file is suppressed for `rule_id` (or any of the
    ids) by an allow-file() comment anywhere in it."""
    rule_ids = (rule_id,) if isinstance(rule_id, str) else tuple(rule_id)
    for raw in raw_lines:
        if _matches(raw, rule_ids, ALLOW_FILE):
            return True
    return False


def collect_files(root, paths, default_scan=DEFAULT_SCAN):
    """Source files under `paths` (or the default scan set) below `root`,
    skipping build trees and dotdirs. Returns absolute paths, sorted."""
    files = []
    if not paths:
        paths = [p for p in default_scan
                 if os.path.isdir(os.path.join(root, p))]
    for p in paths:
        full = p if os.path.isabs(p) else os.path.join(root, p)
        if os.path.isfile(full):
            files.append(full)
            continue
        for dirpath, dirnames, filenames in os.walk(full):
            dirnames[:] = [d for d in dirnames
                           if not d.startswith(("build", "."))]
            for fn in sorted(filenames):
                if fn.endswith(SOURCE_EXT):
                    files.append(os.path.join(dirpath, fn))
    return sorted(set(files))


def read_source(path):
    """Reads a source file; returns (raw_lines, code_lines) or (None, None)
    if unreadable."""
    try:
        with open(path, encoding="utf-8", errors="replace") as f:
            raw = f.read().splitlines()
    except OSError:
        return None, None
    return raw, sanitize(raw)
