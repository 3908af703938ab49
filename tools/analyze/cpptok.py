"""Minimal C++ token stream for dsarp-analyze.

A real lexer (comments, string/char literals, raw strings, numbers,
identifiers, punctuation) feeding the analyzer's scope- and
declaration-aware rules.  This is deliberately not a parser: the rules
in dsarp_analyze.py work on declaration patterns and brace/paren
balance, which a faithful token stream makes reliable where line
regexes are not: a trailing ``//`` comment or a block-comment line
cannot fake a token, and a ``/* note */`` prefix cannot hide one.  It
needs nothing beyond the standard library, so the gate runs on any CI
worker.
"""

import re
from dataclasses import dataclass

# One token: kind in {"id", "num", "str", "char", "punct"}.
@dataclass
class Tok:
    kind: str
    text: str
    line: int


_ID_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")
# A C++ pp-number: starts with a digit (or .digit), then digits,
# letters, dots and digit separators; +/- only as an exponent sign.
_NUM_RE = re.compile(r"(?:\d|\.\d)(?:[eEpP][+-]|[\w.'])*")
# Longest-first multi-char operators the rules care about; everything
# else falls through as single characters.
_PUNCTS = (
    "<<=", ">>=", "->*", "...", "::", "->", "++", "--", "+=", "-=",
    "*=", "/=", "%=", "&=", "|=", "^=", "<<", ">>", "<=", ">=", "==",
    "!=", "&&", "||",
)

_DEFINE_RE = re.compile(r"#[ \t]*define\b")
_SUPPRESS_RE = re.compile(
    r"dsarp-analyze:\s*allow\(\s*([a-z0-9_,\s-]+?)\s*\)")


def lex(text):
    """Tokenize *text*.

    Returns (tokens, suppressions) where suppressions maps a line
    number to the set of rule names allowed there via a
    ``// dsarp-analyze: allow(rule[, rule...])`` comment.  Preprocessor
    directive lines are skipped (their line numbers still advance),
    except that a ``#define``'s name, parameters and body are lexed as
    code; comments and the contents of literals are skipped too.
    """
    toks = []
    suppress = {}
    i = 0
    line = 1
    n = len(text)
    at_line_start = True

    def note_suppression(comment, lineno):
        for m in _SUPPRESS_RE.finditer(comment):
            rules = {r.strip() for r in m.group(1).split(",") if r.strip()}
            suppress.setdefault(lineno, set()).update(rules)

    while i < n:
        c = text[i]
        if c == "\n":
            line += 1
            i += 1
            at_line_start = True
            continue
        if c in " \t\r\f\v":
            i += 1
            continue
        if c == "\\" and text.startswith("\n", i + 1):
            line += 1  # a continued macro line
            i += 2
            continue
        if c == "#" and at_line_start:
            m = _DEFINE_RE.match(text, i)
            if m:
                # A macro body is code the rules must see.
                i = m.end()
                at_line_start = False
                continue
            # Any other directive: consume to end of line, honoring
            # backslash continuations.
            while i < n:
                if text[i] == "\n":
                    if text[i - 1] == "\\":
                        line += 1
                        i += 1
                        continue
                    break
                i += 1
            continue
        at_line_start = False
        if c == "/" and i + 1 < n and text[i + 1] == "/":
            end = text.find("\n", i)
            end = n if end < 0 else end
            note_suppression(text[i:end], line)
            i = end
            continue
        if c == "/" and i + 1 < n and text[i + 1] == "*":
            end = text.find("*/", i + 2)
            end = n - 2 if end < 0 else end
            body = text[i:end]
            note_suppression(body, line)
            line += body.count("\n")
            i = end + 2
            continue
        if c == '"':
            if toks and toks[-1].kind == "id" and toks[-1].text == "R":
                # Raw string: R"delim( ... )delim".
                m = re.match(r'R"([^()\\ ]{0,16})\(', text[i - 1:])
                if m:
                    close = ")" + m.group(1) + '"'
                    end = text.find(close, i)
                    end = n - len(close) if end < 0 else end
                    toks.pop()
                    toks.append(Tok("str", "", line))
                    line += text.count("\n", i, end)
                    i = end + len(close)
                    continue
            j = i + 1
            while j < n and text[j] != '"':
                j += 2 if text[j] == "\\" else 1
            toks.append(Tok("str", text[i + 1:j], line))
            line += text.count("\n", i, j)
            i = j + 1
            continue
        if c == "'":
            j = i + 1
            while j < n and text[j] != "'":
                j += 2 if text[j] == "\\" else 1
            toks.append(Tok("char", text[i + 1:j], line))
            i = j + 1
            continue
        if c.isdigit() or (c == "." and i + 1 < n and text[i + 1].isdigit()):
            m = _NUM_RE.match(text, i)
            toks.append(Tok("num", m.group(0), line))
            i = m.end()
            continue
        m = _ID_RE.match(text, i)
        if m:
            toks.append(Tok("id", m.group(0), line))
            i = m.end()
            continue
        for p in _PUNCTS:
            if text.startswith(p, i):
                toks.append(Tok("punct", p, line))
                i += len(p)
                break
        else:
            toks.append(Tok("punct", c, line))
            i += 1
    return toks, suppress


def skip_template_args(toks, i):
    """With toks[i] == '<', return the index just past the matching '>'.

    Treats '>>' as two closers (C++11 semantics).  Returns i unchanged
    when toks[i] is not '<'.
    """
    if i >= len(toks) or toks[i].text != "<":
        return i
    depth = 0
    while i < len(toks):
        t = toks[i].text
        if t == "<":
            depth += 1
        elif t == ">":
            depth -= 1
            if depth == 0:
                return i + 1
        elif t == ">>":
            depth -= 2
            if depth <= 0:
                return i + 1
        elif t in (";", "{", "}"):
            # Lost the plot (operator< in an expression); bail out.
            return i
        i += 1
    return i


def template_arg_tokens(toks, i):
    """With toks[i] == '<', return the token list of the first template
    argument (up to the first top-level ',' or the closing '>')."""
    if i >= len(toks) or toks[i].text != "<":
        return []
    out = []
    depth = 0
    i += 1
    paren = 0
    while i < len(toks):
        t = toks[i].text
        if t == "<":
            depth += 1
        elif t == ">":
            if depth == 0:
                break
            depth -= 1
        elif t == ">>":
            if depth <= 1:
                break
            depth -= 2
        elif t == "(":
            paren += 1
        elif t == ")":
            paren -= 1
        elif t == "," and depth == 0 and paren == 0:
            break
        out.append(toks[i])
        i += 1
    return out
