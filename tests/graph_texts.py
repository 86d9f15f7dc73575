"""Seeded mutations of graph files, for differential tests of the graph parser.

Pure text: nothing here imports semitrans, so a script that compares two
source trees can share it.  `mutated_graph_text` starts from a well-formed
file and applies one to three mutations, each a thing the parser must
classify: line ends other than "\\n", odd whitespace, spellings of an id that
int() accepts (leading zeros, "+", "_", Unicode digits) or rejects, comments
and "C:" lines glued to their content, lines of one or three tokens, and bad
header or edge values.  `canonical_graph_text` starts from the exact layout
`format_graph` writes, the one the parser reads in bulk, and applies at most
one edit that keeps that layout nearly intact.  `orientation_text` does the
same for `format_orientation`'s layout.  `NEGATIVE_HEADERS` and
`line_number` serve the error tests of all three text formats.
"""

from __future__ import annotations

import random

LINE_ENDS = ("\n", "\r\n", "\r", "\x0b", "\x0c", "\x1c", "\x85", "\u2028")
SPACES = (" ", "  ", "\t", "\xa0", "\u2003", "\u3000")
DIGITS = ("٠١٢٣٤٥٦٧٨٩", "０１２３４５６７８９", "०१२३४५६७८९")
BAD_TOKENS = ("x", "#", "#1", "C:", "C:1", "1.5", "_1", "1_", "1__0", "--1", "+", "0x1", "\u00b2", "\u00bd", "1e1")


def _respell(rng: random.Random, tok: str) -> str:
    """Another spelling of the decimal token tok that int() reads as the same value."""
    kind = rng.randrange(4)
    if kind == 0:
        return "0" * rng.randint(1, 2) + tok
    if kind == 1:
        return "+" + tok
    if kind == 2 and len(tok) >= 2:
        return tok[0] + "_" + tok[1:]
    digits = rng.choice(DIGITS)
    return "".join(digits[int(ch)] for ch in tok)


def _mutate(rng: random.Random, lines: list[list[str]]):
    """Apply one random mutation to the token lists in place."""
    kind = rng.randrange(10)
    at = rng.randrange(len(lines) + 1)
    toks = lines[min(at, len(lines) - 1)] if lines else []
    ids = [str(rng.randint(0, 10)) for _ in range(rng.randint(0, 3))]
    if kind == 0:  # respell one decimal token
        spots = [i for i, tok in enumerate(toks) if tok.isascii() and tok.isdigit()]
        if spots:
            i = rng.choice(spots)
            toks[i] = _respell(rng, toks[i])
    elif kind == 1 and toks:  # a token int() rejects
        toks[rng.randrange(len(toks))] = rng.choice(BAD_TOKENS)
    elif kind == 2:  # a comment, glued to its text or not
        lines.insert(at, ["#" + " ".join(ids)] if rng.random() < 0.5 else ["#", *ids])
    elif kind == 3:  # a "C:" line, glued to its first id or not, maybe a second one
        lines.insert(at, ["C:" + ids[0], *ids[1:]] if ids and rng.random() < 0.5 else ["C:", *ids])
    elif kind == 4 and toks:  # one token fewer
        del toks[rng.randrange(len(toks))]
    elif kind == 5:  # one token more
        toks.insert(rng.randint(0, len(toks)), rng.choice(ids or ["1"]))
    elif kind == 6:  # a repeated line, a reversed one or a self-loop
        lines.insert(at, list(toks) if rng.random() < 0.5 else toks[::-1])
        if len(toks) == 2 and rng.random() < 0.3:
            lines[at][1] = lines[at][0]
    elif kind == 7:  # an edge between random ids: out of range, zero, or fine
        lines.insert(at, ids[:2] if len(ids) >= 2 else ["1", "2"])
    elif kind == 8 and lines:  # another header value, maybe negative, or no header
        if len(lines[0]) == 2 and rng.random() < 0.7:
            lines[0][rng.randrange(2)] = str(rng.randint(-2, 10))
        else:
            del lines[0]
    else:  # a blank or whitespace-only line
        lines.insert(at, [])


def mutated_graph_text(rng: random.Random, max_n: int = 8, isolated: int = 0) -> str:
    """One graph file: a valid random graph with an optional "C:" line at a
    random place, mutated one to three times and rendered with random
    separators (sometimes without a final line end).  The header counts
    `isolated` more vertices than the graph touches; the random draws do not
    depend on it."""
    n = rng.randint(0, max_n)
    pairs = [(u, v) for u in range(1, n + 1) for v in range(u + 1, n + 1) if rng.random() < 0.4]
    rng.shuffle(pairs)
    lines = [[str(n + isolated), str(len(pairs))]] + [[str(u), str(v)] for u, v in pairs]
    if n and rng.random() < 0.4:
        clique = rng.sample(range(1, n + 1), rng.randint(1, n))
        lines.insert(rng.randint(1, len(lines)), ["C:", *map(str, clique)])
    for _ in range(rng.randint(1, 3)):
        _mutate(rng, lines)
    end = rng.choice(LINE_ENDS)
    out = []
    for toks in lines:
        text = (rng.choice(SPACES) if rng.random() < 0.2 else " ").join(toks)
        if rng.random() < 0.1:
            text = rng.choice(SPACES) + text + rng.choice(SPACES)
        out.append(text + (rng.choice(LINE_ENDS) if rng.random() < 0.1 else end))
    text = "".join(out)
    return text[:-1] if text and rng.random() < 0.2 else text


CANONICAL_EDITS = (
    "none", "swap", "self-loop", "zero", "above-n", "leading-zero", "repeat", "m+1", "m-1",
    "no-final-newline", "trailing-space", "crlf", "tab", "regroup",
    "pin-mid", "pin-twice", "pin-repeat", "pin-range", "pin-empty",
    "header-respelled", "pin-respelled",
)

# header texts every reader rejects, orientation and matrix ones included
NEGATIVE_HEADERS = {
    "-2 3\n": "line 1: negative header value",
    "1 -1\n": "line 1: negative header value",
    "-1 0\n": "line 1: negative header value",
    "0 -1\n": "line 1: negative header value",
    "# c\n0 -1\n": "line 2: negative header value",
}


def line_number(message: str):
    """The N of an error message "line N: ...", or None for any other message."""
    head, sep, _ = message.partition(": ")
    return int(head[5:]) if sep and head.startswith("line ") else None


def canonical_graph_text(rng: random.Random, edit: str, max_n: int = 8, isolated: int = 0) -> str:
    """A random graph in `format_graph`'s layout ("n m", the edges "u v" in
    sorted order, maybe a final "C:" line, every line ended by "\\n") with
    one edit from CANONICAL_EDITS applied; "none" leaves it unedited.  An
    edit that needs an edge line or a "C:" line the file lacks adds one.
    "regroup" moves one space or line end past the digits beside it, which
    keeps the order of spaces and line ends.  "header-respelled" and
    "pin-respelled" give one header or "C:" id a leading zero or a "+".  Any
    edit but "none" may also drop the final line end.  The header counts
    `isolated` more vertices than the graph touches, and "above-n" and
    "pin-range" go past that count; the random draws do not depend on it."""
    n = rng.randint(1 if edit.startswith("pin") else 0, max_n)
    pairs = [(u, v) for u in range(1, n + 1) for v in range(u + 1, n + 1) if rng.random() < 0.4]
    lines = [[str(u), str(v)] for u, v in pairs]
    pins = None
    if n and (edit.startswith("pin") or rng.random() < 0.4):
        pins = [str(v) for v in rng.sample(range(1, n + 1), rng.randint(1, n))]
    if edit in ("swap", "self-loop", "zero", "above-n", "leading-zero", "repeat", "regroup") and not lines:
        n = max(n, 2)
        lines = [["1", "2"]]
    at = rng.randrange(len(lines)) if lines else 0
    if edit == "swap":
        lines[at].reverse()
    elif edit == "self-loop":
        lines[at][1] = lines[at][0]
    elif edit == "zero":
        lines[at][0] = "0"
    elif edit == "above-n":
        lines[at][1] = str(n + isolated + 1)
    elif edit == "leading-zero":
        side = rng.randrange(2)
        lines[at][side] = "0" + lines[at][side]
    elif edit == "repeat":
        lines.insert(at, list(lines[at]))
    m = len(lines) - (edit == "repeat" and rng.random() < 0.5)  # a repeat: found by count or by bits
    m += {"m+1": 1, "m-1": -1}.get(edit, 0)
    body = [f"{u} {v}\n" for u, v in lines]
    if edit == "pin-empty":
        pins = []
    elif edit == "pin-repeat":
        pins.append(rng.choice(pins))
    elif edit == "pin-range":
        pins[rng.randrange(len(pins))] = rng.choice(("0", str(n + isolated + 1)))
    elif edit == "pin-respelled":
        spot = rng.randrange(len(pins))
        pins[spot] = rng.choice("0+") + pins[spot]
    header = [str(n + isolated), str(m)]
    if edit == "header-respelled":
        side = rng.randrange(2)
        header[side] = rng.choice("0+") + header[side]
    if pins is not None:
        pin_line = "C: " + " ".join(pins) + "\n"
        body.insert(rng.randint(0, len(body)) if edit == "pin-mid" else len(body), pin_line)
        if edit == "pin-twice":
            body.insert(rng.randint(0, len(body)), pin_line)
    text = " ".join(header) + "\n" + "".join(body)
    line_ends = [idx for idx, ch in enumerate(text) if ch == "\n"]
    spaces = [idx for idx, ch in enumerate(text) if ch == " "]
    if edit == "trailing-space":
        idx = rng.choice(line_ends)
        text = text[:idx] + " " + text[idx:]
    elif edit == "crlf":
        idx = rng.choice(line_ends)
        text = text[:idx] + "\r" + text[idx:]
    elif edit == "tab":
        idx = rng.choice(spaces)
        text = text[:idx] + "\t" + text[idx + 1:]
    elif edit == "regroup":
        idx = rng.choice([idx for idx in line_ends + spaces if idx > line_ends[0]])
        lo = hi = idx
        if rng.random() < 0.5:
            while text[lo - 1].isdigit():
                lo -= 1
            text = text[:lo] + text[idx] + text[lo:idx] + text[idx + 1:]
        else:
            while hi + 1 < len(text) and text[hi + 1].isdigit():
                hi += 1
            text = text[:idx] + text[idx + 1:hi + 1] + text[idx] + text[hi + 1:]
    if edit == "no-final-newline" or (edit != "none" and rng.random() < 0.3):
        text = text[:-1] if text.endswith("\n") else text
    return text


ORIENTATION_EDITS = (
    "none", "shuffled", "repeat", "both-ways", "self-loop", "zero", "above-n", "no-spaces",
    "double-space", "leading-zero", "bad-id", "bad-arrow", "crlf", "comment", "m+1", "m-1",
    "no-final-newline", "sparse", "c-line",
)


def orientation_text(rng: random.Random, edit: str, max_n: int = 8) -> str:
    """A random orientation in `format_orientation`'s layout ("n m", the arcs
    "u > v" sorted by u, then v) with one edit from ORIENTATION_EDITS
    applied; "none" leaves it unedited.  "shuffled" puts the arcs in random
    order, "repeat" and "both-ways" add a copy of an arc or its reverse
    (counted in m), "no-spaces" writes one arc "u>v", "bad-id" puts a token
    int() rejects in place of an id, "bad-arrow" writes one arc with another
    token between its ids (such as "1>2", whose digits fill the layout), "crlf" ends one line
    or every line with "\\r\\n", "comment" adds a "#" line anywhere,
    "sparse" counts 200 more vertices than the arcs touch, and "c-line"
    appends a graph file's "C: ..." line naming some vertices.
    An edit that needs an arc the file lacks adds one.  Any edit but "none"
    may also drop the final line end."""
    n = rng.randint(0, max_n)
    arcs = [(u, v) if rng.random() < 0.5 else (v, u)
            for u in range(1, n + 1) for v in range(u + 1, n + 1) if rng.random() < 0.4]
    arcs.sort()
    if edit in ("repeat", "both-ways", "self-loop", "zero", "above-n", "no-spaces", "double-space",
                "leading-zero", "bad-id", "bad-arrow", "c-line") and not arcs:
        n = max(n, 2)
        arcs = [(1, 2)]
    lines = [[str(u), str(v)] for u, v in arcs]
    at = rng.randrange(len(lines)) if lines else 0
    if edit == "shuffled":
        rng.shuffle(lines)
    elif edit == "repeat":
        lines.insert(rng.randint(0, len(lines)), list(lines[at]))
    elif edit == "both-ways":
        lines.insert(rng.randint(0, len(lines)), lines[at][::-1])
    elif edit == "self-loop":
        lines[at][1] = lines[at][0]
    elif edit == "zero":
        lines[at][rng.randrange(2)] = "0"
    elif edit == "above-n":
        lines[at][rng.randrange(2)] = str(n + 1)
    elif edit == "leading-zero":
        side = rng.randrange(2)
        lines[at][side] = "0" + lines[at][side]
    elif edit == "bad-id":
        lines[at][rng.randrange(2)] = rng.choice(BAD_TOKENS)
    m = len(lines) + {"m+1": 1, "m-1": -1}.get(edit, 0)
    body = [f"{n + 200 * (edit == 'sparse')} {m}\n"] + [" > ".join(toks) + "\n" for toks in lines]
    if edit == "no-spaces":
        body[at + 1] = ">".join(lines[at]) + "\n"
    elif edit == "double-space":
        body[at + 1] = "  >  ".join(lines[at]) + "\n"
    elif edit == "bad-arrow":
        body[at + 1] = rng.choice((" < ", " >> ", " - ", " ", " 1>2 ")).join(lines[at]) + "\n"
    elif edit == "crlf":
        for spot in range(len(body)) if rng.random() < 0.5 else [rng.randrange(len(body))]:
            body[spot] = body[spot][:-1] + "\r\n"
    elif edit == "comment":
        body.insert(rng.randint(0, len(body)), "# c " + str(rng.randint(0, 9)) + "\n")
    elif edit == "c-line":
        body.append("C: " + " ".join(map(str, rng.sample(range(1, n + 1), rng.randint(1, n)))) + "\n")
    text = "".join(body)
    if edit == "no-final-newline" or (edit != "none" and rng.random() < 0.3):
        text = text[:-1] if text.endswith("\n") else text
    return text
