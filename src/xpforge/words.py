"""Free-group words and finite presentations.

Conventions used across the whole package:

    [a, b] = a^-1 b^-1 a b          (commutator)
    a^b    = b^-1 a b               (conjugation)

so that [a*b, c] == conjugate([a, c], b) * [b, c] and
[a, b*c] == [a, c] * conjugate([a, b], c) hold as identities of freely
reduced words.

A letter is a signed 1-based generator index: +k means generator k-1 and
-k its inverse.  Words are stored as flat tuples of letters, always freely
reduced; run-length compression like ``a^3`` exists only in the text format.
"""

from __future__ import annotations

from dataclasses import dataclass


def free_reduce(letters) -> tuple[int, ...]:
    """Freely reduce a letter sequence (cancel adjacent x, x^-1 pairs).

    Idempotent; returns a tuple.  ``free_reduce([1, -1]) == ()``.
    """
    out: list[int] = []
    for a in letters:
        if a == 0:
            raise ValueError("0 is not a valid letter")
        if out and out[-1] == -a:
            out.pop()
        else:
            out.append(a)
    return tuple(out)


class Word:
    """An immutable, freely reduced word in a free group.

    Construct from any iterable of signed letters; reduction happens here,
    so equal group elements of the free group compare equal.
    """

    __slots__ = ("letters",)

    def __init__(self, letters=()):
        object.__setattr__(self, "letters", free_reduce(letters))

    def __setattr__(self, name, value):
        raise AttributeError("Word is immutable")

    @classmethod
    def gen(cls, index: int) -> "Word":
        """The one-letter word for generator `index` (0-based)."""
        if index < 0:
            raise ValueError("generator index must be >= 0")
        return cls((index + 1,))

    def __mul__(self, other: "Word") -> "Word":
        return Word(self.letters + other.letters)

    def __invert__(self) -> "Word":
        return Word(tuple(-a for a in reversed(self.letters)))

    def inverse(self) -> "Word":
        return ~self

    def __pow__(self, n: int) -> "Word":
        if n == 0:
            return Word()
        base = self if n > 0 else ~self
        return Word(base.letters * abs(n))

    def __len__(self):
        return len(self.letters)

    def __iter__(self):
        return iter(self.letters)

    def __eq__(self, other):
        return isinstance(other, Word) and self.letters == other.letters

    def __hash__(self):
        return hash(self.letters)

    def __bool__(self):
        return bool(self.letters)

    def max_index(self) -> int:
        """Largest 0-based generator index mentioned (-1 for the empty word)."""
        return max((abs(a) for a in self.letters), default=0) - 1

    def __repr__(self):
        return f"Word({list(self.letters)})"


def conjugate(u: Word, v: Word) -> Word:
    """u^v = v^-1 u v, freely reduced."""
    return ~v * u * v


def commutator(u: Word, v: Word) -> Word:
    """[u, v] = u^-1 v^-1 u v, freely reduced."""
    return ~u * ~v * u * v


class ParseError(ValueError):
    """Syntax or validation error in presentation text; carries position."""

    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"line {line}, col {col}: {message}")
        self.line = line
        self.col = col


@dataclass
class Presentation:
    """A finite presentation: named generators plus freely reduced relators.

    Relators are used exactly as given (beyond free reduction); no implicit
    consequences are added.
    """

    generators: list[str]
    relators: list[Word]
    name: str | None = None

    def __post_init__(self):
        if not self.generators:
            raise ValueError("presentation needs at least one generator")
        if len(set(self.generators)) != len(self.generators):
            raise ValueError("duplicate generator names")
        for g in self.generators:
            if not _is_identifier(g):
                raise ValueError(f"bad generator name {g!r}")
        ng = len(self.generators)
        for w in self.relators:
            if not isinstance(w, Word):
                raise TypeError("relators must be Words")
            if w.max_index() >= ng:
                raise ValueError(
                    f"relator {w!r} mentions generator index {w.max_index()}, "
                    f"but only {ng} generators are declared"
                )

    @property
    def ngens(self) -> int:
        return len(self.generators)

    def __eq__(self, other):
        return (
            isinstance(other, Presentation)
            and self.generators == other.generators
            and self.relators == other.relators
            and self.name == other.name
        )

    def word_text(self, w: Word) -> str:
        return _word_to_text(w, self.generators)

    def to_text(self) -> str:
        """Render in the line-oriented text format; parse() round-trips."""
        lines = []
        if self.name is not None:
            lines.append(f"group {self.name}")
        lines.append("gens " + ", ".join(self.generators))
        if self.relators:
            lines.append("rels " + ", ".join(self.word_text(w) for w in self.relators))
        return "\n".join(lines) + "\n"


def _is_identifier(s: str) -> bool:
    if not s or not (s[0].isalpha() or s[0] == "_"):
        return False
    return all(c.isalnum() or c == "_" for c in s)


def _word_to_text(w: Word, names: list[str]) -> str:
    if not w.letters:
        # The grammar has no identity token; emit a canceling pair, which
        # reparses to the empty word.
        return f"{names[0]}*{names[0]}^-1"
    parts = []
    i = 0
    letters = w.letters
    while i < len(letters):
        a = letters[i]
        j = i
        while j < len(letters) and letters[j] == a:
            j += 1
        run = j - i
        name = names[abs(a) - 1]
        exp = run if a > 0 else -run
        parts.append(name if exp == 1 else f"{name}^{exp}")
        i = j
    return "*".join(parts)


# --- tokenizer / recursive-descent parser for the text format ---

_PUNCT = "()[]^*,"


class _Tokens:
    def __init__(self, text: str, line: int):
        self.toks: list[tuple[str, str, int]] = []  # (kind, value, col)
        i, n = 0, len(text)
        while i < n:
            c = text[i]
            if c in " \t":
                i += 1
                continue
            col = i + 1
            if c in _PUNCT:
                self.toks.append(("punct", c, col))
                i += 1
            elif c.isalpha() or c == "_":
                j = i
                while j < n and (text[j].isalnum() or text[j] == "_"):
                    j += 1
                self.toks.append(("name", text[i:j], col))
                i = j
            elif c.isdigit() or (c == "-" and i + 1 < n and text[i + 1].isdigit()):
                j = i + 1
                while j < n and text[j].isdigit():
                    j += 1
                self.toks.append(("int", text[i:j], col))
                i = j
            else:
                raise ParseError(f"unexpected character {c!r}", line, col)
        self.pos = 0
        self.line = line

    def peek(self):
        return self.toks[self.pos] if self.pos < len(self.toks) else ("end", "", -1)

    def next(self):
        t = self.peek()
        if t[0] != "end":
            self.pos += 1
        return t

    def expect_punct(self, ch: str):
        kind, val, col = self.next()
        if kind != "punct" or val != ch:
            raise ParseError(f"expected {ch!r}, got {val!r}", self.line, col)

    def error(self, msg: str):
        col = self.peek()[2]
        raise ParseError(msg, self.line, col if col > 0 else 0)


class _WordParser:
    """wordexpr := term ('*' term)*
    term     := atom ('^' int | '^' atom)?
    atom     := name | '(' wordexpr ')' | '[' wordexpr ',' wordexpr ']'
    """

    def __init__(self, tokens: _Tokens, gen_index: dict[str, int]):
        self.t = tokens
        self.gen_index = gen_index

    def parse_word(self) -> Word:
        w = self.parse_term()
        while True:
            kind, val, _ = self.t.peek()
            if kind == "punct" and val == "*":
                self.t.next()
                w = w * self.parse_term()
            else:
                return w

    def parse_term(self) -> Word:
        w = self.parse_atom()
        kind, val, _ = self.t.peek()
        if kind == "punct" and val == "^":
            self.t.next()
            kind, val, col = self.t.peek()
            if kind == "int":
                self.t.next()
                return w ** int(val)
            return conjugate(w, self.parse_atom())
        return w

    def parse_atom(self) -> Word:
        kind, val, col = self.t.next()
        if kind == "name":
            idx = self.gen_index.get(val)
            if idx is None:
                raise ParseError(f"undeclared generator {val!r}", self.t.line, col)
            return Word.gen(idx)
        if kind == "punct" and val == "(":
            w = self.parse_word()
            self.t.expect_punct(")")
            return w
        if kind == "punct" and val == "[":
            u = self.parse_word()
            self.t.expect_punct(",")
            v = self.parse_word()
            self.t.expect_punct("]")
            return commutator(u, v)
        raise ParseError(f"expected a word, got {val!r}", self.t.line, col)


def parse_presentation(text: str) -> Presentation:
    """Parse the line-oriented presentation format.

    Statements are separated by newlines or ';':

        group D8
        gens a, b
        rels a^4, b^2, (a*b)^2

    ``group`` is optional; ``rels`` may repeat and accumulates.
    """
    name: str | None = None
    generators: list[str] | None = None
    relators: list[Word] = []

    statements: list[tuple[int, str]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        for piece in raw.split(";"):
            if piece.strip():
                statements.append((lineno, piece))

    for lineno, stmt in statements:
        toks = _Tokens(stmt, lineno)
        kind, head, col = toks.next()
        if kind != "name":
            raise ParseError(f"expected a statement, got {head!r}", lineno, col)
        if head == "group":
            if name is not None:
                raise ParseError("duplicate group statement", lineno, col)
            if generators is not None or relators:
                raise ParseError("group statement must come first", lineno, col)
            kind, val, col = toks.next()
            if kind != "name":
                raise ParseError("group needs a name", lineno, col)
            if toks.peek()[0] != "end":
                toks.error("trailing tokens after group name")
            name = val
        elif head == "gens":
            if generators is not None:
                raise ParseError("duplicate gens statement", lineno, col)
            generators = []
            while True:
                kind, val, col = toks.next()
                if kind != "name":
                    raise ParseError("expected generator name", lineno, col)
                generators.append(val)
                kind, val, col = toks.peek()
                if kind == "end":
                    break
                toks.expect_punct(",")
            if not generators:
                raise ParseError("empty generator list", lineno, col)
        elif head == "rels":
            if generators is None:
                raise ParseError("rels before gens", lineno, col)
            gen_index = {g: i for i, g in enumerate(generators)}
            parser = _WordParser(toks, gen_index)
            while True:
                relators.append(parser.parse_word())
                kind, val, col = toks.peek()
                if kind == "end":
                    break
                toks.expect_punct(",")
        else:
            raise ParseError(f"unknown statement {head!r}", lineno, col)

    if generators is None:
        raise ParseError("no gens statement", 1, 1)
    return Presentation(generators=generators, relators=relators, name=name)
