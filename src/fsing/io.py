"""Parsers for the .poly and .matroid text formats.

A .poly file declares a field, a variable list, and named polynomials:

    # quadric pair
    p 2
    ext 1
    vars x y z w
    poly f: x*y + z*w

Terms are products of variables with optional ^exponent, with one
optional leading integer coefficient, joined by + and -.  A bare
integer is a constant term.  Coefficients are reduced modulo p.

A .matroid file lists bases of a matroid on 1..n:

    matroid
    n 4
    basis 1 2
    basis 1 3
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from .errors import (
    BadFieldSpecError,
    MatroidFormatError,
    ParseError,
    UnknownVariableError,
)
from .field import MAX_CHAR, Field, build_field, is_prime
from .poly import Poly, VarCtx

_TOKEN = re.compile(r"\s*(?:(?P<int>\d+)|(?P<name>[A-Za-z_][A-Za-z0-9_]*)|(?P<op>[*^+\-:]))")


@dataclass
class ParsedFile:
    field: Field
    varctx: VarCtx
    polys: dict  # name -> Poly, insertion ordered
    source: str


def _tokenize(line: str, lineno: int):
    tokens = []
    pos = 0
    while pos < len(line):
        m = _TOKEN.match(line, pos)
        if not m or m.end() == pos:
            stripped = line[pos:].lstrip()
            if not stripped:
                break
            col = len(line) - len(stripped) + 1
            raise ParseError(f"unexpected character {stripped[0]!r}", lineno, col)
        kind = m.lastgroup
        tokens.append((kind, m.group(kind), m.start(kind) + 1))
        pos = m.end()
    return tokens


class _ExprParser:
    def __init__(self, tokens, lineno, field, varctx):
        self.tokens = tokens
        self.lineno = lineno
        self.field = field
        self.varctx = varctx
        self.i = 0

    def peek(self):
        return self.tokens[self.i] if self.i < len(self.tokens) else None

    def take(self):
        tok = self.peek()
        if tok is None:
            last_col = self.tokens[-1][2] if self.tokens else 1
            raise ParseError("unexpected end of expression", self.lineno, last_col)
        self.i += 1
        return tok

    def parse(self) -> Poly:
        terms = {}
        fld, n = self.field, self.varctx.n
        sign = 1
        tok = self.peek()
        if tok and tok[0] == "op" and tok[1] in "+-":
            sign = -1 if tok[1] == "-" else 1
            self.take()
        while True:
            exps, coeff = self.term()
            if sign < 0:
                coeff = fld.neg(coeff)
            cur = terms.get(exps)
            merged = fld.add(cur, coeff) if cur is not None else coeff
            if merged == fld.zero:
                terms.pop(exps, None)
            else:
                terms[exps] = merged
            tok = self.peek()
            if tok is None:
                break
            if tok[0] != "op" or tok[1] not in "+-":
                raise ParseError(f"expected + or -, got {tok[1]!r}", self.lineno, tok[2])
            sign = -1 if tok[1] == "-" else 1
            self.take()
        return Poly(fld, self.varctx, terms)

    def term(self):
        fld = self.field
        exps = [0] * self.varctx.n
        tok = self.take()
        if tok[0] == "int":
            coeff = fld.scalar(int(tok[1]))
            nxt = self.peek()
            if nxt is None or nxt[1] in "+-":
                return tuple(exps), coeff
            if nxt[0] == "op" and nxt[1] == "*":
                self.take()
                self.var_factor(exps)
            else:
                raise ParseError(f"expected * after coefficient", self.lineno, nxt[2])
        elif tok[0] == "name":
            coeff = fld.one
            self.i -= 1
            self.var_factor(exps)
        else:
            raise ParseError(f"unexpected token {tok[1]!r}", self.lineno, tok[2])
        while True:
            nxt = self.peek()
            if nxt is None or nxt[1] in "+-":
                break
            if nxt[0] == "op" and nxt[1] == "*":
                self.take()
                self.var_factor(exps)
            else:
                raise ParseError(f"expected * between factors", self.lineno, nxt[2])
        return tuple(exps), coeff

    def var_factor(self, exps):
        tok = self.take()
        if tok[0] == "int":
            raise ParseError("coefficient allowed only at the front of a term", self.lineno, tok[2])
        if tok[0] != "name":
            raise ParseError(f"expected a variable, got {tok[1]!r}", self.lineno, tok[2])
        if tok[1] not in self.varctx.names:
            raise UnknownVariableError(f"unknown variable {tok[1]!r}", self.lineno, tok[2])
        idx = self.varctx.index(tok[1])
        power, col = 1, tok[2]
        nxt = self.peek()
        if nxt and nxt[0] == "op" and nxt[1] == "^":
            self.take()
            etok = self.take()
            if etok[0] != "int":
                raise ParseError("exponent must be an integer", self.lineno, etok[2])
            power, col = int(etok[1]), etok[2]
        power += exps[idx]
        if power >= MAX_CHAR:
            raise ParseError(f"exponent {power} out of range", self.lineno, col)
        exps[idx] = power


def parse_poly_source(text: str) -> ParsedFile:
    p = None
    ext = 1
    names = None
    polys: dict = {}
    p_line = 1
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].rstrip()
        if not line.strip():
            continue
        tokens = _tokenize(line, lineno)
        head = tokens[0]
        if head[0] == "name" and head[1] == "p" and (len(tokens) == 2):
            if polys:
                raise ParseError("field directive after polynomials", lineno, head[2])
            if p is not None:
                raise BadFieldSpecError("duplicate p directive", lineno, head[2])
            if tokens[1][0] != "int":
                raise BadFieldSpecError("p needs an integer", lineno, tokens[1][2])
            p = int(tokens[1][1])
            p_line = lineno
            if not is_prime(p) or p >= MAX_CHAR:
                raise BadFieldSpecError(f"{p} is not a prime below 2^16", lineno, tokens[1][2])
        elif head[0] == "name" and head[1] == "ext":
            if polys:
                raise ParseError("field directive after polynomials", lineno, head[2])
            if len(tokens) != 2 or tokens[1][0] != "int":
                raise BadFieldSpecError("ext needs an integer", lineno, head[2])
            ext = int(tokens[1][1])
            if not 1 <= ext <= 4:
                raise BadFieldSpecError("ext must lie in 1..4", lineno, tokens[1][2])
        elif head[0] == "name" and head[1] == "vars":
            if names is not None:
                raise ParseError("duplicate vars directive", lineno, head[2])
            if len(tokens) < 2 or any(t[0] != "name" for t in tokens[1:]):
                raise ParseError("vars needs a list of names", lineno, head[2])
            declared = [t[1] for t in tokens[1:]]
            if len(set(declared)) != len(declared):
                raise ParseError("duplicate variable name", lineno, tokens[1][2])
            names = declared
        elif head[0] == "name" and head[1] == "poly":
            if p is None:
                raise BadFieldSpecError("poly before p directive", lineno, head[2])
            if names is None:
                raise ParseError("poly before vars directive", lineno, head[2])
            if len(tokens) < 3 or tokens[1][0] != "name":
                raise ParseError("poly needs a name", lineno, head[2])
            pname = tokens[1][1]
            if tokens[2][0] != "op" or tokens[2][1] != ":":
                raise ParseError("expected : after the poly name", lineno, tokens[2][2])
            if pname in polys:
                raise ParseError(f"duplicate poly name {pname!r}", lineno, tokens[1][2])
            field = build_field(p, ext)
            varctx = VarCtx(names)
            parser = _ExprParser(tokens[3:], lineno, field, varctx)
            if parser.peek() is None:
                raise ParseError("empty polynomial expression", lineno, tokens[2][2])
            polys[pname] = parser.parse()
        else:
            raise ParseError(f"unknown directive {head[1]!r}", lineno, head[2])
    if p is None:
        raise BadFieldSpecError("missing p directive", p_line, 1)
    if names is None:
        raise ParseError("missing vars directive", p_line, 1)
    return ParsedFile(build_field(p, ext), VarCtx(names), polys, text)


def parse_poly_file(path: str) -> ParsedFile:
    with open(path, encoding="utf-8") as fh:
        return parse_poly_source(fh.read())


# --------------------------------------------------------------------------
# matroids
# --------------------------------------------------------------------------

@dataclass
class MatroidInput:
    n: int
    bases: list  # sorted tuples of 1-based indices, lex ordered


def parse_matroid_source(text: str) -> MatroidInput:
    n = None
    bases = []
    saw_header = False
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if parts[0] == "matroid":
            saw_header = True
        elif parts[0] == "n":
            if len(parts) != 2 or not parts[1].isdigit():
                raise MatroidFormatError(f"line {lineno}: n needs an integer")
            n = int(parts[1])
        elif parts[0] == "basis":
            if n is None:
                raise MatroidFormatError(f"line {lineno}: basis before n")
            try:
                idx = [int(x) for x in parts[1:]]
            except ValueError:
                raise MatroidFormatError(f"line {lineno}: bad basis entry") from None
            if not idx:
                raise MatroidFormatError(f"line {lineno}: empty basis")
            if any(i < 1 or i > n for i in idx):
                raise MatroidFormatError(f"line {lineno}: basis index out of 1..{n}")
            if len(set(idx)) != len(idx):
                raise MatroidFormatError(f"line {lineno}: repeated element in basis")
            bases.append(tuple(sorted(idx)))
        else:
            raise MatroidFormatError(f"line {lineno}: unknown directive {parts[0]!r}")
    if not saw_header:
        raise MatroidFormatError("missing matroid header line")
    if n is None:
        raise MatroidFormatError("missing n directive")
    if not bases:
        raise MatroidFormatError("no bases given")
    if len(set(bases)) != len(bases):
        raise MatroidFormatError("duplicate basis")
    sizes = {len(b) for b in bases}
    if len(sizes) != 1:
        raise MatroidFormatError("bases must share one cardinality")
    return MatroidInput(n, sorted(bases))


def parse_matroid_file(path: str) -> MatroidInput:
    with open(path, encoding="utf-8") as fh:
        return parse_matroid_source(fh.read())


def verify_exchange(m: MatroidInput):
    """Basis exchange axiom check; returns (ok, human readable detail)."""
    basis_set = {frozenset(b) for b in m.bases}
    for b1 in basis_set:
        for b2 in basis_set:
            for e in b1 - b2:
                if not any((b1 - {e}) | {f} in basis_set for f in b2 - b1):
                    return False, f"exchange fails for {sorted(b1)}, {sorted(b2)} at {e}"
    return True, None


def matroid_basis_polynomial(m: MatroidInput, field: Field) -> Poly:
    """Sum over bases of the product of their variables; square-free by design."""
    varctx = VarCtx(tuple(f"x{i}" for i in range(1, m.n + 1)))
    terms = {}
    for basis in m.bases:
        exps = tuple(1 if (i + 1) in basis else 0 for i in range(m.n))
        terms[exps] = field.one
    return Poly(field, varctx, terms)


def parse_point(field: Field, text: str, n: int):
    """Comma-separated integers in 0..q-1 -> field elements (base-p digit
    encoding), q the field order; a value outside that range is an error."""
    parts = [s.strip() for s in text.split(",")]
    if len(parts) != n:
        raise ValueError(f"expected {n} coordinates, got {len(parts)}")
    coords = []
    for s in parts:
        try:
            v = int(s)
        except ValueError:
            raise ValueError(f"bad coordinate {s!r}") from None
        if not 0 <= v < field.order:
            raise ValueError(f"coordinate {v} is outside 0..{field.order - 1}")
        coords.append(field.decode(v))
    return tuple(coords)
