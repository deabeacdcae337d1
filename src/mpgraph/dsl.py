"""Line-oriented model description language.

Statements::

    # comment
    let A = [[0.97, -0.26], [0.26, 0.97]]
    let T = 48
    x[0] ~ GaussianMeanVariance([0.0, 0.0], [[100.0, 0.0], [0.0, 100.0]])
    for t in 1:T {
        m[t] ~ Gain(x[t-1], A)
        x[t] ~ GaussianMeanPrecision(m[t], W)
        y[t] ~ GaussianMeanPrecision(x[t], u)
        observe y[t] :: ()
    }

Loops are unrolled at parse time, so loop bounds must be literals, let-bound
constants, or constants supplied by the caller (the CLI forwards ``--const``
values here). Matrix literals are row-major. Node arguments are positional
and follow the kind's interface order with ``out`` taken from the left-hand
side; raw numeric arguments are clamped as fixed parameters.
"""

from __future__ import annotations

import re

import numpy as np

from .graph import NODE_KINDS, FactorGraph, GraphError, NodeKind, infer_supports

# Loops are unrolled by recursion, two Python frames per level; deeper nesting
# is rejected before it can exhaust the interpreter's recursion limit.
MAX_LOOP_DEPTH = 100


class ModelParseError(ValueError):
    def __init__(self, message, line=None, token=None):
        where = ""
        if line is not None:
            where = f"line {line}"
            if token is not None:
                where += f", token {token}"
            where += ": "
        super().__init__(where + message)
        self.line = line
        self.token = token


_TOKEN_RE = re.compile(
    r"\s*(?:(?P<comment>#.*)"
    r"|(?P<name>[A-Za-z_][A-Za-z0-9_]*)"
    r"|(?P<number>[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?)"
    r"|(?P<sym>::|~|=|\(|\)|\[|\]|\{|\}|,|:))"
)


class _Token:
    def __init__(self, kind, value, line, pos):
        self.kind = kind
        self.value = value
        self.line = line
        self.pos = pos

    def __repr__(self):
        return f"{self.value!r}"


def _tokenize(text: str) -> list[_Token]:
    tokens = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        idx, pos = 0, 0
        while idx < len(line):
            m = _TOKEN_RE.match(line, idx)
            if m is None or m.end() == idx:
                if line[idx:].strip():
                    raise ModelParseError(f"unrecognized input {line[idx:].strip()!r}", lineno, pos)
                break
            idx = m.end()
            if m.lastgroup == "comment":
                break
            pos += 1
            tokens.append(_Token(m.lastgroup, m.group(m.lastgroup), lineno, pos))
    return tokens


class _Parser:
    def __init__(self, tokens: list[_Token], constants: dict):
        self.tokens = tokens
        self.i = 0
        self.graph = FactorGraph()
        self.lets: dict[str, np.ndarray | float] = dict(constants)
        self.declared: set[str] = set()
        self.kinds = {kind.dsl: kind for kind in NODE_KINDS.values() if kind.dsl}

    # -- token helpers --------------------------------------------------

    def peek(self) -> _Token | None:
        return self.tokens[self.i] if self.i < len(self.tokens) else None

    def current(self) -> _Token:
        """The next token, not consumed; the end of input is an error."""
        tok = self.peek()
        if tok is None:
            self.error("unexpected end of input")
        return tok

    def next(self) -> _Token:
        if self.i >= len(self.tokens):
            self.error("unexpected end of input")
        self.i += 1
        return self.tokens[self.i - 1]

    def expect(self, value: str) -> _Token:
        tok = self.next()
        if tok.value != value:
            raise ModelParseError(f"expected {value!r}, found {tok.value!r}", tok.line, tok.pos)
        return tok

    def error(self, message: str):
        tok = self.peek() or (self.tokens[-1] if self.tokens else None)
        raise ModelParseError(message, tok.line if tok else None, tok.pos if tok else None)

    # -- grammar ----------------------------------------------------------

    def parse(self) -> FactorGraph:
        while self.peek() is not None:
            self.statement({})
        self._check_dimensions()
        return self.graph

    def statement(self, env: dict):
        tok = self.peek()
        if tok.kind == "name" and tok.value == "let":
            self.let_statement()
        elif tok.kind == "name" and tok.value == "for":
            self.for_statement(env)
        elif tok.kind == "name" and tok.value == "observe":
            self.observe_statement(env)
        elif tok.kind == "name":
            self.sample_statement(env)
        else:
            self.error(f"expected a statement, found {tok.value!r}")

    def let_statement(self):
        self.expect("let")
        name = self.ident()
        self.expect("=")
        self.lets[name] = self.literal()

    def for_statement(self, env: dict):
        self.expect("for")
        var = self.ident()
        kw = self.next()
        if kw.value != "in":
            raise ModelParseError(f"expected 'in', found {kw.value!r}", kw.line, kw.pos)
        start = self.int_literal(env)
        self.expect(":")
        stop = self.int_literal(env)
        self.expect("{")
        body_start = self.i
        depth = 1
        while depth > 0:
            tok = self.next()
            if tok.value == "{":
                depth += 1
                if depth > MAX_LOOP_DEPTH:
                    raise ModelParseError(f"loops nested more than {MAX_LOOP_DEPTH} deep", tok.line, tok.pos)
            elif tok.value == "}":
                depth -= 1
        body_end = self.i - 1
        saved = self.i
        for value in range(start, stop + 1):
            self.i = body_start
            inner = dict(env)
            inner[var] = value
            while self.i < body_end:
                self.statement(inner)
        self.i = saved

    def observe_statement(self, env: dict):
        self.expect("observe")
        base = self.ident()
        tok = self.peek()
        index = 1
        var = base
        if tok is not None and tok.value == "[":
            index = self.index_suffix(env)
            var = f"{base}[{index}]"
            if index < 1:
                raise ModelParseError(f"observed index {var} is below 1: data series are 1-based", tok.line)
        self.expect("::")
        dims = self.dims_tuple()
        if var not in self.declared:
            self.error(f"undeclared variable {var!r}")
        self.graph.observe(var, base, index, dims)

    def sample_statement(self, env: dict):
        out = self.variable_ref(env, declare=True)
        self.expect("~")
        kind_tok = self.next()
        kind = self.kinds.get(kind_tok.value)
        if kind is None:
            raise ModelParseError(f"unknown node kind {kind_tok.value!r}", kind_tok.line, kind_tok.pos)
        self.expect("(")
        args = []
        if self.peek() is not None and self.peek().value != ")":
            args.append(self.argument(env))
            while self.peek() is not None and self.peek().value == ",":
                self.next()
                args.append(self.argument(env))
        self.expect(")")
        self.build_node(kind, out, args, kind_tok)

    def build_node(self, kind: NodeKind, out: str, args: list, kind_tok: _Token):
        constants = {}
        if kind.parse_constants is not None:
            try:
                args, constants = kind.parse_constants(args)
            except ValueError as exc:
                raise ModelParseError(str(exc), kind_tok.line) from None
        roles = kind.role_names(1 + len(args))
        if len(roles) != 1 + len(args):
            raise ModelParseError(
                f"{kind_tok.value} expects {len(roles) - 1} arguments, got {len(args)}",
                kind_tok.line,
            )
        connections = {roles[0]: out}
        for role, arg in zip(roles[1:], args):
            if isinstance(arg, str) and arg not in self.declared:
                raise ModelParseError(f"undeclared variable {arg!r}", kind_tok.line)
            if isinstance(arg, str) and arg == out:
                raise ModelParseError(f"variable {out!r} is an input of the node that produces it", kind_tok.line)
            connections[role] = arg
        if kind.check_values is not None:
            try:
                kind.check_values({role: np.asarray(arg, dtype=float) for role, arg in connections.items()
                                   if not isinstance(arg, str)})
            except (TypeError, ValueError) as exc:
                raise ModelParseError(f"{kind_tok.value}: {exc}", kind_tok.line) from None
        try:
            self.graph.add_node(kind.name, connections, constants)
        except GraphError as exc:
            raise ModelParseError(str(exc), kind_tok.line) from None

    # -- terminals ----------------------------------------------------------

    def ident(self) -> str:
        tok = self.next()
        if tok.kind != "name":
            raise ModelParseError(f"expected a name, found {tok.value!r}", tok.line, tok.pos)
        return tok.value

    def variable_ref(self, env: dict, declare: bool = False) -> str:
        base = self.ident()
        name = base
        if self.peek() is not None and self.peek().value == "[":
            name = f"{base}[{self.index_suffix(env)}]"
        if declare:
            self.declared.add(name)
        return name

    def index_suffix(self, env: dict) -> int:
        self.expect("[")
        total = 0
        while True:
            tok = self.next()
            if tok.kind == "name":
                if tok.value not in env:
                    raise ModelParseError(f"unknown loop index {tok.value!r}", tok.line, tok.pos)
                total += int(env[tok.value])
            elif tok.kind == "number":
                total += _integer(float(tok.value), tok)
            elif tok.value == "]":
                return total
            else:
                raise ModelParseError(f"bad index expression at {tok.value!r}", tok.line, tok.pos)

    def argument(self, env: dict):
        """A number, literal or ``let`` constant, or else a name (a variable,
        or a constant such as Nonlinear's g that the kind parses)."""
        tok = self.current()
        if tok.kind == "number":
            self.next()
            return float(tok.value)
        if tok.value == "[":
            return self.literal()
        if tok.kind == "name":
            if tok.value in self.lets:
                self.next()
                return self.lets[tok.value]
            return self.variable_ref(env)
        self.error(f"bad argument {tok.value!r}")

    def literal(self):
        tok = self.current()
        if tok.kind == "number":
            self.next()
            return float(tok.value)
        if tok.value == "[":
            self.next()
            rows, flat = [], []
            is_matrix = self.peek() is not None and self.peek().value == "["
            while True:
                if self.peek() is None:
                    self.error("unterminated literal")
                if self.peek().value == "]":
                    self.next()
                    break
                if is_matrix:
                    rows.append(self._vector_literal())
                else:
                    flat.append(self.number())
                if self.peek() is not None and self.peek().value == ",":
                    self.next()
            if is_matrix:
                if len({len(r) for r in rows}) > 1:
                    self.error("ragged matrix literal")
                return np.asarray(rows, dtype=float)
            return np.asarray(flat, dtype=float)
        self.error(f"expected a literal, found {tok.value!r}")

    def _vector_literal(self) -> list[float]:
        self.expect("[")
        values = []
        while True:
            if self.peek() is None:
                self.error("unterminated vector literal")
            if self.peek().value == "]":
                self.next()
                return values
            values.append(self.number())
            if self.peek() is not None and self.peek().value == ",":
                self.next()

    def number(self) -> float:
        tok = self.next()
        if tok.kind != "number":
            raise ModelParseError(f"expected a number, found {tok.value!r}", tok.line, tok.pos)
        return float(tok.value)

    def int_literal(self, env: dict) -> int:
        tok = self.next()
        if tok.kind == "number":
            return _integer(float(tok.value), tok)
        if tok.kind == "name":
            if tok.value in self.lets and np.isscalar(self.lets[tok.value]):
                return _integer(self.lets[tok.value], tok)
            if tok.value in env:
                return int(env[tok.value])
            raise ModelParseError(f"loop bound {tok.value!r} is not a known constant", tok.line, tok.pos)
        raise ModelParseError(f"expected a loop bound, found {tok.value!r}", tok.line, tok.pos)

    def dims_tuple(self) -> tuple[int, ...]:
        self.expect("(")
        dims = []
        while True:
            tok = self.next()
            if tok.value == ")":
                return tuple(dims)
            if tok.kind == "number":
                dims.append(_integer(float(tok.value), tok))
            elif tok.value != ",":
                raise ModelParseError(f"bad dims tuple at {tok.value!r}", tok.line, tok.pos)

    # -- consistency -------------------------------------------------------

    def _check_dimensions(self):
        supports = infer_supports(self.graph)
        for node in self.graph.nodes:
            check = self.graph.kind_of(node).check
            if check is None:
                continue
            roles = node.roles(self.graph)
            dims = {}
            for idx, edge_id in enumerate(node.interfaces):
                if edge_id is not None:
                    sup = supports.get(self.graph.edges[edge_id].variable)
                    dims[roles[idx]] = sup.shape if sup else None
            problem = check(node, dims)
            if problem:
                raise ModelParseError(problem)


def _integer(value, tok: _Token) -> int:
    try:
        return int(value)
    except (OverflowError, ValueError):
        raise ModelParseError(f"{tok.value!r} is not a finite integer", tok.line, tok.pos) from None


def parse_model(text: str, constants: dict | None = None) -> FactorGraph:
    """Parse model source into a factor graph; loops are unrolled."""
    tokens = _tokenize(text)
    parser = _Parser(tokens, constants or {})
    graph = parser.parse()
    return graph
