"""Hash-consed expression DAGs with exact rational constants.

Every expression is interned: building the same tree twice yields the same
node object, so structural equality is identity and derivative/simplification
caches can be keyed by node.  Constants are `fractions.Fraction`; floating
literals never enter the DAG (the parser converts decimals to exact
rationals).  `sqrt`, division and negation are surface syntax: they
canonicalize to `pow(e, 1/2)`, `mul(a, pow(b, -1))` and `mul(-1, a)`.

The smart constructors perform light, value-preserving canonicalization
(constant folding, 0/1 identities, flattening, collection of rational
coefficients and of identical factors).  They deliberately do not factor or
cancel symbolic rational functions; correctness of downstream zero tests
rests on evaluation, not on the simplifier.  Operand order is structural
(`_compare`), never by creation: no output depends on what was built before.
The constructors reuse canonical operands: a term or factor that combines
with no other is kept as the node it is, each node stores its coefficient
and its (base, exponent) split, and the operands of each canonical input
come already sorted, so they are merged as runs rather than sorted again.
The build interns only nodes a DAG keeps: `add` collects like terms under
a key, the tuple of a term's factors when it has several, and `derive`
holds a product's derivative as its product-rule terms until a consumer
other than a sum needs it as a node.
The intern table and the derivative cache take no lock: each write is one
dict operation on a key hashed in C, so threads racing on a key get one node.
One children-first walk, `_fold`, serves ordering, rebuilding,
differentiating and printing; it never enters a node already folded, so
`derive`, with one cache per symbol, visits only the nodes that symbol has
not differentiated.

One interpreter, `_walk`, runs a `Program`: each node of the roots' union
DAG is compiled once, into one slot instruction that the code of every
root reaching it shares (interning nothing), either lazily, as roots are
first evaluated, or for all roots up front into a sealed program that
threads may share.  Values are kept in one `Store` per point, so a node
shared by several roots is computed once per point, and the stores of one
check share their converted constants.  `evaluate` chooses
the arithmetic by one argument, `precision`: None for exact, else the
mantissa bits.  Exact is rational-only, decided by the node mask alone: a
DAG with exp, log or a non-integer power is refused before any slot is
computed.  Two arithmetics live here: reduced (numerator, denominator) int
pairs capped at EXACT_BITS, a product of two cancelled across and one of
more computed in one pass and reduced by one gcd, and p-bit floats as raw
mpmath tuples, which keep the real-domain rules and round each step of a
sum or product inline, bit-identical to libmp; each also decides on the
raw values it makes (`arithmetic`).  The module is pure
Python: the third arithmetic, numpy doubles over whole grids, lives with
its one caller in `linearizer` (`grid_function`), which runs `_walk` too.
"""
from __future__ import annotations

import decimal
import math
import operator
import re
from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from functools import cmp_to_key, reduce
from itertools import compress, repeat
from typing import Callable, Mapping

import mpmath
from mpmath import libmp

__all__ = [
    "Expr", "ExprError", "ParseError", "EvalError",
    "MissingBindingError", "SingularSampleError", "DomainEvalError",
    "ExactnessError", "ExactBudgetError", "EXACT_BITS", "const", "var",
    "param", "add", "sub", "mul", "div", "neg", "pow_", "sqrt", "exp_",
    "log_", "X", "Y", "parse", "format_expr", "simplify", "derive",
    "substitute", "evaluate", "evaluate_scaled", "arithmetic", "Program",
    "Store", "dag_size", "is_exactly_evaluable",
]

CONST = "const"
VAR = "var"
PARAM = "param"
ADD = "add"
MUL = "mul"
POW = "pow"
EXP = "exp"
LOG = "log"
UNDEF = "undef"

_MASK_X = 1
_MASK_Y = 2
_MASK_PARAM = 4
_MASK_TRANSCENDENTAL = 8  # exp/log node, or pow with non-integer exponent

# exact evaluation refuses a numerator or denominator longer than this
EXACT_BITS = 2 ** 18
NONZERO_CONFIRMATIONS = 2  # float-mode witnesses required for NONZERO

# str() of an int longer than 4300 digits (Python's default limit) fails;
# every int below 2**_STR_BITS is shorter than that.  A DAG constant must
# stay below it, so every constant prints.
_STR_DIGITS = 4300
_STR_BITS = 14284

_Q0, _Q1, _HALF = Fraction(0), Fraction(1), Fraction(1, 2)

# a parameter name, and every identifier the parser accepts
_IDENT = re.compile(r"[a-z][a-z0-9_]*")


class ExprError(ValueError):
    pass


class ParseError(ExprError):
    def __init__(self, message: str, position: int):
        super().__init__(f"{message} at offset {position}")
        self.position = position


class EvalError(ExprError):
    pass


class MissingBindingError(EvalError):
    pass


class SingularSampleError(EvalError):
    """Division by zero (or an undefined constant) at the sample point."""


class DomainEvalError(EvalError):
    """Negative radicand or non-positive log argument under real evaluation."""


class ExactnessError(EvalError):
    """Exact mode refused: the DAG has exp, log or a non-integer power."""


class ExactBudgetError(ExactnessError):
    """Exact mode refused: a value outgrew EXACT_BITS."""

    def __init__(self):
        super().__init__(f"exact evaluation exceeded {EXACT_BITS} bits")


class Expr:
    """One interned DAG node.  Compare with `is`/`==` (same thing here).

    `coeff` is the rational coefficient of a term of a sum (1 unless the
    node is a product led by a constant), `base`, `exponent` split a factor
    of a product (base ^ exponent, the exponent a Fraction when it is a
    constant node).  They are set at intern time, and are 1 and (self, 1)
    for a node that is no such product or power.  A term's core, what
    remains without the coefficient, is no node: `add` keys it by the
    factors themselves (`_core_key`)."""

    __slots__ = ("kind", "children", "value", "name", "mask", "coeff",
                 "base", "exponent")

    def __init__(self, kind: str, children: tuple["Expr", ...],
                 value: Fraction | None, name: str | None, mask: int):
        self.kind = kind
        self.children = children
        self.value = value
        self.name = name
        self.mask = mask
        self.coeff = self.exponent = _Q1
        self.base = self

    def __repr__(self) -> str:
        return f"<Expr {format_expr(self)}>"

    @property
    def is_zero(self) -> bool:
        return self.kind == CONST and not self.value


_table: dict[tuple, Expr] = {}
_derivative_cache: dict[str, dict[Expr, Expr]] = {}  # by symbol


def _intern(kind: str, children: tuple[Expr, ...] = (),
            value: Fraction | None = None, name: str | None = None) -> Expr:
    # a constant is keyed by its ints: a Fraction hash costs a modular pow
    key = ((kind, name, children) if value is None
           else (kind, value.numerator, value.denominator))
    node = _table.get(key)
    if node is None:
        mask = 0
        for c in children:
            mask |= c.mask
        if kind == VAR:
            mask |= _MASK_X if name == "x" else _MASK_Y
        elif kind == PARAM:
            mask |= _MASK_PARAM
        elif kind in (EXP, LOG):
            mask |= _MASK_TRANSCENDENTAL
        elif kind == POW:
            e = children[1]
            if not (e.kind == CONST and e.value.denominator == 1):
                mask |= _MASK_TRANSCENDENTAL
        node = Expr(kind, children, value, name, mask)
        if kind == MUL and children[0].kind == CONST:
            node.coeff = children[0].value
        elif kind == POW:
            node.base = children[0]
            node.exponent = e.value if e.kind == CONST else e
        # a thread that loses the race gets the node the winner stored
        node = _table.setdefault(key, node)
    return node


_UNDEF = _intern(UNDEF)


def as_expr(v) -> Expr:
    if isinstance(v, Expr):
        return v
    if isinstance(v, (int, Fraction)):
        return const(v)
    raise TypeError(f"cannot coerce {type(v).__name__} to Expr "
                    "(floats are rejected; use Fraction for exact constants)")


def const(v) -> Expr:
    if isinstance(v, float):
        raise TypeError("float constants are not allowed in the DAG; "
                        "pass int, Fraction or a string")
    if not isinstance(v, Fraction):
        v = Fraction(v)
    if (v.numerator.bit_length() > _STR_BITS
            or v.denominator.bit_length() > _STR_BITS):
        raise ExprError(f"constant exceeds {_STR_BITS} bits")
    return _intern(CONST, value=v)


def _pow_bits(p: int, q: int, n: int) -> int:
    """A lower bound on the bit length of the numerator or denominator of
    (p/q)^n: |(p/q)^n| has at least |n| * (bits - 1) bits."""
    return abs(n) * (max(abs(p), q).bit_length() - 1)


def _const_pow(c: Fraction, n: int) -> Expr:
    if _pow_bits(c.numerator, c.denominator, n) > _STR_BITS:
        raise ExprError(f"constant exceeds {_STR_BITS} bits")
    return const(c ** n)


def var(name: str) -> Expr:
    if name not in ("x", "y"):
        raise ExprError(f"variable must be 'x' or 'y', got {name!r}")
    return _intern(VAR, name=name)


def param(name: str) -> Expr:
    if (not _IDENT.fullmatch(name) or name in _RESERVED
            or name in ("x", "y")):
        raise ExprError(f"invalid parameter name {name!r}")
    return _intern(PARAM, name=name)


X = var("x")
Y = var("y")

_ZERO = const(0)
_ONE = const(1)


def _core_key(t: Expr) -> Expr | tuple[Expr, ...]:
    """The key under which `add` collects term t: t itself, its one factor
    after the constant, or the tuple of its factors after the constant (a
    product of coefficient 1 is keyed by all its factors).  A tuple stands
    for the product of its factors, which `add` interns only once it is a
    term: most keys never are."""
    if t.kind != MUL:
        return t
    kids = t.children
    if kids[0].kind != CONST:
        return kids
    return kids[1] if len(kids) == 2 else kids[1:]


def _factors(key: Expr | tuple[Expr, ...]) -> tuple[Expr, ...]:
    return key if key.__class__ is tuple else (key,)


def _scaled(key: Expr | tuple[Expr, ...], c: Fraction) -> Expr:
    """The term c * key, interned."""
    if key.__class__ is tuple:
        return _intern(MUL, key if c == 1 else (const(c),) + key)
    return key if c == 1 else _intern(MUL, (const(c), key))


def _exp_factor(key: Expr | tuple[Expr, ...]) -> Expr | None:
    """The unique exp(...) factor of a core key, if any."""
    for f in _factors(key):
        if f.kind == EXP:
            return f
    return None


def _compare(a, b) -> int:
    """Operand order of sums and products: kind, then constant value or name,
    then children lexicographically; hash-consing makes one descent decide.
    A tuple of factors, a core key of `add`, compares as their product."""
    if a.__class__ is tuple or b.__class__ is tuple:
        ka = MUL if a.__class__ is tuple else a.kind
        kb = MUL if b.__class__ is tuple else b.kind
        if ka != kb:
            return -1 if ka < kb else 1
        ac = a if a.__class__ is tuple else a.children
        bc = b if b.__class__ is tuple else b.children
        for a, b in zip(ac, bc):
            if a is not b:
                break
        else:
            return (len(ac) > len(bc)) - (len(ac) < len(bc))
    while a is not b:
        if a.kind != b.kind:
            return -1 if a.kind < b.kind else 1
        if a.kind == CONST:  # cross-multiplied: a Fraction `<` costs more
            p, q = a.value, b.value
            p, q = p.numerator * q.denominator, q.numerator * p.denominator
            return -1 if p < q else 1
        if a.name is not None:
            return -1 if a.name < b.name else 1
        ac, bc, i = a.children, b.children, 0
        while ac[i] is bc[i]:
            i += 1
            if i == len(ac) or i == len(bc):
                return -1 if len(ac) < len(bc) else 1
        a, b = ac[i], bc[i]
    return 0


_order = cmp_to_key(_compare)


def _merge(runs: list[list]) -> list:
    """One ascending list of the nodes (or core keys) of `runs`, each
    ascending under `_compare`: the others are inserted into the longest
    run, in place, by binary search, each from where the previous node of
    its run went, so `_compare` runs only where two runs meet."""
    runs = [r for r in runs if r]
    if len(runs) < 2:
        return runs[0] if runs else []
    out = max(runs, key=len)
    for run in runs:
        if run is not out:
            lo = 0
            for x in run:
                lo = bisect_left(out, _order(x), lo, key=_order)
                out.insert(lo, x)
                lo += 1
    return out


def add(*terms) -> Expr:
    """n-ary sum; flattens, folds constants and collects like terms.

    Like terms are collected under their core key (`_core_key`), so a
    product that only scales a term is never interned.  A term whose key
    meets no other term is kept as the node it is; the keys of each
    canonical input already come sorted, as one run."""
    const_acc = _Q0
    coeffs: dict = {}  # core key -> its coefficient
    alone: dict = {}  # core key -> its term, None if combined
    runs: list[list] = []

    def collect(c: Fraction, key, term: Expr | None, run: list) -> None:
        prev = coeffs.get(key)
        if prev is None:
            coeffs[key] = c
            alone[key] = term
            run.append(key)
        else:
            coeffs[key] = prev + c
            alone[key] = None

    for t in map(as_expr, terms):
        if t.kind == UNDEF:
            return _UNDEF
        if t.kind == CONST:
            const_acc += t.value
            continue
        run: list = []
        runs.append(run)
        for k in t.children if t.kind == ADD else (t,):
            if k.kind == CONST:
                const_acc += k.value
                continue
            key = _core_key(k)
            if key.__class__ is tuple or key.kind != ADD:
                collect(k.coeff, key, k, run)
                continue
            # a rational multiple of a sum: distribute so the terms can
            # cancel against siblings (term count is unchanged)
            c = k.coeff
            inner: list = []
            runs.append(inner)
            for kk in key.children:
                if kk.kind == CONST:
                    const_acc += c * kk.value
                else:
                    collect(c * kk.coeff, _core_key(kk), None, inner)
    parts = _merge([[key for key in run if coeffs[key]] for run in runs])
    if not parts:
        return const(const_acc)
    # factor out a transcendental factor common to every term (exp never
    # vanishes, so this is unconditionally value-preserving); it lets the
    # quotient layer cancel exp factors and keep such webs exactly evaluable
    if not const_acc and len(parts) > 1:
        common = _exp_factor(parts[0])
        if common is not None and all(
                _exp_factor(key) is common for key in parts[1:]):
            stripped = [_mul([(const(coeffs[key]),),
                              tuple(f for f in _factors(key)
                                    if f is not common)])
                        for key in parts]
            return mul(common, add(*stripped))
    out = [alone[key] or _scaled(key, coeffs[key]) for key in parts]
    if const_acc:
        out.append(const(const_acc))
    if len(out) == 1:
        return out[0]
    return _intern(ADD, tuple(out))


def mul(*factors) -> Expr:
    """n-ary product; flattens, folds constants, merges identical bases."""
    return _mul([f.children if f.kind == MUL else (f,)
                 for f in map(as_expr, factors)])


def _mul(runs: list[tuple[Expr, ...]]) -> Expr:
    """The product of the factors of `runs`: each the children of a
    canonical product, or a part of them, or one node, so the factors of a
    run other than constants and exp come sorted.  A factor whose base
    meets no other factor is kept as the node it is."""
    coeff, lead = _Q1, None  # lead: the constant factor coeff came from
    alone: dict[Expr, Expr | None] = {}  # base -> its factor, None if shared
    shared: dict[Expr, list[Expr]] = {}  # base -> its factors, if several
    exp_args: list[Expr] = []
    kept: list[list[Expr]] = []
    for run in runs:
        factors = []
        for k in run:
            if k.kind == CONST:
                if coeff is _Q1:
                    coeff, lead = k.value, k
                else:
                    coeff *= k.value
            elif k.kind == EXP:
                exp_args.append(k.children[0])
            elif k.kind == UNDEF:  # a product never holds an UNDEF child
                return _UNDEF
            elif k.base not in alone:
                alone[k.base] = k
                factors.append(k)
            else:
                first = alone[k.base]
                if first is None:
                    shared[k.base].append(k)
                else:
                    shared[k.base] = [first, k]
                    alone[k.base] = None
        kept.append(factors)
    out: list[Expr] = []
    reflatten = False
    for base, first in alone.items():  # the order the bases first appear
        if first is not None:
            continue
        rq, syms = None, []
        for k in shared[base]:
            if isinstance(k.exponent, Fraction):
                rq = k.exponent if rq is None else rq + k.exponent
            else:
                syms.append(k.exponent)
        if syms:
            total = add(const(rq), *syms) if rq else (
                syms[0] if len(syms) == 1 else add(*syms))
            f = pow_(base, total)
        elif not rq:
            continue
        elif rq == 1:
            f = base
        else:
            f = pow_(base, rq)
        if f.kind == UNDEF:
            return _UNDEF
        if f.kind == CONST:
            coeff *= f.value
        else:
            if f.kind in (MUL, EXP):
                # exponent merging can distribute a power over a product
                # (or collapse onto exp); run one more canonicalization pass
                reflatten = True
            out.append(f)
    if exp_args:
        f = exp_(add(*exp_args))
        if f.kind == CONST:
            coeff *= f.value
        else:
            out.append(f)
    if shared:
        kept = [[k for k in factors if alone[k.base] is not None]
                for factors in kept]
    if reflatten:
        return _mul([(const(coeff),), *kept,
                     *(f.children if f.kind == MUL else (f,) for f in out)])
    if out:
        out.sort(key=_order)
        kept.append(out)
    out = _merge(kept)
    if not coeff or not out:
        return const(coeff)
    if coeff != 1:
        out.insert(0, lead if lead is not None and lead.value is coeff
                   else const(coeff))
    if len(out) == 1:
        return out[0]
    return _intern(MUL, tuple(out))


def _integer_root(n: int, q: int) -> int | None:
    """Exact integer q-th root of n >= 0, or None (integer Newton)."""
    if n in (0, 1):
        return n
    if q >= n.bit_length():  # 1 < n < 2^q, so 1 < root < 2
        return None
    if q == 2:
        r = math.isqrt(n)
        return r if r * r == n else None
    x = 1 << ((n.bit_length() + q - 1) // q)
    while True:
        y = ((q - 1) * x + n // x ** (q - 1)) // q
        if y >= x:
            break
        x = y
    return x if x ** q == n else None


def _exact_root(p: int, q: int, k: int) -> tuple[int, int] | None:
    """Exact k-th root of the reduced rational p/q >= 0 as a reduced
    (numerator, denominator) pair, or None."""
    num = _integer_root(p, k)
    if num is None:
        return None
    den = _integer_root(q, k)
    if den is None:
        return None
    return num, den


def pow_(base, exponent) -> Expr:
    base = as_expr(base)
    if isinstance(exponent, (int, Fraction)):
        exponent = const(exponent)
    exponent = as_expr(exponent)
    if base.kind == UNDEF or exponent.kind == UNDEF:
        return _UNDEF
    if exponent.kind == CONST:
        r = exponent.value
        if not r:
            return _ONE
        if r == 1:
            return base
        if base.kind == CONST:
            c = base.value
            if r.denominator == 1:
                if not c and r.numerator < 0:
                    return _UNDEF
                return _const_pow(c, r.numerator)
            if not c:
                return _ZERO if r.numerator > 0 else _UNDEF
            if c.numerator < 0:
                return _UNDEF  # real-valued: negative base, fractional power
            root = _exact_root(c.numerator, c.denominator, r.denominator)
            if root is not None:
                return _const_pow(Fraction(*root), r.numerator)
            return _intern(POW, (base, exponent))
        if base.kind == EXP:
            return exp_(mul(exponent, base.children[0]))
        if r.denominator == 1:
            if base.kind == POW:
                inner_e = base.children[1]
                if inner_e.kind == CONST:
                    return pow_(base.children[0], inner_e.value * r)
                return pow_(base.children[0], mul(exponent, inner_e))
            if base.kind == MUL:
                return mul(*(pow_(c, r) for c in base.children))
        return _intern(POW, (base, exponent))
    # symbolic exponent
    if base.kind == EXP:
        return exp_(mul(exponent, base.children[0]))
    if base.kind == CONST and base.value == 1:
        return _ONE
    return _intern(POW, (base, exponent))


def exp_(u) -> Expr:
    u = as_expr(u)
    if u.kind == UNDEF:
        return _UNDEF
    if u.kind == CONST and not u.value:
        return _ONE
    if u.kind == LOG:
        return u.children[0]
    return _intern(EXP, (u,))


def log_(u) -> Expr:
    u = as_expr(u)
    if u.kind == UNDEF:
        return _UNDEF
    if u.kind == CONST:
        if u.value == 1:
            return _ZERO
        if u.value.numerator <= 0:
            return _UNDEF
    if u.kind == EXP:
        return u.children[0]
    return _intern(LOG, (u,))


def div(a, b) -> Expr:
    return mul(a, pow_(b, -1))


def neg(a) -> Expr:
    return mul(const(-1), a)


def sub(a, b) -> Expr:
    return add(a, neg(b))


def sqrt(a) -> Expr:
    return pow_(a, _HALF)


def _fold(roots: tuple[Expr, ...], rule: Callable, done: dict) -> dict:
    """Set done[n] = rule(n, done) for every node reachable from the roots
    that `done` does not hold, children first, and return `done`.  A node
    in `done` is never entered, and neither is anything below it unless
    another path reaches it; `done` gains nodes in children-first order."""
    stack = list(reversed(roots))
    while stack:
        node = stack[-1]
        if node in done:
            stack.pop()
            continue
        pending = [c for c in node.children if c not in done]
        if pending:
            stack.extend(pending)
        else:
            done[node] = rule(node, done)
            stack.pop()
    return done


def topo_order(*roots: Expr) -> list[Expr]:
    """Nodes reachable from the roots, children strictly before parents."""
    # the keys of `done` are the order; a C rule runs no Python frame per node
    return list(_fold(roots, operator.is_, {}))


def dag_size(e: Expr) -> int:
    return len(topo_order(e))


def is_exactly_evaluable(e: Expr) -> bool:
    """True when the DAG is free of exp/log and non-integer powers, so that
    evaluation at rational bindings stays inside the rationals."""
    return not (e.mask & _MASK_TRANSCENDENTAL)


_REBUILD = {ADD: add, MUL: mul, POW: pow_, EXP: exp_, LOG: log_}


def _rebuild(e: Expr, leaf: Callable[[Expr], Expr]) -> Expr:
    """Rebuild bottom-up through the canonicalizing constructors, with
    `leaf(n)` standing in for every childless node n."""
    def rule(n, out):
        return (_REBUILD[n.kind](*(out[c] for c in n.children))
                if n.children else leaf(n))
    return _fold((e,), rule, {})[e]


def simplify(e: Expr) -> Expr:
    """Rebuild bottom-up through the canonicalizing constructors.

    Value-preserving where the input is defined; idempotent; never grows
    the DAG.  Division by a constant zero folds to an error node that
    evaluation reports as a singular sample.
    """
    return _rebuild(e, lambda n: n)


def substitute(e: Expr, mapping: Mapping[str, Expr]) -> Expr:
    """Replace variables/parameters by expressions (simultaneously)."""
    return _rebuild(e, lambda n: as_expr(mapping[n.name])
                    if n.kind in (VAR, PARAM) and n.name in mapping else n)


# ---------------------------------------------------------------------------
# differentiation


def _scales_sum(t: Expr) -> bool:
    """Whether t is a rational multiple of a sum, which `add` distributes."""
    kids = t.children
    return (t.kind == MUL and len(kids) == 2 and kids[0].kind == CONST
            and kids[1].kind == ADD)


def _exp_in_term(t: Expr) -> bool:
    """Whether a term `add` collects from t has an exp factor: then `add`
    of t and its siblings may factor a common exp out, and t must be
    summed with them alone."""
    if not t.mask & _MASK_TRANSCENDENTAL:
        return False
    if t.kind == ADD:
        return any(map(_exp_in_term, t.children))
    if _scales_sum(t):
        return _exp_in_term(t.children[1])
    return t.kind == EXP or t.kind == MUL and any(
        k.kind == EXP for k in t.children)


def _node(d: dict, n: Expr) -> Expr:
    """The derivative of n from cache d as a node: a tuple of product-rule
    terms is summed once and the sum written back.  Racing threads sum the
    same terms, so they store the same node."""
    dn = d[n]
    if dn.__class__ is tuple:
        dn = d[n] = add(*dn)
    return dn


def derive(e: Expr, v: str) -> Expr:
    """Symbolic partial derivative with respect to a variable or parameter.

    For v in {'x', 'y'} parameters are treated as constants; differentiating
    by a parameter name treats x and y as constants instead.  Results are
    memoized per symbol and node, and a call enters only the nodes not yet
    differentiated by v, so repeated differentiation of shared subterms
    stays polynomial in the DAG size.  A product's derivative is memoized
    as the tuple of its product-rule terms, spliced into the one `add` of a
    sum it is a term of, and summed into a node only where something else
    needs it (a factor, a power base, the result); so a sum of products
    interns no sum per product.  A product whose terms carry an exp factor
    is summed at once, as `add` factors a common exp out of its own terms.
    """
    done = _derivative_cache.get(v)
    if done is None:
        if not _IDENT.fullmatch(v or ""):
            raise ExprError(f"cannot differentiate by {v!r}")
        done = _derivative_cache.setdefault(v, {})
    vmask = _MASK_X if v == "x" else _MASK_Y if v == "y" else _MASK_PARAM

    def rule(n: Expr, d: dict) -> Expr | tuple[Expr, ...]:
        if n.kind == UNDEF:
            return _UNDEF
        if not (n.mask & vmask):
            return _ZERO
        if n.kind in (VAR, PARAM):
            return _ONE if n.name == v else _ZERO
        if n.kind == ADD:
            terms = []
            for c in n.children:
                dc = d[c]
                if dc.__class__ is tuple:
                    terms += dc
                else:
                    terms.append(dc)
            return add(*terms)
        if n.kind == MUL:
            # each term's other factors are a run of the sorted children
            terms = []
            kids = n.children
            for i, c in enumerate(kids):
                dc = _node(d, c)
                if not dc.is_zero:
                    terms.append(_mul([dc.children if dc.kind == MUL
                                       else (dc,), kids[:i] + kids[i + 1:]]))
            if not terms:
                return _ZERO
            if len(terms) == 1 and not _scales_sum(terms[0]):
                return terms[0]  # `add` would return it as it is
            if any(map(_exp_in_term, terms)):
                return add(*terms)
            return tuple(terms)
        if n.kind == POW:
            b, ex = n.children
            if not (ex.mask & vmask):
                # exponent constant with respect to v: power rule
                return mul(ex, pow_(b, sub(ex, _ONE)), _node(d, b))
            return mul(n, add(mul(_node(d, ex), log_(b)),
                              mul(ex, div(_node(d, b), b))))
        if n.kind == EXP:
            return mul(n, _node(d, n.children[0]))
        # LOG: constants and the other variable left at the mask
        u = n.children[0]
        return div(_node(d, u), u)

    return _node(_fold((e,), rule, done), e)


# ---------------------------------------------------------------------------
# evaluation


class Program:
    """A straight-line program over the DAGs of the roots evaluated through
    it, one slot per distinct node.  Each node is compiled once, into one
    instruction (slot, kind, argument, child slots) that every root's code
    shares; the argument is the constant of a CONST node, the name of a
    variable or parameter, the constant exponent of a POW node (None for
    a symbolic one) and, for ADD and MUL, an `operator.itemgetter` of the
    child slots, which hands the arithmetic the operand values as one
    tuple.  A root's code is its children-first order of those
    instructions, with its variable and parameter names.
    `Program(roots)` compiles the roots in order and is sealed: it is
    never extended, so threads may share it.  An unsealed program compiles
    a root when first evaluated.  Compiling interns no node."""

    def __init__(self, roots: tuple[Expr, ...] = ()):
        self.instructions: dict[Expr, tuple] = {}  # node -> instruction
        self.codes: dict[Expr, tuple] = {}  # root -> (instructions, names)
        self.slots: dict[Expr, Callable] = {}  # root -> `slot_getter`
        self.sealed = False
        for root in roots:
            self.code(root)
        self.sealed = bool(roots)

    def code(self, root: Expr) -> tuple[list[tuple], frozenset[str]]:
        hit = self.codes.get(root)
        if hit is None:
            if self.sealed:
                raise ExprError("root not compiled into this sealed program")
            code, instructions = [], self.instructions
            for n in topo_order(root):
                ins = instructions.get(n)
                if ins is None:
                    kids = tuple([instructions[c][0] for c in n.children])
                    k = n.kind
                    arg = (_getter(kids) if k == ADD or k == MUL
                           else n.value if k == CONST
                           else n.children[1].value if k == POW else n.name)
                    ins = instructions[n] = len(instructions), k, arg, kids
                code.append(ins)
            names = frozenset(a for _, k, a, _ in code if k in (VAR, PARAM))
            hit = self.codes[root] = code, names
        return hit

    def slot_getter(self, root: Expr) -> Callable[[list], tuple]:
        """A getter of the values of a compiled root's slots, as a tuple,
        made when first asked for.  A sealed program may add it: it is
        derived from the root's code alone, so threads racing on it store
        equal getters."""
        get = self.slots.get(root)
        if get is None:
            get = self.slots[root] = _getter([s for s, _, _, _
                                              in self.codes[root][0]])
        return get


def _check_bindings(names: frozenset[str], bound) -> None:
    missing = names - set(bound)
    if missing:
        raise MissingBindingError(
            f"no binding for {', '.join(sorted(missing))}")


def _getter(slots) -> Callable[[list], tuple]:
    """A C-level getter of the values at `slots`, always as a tuple."""
    if len(slots) == 1:
        return operator.itemgetter(slots[0], slots[0])
    return operator.itemgetter(*slots)


class Store(dict):
    """One program's slot values at one point, keyed by the `precision`
    argument of `evaluate` (None for exact): a list holding each node's
    value, the EvalError it raised, or None while no root has reached it;
    then the leaves, the arithmetic, the converted constants and the
    bindings.  A store holds one point: its first evaluation at a precision
    fixes the bindings, and other values later raise ExprError (equal
    ones, in a fresh dict too, read the slots held).  `shared`, one dict
    for all the stores of one check, holds per precision the arithmetic
    and the constants, each converted once (by slot) for every store that
    shares it."""

    def __init__(self, program: Program | None = None,
                 shared: dict | None = None):
        super().__init__()
        self.program = program or Program()
        self.shared = {} if shared is None else shared


def _walk(code: list[tuple], arith, vals: list, leaves: Mapping[str, object],
          consts: list, dead=repeat(())):
    """The value of compiled root `code`: the one DAG interpreter.  A slot
    already holding a value is read, one holding an error raises it again,
    so the first failing node in the root's own order raises.  `arith`
    supplies `add` and `mul`, which receive a sum's term or a product's
    factor values as one tuple in the node's order (taken by the
    instruction's getter) and fold them left to right (the p-bit
    arithmetic rounds each step inline, as libmp would), `num`, `pow`,
    `exp` and `log` (None where the walk never meets them) and an optional
    per-node `check`; `leaves` maps names to values.  `consts` holds the
    converted constants by slot, None where none is converted yet: a
    constant is converted once into it, and callers may start `vals` as a
    copy of it.  `dead`, a release plan, gives per instruction the slots it
    reads last: they are set back to None once it has run (a `Store` keeps
    every slot).
    """
    add, mul, num, power = arith.add, arith.mul, arith.num, arith.pow
    exp, log, check = arith.exp, arith.log, arith.check
    try:
        for (s, k, arg, kids), drop in zip(code, dead):
            v = vals[s]
            if v is not None:
                if isinstance(v, EvalError):
                    raise v
                continue
            if k == MUL:
                v = mul(arg(vals))
            elif k == ADD:
                v = add(arg(vals))
            elif k == POW:
                v = power(vals[kids[0]], vals[kids[1]], arg)
            elif k == CONST:
                v = consts[s]
                if v is None:
                    v = consts[s] = num(arg)
            elif k == VAR or k == PARAM:
                v = leaves[arg]
            elif k == EXP or k == LOG:
                v = (exp if k == EXP else log)(vals[kids[0]])
            else:
                raise SingularSampleError(
                    "undefined value (division by constant zero)")
            if check is not None:
                check(v)
            vals[s] = v
            for d in drop:
                vals[d] = None
    except EvalError as err:
        vals[s] = err
        raise
    return vals[s]


def _qadd(a: tuple[int, int], b: tuple[int, int]) -> tuple[int, int]:
    """a + b on reduced (numerator, denominator > 0) pairs, reduced: the gcd
    steps of `Fraction._add` (Knuth, TAOCP Vol. 2, 4.5.1) on bare ints."""
    na, da = a
    nb, db = b
    g = math.gcd(da, db)
    if g == 1:
        return na * db + da * nb, da * db
    s = da // g
    t = na * (db // g) + nb * s
    g2 = math.gcd(t, g)
    if g2 == 1:
        return t, s * db
    return t // g2, s * (db // g2)


def _qprod(factors: tuple) -> tuple[int, int]:
    """The product of reduced pairs, reduced.  Two factors cancel across
    first, as `Fraction._mul` does (Knuth, TAOCP Vol. 2, 4.5.1): two gcds
    at the factors' size instead of one at the product's.  More are
    reduced in one pass: every numerator and every denominator multiplied
    together, then one gcd.  Reduced pairs are unique, so either is the
    pair a left fold of `Fraction` products gives."""
    if len(factors) == 2:
        (na, da), (nb, db) = factors
        g = math.gcd(na, db)
        if g > 1:
            na, db = na // g, db // g
        g = math.gcd(nb, da)
        if g > 1:
            nb, da = nb // g, da // g
        return na * nb, da * db
    p = q = 1
    for n, d in factors:
        p *= n
        q *= d
    g = math.gcd(p, q)
    return (p, q) if g == 1 else (p // g, q // g)


class _ExactArithmetic:
    """Rationals as reduced (numerator, denominator > 0) int pairs, so that
    every slot value is the one `Fraction` arithmetic would give; refuses
    sizes above EXACT_BITS.  A product of two cancels across, one of more
    is computed in one pass and reduced by one gcd (`_qprod`); the
    unreduced pair has at most the factors' bits together.  `evaluate`
    hands it only DAGs without the transcendental mask bit: no exp or log,
    and every power has an integer constant exponent.  Only 0 vanishes or
    is negligible, so one nonzero point witnesses NONZERO."""

    mode, witnesses = "exact", 1
    add = staticmethod(lambda terms: reduce(_qadd, terms))
    mul = staticmethod(_qprod)
    num = staticmethod(lambda q: (q.numerator, q.denominator))
    exp = log = None
    vanishes = staticmethod(lambda v, _scale: not v[0])
    negligible = staticmethod(lambda v: not v[0])
    value = staticmethod(lambda v: Fraction(*v))

    @staticmethod
    def residual(v: tuple[int, int]) -> str:
        """`str(Fraction)`, or past _STR_DIGITS digits (where `str` fails)
        25 significant digits marked `~`."""
        p, q = v
        size = max(abs(p), q)
        if size.bit_length() <= _STR_BITS or size < 10 ** _STR_DIGITS:
            return str(p) if q == 1 else f"{p}/{q}"
        return "~" + str(decimal.Context(prec=25).divide(p, q))

    @staticmethod
    def check(v: tuple[int, int]) -> None:
        if (v[0].bit_length() > EXACT_BITS
                or v[1].bit_length() > EXACT_BITS):
            raise ExactBudgetError()

    @staticmethod
    def pow(b: tuple[int, int], _ex, q: Fraction) -> tuple[int, int]:
        """b to the power of the integer constant q."""
        p, d = b
        n = q.numerator
        if not p and n < 0:
            raise SingularSampleError("zero base with negative power")
        if _pow_bits(p, d, n) > EXACT_BITS:  # refuse before computing it
            raise ExactBudgetError()
        if n >= 0:
            return p ** n, d ** n
        if p < 0:
            p, d = -p, -d
        return d ** -n, p ** -n


_EXACT = _ExactArithmetic()


class _MpfArithmetic:
    """p-bit floats as raw `mpmath.libmp` tuples (sign, mantissa, exponent,
    bit count), the mantissa odd or zero.  Every value is bit-identical to
    mpf arithmetic at `prec`, rounding to nearest, minus the object
    wrappers.  `mul` and `add` receive a node's operand values and fold
    them left to right in one loop, each step libmp's `mpf_mul` or
    `mpf_add` with its round-half-to-even inlined: the exact product, or
    the exactly aligned sum (except that, as in `mpf_add`, at an exponent
    gap over 100 a term more than prec + 4 bits below the other counts
    only as a sticky unit below the larger shifted by prec + 4 bits), is
    cut to `prec` bits and its trailing zero bits are stripped.  Every
    intermediate is rounded, so each value is the tuple the left fold of
    libmp calls gives.  `num`, `pow`, `exp` and `log` are libmp calls.

    It keeps the real-domain rules: an exponent counts as an integer by
    its value, a zero base with a negative power is singular, and a
    negative base with a non-integer power or the log of a non-positive
    value is a domain error.  No value needs a finiteness check: the
    leaves are rationals, and libmp's exponents are unbounded ints, so its
    operations keep values finite.  Decisions are exact on the tuples: a
    value vanishes below 2^-(prec/2) times its scale (`evaluate_scaled`)
    and NONZERO needs NONZERO_CONFIRMATIONS witnesses."""

    mode, witnesses = "float", NONZERO_CONFIRMATIONS

    def __init__(self, prec: int):
        rnd, wide = libmp.round_nearest, prec + 4
        self.exp = lambda u: libmp.mpf_exp(u, prec, rnd)
        self.prec = prec

        def mul(factors) -> tuple:
            it = iter(factors)
            sign, man, exp, _ = next(it)
            for s, m, e, _ in it:
                man *= m
                sign ^= s
                exp += e
                n = man.bit_length() - prec
                if n > 0:  # round half to even, then strip trailing zeros
                    t = man >> (n - 1)
                    if t & 1 and (t & 2 or man & ((1 << (n - 1)) - 1)):
                        man = (t >> 1) + 1
                    else:
                        man = t >> 1
                    exp += n
                    if not man & 1:
                        n = (man & -man).bit_length() - 1
                        man >>= n
                        exp += n
            return (sign, man, exp, man.bit_length()) if man else libmp.fzero

        def add(terms) -> tuple:
            it = iter(terms)
            sign, man, exp, bc = next(it)
            for s, m, e, b in it:
                if man and m:
                    gap = exp - e
                    if gap > 100 and bc + gap - b > wide:
                        man = (man << wide) + (1 if sign == s else -1)
                        exp -= wide
                    elif gap < -100 and b - gap - bc > wide:
                        man = (m << wide) + (1 if sign == s else -1)
                        sign, exp = s, e - wide
                    else:
                        if gap > 0:
                            man <<= gap
                            exp = e
                        elif gap:
                            m <<= -gap
                        if sign == s:
                            man += m
                        else:
                            man -= m
                            if man < 0:
                                man, sign = -man, sign ^ 1
                            elif not man:
                                sign = exp = bc = 0
                                continue
                elif m:
                    sign, man, exp = s, m, e
                elif not man:
                    continue
                n = man.bit_length() - prec
                if n > 0:  # round half to even
                    t = man >> (n - 1)
                    if t & 1 and (t & 2 or man & ((1 << (n - 1)) - 1)):
                        man = (t >> 1) + 1
                    else:
                        man = t >> 1
                    exp += n
                if not man & 1:  # strip trailing zeros
                    n = (man & -man).bit_length() - 1
                    man >>= n
                    exp += n
                bc = man.bit_length()
            return sign, man, exp, bc

        self.mul, self.add = mul, add

    check = None

    def num(self, q: Fraction) -> tuple:
        p, rnd = self.prec, libmp.round_nearest  # mpf(numerator) / denominator
        return libmp.mpf_div(libmp.from_int(q.numerator, p, rnd),
                             libmp.from_int(q.denominator), p, rnd)

    def pow(self, b: tuple, ex: tuple, _q) -> tuple:
        if not b[1] and ex[0] and ex[1]:
            raise SingularSampleError("zero base with negative power")
        if ex[2] >= 0:  # a zero or integer value
            return libmp.mpf_pow_int(b, libmp.to_int(ex), self.prec,
                                     libmp.round_nearest)
        if b[0] and b[1]:
            raise DomainEvalError("negative base with fractional power")
        if not b[1]:
            return libmp.fzero
        return libmp.mpf_pow(b, ex, self.prec, libmp.round_nearest)

    def log(self, u: tuple) -> tuple:
        if u[0] or not u[1]:
            raise DomainEvalError("log of non-positive value")
        return libmp.mpf_log(u, self.prec, libmp.round_nearest)

    def vanishes(self, v: tuple, scale: tuple) -> bool:
        return libmp.mpf_lt((0,) + v[1:],
                            libmp.mpf_shift(scale, -(self.prec // 2)))

    # |v| < 2^-100: 2^(bit count - 1) <= mantissa < 2^(bit count)
    negligible = staticmethod(lambda v: not v[1] or v[2] + v[3] <= -100)
    residual = staticmethod(lambda v: libmp.to_str(v, 25))  # as nstr(v, 25)
    value = staticmethod(lambda v: mpmath.mp.make_mpf(v))


def arithmetic(precision: int | None):
    """The arithmetic of `evaluate` at `precision` (None for exact), as a
    `Store` caches it.  Its `mode`, `witnesses`, `vanishes(v, scale)`,
    `negligible(v)`, `residual(v)` and `value(v)` answer every exact/float
    question of the zero test and the sample validation.  A precision
    other than None or an int of at least 1 bit (a bool is no int here) is
    refused with ExprError."""
    if precision is None:
        return _EXACT
    if precision.__class__ is not int or precision < 1:
        raise ExprError(f"precision must be None or an int >= 1, "
                        f"got {precision!r}")
    return _MpfArithmetic(precision)


_EXP, _BC = operator.itemgetter(2), operator.itemgetter(3)


def _scale(values: tuple) -> tuple:
    """max(1, |v|) over the values of a compiled root's slots, as an mpf
    tuple.  |v| lies in [2^(top-1), 2^top), top = exponent + bit count, so
    the largest top, found by a C-level max, picks the candidates, and
    only ties on it are compared by libmp."""
    tops = list(map(operator.add, map(_EXP, values), map(_BC, values)))
    top = max(tops)
    if top < 1:  # every |v| < 1
        return libmp.fone
    best = None
    for v in compress(values, map(top.__eq__, tops)):
        v = (0,) + v[1:]
        if best is None or libmp.mpf_gt(v, best):
            best = v
    return best


def evaluate(e: Expr, bindings: Mapping[str, object],
             precision: int | None = None, *, store: Store | None = None,
             raw: bool = False):
    """The value of `e` at `bindings`, which must bind every variable and
    parameter of `e` (a missing one raises, never defaults) to a rational,
    int or Fraction, in either arithmetic (else ExprError).  With
    `precision` None the arithmetic is exact: `e` must be free of exp, log
    and non-integer powers (else ExactnessError, see
    `is_exactly_evaluable`), values are bounded by EXACT_BITS and the
    result is a Fraction.  An int `precision` evaluates in mpmath binary
    floats with that many mantissa bits, and the result is an mpf.  Nodes a
    `store` already holds are read, not computed.  With `raw` the value is
    returned as the arithmetic holds it: the reduced (numerator,
    denominator) pair, or the libmp tuple (sign, mantissa, exponent, bit
    count)."""
    if precision.__class__ is not int and precision is not None:
        arithmetic(precision)  # refused before a store finds 1 for True
    store = Store() if store is None else store
    program = store.program
    code, names = program.code(e)
    entry = store.get(precision)
    if entry is not None and bindings != entry[4]:
        raise ExprError("the store holds the values of other bindings")
    if not names <= bindings.keys():
        _check_bindings(names, bindings)
    if precision is None and not is_exactly_evaluable(e):
        raise ExactnessError("exp, log or a non-integer power; "
                             "exact mode refused")
    if entry is None:
        if not all(isinstance(v, (int, Fraction)) for v in bindings.values()):
            raise ExprError("evaluation requires rational bindings")
        shared = store.shared.get(precision)
        if shared is None:
            shared = store.shared[precision] = arithmetic(precision), []
        arith, consts = shared
        leaves = {k: arith.num(v) for k, v in bindings.items()}
        entry = store[precision] = [], leaves, arith, consts, dict(bindings)
    vals, leaves, arith, consts, _ = entry
    n = len(program.instructions)
    if len(consts) < n:
        consts.extend([None] * (n - len(consts)))
    if len(vals) < n:
        vals.extend(consts[len(vals):n])
    v = _walk(code, arith, vals, leaves, consts)
    return v if raw else arith.value(v)


def evaluate_scaled(e: Expr, bindings: Mapping[str, object],
                    precision: int | None = None, *,
                    store: Store | None = None, raw: bool = False):
    """`evaluate`, paired with the magnitude scale max(1, |intermediates|)
    over the nodes of `e` alone, whatever else a shared `store` holds: a
    tiny result reached through huge intermediates carries fewer
    trustworthy bits, so the float `vanishes` compares against it.  Exact
    evaluation reports no scale (None).  With `raw` both come as libmp
    tuples (see `evaluate`)."""
    store = Store() if store is None else store
    v = evaluate(e, bindings, precision, store=store, raw=True)
    vals, _, arith, _, _ = store[precision]
    scale = (None if precision is None
             else _scale(store.program.slot_getter(e)(vals)))
    if raw:
        return v, scale
    return arith.value(v), None if scale is None else arith.value(scale)


# ---------------------------------------------------------------------------
# parsing

_RESERVED = {"sqrt", "exp", "log"}
_MAX_NESTING = 100
_TOKEN_RE = re.compile(r"\s*(?:(?P<number>\d+(?:\.\d+)?)"
                       r"|(?P<ident>[A-Za-z_][A-Za-z0-9_]*)"
                       r"|(?P<op>[-+*/^()]))")


@dataclass
class _Token:
    kind: str
    text: str
    pos: int


def _tokenize(text: str) -> list[_Token]:
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if not m or m.lastgroup is None:
            stripped = text[pos:].lstrip()
            if not stripped:
                break
            at = len(text) - len(stripped)
            raise ParseError(f"unexpected character {stripped[0]!r}", at)
        kind = m.lastgroup
        tok_pos = m.start(kind)
        tokens.append(_Token(kind, m.group(kind), tok_pos))
        pos = m.end()
    tokens.append(_Token("eof", "", len(text)))
    return tokens


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.tokens = _tokenize(text)
        self.i = 0
        self.depth = 0

    def peek(self) -> _Token:
        return self.tokens[self.i]

    def next(self) -> _Token:
        t = self.tokens[self.i]
        self.i += 1
        return t

    def expect_op(self, op: str):
        t = self.peek()
        if t.kind != "op" or t.text != op:
            raise ParseError(f"expected {op!r}, found {t.text!r}" if t.text
                             else f"expected {op!r}, found end of input", t.pos)
        return self.next()

    def parse(self) -> Expr:
        if self.peek().kind == "eof" and not self.text.strip():
            raise ParseError("empty input", 0)
        e = self.expr()
        t = self.peek()
        if t.kind != "eof":
            raise ParseError(f"unexpected token {t.text!r}", t.pos)
        return e

    def expr(self) -> Expr:
        e = self.term()
        while True:
            t = self.peek()
            if t.kind == "op" and t.text in "+-":
                self.next()
                rhs = self.term()
                e = add(e, rhs) if t.text == "+" else sub(e, rhs)
            else:
                return e

    def term(self) -> Expr:
        e = self.unary()
        while True:
            t = self.peek()
            if t.kind == "op" and t.text in "*/":
                self.next()
                rhs = self.unary()
                e = mul(e, rhs) if t.text == "*" else div(e, rhs)
            else:
                return e

    def unary(self) -> Expr:
        # every parenthesis, function argument, unary minus and exponent
        # nests through here; a bound keeps clear of the recursion limit
        self.depth += 1
        if self.depth > _MAX_NESTING:
            raise ParseError("expression nested too deeply", self.peek().pos)
        t = self.peek()
        if t.kind == "op" and t.text == "-":
            self.next()
            e = neg(self.unary())
        else:
            e = self.power()
        self.depth -= 1
        return e

    def power(self) -> Expr:
        base = self.atom()
        t = self.peek()
        if t.kind == "op" and t.text == "^":
            self.next()
            return pow_(base, self.unary())
        return base

    def atom(self) -> Expr:
        t = self.next()
        if t.kind == "number":
            if len(t.text) > _STR_DIGITS:  # int() of more digits fails
                raise ParseError("number too long", t.pos)
            return const(Fraction(t.text))
        if t.kind == "ident":
            name = t.text
            if not _IDENT.fullmatch(name):
                raise ParseError(f"invalid identifier {name!r} "
                                 "(lowercase letters, digits, underscore)", t.pos)
            nxt = self.peek()
            applied = nxt.kind == "op" and nxt.text == "("
            if name in _RESERVED:
                if not applied:
                    raise ParseError(f"function {name!r} needs an argument list",
                                     t.pos)
                self.next()
                arg = self.expr()
                self.expect_op(")")
                return {"sqrt": sqrt, "exp": exp_, "log": log_}[name](arg)
            if applied:
                raise ParseError(f"unknown function {name!r}", t.pos)
            if name in ("x", "y"):
                return var(name)
            return param(name)
        if t.kind == "op" and t.text == "(":
            e = self.expr()
            self.expect_op(")")
            return e
        if t.kind == "eof":
            raise ParseError("unexpected end of input", t.pos)
        raise ParseError(f"unexpected token {t.text!r}", t.pos)


def parse(text: str) -> Expr:
    """Parse the expression grammar (explicit '*', functions sqrt/exp/log,
    decimals become exact rationals, lowercase identifiers other than x/y
    are free parameters)."""
    if not isinstance(text, str):
        raise TypeError("parse expects a string")
    return _Parser(text).parse()


# ---------------------------------------------------------------------------
# printing

_PREC_ADD, _PREC_MUL, _PREC_POW, _PREC_ATOM = 1, 2, 3, 4


def _wrap(s: str, prec: int, need: int) -> str:
    return f"({s})" if prec < need else s


def format_expr(e: Expr) -> str:
    """Deterministic text form; `parse(format_expr(e))` evaluates equal to e."""
    return _fold((e,), _fmt_node, {})[e][0]


def _fmt_const(v: Fraction) -> tuple[str, int]:
    if v.denominator == 1:
        return str(v), _PREC_ATOM if v >= 0 else _PREC_ADD
    return str(v), _PREC_MUL if v >= 0 else _PREC_ADD


def _fmt_node(n: Expr, strs) -> tuple[str, int]:
    k = n.kind
    if k == CONST:
        return _fmt_const(n.value)
    if k in (VAR, PARAM):
        return n.name, _PREC_ATOM
    if k == UNDEF:
        return "1/0", _PREC_MUL
    if k == EXP:
        return f"exp({strs[n.children[0]][0]})", _PREC_ATOM
    if k == LOG:
        return f"log({strs[n.children[0]][0]})", _PREC_ATOM
    if k == ADD:
        out = ""
        for i, c in enumerate(n.children):
            s, p = strs[c]
            s = _wrap(s, p, _PREC_ADD)
            if i == 0:
                out = s
            elif s.startswith("-"):
                out += " - " + s[1:]
            else:
                out += " + " + s
        return out, _PREC_ADD
    if k == POW:
        return _fmt_pow(n, strs)
    if k == MUL:
        return _fmt_mul(n, strs)
    raise ExprError(f"unknown node kind {k!r}")


def _fmt_pow(n: Expr, strs) -> tuple[str, int]:
    base, ex = n.children
    if ex.kind == CONST:
        r = ex.value
        if r < 0:
            inner, _ = _fmt_pow_positive(base, -r, strs)
            return f"1/{inner}", _PREC_MUL
        return _fmt_pow_positive(base, r, strs)
    bs = _wrap(*strs[base], _PREC_ATOM)
    es, ep = strs[ex]
    es = es if ep == _PREC_ATOM else f"({es})"
    return f"{bs}^{es}", _PREC_POW


def _fmt_pow_positive(base: Expr, r: Fraction, strs) -> tuple[str, int]:
    bs, bp = strs[base]
    if r == _HALF:
        return f"sqrt({bs})", _PREC_ATOM
    bs = _wrap(bs, bp, _PREC_ATOM)
    if r == 1:
        return bs, _PREC_ATOM
    es = str(r) if r.denominator == 1 else f"({r})"
    return f"{bs}^{es}", _PREC_POW


def _fmt_mul(n: Expr, strs) -> tuple[str, int]:
    coeff = Fraction(1)
    num_parts: list[str] = []
    den_parts: list[str] = []
    for c in n.children:
        if c.kind == CONST:
            coeff *= c.value
            continue
        if c.kind == POW and c.children[1].kind == CONST and c.children[1].value < 0:
            s, _ = _fmt_pow_positive(c.children[0], -c.children[1].value, strs)
            den_parts.append(s)
            continue
        s, p = strs[c]
        num_parts.append(_wrap(s, p, _PREC_MUL))
    sign = "-" if coeff < 0 else ""
    coeff = abs(coeff)
    if coeff.numerator != 1 or not num_parts:
        num_parts.insert(0, str(coeff.numerator))
    if coeff.denominator != 1:
        den_parts.insert(0, str(coeff.denominator))
    out = "*".join(num_parts)
    if den_parts:
        den = "*".join(den_parts)
        out += f"/({den})" if len(den_parts) > 1 else f"/{den}"
    return sign + out, _PREC_ADD if sign else _PREC_MUL
