"""Probabilistic state transformers indexed by a failure bound and an
implication between pre- and post-conditions.

The index category is the product of the one-object category of the
saturating-addition monoid on [0,1] with the indiscrete category over
predicate ASTs.  A payload at (beta, phi -> psi) maps every program
state to an exact finite distribution over (state, value) pairs; it is
valid when, from every state satisfying phi, the probability that the
final state violates psi is at most beta.  Composition adds the bounds
(saturating at 1): the union bound.
"""

from __future__ import annotations

import copy
import math
from collections.abc import Iterable
from fractions import Fraction

from ..core import DIGITS, CatGradedMonad, GeneralisedUnit, TwoCatGradedMonad
from ..errors import InvalidImplication, InvalidValue, MalformedPayload, RangeError
from ..formulas import (
    EInt,
    EVar,
    Expr,
    FCmp,
    Formula,
    TRUE,
    VarDecl,
    eval_expr,
    eval_formula,
    formula_text,
    states,
    valid_implication,
)
from ..indexcat import (
    IndiscreteCategory,
    MonoidCategory,
    Morphism,
    ObjectId,
    ProductCategory,
    TwoCategory,
    WideSubcategory,
)
from ..rng import Rng
from ..values import (
    Value,
    VDist,
    VPair,
    VTable,
    _checked,
    _den,
    _lowest,
    dist_bind,
    ordered_table,
    point,
    table_map_snd,
    uniform,
    unit as vunit,
    vint,
    vpair,
    vstr,
)


_ONE = Fraction(1)
BETA_SAMPLE = (Fraction(0), Fraction(1, 10), Fraction(3, 10), Fraction(1, 2), _ONE)


def sat_add(a: Fraction, b: Fraction) -> Fraction:
    return min(a + b, _ONE)


class AhlMonad:
    """Instance wrapper; owns the variable declarations and the formula
    registry that names in morphism endpoints decode through."""

    def __init__(self, decls: Iterable[VarDecl], over_allocate: bool = False):
        self.decls = tuple(decls)  # declaration order: `range_of`, default samples, errors
        by_name = sorted(self.decls, key=lambda d: d.name)
        # states vary the last sorted name fastest, and tables compare values by sorted name, so
        # a state's index is its rank; state i with var moved to v is i + (v - s[var]) * stride[var]
        self.states = states(by_name)
        cells = {d.name: {v: (vstr(d.name), vint(v)) for v in d.values()} for d in by_name}
        # no variable; an empty range, so no state; a repeated name, so fewer cells than decls
        if not self.decls or not self.states or len(cells) < len(by_name):
            raise InvalidValue("declare one or more variables, each once, over a non-empty range")
        self.svalues = tuple(ordered_table(cells[k][v] for k, v in s.items()) for s in self.states)
        sizes = [len(d.values()) for d in by_name]
        self._stride = {d.name: math.prod(sizes[i + 1:]) for i, d in enumerate(by_name)}
        self._rank = {sv: i for i, sv in enumerate(self.svalues)}
        self._formulas: dict[str, Formula] = {}
        self._truth: dict[Formula, tuple[bool, ...]] = {}
        self._split: dict[Formula, tuple[list[int], list[int]]] = {}  # `_sample`'s, by post
        self._over_allocate = over_allocate

        self.beta_cat = MonoidCategory(op=sat_add, unit=Fraction(0),
                                       sample=BETA_SAMPLE)
        self.prop_cat = IndiscreteCategory(None)
        self.cat = ProductCategory(self.beta_cat, self.prop_cat)
        # The monad's functions are bound to a shallow copy taken before
        # the monad exists, so the instance is in no reference cycle.
        own = copy.copy(self)
        self.two = TwoCategory(self.cat, own._cell)
        monad = CatGradedMonad(
            name="broken-ahl" if over_allocate else "ahl",
            index_cat=self.cat,
            unit_fn=own._unit,
            mult_fn=own._mult,
            map_fn=own._map,
            validator=own._validate,
            sampler=own._sample,
            index_samples=self._default_samples(),
        )
        self.monad = TwoCatGradedMonad(monad, self.two, lambda _f, _g, p: p)
        self.genunit = GeneralisedUnit(
            monad,
            WideSubcategory(self.cat, lambda m: own.beta_of(m) == 0),
            own._geneta,
        )

    # --- index plumbing ---

    def formula_object(self, phi: Formula) -> ObjectId:
        name = formula_text(phi)
        self._formulas[name] = phi
        return ObjectId(name)

    def formula_at(self, obj: ObjectId) -> Formula:
        try:
            return self._formulas[obj.name]
        except KeyError:
            raise MalformedPayload(f"unregistered formula {obj.name!r}")

    def make_index(self, beta, pre: Formula, post: Formula) -> Morphism:
        beta = Fraction(beta)
        if not 0 <= beta <= 1:
            raise InvalidValue(f"bound {beta} outside [0, 1]")
        po, qo = self.formula_object(pre), self.formula_object(post)
        left = self.beta_cat.elem(beta)
        right = self.prop_cat.pair(po, qo)
        return self.cat.tuple_morphism(left, right)

    @staticmethod
    def beta_of(m: Morphism) -> Fraction:
        return m.word.left.word.value

    def pre_of(self, m: Morphism) -> Formula:
        return self.formula_at(m.word.right.src)

    def post_of(self, m: Morphism) -> Formula:
        return self.formula_at(m.word.right.tgt)

    def _cell(self, f: Morphism, g: Morphism) -> bool:
        # parallel product morphisms share prop endpoints, so only the
        # bound component matters
        return self.beta_of(f) <= self.beta_of(g)

    # --- payload semantics ---

    def _unit(self, _obj: ObjectId, a: Value) -> Value:
        return ordered_table([(sv, point(vpair(sv, a))) for sv in self.svalues])

    def _row(self, d: VDist) -> tuple[VDist, list[tuple[tuple[int, Value], Value, int]]]:
        """d, each atom keyed once by (final state's rank, result): the native order."""
        return d, [((self._rank[pr.fst], pr.snd), pr, n) for pr, n in d.atoms]

    def _mix(self, d: VDist, rows: list) -> VDist:
        """`rows`, one per atom of d, mixed by d's numerators: added by key, sorted, reduced once."""
        if len(rows) == 1:  # a point: the row's dist as it is
            return rows[0][0]
        den = math.lcm(*(e.den for e, _ in rows))
        acc: dict[tuple[int, Value], list] = {}  # key -> [pair, numerator]
        for (_, n), (e, keyed) in zip(d.atoms, rows):
            s = n * (den // e.den)
            for k, pr, m in keyed:
                acc.setdefault(k, [pr, 0])[1] += s * m
        return _lowest([(pr, m) for _, (pr, m) in sorted(acc.items())], d.den * den)

    def _mult(self, _f: Morphism, _g: Morphism, nested: Value) -> Value:
        def step(pr: Value) -> VDist:
            if not isinstance(pr, VPair) or not isinstance(pr.snd, VTable):
                raise MalformedPayload("carried value must be a state table")
            return pr.snd.get(pr.fst)

        rank, rows = self._rank, []
        try:  # a carried table is read by rank, where its key there is the state itself
            for sv, d in nested.entries:
                es = []
                for pr, _ in d.atoms:
                    k, e = pr.snd.entries[rank[pr.fst]]
                    es.append(e if k is pr.fst else step(pr))
                den = math.lcm(*map(_den, es))  # each row is scaled to it
                if len(es) == 1:  # a point: the row's dist as it is
                    rows.append((sv, es[0]))
                    continue
                acc: dict[tuple[int, Value], list] = {}  # (final rank, result) -> [pair, numerator]
                for (_, n), e in zip(d.atoms, es):
                    sc = n * (den // e.den)
                    for pr, m in e.atoms:
                        acc.setdefault((rank[pr.fst], pr.snd), [pr, 0])[1] += sc * m
                rows.append((sv, _lowest([(pr, m) for _, (pr, m) in sorted(acc.items())],
                                         d.den * den)))
        except (AttributeError, IndexError, KeyError, MalformedPayload):  # a malformed atom:
            # dist_bind, in the same order, raises the same error or keeps an undeclared pair
            return ordered_table((sv, dist_bind(d, step)) for sv, d in nested.entries)
        return ordered_table(rows)

    def _map(self, _f: Morphism, fn, p: Value) -> Value:
        return table_map_snd(fn, p)

    def holds(self, phi: Formula) -> tuple[bool, ...]:
        """By rank, whether phi holds in each state, evaluated once per formula."""
        truth = self._truth.get(phi)
        if truth is None:
            truth = self._truth[phi] = tuple(eval_formula(phi, s) for s in self.states)
        return truth

    def violated(self, phi: Formula) -> list[bool]:
        """By rank, whether phi fails in each state: phi's violation indicator."""
        return [not t for t in self.holds(phi)]

    def _expect(self, d: VDist, v: list[int]) -> int:
        """Σ n · v[rank of the final state] over d's atoms; a non-(state, result) atom raises."""
        rank, m = self._rank, 0
        try:  # only a pair has .fst; only a declared state has a rank
            for pr, n in d.atoms:
                m += n * v[rank[pr.fst]]
        except (AttributeError, KeyError):
            raise MalformedPayload("an atom is not a (declared state, result) pair") from None
        return m

    def expectation(self, payload: Value, vec: tuple[list[int], int]) -> tuple[list[int], int]:
        """Each start's expectation of `vec` under payload, both as numerators by rank over
        one denominator (in lowest terms); starts are read through `payload.get`."""
        v, den = vec
        ds = [_checked(payload.get(sv)) for sv in self.svalues]
        lcm = math.lcm(*map(_den, ds))
        w = [self._expect(d, v) * (lcm // d.den) for d in ds]
        g = math.gcd(den * lcm, *w)
        return [m // g for m in w], den * lcm // g

    def worst(self, vec: tuple[list[int], int], pre: Formula) -> Fraction:
        """The max of `vec` over the states satisfying pre (0 if none)."""
        v, den = vec
        return Fraction(max((m for m, ok in zip(v, self.holds(pre)) if ok), default=0), den)

    def failure_prob(self, payload: Value, pre: Formula, post: Formula) -> Fraction:
        """Exact max over states satisfying pre of Pr[final state violates post], by one
        backward step; every start is read, so a malformed entry raises even where pre fails."""
        return self.worst(self.expectation(payload, (self.violated(post), 1)), pre)

    def _validate(self, f: Morphism, p: Value) -> bool:
        if not isinstance(p, VTable) or p.keys() != self.svalues:
            return False
        try:  # an unregistered formula or a malformed entry is invalid
            starts, bad = self.holds(self.pre_of(f)), self.violated(self.post_of(f))
            bn, bd = self.beta_of(f).as_integer_ratio()
            for (_, d), ok in zip(p.entries, starts):
                m = self._expect(_checked(d), bad)  # every entry's atoms are checked
                if ok and m * bd > bn * d.den:
                    return False
        except MalformedPayload:
            return False
        return True

    def _geneta(self, m: Morphism, a: Value) -> Value:
        pre, post = self.pre_of(m), self.post_of(m)
        if not valid_implication(self.holds, pre, post):
            raise InvalidImplication(
                f"{formula_text(pre)} does not entail {formula_text(post)}")
        return self._unit(m.src, a)

    def _sample(self, f: Morphism, rng: Rng) -> Value:
        bn, bd = self.beta_of(f).as_integer_ratio()
        pre, post = self.pre_of(f), self.post_of(f)
        if post not in self._split:  # once per post: the ranks where it holds and fails
            truth = self.holds(post)
            self._split[post] = ([i for i, ok in enumerate(truth) if ok],
                                 [i for i, ok in enumerate(truth) if not ok])
        good, bad = self._split[post]
        svs, out = self.svalues, []
        for ok in self.holds(pre):
            if not ok:
                out.append(point(vpair(rng.choice(svs), DIGITS[rng.randint(0, 9)])))
                continue
            # q = bad_n / den (not reduced): 1 - q to the good branches, q to a bad one
            if not good:
                bad_n, den = 1, 1
            elif bad and self._over_allocate:
                bad_n, den = 1, 2
            elif bad and bn > 0:
                bad_n, den = bn * rng.randint(0, 2), bd * 2
            else:
                bad_n, den = 0, 1
            atoms: list[tuple[int, Value, int]] = []  # (final rank, result, numerator)
            if bad_n < den:  # one or two distinct good ranks, in draw order
                picks = dict.fromkeys((rng.choice(good), rng.choice(good)))
                atoms += [(r, DIGITS[rng.randint(0, 9)], den - bad_n) for r in picks]
                bad_n, den = len(picks) * bad_n, len(picks) * den
            if bad_n > 0:
                atoms.append((rng.choice(bad), DIGITS[rng.randint(0, 9)], bad_n))
            # the ranks differ, so their order is the pairs' native order
            out.append(_lowest([(vpair(svs[r], v), n) for r, v, n in sorted(atoms)], den))
        return ordered_table(zip(svs, out))

    def _default_samples(self) -> tuple[Morphism, ...]:
        x = self.decls[0].name
        tt = TRUE
        a = FCmp("!=", EVar(x), EInt(0))
        b = FCmp("<=", EVar(x), EInt(1))
        d = FCmp("==", EVar(x), EInt(1))
        mk = self.make_index
        return (
            mk(0, tt, tt), mk(0, a, a), mk(0, b, b),
            mk(0, d, a), mk(0, a, tt),
            mk(Fraction(1, 10), tt, a), mk(Fraction(1, 2), tt, a),
            mk(Fraction(1, 2), a, b), mk(Fraction(3, 10), b, tt),
            mk(Fraction(1, 10), tt, b),
        )

    # --- primitive payloads (indices come from judgements) ---

    def range_of(self, var: str) -> VarDecl:
        for d in self.decls:
            if d.name == var:
                return d
        raise RangeError(f"undeclared variable {var!r}")

    def skip(self) -> Value:
        return self._unit(None, vunit)

    def assign(self, var: str, expr: Expr) -> Value:
        decl, st, svs = self.range_of(var), self._stride[var], self.svalues
        out = []
        for i, s in enumerate(self.states):
            v = eval_expr(expr, s)
            if not decl.lo <= v <= decl.hi:  # first: an out-of-range v could index another state
                v = next(w for t in states(self.decls)  # the first out of range by declaration
                         if not decl.lo <= (w := eval_expr(expr, t)) <= decl.hi)
                raise RangeError(
                    f"{var} := {v} leaves the declared range [{decl.lo}..{decl.hi}]")
            out.append(point(vpair(svs[i + (v - s[var]) * st], vunit)))
        return ordered_table(zip(svs, out))

    def sample_uniform(self, var: str, lo: int, hi: int) -> Value:
        decl = self.range_of(var)
        if lo > hi or lo < decl.lo or hi > decl.hi:
            raise RangeError(
                f"uniform({lo},{hi}) is not within [{decl.lo}..{decl.hi}] for {var}")
        st, svs, rows = self._stride[var], self.svalues, {}

        def row(k: int) -> VDist:
            """The states k + v * st, which differ only in var, share one successor dist."""
            d = rows.get(k)
            if d is None:
                d = rows[k] = uniform([vpair(svs[k + v * st], vunit) for v in range(lo, hi + 1)])
            return d

        return ordered_table((svs[i], row(i - s[var] * st)) for i, s in enumerate(self.states))

    def seq(self, first: Value, second: Value) -> Value:
        """Sequential composition of two program payloads: one row per middle
        state of `second`, mixed by `first`.  It equals
        `_mult(None, None, _map(None, lambda _: second, first))`."""
        rows = {sv: self._row(d) for sv, d in second.entries}
        return ordered_table((sv, self._mix(d, [rows[pr.fst] for pr, _ in d.atoms]))
                             for sv, d in first.entries)


_DEFAULT_DECLS = (VarDecl("x", 0, 2),)


def ahl_instance(decls: Iterable[VarDecl] = _DEFAULT_DECLS) -> AhlMonad:
    return AhlMonad(decls)


def broken_ahl_instance() -> AhlMonad:
    """Mutant whose sampler ignores the declared bound: it always routes
    half the mass to violating states, so validity checks fail."""
    return AhlMonad(_DEFAULT_DECLS, over_allocate=True)
