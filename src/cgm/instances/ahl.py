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
from collections.abc import Iterable
from fractions import Fraction

from ..core import CatGradedMonad, GeneralisedUnit, TwoCatGradedMonad
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
    WPair,
)
from ..rng import Rng
from ..values import (
    Value,
    VDist,
    VPair,
    VTable,
    _lowest,
    dist_bind,
    dist_map_snd,
    once_per_value,
    ordered_table,
    point,
    sort_key,
    uniform,
    unit as vunit,
    vint,
    vpair,
    vstr,
)


def sat_add(a: Fraction, b: Fraction) -> Fraction:
    return min(a + b, Fraction(1))


BETA_SAMPLE = (Fraction(0), Fraction(1, 10), Fraction(3, 10), Fraction(1, 2), Fraction(1))


class AhlMonad:
    """Instance wrapper; owns the variable declarations and the formula
    registry that names in morphism endpoints decode through."""

    def __init__(self, decls: Iterable[VarDecl], over_allocate: bool = False):
        self.decls = tuple(decls)
        if not self.decls:
            raise InvalidValue("at least one variable must be declared")
        self.states = states(self.decls)
        names = sorted(d.name for d in self.decls)
        self.svalues = tuple(ordered_table((vstr(k), vint(s[k])) for k in names)
                             for s in self.states)
        self._sorted_svalues = tuple(sorted(self.svalues, key=sort_key))
        self._svalue_set = frozenset(self.svalues)
        self._svalue_of = {tuple(s.values()): sv for s, sv in zip(self.states, self.svalues)}
        self._formulas: dict[str, Formula] = {}
        self._truth: dict[Formula, tuple[bool, ...]] = {}
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
        right = Morphism(po, qo, WPair(po, qo))
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
        return ordered_table((sv, point(vpair(sv, a))) for sv in self._sorted_svalues)

    def _mult(self, _f: Morphism, _g: Morphism, nested: Value) -> Value:
        def step(pr: Value) -> VDist:
            if not isinstance(pr, VPair) or not isinstance(pr.snd, VTable):
                raise MalformedPayload("carried value must be a state table")
            return pr.snd.get(pr.fst)

        return ordered_table((sv, dist_bind(d, step)) for sv, d in nested.entries)

    def _map(self, _f: Morphism, fn, p: Value) -> Value:
        fn = once_per_value(fn)
        return ordered_table((sv, dist_map_snd(fn, d)) for sv, d in p.entries)

    def holds(self, phi: Formula) -> tuple[bool, ...]:
        """Whether phi holds in each of `states`, evaluated once per formula."""
        truth = self._truth.get(phi)
        if truth is None:
            truth = self._truth[phi] = tuple(eval_formula(phi, s) for s in self.states)
        return truth

    def failure_prob(self, payload: Value, pre: Formula, post: Formula) -> Fraction:
        """Exact max over states satisfying pre of Pr[final state violates post]."""
        starts = [sv for sv, ok in zip(self.svalues, self.holds(pre)) if ok]
        if not starts:
            return Fraction(0)
        bad = {sv for sv, ok in zip(self.svalues, self.holds(post)) if not ok}
        return max(Fraction(sum(n for prv, n in d.atoms if prv.fst in bad), d.den)
                   for d in map(payload.get, starts))

    def _validate(self, f: Morphism, p: Value) -> bool:
        if not isinstance(p, VTable) or p.keys() != self._sorted_svalues:
            return False
        for _, d in p.entries:
            if not isinstance(d, VDist):
                return False
            for prv, _n in d.atoms:
                if not isinstance(prv, VPair) or prv.fst not in self._svalue_set:
                    return False
        try:
            pre, post = self.pre_of(f), self.post_of(f)
        except MalformedPayload:
            return False
        return self.failure_prob(p, pre, post) <= self.beta_of(f)

    def _geneta(self, m: Morphism, a: Value) -> Value:
        pre, post = self.pre_of(m), self.post_of(m)
        if not valid_implication(self.holds, pre, post):
            raise InvalidImplication(
                f"{formula_text(pre)} does not entail {formula_text(post)}")
        return self._unit(m.src, a)

    def _sample(self, f: Morphism, rng: Rng) -> Value:
        beta = self.beta_of(f)
        pre, post = self.pre_of(f), self.post_of(f)
        holds_post = self.holds(post)
        good = [sv for sv, ok in zip(self.svalues, holds_post) if ok]
        bad = [sv for sv, ok in zip(self.svalues, holds_post) if not ok]
        out = {}
        for sv, ok in zip(self.svalues, self.holds(pre)):
            if not ok:
                out[sv] = point(vpair(rng.choice(self.svalues), vint(rng.randint(0, 9))))
                continue
            if not good:
                q = Fraction(1)
            elif bad and self._over_allocate:
                q = Fraction(1, 2)
            elif bad and beta > 0:
                q = beta * Fraction(rng.randint(0, 2), 2)
            else:
                q = Fraction(0)
            # numerators over den: 1 - q to the good branches, q to a bad one
            bad_n, den = q.numerator, q.denominator
            atoms: list[tuple[Value, int]] = []
            if bad_n < den:
                g1 = rng.choice(good)
                g2 = rng.choice(good)
                if g1 != g2:
                    atoms.append((vpair(g1, vint(rng.randint(0, 9))), den - bad_n))
                    atoms.append((vpair(g2, vint(rng.randint(0, 9))), den - bad_n))
                    bad_n, den = 2 * bad_n, 2 * den
                else:
                    atoms.append((vpair(g1, vint(rng.randint(0, 9))), den - bad_n))
            if bad_n > 0:
                atoms.append((vpair(rng.choice(bad), vint(rng.randint(0, 9))), bad_n))
            out[sv] = _lowest(sorted(atoms), den)  # the values are distinct
        return ordered_table((sv, out[sv]) for sv in self._sorted_svalues)

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

    def _successor(self, s: dict[str, int], var: str, v: int) -> Value:
        return self._svalue_of[tuple({**s, var: v}.values())]

    def assign(self, var: str, expr: Expr) -> Value:
        decl = self.range_of(var)
        out = {}
        for s, sv in zip(self.states, self.svalues):
            v = eval_expr(expr, s)
            if not decl.lo <= v <= decl.hi:
                raise RangeError(
                    f"{var} := {v} leaves the declared range [{decl.lo}..{decl.hi}]")
            out[sv] = point(vpair(self._successor(s, var, v), vunit))
        return ordered_table((sv, out[sv]) for sv in self._sorted_svalues)

    def sample_uniform(self, var: str, lo: int, hi: int) -> Value:
        decl = self.range_of(var)
        if lo > hi or lo < decl.lo or hi > decl.hi:
            raise RangeError(
                f"uniform({lo},{hi}) is not within [{decl.lo}..{decl.hi}] for {var}")
        out = {sv: uniform([vpair(self._successor(s, var, v), vunit) for v in range(lo, hi + 1)])
               for s, sv in zip(self.states, self.svalues)}
        return ordered_table((sv, out[sv]) for sv in self._sorted_svalues)

    def seq(self, first: Value, second: Value) -> Value:
        """Sequential composition of two program payloads."""
        nested = self._map(None, lambda _res: second, first)
        return self._mult(None, None, nested)


_DEFAULT_DECLS = (VarDecl("x", 0, 2),)


def ahl_instance(decls: Iterable[VarDecl] = _DEFAULT_DECLS) -> AhlMonad:
    return AhlMonad(decls)


def broken_ahl_instance() -> AhlMonad:
    """Mutant whose sampler ignores the declared bound: it always routes
    half the mass to violating states, so validity checks fail."""
    return AhlMonad(_DEFAULT_DECLS, over_allocate=True)
