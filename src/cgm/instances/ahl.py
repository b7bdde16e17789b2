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
from collections.abc import Callable, Iterable
from fractions import Fraction
from functools import cached_property
from itertools import chain, compress, count, product
from operator import add

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
    mentioned,
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
        self._by_name = sorted(self.decls, key=lambda d: d.name)
        sizes = [len(d.values()) for d in self._by_name]
        # no variable; an empty range, so no state; a repeated name
        if not sizes or 0 in sizes or len({d.name for d in self.decls}) < len(sizes):
            raise InvalidValue("declare one or more variables, each once, over a non-empty range")
        # states vary the last sorted name fastest, and tables compare values by sorted name, so
        # a state's index is its rank; state i with var moved to v is i + (v - s[var]) * stride[var]
        self._stride = {d.name: math.prod(sizes[i + 1:]) for i, d in enumerate(self._by_name)}
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

    @cached_property
    def svalues(self) -> tuple[VTable, ...]:
        """The states as tables, by rank; built on first use, as are their ranks below."""
        cells = [[(vstr(d.name), vint(v)) for v in d.values()] for d in self._by_name]
        return tuple(map(ordered_table, product(*cells)))

    @cached_property
    def _rank(self) -> dict[Value, int]:
        return {sv: i for i, sv in enumerate(self.svalues)}

    @cached_property
    def _ids(self) -> dict[int, int]:  # the ranks of `svalues`' own tables, by id
        return {id(sv): i for i, sv in enumerate(self.svalues)}

    def _over(self, names: set[str], fn: Callable[[dict[str, int]], object]) -> list:
        """By rank, fn of each state, where fn reads only the variables in `names`: fn runs once
        per assignment of them, and the results are spread over the states by strides."""
        parts = [[fn(s)] for s in states(d for d in self._by_name if d.name in names)]
        for d in reversed(self._by_name):  # from the fastest: each part is by rank over the
            n = len(d.values())  # variables passed; a read one joins runs of n, others repeat
            parts = ([list(chain.from_iterable(parts[i:i + n])) for i in range(0, len(parts), n)]
                     if d.name in names else [p * n for p in parts])
        return parts[0]

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

    def _rank_of(self, state: Value) -> int:
        """An own state's rank by its id, an equal foreign one's by its hash (a KeyError if
        there is none)."""
        r = self._ids.get(id(state))
        return self._rank[state] if r is None else r

    def _mix(self, d: VDist, rows: list[VDist]) -> VDist:
        """`rows`, one per atom of d, mixed by d's numerators: added by (final state's rank,
        result), the native order, sorted and reduced once.  A row that is not a dist raises
        AttributeError, even alone."""
        den = math.lcm(*map(_den, rows))  # each row is scaled to it
        if len(rows) == 1:  # a point: the row's dist as it is
            return rows[0]
        ids, acc = self._ids, {}  # (final rank, result) -> [pair, numerator]
        for (_, n), e in zip(d.atoms, rows):
            s = n * (den // e.den)
            for pr, m in e.atoms:  # an own state's rank by its id, an equal one's by its hash
                r = ids.get(id(pr.fst))
                r = self._rank[pr.fst] if r is None else r
                acc.setdefault((r, pr.snd), [pr, 0])[1] += s * m
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
                rows.append((sv, self._mix(d, es)))
        except (AttributeError, IndexError, KeyError, MalformedPayload):  # a malformed atom:
            # dist_bind, in the same order, raises the same error or keeps an undeclared pair
            return ordered_table((sv, dist_bind(d, step)) for sv, d in nested.entries)
        return ordered_table(rows)

    def _map(self, _f: Morphism, fn, p: Value) -> Value:
        return table_map_snd(fn, p)

    def holds(self, phi: Formula) -> tuple[bool, ...]:
        """By rank, whether phi holds in each state: once per formula, by evaluating phi once
        per assignment of the variables it mentions."""
        truth = self._truth.get(phi)
        if truth is None:
            truth = self._truth[phi] = tuple(self._over(mentioned(phi),
                                                        lambda s: eval_formula(phi, s)))
        return truth

    def violated(self, phi: Formula) -> list[bool]:
        """By rank, whether phi fails in each state: phi's violation indicator."""
        return [not t for t in self.holds(phi)]

    def _expect(self, d: VDist, v: list[int]) -> int:
        """Σ n · v[rank of the final state] over d's atoms; a non-(state, result) atom raises."""
        m = 0
        try:  # only a pair has .fst; only a declared state has a rank
            for pr, n in d.atoms:
                m += n * v[self._rank_of(pr.fst)]
        except (AttributeError, KeyError):
            raise MalformedPayload("an atom is not a (declared state, result) pair") from None
        return m

    def expectation(self, payload: Value, vec: tuple[list[int], int]) -> tuple[list[int], int]:
        """Each start's expectation of `vec` under payload, both as numerators by rank over
        one denominator (in lowest terms); starts are read in order where payload's keys are
        the states, else through `payload.get`."""
        v, den = vec
        svs = self.svalues
        if isinstance(payload, VTable) and payload.keys() == svs:  # keyed by rank, as built
            ds = [_checked(d) for _, d in payload.entries]
        else:
            ds = [_checked(payload.get(sv)) for sv in svs]
        lcm, uniq = math.lcm(*map(_den, ds)), {id(d): d for d in ds}  # a row many starts share
        e = {k: self._expect(d, v) * (lcm // d.den) for k, d in uniq.items()}  # is read once
        return _reduced([e[id(d)] for d in ds], den * lcm)

    def worst(self, vec: tuple[list[int], int], pre: Formula) -> Fraction:
        """The max of `vec` over the states satisfying pre (0 if none)."""
        v, den = vec
        return Fraction(max(compress(v, self.holds(pre)), default=0), den)

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

    def _rand_range(self, var: str, lo: int, hi: int) -> VarDecl:
        """var's declaration, checked to hold `rand var lo hi`'s range."""
        decl = self.range_of(var)
        if lo > hi or lo < decl.lo or hi > decl.hi:
            raise RangeError(
                f"uniform({lo},{hi}) is not within [{decl.lo}..{decl.hi}] for {var}")
        return decl

    def skip(self) -> Value:
        return self._unit(None, vunit)

    def _moves(self, var: str, expr: Expr) -> list[int]:
        """By rank, how far `var := expr` moves each state's rank: (e(s) - s[var]) * stride."""
        decl, st, names = self.range_of(var), self._stride[var], mentioned(expr) | {var}

        def move(s: dict[str, int]) -> int:
            v = eval_expr(expr, s)
            if not decl.lo <= v <= decl.hi:  # first: an out-of-range v could index another state
                v = next(w for t in states(d for d in self.decls if d.name in names)  # the first
                         if not decl.lo <= (w := eval_expr(expr, t)) <= decl.hi)  # by declaration
                raise RangeError(
                    f"{var} := {v} leaves the declared range [{decl.lo}..{decl.hi}]")
            return (v - s[var]) * st

        return self._over(names, move)

    def assign(self, var: str, expr: Expr) -> Value:
        moves, svs = self._moves(var, expr), self.svalues
        return ordered_table((sv, point(vpair(svs[i + m], vunit)))
                             for i, (sv, m) in enumerate(zip(svs, moves)))

    def sample_uniform(self, var: str, lo: int, hi: int) -> Value:
        self._rand_range(var, lo, hi)
        st, svs = self._stride[var], self.svalues
        # the class of state i: the states k + v * st, which differ from it only in var
        ks = [i - a for i, a in enumerate(self._over({var}, lambda s: s[var] * st))]
        rows = {k: uniform([vpair(svs[k + v * st], vunit) for v in range(lo, hi + 1)])
                for k in dict.fromkeys(ks)}  # one successor dist per class
        return ordered_table(zip(svs, map(rows.__getitem__, ks)))

    # --- backward steps: a leaf payload's `expectation` of a vector in lowest terms, by
    # index arithmetic on the ranks (`skip`'s is the vector itself) ---

    def assign_step(self, vec: tuple[list[int], int], var: str, expr: Expr):
        v, den = vec
        return _reduced(list(map(v.__getitem__, map(add, count(), self._moves(var, expr)))), den)

    def uniform_step(self, vec: tuple[list[int], int], var: str, lo: int, hi: int):
        """Each class of states that differ only in var gets the sum of v over its members
        with var in lo..hi.  A block of n * st ranks holds st classes, a run of st per value."""
        decl, (v, den) = self._rand_range(var, lo, hi), vec
        n, st, w = len(decl.values()), self._stride[var], []
        runs = range((lo - decl.lo) * st, (hi - decl.lo + 1) * st, st)
        for b in range(0, len(v), n * st):
            w += list(map(sum, zip(*(v[b + r:b + r + st] for r in runs)))) * n
        return _reduced(w, den * (hi - lo + 1))

    def seq(self, first: Value, second: Value) -> Value:
        """Sequential composition of two program payloads (keyed by the states, by rank): one
        row per middle state of `second`, mixed by each distinct row of `first`.  It equals
        `_mult(None, None, _map(None, lambda _: second, first))`."""
        rows = second.entries
        uniq = {id(d): d for _, d in first.entries}  # a row many starts share is mixed once
        mixed = {k: self._mix(d, [rows[self._rank_of(pr.fst)][1] for pr, _ in d.atoms])
                 for k, d in uniq.items()}
        return ordered_table((sv, mixed[id(d)]) for sv, d in first.entries)


def _reduced(w: list[int], den: int) -> tuple[list[int], int]:
    """The numerators w over den, in lowest terms."""
    g = math.gcd(den, *w) if den > 1 else 1
    return ([m // g for m in w], den // g) if g > 1 else (w, den)


_DEFAULT_DECLS = (VarDecl("x", 0, 2),)


def ahl_instance(decls: Iterable[VarDecl] = _DEFAULT_DECLS) -> AhlMonad:
    return AhlMonad(decls)


def broken_ahl_instance() -> AhlMonad:
    """Mutant whose sampler ignores the declared bound: it always routes
    half the mass to violating states, so validity checks fail."""
    return AhlMonad(_DEFAULT_DECLS, over_allocate=True)
