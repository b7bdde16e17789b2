"""Value universe: canonicalization, equality, distribution arithmetic."""

import math
import os
import subprocess
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import cgm
from cgm.errors import InvalidValue, MalformedPayload
from cgm.values import (
    VBool,
    VDist,
    VInt,
    VPair,
    VRat,
    VSeq,
    VStr,
    VTable,
    VTag,
    VUnit,
    dist,
    dist_bind,
    ordered_table,
    point,
    sort_key,
    table,
    table_map_snd,
    uniform,
    unit,
    vbool,
    vint,
    vpair,
    vrat,
    vseq,
    vstr,
    vtag,
)


def leaves():
    return st.one_of(
        st.just(unit),
        st.integers(-50, 50).map(vint),
        st.booleans().map(vbool),
        st.text(st.characters(codec="ascii"), max_size=4).map(vstr),
        st.fractions(max_denominator=20).map(vrat),
    )


def values():
    return st.recursive(
        leaves(),
        lambda kids: st.one_of(
            st.tuples(kids, kids).map(lambda ab: vpair(*ab)),
            st.lists(kids, max_size=3).map(vseq),
            st.tuples(st.text(st.characters(codec="ascii"), min_size=1, max_size=3), kids)
            .map(lambda tv: vtag(*tv)),
        ),
        max_leaves=8,
    )


@settings(max_examples=150, derandomize=True)
@given(values())
def test_sort_key_total_and_consistent(v):
    assert sort_key(v) == sort_key(v)


@settings(max_examples=150, derandomize=True)
@given(values(), values())
def test_equal_values_share_sort_keys(a, b):
    if a == b:
        assert sort_key(a) == sort_key(b)
    else:
        assert sort_key(a) != sort_key(b)


def test_table_canonical_order_independent():
    t1 = table({vint(2): vstr("b"), vint(1): vstr("a")})
    t2 = table({vint(1): vstr("a"), vint(2): vstr("b")})
    assert t1 == t2
    assert t1.keys() == (vint(1), vint(2))
    assert t1.get(vint(2)) == vstr("b")
    assert not t1.has(vint(3))
    with pytest.raises(MalformedPayload):
        t1.get(vint(3))


def test_table_rejects_duplicate_keys():
    with pytest.raises(InvalidValue):
        table([(vint(1), vstr("a")), (vint(1), vstr("b"))])


def test_dist_must_sum_to_one():
    with pytest.raises(InvalidValue):
        dist([(vint(0), Fraction(1, 2))])
    with pytest.raises(InvalidValue):
        dist([(vint(0), Fraction(-1, 2)), (vint(1), Fraction(3, 2))])


def test_dist_merges_and_drops_zero():
    d = dist([(vint(0), Fraction(1, 4)), (vint(0), Fraction(1, 4)),
              (vint(1), Fraction(1, 2)), (vint(2), Fraction(0))])
    assert d.weight(vint(0)) == Fraction(1, 2)
    assert d.weight(vint(2)) == 0
    assert len(d.entries) == 2


def test_uniform_and_point():
    d = uniform([vint(i) for i in range(10)])
    assert d.weight(vint(3)) == Fraction(1, 10)
    assert point(vint(7)).weight(vint(7)) == 1


def test_dist_bind_of_points_matches_pushforward_oracle():
    # oracle: plain dict pushforward
    d = dist([(vint(0), Fraction(1, 3)), (vint(1), Fraction(1, 3)),
              (vint(2), Fraction(1, 3))])
    mapped = dist_bind(d, lambda v: point(vint(v.n % 2)))
    oracle: dict = {}
    for v, w in d.entries:
        k = vint(v.n % 2)
        oracle[k] = oracle.get(k, Fraction(0)) + w
    for k, w in oracle.items():
        assert mapped.weight(k) == w


@settings(max_examples=60, derandomize=True)
@given(st.lists(st.tuples(st.integers(0, 5), st.integers(1, 6)), min_size=1, max_size=5))
def test_dist_bind_preserves_total_mass(raw):
    total = sum(Fraction(1, w) for _, w in raw)
    entries = [(vint(i * 7 + n), Fraction(1, w) / total)
               for i, (n, w) in enumerate(raw)]
    d = dist(entries)
    out = dist_bind(d, lambda v: uniform([vpair(v, vint(k)) for k in range(3)]))
    assert sum(w for _, w in out.entries) == 1


def test_show_is_canonical():
    v = table({vint(1): dist([(vpair(vint(0), unit), Fraction(1))])})
    assert v.show() == "{1 -> dist{(0, ()) @ 1}}"
    assert vseq([vint(1), vstr("x")]).show() == '[1, "x"]'


def test_seq_identity():
    s = vseq([vint(1), vint(2)])
    assert isinstance(s, VSeq) and s.items == (vint(1), vint(2))


def tables(keys):
    return st.dictionaries(keys, leaves(), max_size=6).map(table)


def dists(keys):
    return st.dictionaries(keys, st.integers(0, 4), min_size=1, max_size=6).filter(
        lambda ws: sum(ws.values()) > 0).map(
        lambda ws: dist({v: Fraction(w, sum(ws.values())) for v, w in ws.items()}))


def clone(x):
    """A structurally equal copy that shares no Value object with `x`,
    rebuilt through the public constructors."""
    if isinstance(x, VPair):
        return vpair(clone(x.fst), clone(x.snd))
    if isinstance(x, VSeq):
        return vseq(clone(y) for y in x.items)
    if isinstance(x, VTag):
        return vtag(x.tag, clone(x.value))
    if isinstance(x, VTable):
        return table([(clone(k), clone(v)) for k, v in x.entries])
    if isinstance(x, VDist):
        return dist([(clone(v), w) for v, w in x.entries])
    if isinstance(x, VInt):
        return vint(x.n)
    if isinstance(x, VRat):
        return vrat(x.q)
    if isinstance(x, VBool):
        return vbool(x.b)
    if isinstance(x, VStr):
        return vstr(x.s)
    assert isinstance(x, VUnit)
    return VUnit()


def _probes(entries, extra):
    keys = [k for k, _ in entries]
    return keys + [clone(k) for k in keys] + extra


@settings(max_examples=80, derandomize=True)
@given(tables(st.one_of(values(), tables(leaves()))), st.lists(values(), max_size=4))
def test_table_lookups_agree_with_linear_scan(t, extra):
    for key in _probes(t.entries, extra):
        hits = [v for k, v in t.entries if k == key]
        assert t.has(key) == bool(hits)
        if hits:
            assert t.get(key) is hits[0]
        else:
            with pytest.raises(MalformedPayload):
                t.get(key)


@settings(max_examples=80, derandomize=True)
@given(dists(st.one_of(values(), tables(leaves()))), st.lists(values(), max_size=4))
def test_dist_weight_agrees_with_linear_scan(d, extra):
    for key in _probes(d.entries, extra):
        hits = [w for u, w in d.entries if u == key]
        assert d.weight(key) == (hits[0] if hits else 0)


# --- the trusted path (functor actions, multiplications) against the checked one ---

_IMAGES = (
    lambda v: v,                            # identity
    lambda v: vtag("t", v),                 # injective, changes the order
    lambda v: vint(len(v.show()) % 3),      # collapses values
    lambda v: unit,                         # collapses everything
)

_CONTINUATIONS = (
    point,                                  # weight 1
    lambda v: point(unit),                  # weight 1, every branch merges
    lambda v: uniform([vint(0), vtag("t", v)]),
    lambda v: dist({vint(0): Fraction(1, 3), vint(len(v.show()) % 2 + 1): Fraction(2, 3)}),
)


def _any_dist():
    return st.one_of(dists(values()), values().map(point))


@settings(max_examples=100, derandomize=True)
@given(_any_dist(), st.sampled_from(_IMAGES))
def test_dist_bind_of_points_equals_checked_dist(d, fn):
    expected = dist([(fn(v), w) for v, w in d.entries])
    out = dist_bind(d, lambda v: point(fn(v)))
    assert out == expected and hash(out) == hash(expected)
    assert sort_key(out) == sort_key(expected)


def pairs(firsts, seconds):
    return st.tuples(firsts, seconds).map(lambda ab: vpair(*ab))


# --- the native order against the key that sort_key computed before values
# were tagged tuples ---

_LEAF_KEYS = {
    VUnit: lambda v: (0,),
    VInt: lambda v: (1, v.n),
    VRat: lambda v: (2, v.q),
    VBool: lambda v: (3, v.b),
    VStr: lambda v: (4, v.s),
}
_COMPOSITE_KEYS = {
    VPair: lambda v: (5, _reference_key(v.fst), _reference_key(v.snd)),
    VSeq: lambda v: (6, tuple(_reference_key(x) for x in v.items)),
    VTag: lambda v: (7, v.tag, _reference_key(v.value)),
    VTable: lambda v: (8, tuple((_reference_key(k), _reference_key(x)) for k, x in v.entries)),
    VDist: lambda v: (9, tuple((_reference_key(x), w) for x, w in v.entries)),
}


def _reference_key(v):
    """Nested tuples of plain data, no value objects: a dist's weights
    compare as `Fraction`s."""
    leaf = _LEAF_KEYS.get(type(v))
    if leaf is not None:
        return leaf(v)
    return _COMPOSITE_KEYS[type(v)](v)


def few():
    return st.one_of(st.just(unit), st.integers(0, 1).map(vint))


def nested():
    """Every shape, with tables and dists anywhere, over few leaves so that
    equal values and dists over one support are common."""
    return st.recursive(
        st.one_of(few(), leaves()),
        lambda kids: st.one_of(
            pairs(kids, kids),
            st.lists(kids, max_size=3).map(vseq),
            st.tuples(st.sampled_from("ab"), kids).map(lambda tv: vtag(*tv)),
            tables(kids),
            dists(kids),
        ),
        max_leaves=6,
    )


@settings(max_examples=400, derandomize=True)
@given(st.one_of(nested(), dists(few()), pairs(dists(few()), few())),
       st.one_of(nested(), dists(few()), pairs(dists(few()), few())))
def test_native_order_equality_and_hash_match_reference_key(a, b):
    for x, y in ((a, b), (b, a), (a, clone(a))):
        rx, ry = _reference_key(x), _reference_key(y)
        assert (x < y) == (rx < ry) and (x <= y) == (rx <= ry)
        assert (x > y) == (rx > ry) and (x >= y) == (rx >= ry)
        assert (x == y) == (rx == ry) and (x != y) == (rx != ry)
        if x == y:
            assert hash(x) == hash(y)


def test_dists_order_by_weight_not_numerator():
    halves = dist({vint(0): Fraction(1, 2), vint(1): Fraction(1, 2)})
    thirds = dist({vint(0): Fraction(1, 3), vint(1): Fraction(2, 3)})
    assert thirds < halves  # by numerators, (1, 1) over 2 would sort first
    assert table({halves: vint(0), thirds: vint(1)}).show() == (
        "{dist{0 @ 1/3; 1 @ 2/3} -> 1; dist{0 @ 1/2; 1 @ 1/2} -> 0}")


def test_table_rejects_a_foreign_key():
    with pytest.raises(InvalidValue, match="^foreign value 1$"):
        table({1: vint(1)})


_DEEP_CHAIN = """
from cgm.values import unit, vint, vpair

def chain():
    v = unit
    for i in range(10 ** 4):
        v = vpair(vint(i), v)
    return v

a, b = chain(), chain()
print(hash(a) == hash(b))
try:
    print(a == b)
except RecursionError:
    print("RecursionError")
"""


def test_deep_pair_chain_hashes_and_compares_without_a_crash():
    src = os.path.dirname(os.path.dirname(cgm.__file__))
    out = subprocess.run([sys.executable, "-c", _DEEP_CHAIN], capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": src}, timeout=120)
    assert out.returncode == 0, out.stderr  # a signal would make it negative
    hashed, compared = out.stdout.split()
    assert hashed == "True" and compared in ("True", "RecursionError")


# The map of a dist of pairs under (a, b) -> (a, fn(b)) is `table_map_snd` over the
# dists of one table; `dist_map_snd` maps one dist as the one entry of a table.

def dist_map_snd(fn, d):
    return table_map_snd(fn, ordered_table([(unit, d)])).entries[0][1]


@settings(max_examples=100, derandomize=True)
@given(st.one_of(dists(pairs(leaves(), values())),
                 # few first components: runs of entries that share one
                 dists(pairs(st.integers(0, 2).map(vint), leaves()))),
       st.sampled_from(_IMAGES))
def test_dist_map_snd_equals_checked_dist(d, fn):
    expected = dist([(vpair(pr.fst, fn(pr.snd)), w) for pr, w in d.entries])
    out = dist_map_snd(fn, d)
    assert out == expected and hash(out) == hash(expected)
    assert sort_key(out) == sort_key(expected)


@settings(max_examples=100, derandomize=True)
@given(_any_dist(), st.sampled_from(_CONTINUATIONS))
def test_dist_bind_equals_checked_dist(d, k):
    expected = dist([(u, w * x) for v, w in d.entries for u, x in k(v).entries])
    out = dist_bind(d, k)
    assert out == expected and hash(out) == hash(expected)
    assert sort_key(out) == sort_key(expected)


def test_dist_map_snd_calls_fn_once_per_distinct_carried_value_across_a_shared_memo():
    """One memo serves every dist of a table."""
    calls = []

    def fn(v):
        calls.append(v)
        return vtag("t", v)

    a = vpair(vint(1), vseq([vint(2)]))
    ds = [dist({vpair(vint(0), a): 1}),
          dist({vpair(vint(0), clone(a)): Fraction(1, 2), vpair(vint(1), vint(1)): Fraction(1, 2)}),
          dist({vpair(vint(2), a): 1})]
    out = table_map_snd(fn, ordered_table([(vint(i), d) for i, d in enumerate(ds)]))
    outs = [pr.snd for _, d in out.entries for pr, _ in d.atoms]
    assert calls == [a, vint(1)]
    assert outs[0] is outs[1] is outs[3] and outs[2] == vtag("t", vint(1))


def _pairs_dist(*atoms):
    """A dist of (int, int) pairs from (first, second, weight) triples."""
    return dist([(vpair(vint(a), vint(b)), Fraction(w)) for a, b, w in atoms])


def _assert_maps_like_checked_dist(fn, d):
    out = dist_map_snd(fn, d)
    expected = dist([(vpair(pr.fst, fn(pr.snd)), w) for pr, w in d.entries])
    assert out == expected and out.atoms == expected.atoms and out.den == expected.den
    return out


def test_dist_map_snd_with_distinct_first_components_keeps_d_order_and_numerators():
    d = _pairs_dist((0, 1, "1/6"), (1, 0, "1/3"), (2, 2, "1/2"))
    out = _assert_maps_like_checked_dist(lambda v: vint(-v.n), d)  # reverses result order
    assert [n for _, n in out.atoms] == [n for _, n in d.atoms] and out.den == d.den == 6
    assert [pr.snd for pr, _ in out.atoms] == [vint(-1), vint(0), vint(-2)]


def test_dist_map_snd_merges_atoms_that_share_a_first_component():
    d = _pairs_dist((0, 1, "1/4"), (0, 2, "1/4"), (1, 0, "1/2"))
    out = _assert_maps_like_checked_dist(lambda v: vint(v.n // 3), d)  # 1 and 2 -> 0
    assert out.atoms == ((vpair(vint(0), vint(0)), 1), (vpair(vint(1), vint(0)), 1))
    assert out.den == 2  # numerators added, then lowest terms


def test_dist_map_snd_to_one_value_is_a_point():
    d = _pairs_dist((0, 1, "1/3"), (0, 2, "2/3"))
    assert _assert_maps_like_checked_dist(lambda v: unit, d) == point(vpair(vint(0), unit))


def test_trusted_dist_ops_reject_a_table():
    t = table({vint(0): vint(1)})
    with pytest.raises(MalformedPayload):
        dist_bind(t, point)
    with pytest.raises(MalformedPayload):
        dist_map_snd(lambda v: v, t)
    with pytest.raises(MalformedPayload):
        dist_bind(uniform([vint(0), vint(1)]), lambda v: t)
    with pytest.raises(MalformedPayload):
        dist_bind(point(vint(0)), lambda v: t)


def test_table_map_snd_rejects_a_non_pair_atom_and_passes_fn_errors_through():
    t = ordered_table([(unit, dist({vint(1): Fraction(1, 2), vpair(vint(0), unit): Fraction(1, 2)}))])
    with pytest.raises(MalformedPayload, match="^pair expected, got a VInt$"):
        table_map_snd(lambda v: v, t)
    with pytest.raises(AttributeError, match="fst"):  # fn's own error, from a pair's carried unit
        table_map_snd(lambda v: v.fst, ordered_table([(unit, point(vpair(vint(0), unit)))]))


@settings(max_examples=100, derandomize=True)
@given(tables(values()), st.sampled_from(_IMAGES), st.integers(1, 3))
def test_ordered_table_equals_checked_table(t, fn, stride):
    pairs = [(k, fn(v)) for k, v in t.entries[::stride]]  # same keys, or an in-order subsequence
    out = ordered_table(pairs)
    assert out == table(pairs) and sort_key(out) == sort_key(table(pairs))
    keys = sorted({k for k, _ in t.entries}, key=sort_key)  # sorted once, then reused
    assert ordered_table((k, fn(k)) for k in keys) == table({k: fn(k) for k in keys})



# --- a Fraction-only oracle: plain dicts of Fraction, no cgm.values arithmetic ---

def _oracle(pairs):
    """value -> summed Fraction weight, zero weights dropped."""
    acc: dict = {}
    for v, w in pairs:
        acc[v] = acc.get(v, Fraction(0)) + Fraction(w)
    return {v: w for v, w in acc.items() if w}


def _assert_is(d, acc):
    """d has the oracle's entries, text and canonical integer form."""
    entries = tuple(sorted(acc.items(), key=lambda e: sort_key(e[0])))
    assert d.entries == entries
    assert d.show() == "dist{" + "; ".join(f"{v.show()} @ {w}" for v, w in entries) + "}"
    nums = [n for _, n in d.atoms]
    assert all(type(n) is int and n > 0 for n in nums + [d.den])
    assert sum(nums) == d.den and math.gcd(d.den, *nums) == 1


def weighted(vals):
    """(value, weight) lists with repeats and zeros, weights summing to 1."""
    return st.lists(st.tuples(vals, st.fractions(0, 3, max_denominator=12)),
                    min_size=1, max_size=6).filter(
        lambda ps: sum(w for _, w in ps) > 0).map(
        lambda ps: [(v, w / sum(x for _, x in ps)) for v, w in ps])


_PRIMES = (2, 3, 5, 7, 11, 13)


def _prime(v):
    return _PRIMES[len(v.show()) % len(_PRIMES)]


# continuations as weighted lists; branches get pairwise coprime denominators
_WEIGHTED_CONTINUATIONS = (
    lambda v: [(v, Fraction(1))],
    lambda v: [(vint(j), Fraction(1, _prime(v))) for j in range(_prime(v))],
    lambda v: [(unit, Fraction(1, _prime(v) ** 2)), (vtag("t", v), 1 - Fraction(1, _prime(v) ** 2))],
    lambda v: [(vint(0), Fraction(1, 3)), (v, Fraction(1, 6)), (v, Fraction(1, 2))],
)


@settings(max_examples=60, derandomize=True)
@given(weighted(values()))
def test_dist_matches_fraction_oracle(ps):
    _assert_is(dist(ps), _oracle(ps))


@settings(max_examples=60, derandomize=True)
@given(weighted(values()), st.sampled_from(_IMAGES))
def test_dist_bind_of_points_matches_fraction_oracle(ps, fn):
    _assert_is(dist_bind(dist(ps), lambda v: point(fn(v))), _oracle((fn(v), w) for v, w in ps))


@settings(max_examples=60, derandomize=True)
@given(st.one_of(weighted(pairs(leaves(), values())),
                 weighted(pairs(st.integers(0, 2).map(vint), leaves()))),
       st.sampled_from(_IMAGES))
def test_dist_map_snd_matches_fraction_oracle(ps, fn):
    _assert_is(dist_map_snd(fn, dist(ps)), _oracle((vpair(pr.fst, fn(pr.snd)), w) for pr, w in ps))


@settings(max_examples=60, derandomize=True)
@given(weighted(values()), st.sampled_from(_WEIGHTED_CONTINUATIONS))
def test_dist_bind_matches_fraction_oracle(ps, k):
    expected = _oracle((u, w * x) for v, w in _oracle(ps).items() for u, x in k(v))
    _assert_is(dist_bind(dist(ps), lambda v: dist(k(v))), expected)


@settings(max_examples=60, derandomize=True)
@given(weighted(values()))
def test_equal_dists_have_equal_fields_and_hashes(ps):
    d = dist(ps)
    split = [(v, x) for v, w in ps for x in (w / 3, 2 * w / 3)]  # other denominators
    for other in (dist(ps[::-1]), dist(split), dist_bind(dist(split[::-1]), point),
                  dist_bind(d, point), dist_bind(dist(split), lambda v: dist([(v, 1)]))):
        assert other == d and hash(other) == hash(d)
        assert (other.atoms, other.den) == (d.atoms, d.den)
    assert uniform([vint(1), vint(0), vint(1)]) == dist({vint(0): Fraction(1, 3),
                                                         vint(1): Fraction(2, 3)})
