import pytest
from hypothesis import given, strategies as st

from qtchar.laurent import ONE, ZERO, IntLaurent, _axpy, _mac, t_binomial


def test_zero_coefficients_are_pruned():
    assert IntLaurent({0: 0, 2: 0}) == ZERO
    assert bool(IntLaurent({3: 1, -3: -1}))


def test_ring_operations():
    p = IntLaurent({0: 1, 2: 1})
    q = IntLaurent({-1: 1, 1: 1})
    assert p + (-p) == ZERO
    assert p - p == ZERO
    assert p * ONE == p
    assert q * q == IntLaurent({-2: 1, 0: 2, 2: 1})
    assert q**0 == ONE
    assert q**2 == q * q
    assert 3 * p == IntLaurent({0: 3, 2: 3})


def test_eval_and_bar():
    p = IntLaurent({-1: 2, 3: 1})
    assert p.bar() == IntLaurent({1: 2, -3: 1})
    assert p.eval_at(1) == 3
    assert p.eval_at(-1) == -3
    assert IntLaurent({-2: 4}).eval_at(2) == 1
    with pytest.raises(ValueError):
        IntLaurent({-2: 3}).eval_at(2)


def test_str_is_sorted_and_stable():
    p = IntLaurent({2: 1, 0: 1, -2: -1})
    assert str(p) == "-t^-2 + 1 + t^2"
    assert str(ZERO) == "0"
    assert str(IntLaurent({0: -1})) == "-1"
    assert str(IntLaurent({3: -1, 1: 2, 0: 1})) == "1 + 2t - t^3"
    assert str(IntLaurent({-1: -3, 0: 1})) == "-3t^-1 + 1"


def test_t_binomial_small_values():
    assert t_binomial(0, 0) == ONE
    assert t_binomial(2, 1) == IntLaurent({-1: 1, 1: 1})
    assert t_binomial(4, 2) == IntLaurent({-4: 1, -2: 1, 0: 2, 2: 1, 4: 1})
    assert t_binomial(3, -1) == ZERO
    assert t_binomial(3, 5) == ZERO


@given(st.integers(0, 12), st.integers(-1, 13))
def test_t_binomial_symmetries(n, r):
    b = t_binomial(n, r)
    assert b == t_binomial(n, n - r)
    assert b == b.bar()


@given(st.integers(0, 10), st.integers(0, 10))
def test_t_binomial_specializes_to_binomial(n, r):
    import math

    expected = math.comb(n, r) if r <= n else 0
    assert t_binomial(n, r).eval_at(1) == expected


# small {int: int} maps on few keys, so that sums and products cancel often
sparse_maps = st.dictionaries(st.integers(-3, 3), st.integers(-3, 3), max_size=5)


def _naive_sum(a, b, sign):
    keys = set(a) | set(b)
    out = {k: a.get(k, 0) + sign * b.get(k, 0) for k in keys}
    return {k: v for k, v in out.items() if v}


@given(sparse_maps, sparse_maps, st.sampled_from([1, -1, 2, -2, 3, -3]))
def test_axpy_is_a_sum_without_zeros(a, b, sign):
    a = {k: v for k, v in a.items() if v}  # a zero-free accumulator, as every caller keeps
    acc = dict(a)
    out = _axpy(acc, b, sign)
    assert out is acc
    assert out == _naive_sum(a, b, sign)
    assert 0 not in out.values()


@given(st.dictionaries(st.integers(-3, 3), st.integers(-3, 3), min_size=1, max_size=5),
       sparse_maps, sparse_maps, st.integers(-4, 4))
def test_mac_is_a_shifted_convolution(acc, c1, c2, shift):
    pairs = [(e1 + e2 + shift, v1 * v2) for e1, v1 in c1.items() for e2, v2 in c2.items()]
    keys = set(acc) | {e for e, _ in pairs}
    expected = {e: acc.get(e, 0) + sum(v for k, v in pairs if k == e) for e in keys}
    out = _mac(acc, c1, c2, shift)
    assert out is acc
    assert out == expected  # zeros stay, as in the maps the callers accumulate
    assert IntLaurent(_mac({}, c1, c2)) == IntLaurent(c1) * IntLaurent(c2)
