"""The splitmix64 stream every sampler draws from, pinned value for value."""

import pytest

from cgm.rng import Rng, derive_seed


def test_seed_zero_gives_the_published_splitmix64_stream():
    # Steele, Lea & Flood (OOPSLA 2014); the reference C code's first outputs from state 0
    r = Rng(0)
    assert [r.next_u64() for _ in range(3)] == [
        0xE220A8397B1DCDAF, 0x6E789E6AA1B965F4, 0x06C45D188009454F]


def test_randint_choice_and_fork_at_a_fixed_seed():
    r = Rng(42)
    assert [r.randint(0, 9) for _ in range(8)] == [3, 1, 8, 4, 0, 2, 5, 8]
    assert [r.randint(-3, 3) for _ in range(4)] == [3, 2, 2, 3]
    r = Rng(42)
    assert "".join(r.choice("abcde") for _ in range(8)) == "dbdeacad"
    r = Rng(42)
    child = r.fork(1, "x")
    assert child._state == 0xF53930E2F7E46925 == derive_seed(42, 1, "x")
    assert child.next_u64() == 0x6AADD9197931425D
    assert r.next_u64() == 0xBDD732262FEB6E95  # forking leaves this stream where it was
    assert derive_seed(7, "a", 2) == 0x1D6C1BD76048B596


def test_empty_ranges_are_refused():
    with pytest.raises(ValueError):
        Rng(0).randint(1, 0)
    with pytest.raises(ValueError):
        Rng(0).choice([])
