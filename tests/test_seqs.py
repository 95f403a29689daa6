import pytest

from cardnet.seqs import even, odd, zip_cols

from conftest import is_sorted, is_top_k_sorted


def test_zip_row_major():
    assert zip_cols(["a", "b", "c"], ["d", "e"], ["f"]) == ["a", "d", "f", "b", "e", "c"]
    assert zip_cols([1, 0], [1, 0]) == [1, 1, 0, 0]
    assert zip_cols([1]) == [1]
    assert zip_cols() == []


def test_zip_rejects_increasing_lengths():
    with pytest.raises(ValueError):
        zip_cols([1], [2, 3])


def test_odd_even_left_right():
    xs = [10, 20, 30, 40, 50]
    assert odd(xs) == [10, 30, 50]
    assert even(xs) == [20, 40]


def test_sortedness_predicates():
    assert is_sorted([1, 1, 0, 0])
    assert not is_sorted([0, 1])
    assert is_top_k_sorted([1, 0, 1, 0, 0], 2) is False  # 0 in prefix beaten by tail
    assert is_top_k_sorted([1, 1, 0, 1, 0], 2)  # domination allows ties
    assert is_top_k_sorted([1, 1, 0, 0, 0], 2)
    assert is_top_k_sorted([1, 0, 0, 0, 1], 1)  # a one in the tail ties, not beats
    assert is_top_k_sorted([0, 1, 0], 1) is False
    assert is_top_k_sorted([1, 1], 2)
    assert is_top_k_sorted([0, 0, 0], 0)
