import pytest

from tree_oracle import LEAF, enumerate_trees, leaves, catalan


def test_counts_match_catalan():
    for n in range(2, 13):
        assert len(enumerate_trees(n)) == catalan(n - 1)
    assert catalan(11) == 58786


def test_small_shapes():
    assert enumerate_trees(2) == ((LEAF, LEAF),)
    three = enumerate_trees(3)
    assert len(three) == 2
    # deterministic order: left subtree size ascending
    assert three[0] == (LEAF, (LEAF, LEAF))
    assert three[1] == ((LEAF, LEAF), LEAF)


def test_leaf_counts():
    for n in range(2, 9):
        for t in enumerate_trees(n):
            assert leaves(t) == n


def test_rejects_small_n():
    with pytest.raises(ValueError):
        enumerate_trees(1)
