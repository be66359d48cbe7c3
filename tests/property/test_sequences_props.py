"""Property-based tests for the Section 5.1 sequence algebra.

The paper's operator definitions are transcribed as hypothesis laws; any
counterexample would mean our algebra disagrees with the paper's.
"""

from hypothesis import given
from hypothesis import strategies as st

from repro.core.sequences import (
    EMPTY,
    MessageSequence,
    common_prefix,
    merge_dedup,
)

import pytest

pytestmark = pytest.mark.property


# Small alphabets maximize collisions, which is where the interesting
# behaviour of dedup/subtract/merge lives.
items = st.text(alphabet="abcdef", min_size=1, max_size=2)
seqs = st.lists(items, max_size=10).map(MessageSequence)


@given(seqs)
def test_construction_is_idempotent(seq):
    assert MessageSequence(seq.items) == seq


@given(seqs)
def test_no_duplicates_invariant(seq):
    assert len(seq) == len(seq.to_set())


@given(seqs, seqs)
def test_concat_length_bound(a, b):
    result = a.concat(b)
    assert len(result) <= len(a) + len(b)
    assert result.to_set() == a.to_set() | b.to_set()


@given(seqs, seqs)
def test_concat_preserves_left_prefix(a, b):
    assert a.is_prefix_of(a.concat(b))


@given(seqs)
def test_concat_empty_identity(a):
    assert a.concat(EMPTY) == a
    assert EMPTY.concat(a) == a


@given(seqs, seqs)
def test_subtract_removes_exactly(a, b):
    result = a.subtract(b)
    assert result.to_set() == a.to_set() - b.to_set()
    # Relative order within a is preserved.
    positions = [a.index_of(x) for x in result]
    assert positions == sorted(positions)


@given(seqs)
def test_subtract_self_is_empty(a):
    assert a.subtract(a) == EMPTY


@given(seqs, seqs)
def test_subtract_then_concat_is_undo_legality(a, b):
    # For any b, (a ⊖ b) ⊕ (a ∩ b preserved in a-order as a suffix?) --
    # the general identity used by the proofs holds when b is a suffix:
    suffix = a.suffix_from(len(a) // 2)
    assert a.subtract(suffix).concat(suffix) == a


@given(seqs, seqs)
def test_common_prefix_is_prefix_of_both(a, b):
    prefix = common_prefix(a, b)
    assert prefix.is_prefix_of(a)
    assert prefix.is_prefix_of(b)


@given(seqs, seqs)
def test_common_prefix_is_maximal(a, b):
    prefix = common_prefix(a, b)
    n = len(prefix)
    if n < len(a) and n < len(b):
        assert a[n] != b[n]


@given(seqs, seqs)
def test_common_prefix_commutative(a, b):
    assert common_prefix(a, b) == common_prefix(b, a)


@given(seqs)
def test_common_prefix_idempotent(a):
    assert common_prefix(a, a) == a


@given(seqs, seqs, seqs)
def test_common_prefix_associative_via_nary(a, b, c):
    assert common_prefix(a, b, c) == common_prefix(common_prefix(a, b), c)


@given(seqs, seqs)
def test_merge_dedup_matches_paper_recursion(a, b):
    # ⊎(s1, s2) = s1 ⊕ (s2 ⊖ s1)
    assert merge_dedup(a, b) == a.concat(b.subtract(a))


@given(seqs, seqs, seqs)
def test_merge_dedup_recursive_step(a, b, c):
    # ⊎(s1, ..., s_{i+1}) = ⊎(s1, ..., s_i) ⊕ (s_{i+1} ⊖ ⊎(s1, ..., s_i))
    left = merge_dedup(a, b, c)
    prefix = merge_dedup(a, b)
    assert left == prefix.concat(c.subtract(prefix))


@given(seqs, seqs)
def test_merge_dedup_union_of_members(a, b):
    assert merge_dedup(a, b).to_set() == a.to_set() | b.to_set()


@given(seqs)
def test_prefix_relation_reflexive_and_antisymmetric(a):
    assert a.is_prefix_of(a)
    longer = a.concat(MessageSequence(["zz"]))
    assert a.is_prefix_of(longer)
    assert not longer.is_prefix_of(a)


@given(st.lists(items, max_size=10), st.lists(items, max_size=10))
def test_equality_semantics(xs, ys):
    a, b = MessageSequence(xs), MessageSequence(ys)
    if a.items == b.items:
        assert a == b and hash(a) == hash(b)
    else:
        assert a != b
