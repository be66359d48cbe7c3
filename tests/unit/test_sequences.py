"""Unit tests for the Section 5.1 sequence algebra."""

import sys
import tracemalloc

import pytest

from repro.core.sequences import (
    EMPTY,
    MessageSequence,
    SequenceLog,
    as_sequence,
    common_prefix,
    merge_dedup,
)

pytestmark = pytest.mark.unit



class TestConstruction:
    def test_empty(self):
        assert len(EMPTY) == 0
        assert not EMPTY
        assert list(EMPTY) == []
        assert repr(EMPTY) == "{ε}"

    def test_preserves_order(self):
        seq = MessageSequence(["m1", "m2", "m3"])
        assert list(seq) == ["m1", "m2", "m3"]
        assert repr(seq) == "{m1;m2;m3}"

    def test_deduplicates_keeping_first(self):
        seq = MessageSequence(["a", "b", "a", "c", "b"])
        assert list(seq) == ["a", "b", "c"]

    def test_equality_with_tuples_and_lists(self):
        seq = MessageSequence(["a", "b"])
        assert seq == ("a", "b")
        assert seq == ["a", "b"]
        assert seq == MessageSequence(["a", "b"])
        assert seq != MessageSequence(["b", "a"])

    def test_hashable(self):
        assert hash(MessageSequence("ab")) == hash(MessageSequence("ab"))
        assert {MessageSequence("ab"): 1}[MessageSequence("ab")] == 1

    def test_indexing_and_slicing(self):
        seq = MessageSequence(["a", "b", "c"])
        assert seq[0] == "a"
        assert seq[-1] == "c"
        assert seq[1:] == MessageSequence(["b", "c"])

    def test_membership(self):
        seq = MessageSequence(["a", "b"])
        assert "a" in seq
        assert "z" not in seq

    def test_to_set(self):
        assert MessageSequence(["a", "b"]).to_set() == frozenset({"a", "b"})

    def test_index_of(self):
        seq = MessageSequence(["a", "b", "c"])
        assert seq.index_of("b") == 1
        with pytest.raises(ValueError):
            seq.index_of("z")

    def test_as_sequence_no_copy(self):
        seq = MessageSequence(["a"])
        assert as_sequence(seq) is seq
        assert as_sequence(["a"]) == seq


class TestConcat:
    """⊕ -- paper: seq1 followed by seq2."""

    def test_basic(self):
        assert MessageSequence("ab").concat(MessageSequence("cd")) == tuple("abcd")

    def test_with_iterable(self):
        assert MessageSequence("ab").concat(["c"]) == tuple("abc")

    def test_identity_with_empty(self):
        seq = MessageSequence("abc")
        assert seq.concat(EMPTY) == seq
        assert EMPTY.concat(seq) == seq

    def test_append(self):
        assert MessageSequence("ab").append("c") == tuple("abc")

    def test_overlap_keeps_first_occurrence(self):
        assert MessageSequence("ab").concat(MessageSequence("bc")) == tuple("abc")


class TestSubtract:
    """⊖ -- paper: all messages of seq1 not in seq2, order kept."""

    def test_basic(self):
        assert MessageSequence("abcd").subtract(MessageSequence("bd")) == tuple("ac")

    def test_subtract_everything(self):
        assert MessageSequence("ab").subtract(MessageSequence("ab")) == EMPTY

    def test_subtract_nothing(self):
        seq = MessageSequence("ab")
        assert seq.subtract(EMPTY) == seq

    def test_subtract_disjoint(self):
        seq = MessageSequence("ab")
        assert seq.subtract(MessageSequence("xy")) == seq

    def test_subtract_iterable(self):
        assert MessageSequence("abc").subtract({"b"}) == tuple("ac")


class TestCommonPrefix:
    """⊓ -- paper: longest common prefix."""

    def test_identical(self):
        assert common_prefix(MessageSequence("abc"), MessageSequence("abc")) == tuple("abc")

    def test_proper_prefix(self):
        assert common_prefix(MessageSequence("ab"), MessageSequence("abcd")) == tuple("ab")

    def test_divergent(self):
        assert common_prefix(MessageSequence("abc"), MessageSequence("abd")) == tuple("ab")

    def test_no_common(self):
        assert common_prefix(MessageSequence("abc"), MessageSequence("xyz")) == EMPTY

    def test_with_empty(self):
        assert common_prefix(MessageSequence("abc"), EMPTY) == EMPTY

    def test_three_sequences(self):
        result = common_prefix(
            MessageSequence("abcd"), MessageSequence("abce"), MessageSequence("abx")
        )
        assert result == tuple("ab")

    def test_single_argument(self):
        assert common_prefix(MessageSequence("abc")) == tuple("abc")

    def test_no_arguments(self):
        assert common_prefix() == EMPTY

    def test_stops_at_first_divergence_of_any_argument(self):
        a = MessageSequence("abcdef")
        assert common_prefix(a, MessageSequence("abcxef"), a) == tuple("abc")
        assert common_prefix(a, a, MessageSequence("ab")) == tuple("ab")
        assert common_prefix(a, MessageSequence("xbcdef")) == EMPTY

    def test_accepts_raw_iterables(self):
        assert common_prefix(("a", "b"), ("a", "c")) == ("a",)


class TestMergeDedup:
    """⊎ -- paper: append all sequences, removing duplicates."""

    def test_single(self):
        assert merge_dedup(MessageSequence("ab")) == tuple("ab")

    def test_disjoint(self):
        assert merge_dedup(MessageSequence("ab"), MessageSequence("cd")) == tuple("abcd")

    def test_overlapping_first_wins(self):
        assert merge_dedup(MessageSequence("ab"), MessageSequence("bc")) == tuple("abc")

    def test_recursive_definition(self):
        # ⊎(s1, s2, s3) = ⊎(⊎(s1, s2), s3) per the paper's recursion.
        s1, s2, s3 = MessageSequence("ab"), MessageSequence("bc"), MessageSequence("ca")
        assert merge_dedup(s1, s2, s3) == merge_dedup(merge_dedup(s1, s2), s3)

    def test_empty_args(self):
        assert merge_dedup() == EMPTY
        assert merge_dedup(EMPTY, EMPTY) == EMPTY


class TestPrefixPredicates:
    def test_is_prefix_of(self):
        assert MessageSequence("ab").is_prefix_of(MessageSequence("abc"))
        assert MessageSequence("abc").is_prefix_of(MessageSequence("abc"))
        assert not MessageSequence("abc").is_prefix_of(MessageSequence("ab"))
        assert not MessageSequence("ax").is_prefix_of(MessageSequence("abc"))
        assert EMPTY.is_prefix_of(MessageSequence("a"))

    def test_starts_with(self):
        assert MessageSequence("abc").starts_with(MessageSequence("ab"))

    def test_prefix_to_suffix_from(self):
        seq = MessageSequence("abcd")
        assert seq.prefix_to(2) == tuple("ab")
        assert seq.suffix_from(2) == tuple("cd")
        assert seq.prefix_to(0) == EMPTY

    def test_slices_are_full_sequences(self):
        # Slices skip the dedup constructor; membership, further
        # operators and out-of-range bounds must behave all the same.
        seq = MessageSequence("abcdef")
        for part in (seq.prefix_to(3), seq[:3], seq.prefix_to(99).prefix_to(3)):
            assert part == tuple("abc")
            assert "c" in part and "d" not in part
            assert part.concat("cx") == tuple("abcx")
            assert seq.subtract(part) == tuple("def")
        assert seq.suffix_from(4) == seq[4:] == tuple("ef")
        assert seq.suffix_from(99) == EMPTY
        assert seq[::-2] == tuple("fdb")
        assert "e" not in seq[::-2]


class TestSequenceLog:
    """The append-only counterpart used for R_delivered / O_delivered."""

    def test_grows_in_place_and_reads_like_a_sequence(self):
        log = SequenceLog()
        assert not log and len(log) == 0 and log == () and log.items == ()
        for item in ("m1", "m2", "m3"):
            log.append(item)
        assert log and len(log) == 3
        assert list(log) == ["m1", "m2", "m3"]
        assert "m2" in log and "m9" not in log
        assert log == ("m1", "m2", "m3") == tuple(log.items)
        assert log == ["m1", "m2", "m3"]
        assert log == MessageSequence(["m1", "m2", "m3"])
        assert log != ("m1", "m2")
        assert repr(log) == "{m1;m2;m3}"

    def test_append_keeps_first_occurrence(self):
        log = SequenceLog()
        for item in "abab":
            log.append(item)
        assert log == ("a", "b")

    def test_keeps_append_order_first_occurrence_and_membership(self):
        log = SequenceLog()
        for item in "zxzyx":
            log.append(item)
        assert list(log) == ["z", "x", "y"] and len(log) == 3
        assert all(item in log for item in "xyz") and "w" not in log
        assert log.snapshot().subtract(["x"]) == ("z", "y")
        assert MessageSequence("wxyz").subtract(log) == ("w",)

    #: Bytes one entry of a 10 000-entry log holds, by interpreter: the
    #: entry's share of one dict, which reads 29.5 B on CPython 3.10 and
    #: 20.8 on 3.11 to 3.13.  A position int and a list slot beside each
    #: entry add about 36 B (65.3 and 56.5).
    ENTRY_BYTES_CEILING = {"3.10": 32.0, "3.11": 24.0, "3.12": 24.0, "3.13": 24.0}

    def test_an_entry_costs_one_dict_slot(self):
        items = [f"c1:{index}" for index in range(10_000)]
        log = SequenceLog()
        tracing = tracemalloc.is_tracing()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            for item in items:
                log.append(item)
            held = tracemalloc.get_traced_memory()[0] - before
        finally:
            if not tracing:
                tracemalloc.stop()
        assert len(log) == len(items)
        python = f"{sys.version_info.major}.{sys.version_info.minor}"
        assert held / len(items) <= self.ENTRY_BYTES_CEILING.get(python, 32.0)

    def test_snapshot_is_an_independent_value(self):
        log = SequenceLog()
        log.append("m1")
        log.append("m2")
        value = log.snapshot()
        assert isinstance(value, MessageSequence)
        log.append("m3")
        assert value == ("m1", "m2")
        assert value.concat(["m9"]).subtract(["m1"]) == ("m2", "m9")
        assert log.snapshot().is_prefix_of(MessageSequence(["m1", "m2", "m3", "m4"]))

    def test_clear_restarts_positions(self):
        log = SequenceLog()
        log.append("a")
        log.append("b")
        log.clear()
        assert log == () and "a" not in log
        log.append("b")
        log.append("a")
        assert list(log) == ["b", "a"]

    def test_is_not_hashable(self):
        with pytest.raises(TypeError):
            hash(SequenceLog())


class TestPaperIdentities:
    """Spot-checks of the identities the proofs rely on."""

    def test_undo_legality_shape(self):
        # (O ⊖ Bad) ⊕ Bad == O when Bad is a suffix of O.
        o = MessageSequence(["m1", "m2", "m3", "m4"])
        bad = MessageSequence(["m3", "m4"])
        assert o.subtract(bad).concat(bad) == o

    def test_line9_unordered_computation(self):
        # (R_delivered ⊖ A_delivered) ⊖ O_delivered.
        r = MessageSequence(["m1", "m2", "m3", "m4", "m5"])
        a = MessageSequence(["m1"])
        o = MessageSequence(["m2", "m3"])
        assert r.subtract(a).subtract(o) == ("m4", "m5")
