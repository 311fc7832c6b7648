import io
import random

import numpy as np
import pytest

from dnabwt import IngestPolicy, ParseError, WordCollection, detect_format, parse_sequences
from reference import start_iteration, symbol_at, to_raw_lines


def test_parse_single_fasta_record():
    c = parse_sequences(b">r1\nACGT\n", IngestPolicy(format="fasta"))
    assert c.m == 1
    assert c.max_length == 4
    assert c.words() == [b"ACGT"]
    assert c.total_length == 5


def test_parse_fasta_drop_char_removes_ambiguous_bases():
    c = parse_sequences(b">a\nANC\n>b\nGG\n", IngestPolicy(format="fasta"))
    assert c.words() == [b"AC", b"GG"]
    assert c.m == 2
    assert c.max_length == 2


def test_parse_fasta_multiline_and_lowercase():
    c = parse_sequences(b">a\nacg\nT\n>b\nc\n", IngestPolicy(format="fasta"))
    assert c.words() == [b"ACGT", b"C"]


def test_parse_drop_record_discards_whole_record():
    pol = IngestPolicy(ambiguous_handling="drop-record", format="fasta")
    c = parse_sequences(b">a\nANC\n>b\nGG\n", pol)
    assert c.words() == [b"GG"]


def test_parse_fail_policy_reports_line_number():
    pol = IngestPolicy(ambiguous_handling="fail", format="fasta")
    with pytest.raises(ParseError, match="line 4"):
        parse_sequences(b">a\nAC\n>b\nGNG\n", pol)


def test_parse_invalid_character_reports_line_number():
    with pytest.raises(ParseError, match="line 2"):
        parse_sequences(b">a\nAXC\n", IngestPolicy(format="fasta"))


def test_parse_rejects_empty_collection_and_empty_words():
    with pytest.raises(ParseError):
        parse_sequences(b"", IngestPolicy(format="fasta"))
    with pytest.raises(ParseError, match="empty sequence"):
        parse_sequences(b">a\n>b\nAC\n", IngestPolicy(format="fasta"))
    # a record emptied by drop-char escalates to dropping the record
    c = parse_sequences(b">a\nNNN\n>b\nAC\n", IngestPolicy(format="fasta"))
    assert c.words() == [b"AC"]
    with pytest.raises(ParseError):
        parse_sequences(b">a\nNNN\n", IngestPolicy(format="fasta"))


def test_parse_fastq_ignores_quality_and_validates_structure():
    data = b"@r1\nACGT\n+\nIIII\n@r2\nGG\n+r2\nII\n"
    c = parse_sequences(data, IngestPolicy(format="fastq"))
    assert c.words() == [b"ACGT", b"GG"]
    with pytest.raises(ParseError, match="line 3"):
        parse_sequences(b"@r1\nACGT\nIIII\n+\n", IngestPolicy(format="fastq"))
    with pytest.raises(ParseError, match="line 4"):
        parse_sequences(b"@r1\nACGT\n+\nIII\n", IngestPolicy(format="fastq"))
    with pytest.raises(ParseError, match="truncated"):
        parse_sequences(b"@r1\nACGT\n+\n", IngestPolicy(format="fastq"))


def _reference_fastq_parse(data: bytes, ambiguous: str) -> list[bytes]:
    # independent line-by-line parse used as the comparison oracle
    lines = [ln.strip() for ln in data.split(b"\n") if ln.strip()]
    words = []
    for i in range(0, len(lines), 4):
        seq = lines[i + 1].upper()
        kept = bytes(ch for ch in seq if ch in b"ACGT")
        has_amb = len(kept) != len(seq)
        if ambiguous == "drop-record" and has_amb:
            continue
        if kept:
            words.append(kept)
    return words


@pytest.mark.parametrize("ambiguous", ["drop-char", "drop-record"])
def test_parse_random_fastq_matches_reference_parser(ambiguous):
    rng = random.Random(50)
    chunks = []
    for i in range(50):
        seq = "".join(rng.choice("ACGTacgtN") for _ in range(rng.randint(1, 120)))
        chunks.append(f"@read{i}\n{seq}\n+\n{'I' * len(seq)}\n")
    data = "".join(chunks).encode()
    expected = _reference_fastq_parse(data, ambiguous)
    got = parse_sequences(data, IngestPolicy(ambiguous_handling=ambiguous, format="fastq"))
    assert got.words() == expected


def test_parse_raw_lines_skips_blanks():
    c = parse_sequences(b"ACGT\n\nTT\n", IngestPolicy(format="raw-lines"))
    assert c.words() == [b"ACGT", b"TT"]


def test_parse_handles_crlf_line_endings():
    c = parse_sequences(b">a\r\nACG\r\nT\r\n>b\r\nCC\r\n", IngestPolicy(format="fasta"))
    assert c.words() == [b"ACGT", b"CC"]
    q = parse_sequences(b"@r\r\nACGT\r\n+\r\nIIII\r\n", IngestPolicy(format="fastq"))
    assert q.words() == [b"ACGT"]


def test_detect_format():
    assert detect_format(b">x\nAC\n") == "fasta"
    assert detect_format(b"@x\nAC\n+\nII\n") == "fastq"
    assert detect_format(b"ACGT\n") == "raw-lines"
    assert detect_format(b"  \n>x\nAC\n") == "fasta"


def test_symbol_at_right_aligned_view():
    c = WordCollection.from_words(["ACG", "TTTTT"])
    assert c.max_length == 5
    assert symbol_at(c, 0, 2) == "G"
    assert symbol_at(c, 0, 4) == "A"
    assert symbol_at(c, 0, 5) == "$"
    with pytest.raises(IndexError):
        symbol_at(c, 0, 1)
    with pytest.raises(IndexError):
        symbol_at(c, 0, 6)


def test_start_iteration():
    c = WordCollection.from_words(["ACGTACGTAC", "TTT"])
    assert c.max_length == 10
    assert start_iteration(c, 0) == 0
    assert start_iteration(c, 1) == 7
    equal = WordCollection.from_words(["ACG", "TGA", "CCC"])
    assert [start_iteration(equal, j) for j in range(3)] == [0, 0, 0]


def test_right_aligned_sequence_is_reverse_of_word():
    rng = random.Random(3)
    for _ in range(30):
        words = ["".join(rng.choice("ACGT") for _ in range(rng.randint(1, 20)))
                 for _ in range(rng.randint(1, 8))]
        c = WordCollection.from_words(words)
        for j, w in enumerate(words):
            seq = "".join(
                symbol_at(c, j, t) for t in range(start_iteration(c, j), c.max_length)
            )
            assert seq == w[::-1]
            assert symbol_at(c, j, c.max_length) == "$"
        # the batch fetch of dense rounds equals the scalar one of sparse rounds
        for t in range(c.max_length):
            js = np.flatnonzero(c.max_length - c.lengths <= t)
            assert c.fetch_codes(js, t).tolist() == [c.fetch_code(j, t) for j in js.tolist()]


def test_parse_is_idempotent_on_serialised_collection():
    rng = random.Random(4)
    for _ in range(20):
        words = ["".join(rng.choice("ACGT") for _ in range(rng.randint(1, 25)))
                 for _ in range(rng.randint(1, 10))]
        c = WordCollection.from_words(words)
        data = to_raw_lines(c)
        c2 = parse_sequences(data, IngestPolicy(format="raw-lines"))
        assert to_raw_lines(c2) == data


def test_from_words_validates():
    with pytest.raises(ParseError):
        WordCollection.from_words([])
    with pytest.raises(ParseError):
        WordCollection.from_words(["AC", ""])
    with pytest.raises(ParseError):
        WordCollection.from_words(["ACX"])


def test_word_order_is_preserved():
    words = ["TT", "A", "GGG", "A"]
    c = WordCollection.from_words(words)
    assert c.words() == [w.encode() for w in words]
