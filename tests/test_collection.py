import io
import random
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dnabwt.collection as collection
from dnabwt import IngestPolicy, ParseError, WordCollection, detect_format, parse_sequences
from dnabwt.buckets import context_symbols
from dnabwt.collection import FORMATS, _pack, _unpack
from reference import bucket_offsets, start_iteration, symbol_at, to_raw_lines


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


def _reference_parse(data: bytes, fmt: str, ambiguous: str) -> list[bytes] | str:
    """Independent line-by-line parse used as the comparison oracle: the
    words, or the message of the first error the parser must raise."""
    lines = [raw.strip() for raw in data.split(b"\n")]
    records = []  # (first line number, [(line number, sequence line)])
    if fmt == "fasta":
        for ln, line in enumerate(lines, 1):
            if line.startswith(b">"):
                records.append((ln, []))
            elif line and not records:
                return f"line {ln}: sequence data before first '>' header"
            elif line:
                records[-1][1].append((ln, line))
    elif fmt == "fastq":
        while lines and not lines[-1]:
            lines.pop()
        if len(lines) % 4:
            return f"line {len(lines)}: truncated FASTQ record"
        for ln in range(1, len(lines), 4):
            header, seq, plus, qual = lines[ln - 1 : ln + 3]
            if not header.startswith(b"@"):
                return f"line {ln}: expected '@' FASTQ header"
            if not plus.startswith(b"+"):
                return f"line {ln + 2}: expected '+' separator"
            if len(qual) != len(seq):
                return f"line {ln + 3}: quality length differs from sequence"
            records.append((ln, [(ln + 1, seq)]))
    else:
        records = [(ln, [(ln, line)]) for ln, line in enumerate(lines, 1) if line]
    if not records:
        return "input contains no sequence records"
    for ln, seqs in records:
        if not b"".join(s for _, s in seqs):
            return f"line {ln}: record has an empty sequence"
    for _, seqs in records:
        for ln, s in seqs:
            if any(ch not in b"ACGTNRYSWKMBDHVU" for ch in s.upper()):
                return f"line {ln}: invalid sequence character"
    words = []
    for _, seqs in records:
        word, ambiguous_seen = b"", False
        for ln, s in seqs:
            for ch in s.upper():
                if ch in b"ACGT":
                    word += bytes([ch])
                elif ambiguous == "fail":
                    return f"line {ln}: ambiguous base with policy 'fail'"
                else:
                    ambiguous_seen = True
        if word and not (ambiguous_seen and ambiguous == "drop-record"):
            words.append(word)
    return words or "no sequence records survived the ambiguity policy"


def _parse_or_error(data: bytes, fmt: str, ambiguous: str) -> list[bytes] | str:
    try:
        return parse_sequences(data, IngestPolicy(ambiguous, fmt)).words()
    except ParseError as exc:
        return str(exc)


def _random_input(rng: random.Random, fmt: str) -> bytes:
    """Mostly well-formed ``fmt`` input with blank and whitespace-only lines,
    padded lines, CRLF ends and N, R and X bytes; now and then sequence data
    before the first header, an empty record or a short FASTQ file."""
    def seq():
        alphabet = "ACGTacgtNRnX" if rng.random() < 0.3 else "ACGTacgt"
        return "".join(rng.choice(alphabet) for _ in range(rng.choice([0, 1, 3, 8, 20])))

    lines = []
    if fmt == "fasta":
        if rng.random() < 0.1:
            lines.append(seq())
        for i in range(rng.randint(0, 5)):
            lines.append(f">r{i}")
            lines += [seq() for _ in range(rng.choice([0, 1, 1, 1, 2, 3]))]
    elif fmt == "fastq":
        for i in range(rng.randint(0, 5)):
            s = seq()
            qual = "I" * (len(s) + (rng.random() < 0.05))
            lines += [rng.choice([f"@r{i}"] * 19 + ["r"]), s, rng.choice(["+"] * 19 + ["-"]), qual]
        if rng.random() < 0.1:
            del lines[rng.randrange(len(lines) + 1):]
    else:
        lines = [seq() for _ in range(rng.randint(0, 6))]
    for _ in range(rng.choice([0, 0, 1, 2])):
        lines.insert(rng.randrange(len(lines) + 1), rng.choice(["", " ", "\t", " \t\r"]))
    lines = [f" {ln}\t" if rng.random() < 0.1 else ln for ln in lines]
    return "".join(ln + rng.choice(["\n", "\r\n"]) for ln in lines).encode()


@pytest.mark.parametrize("ambiguous", ["drop-char", "drop-record", "fail"])
def test_parse_random_fastq_matches_reference_parser(ambiguous):
    rng = random.Random(50)
    chunks = []
    for i in range(50):
        seq = "".join(rng.choice("ACGTacgtN") for _ in range(rng.randint(1, 120)))
        chunks.append(f"@read{i}\n{seq}\n+\n{'I' * len(seq)}\n")
    data = "".join(chunks).encode()
    expected = _reference_parse(data, "fastq", ambiguous)
    assert _parse_or_error(data, "fastq", ambiguous) == expected
    # random inputs of all three formats, with the faults the parser reports,
    # read in chunks of the default size and of sizes that cut every record,
    # CRLF and FASTQ group
    cases = []
    for _ in range(400):
        fmt = rng.choice(FORMATS)
        cases.append((fmt, _random_input(rng, fmt)))
    for chunk in (1, 7, 64, collection._PARSE_CHUNK):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(collection, "_PARSE_CHUNK", chunk)
            for fmt, data in cases:
                expected = _reference_parse(data, fmt, ambiguous)
                assert _parse_or_error(data, fmt, ambiguous) == expected, (chunk, data)


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
    assert detect_format(b"\n" * 5000 + b">a\nACGT\n") == "fasta"
    # blank as bytes.strip has it, vertical tab and form feed included
    assert detect_format(b"\x0b>a\nACGT\n") == "fasta"
    assert parse_sequences(b"\x0b>a\nACGT\n", IngestPolicy(format="fasta")).words() == [b"ACGT"]
    assert detect_format(b"\x0c@r\nAC\n+\nII\n") == "fastq"


def test_detect_format_reads_a_stream_to_its_first_non_blank_byte(monkeypatch):
    # the first chunks are blank, and the stream is left where it was
    monkeypatch.setattr(collection, "_PARSE_CHUNK", 4)
    stream = io.BytesIO(b">r0\nAC\n" + b" \t\r\n\n" * 5 + b">r1\nGT\n")
    stream.seek(7)
    assert detect_format(stream) == "fasta"
    assert stream.tell() == 7
    assert parse_sequences(stream, IngestPolicy(format="fasta")).words() == [b"GT"]
    assert detect_format(io.BytesIO(b" \n" * 9)) == "raw-lines"


def _write_generated(path, fmt: str, size: int) -> int:
    """About ``size`` bytes of 150 bp reads with 1% N; returns the count."""
    rng = np.random.default_rng(11)
    n = size // (160 if fmt == "fasta" else 310)
    seqs = np.frombuffer(b"ACGTN", dtype=np.uint8)[rng.choice(5, (n, 150), p=[0.2475] * 4 + [0.01])]
    rows = [np.broadcast_to(np.frombuffer(b">r\n" if fmt == "fasta" else b"@r\n", dtype=np.uint8), (n, 3)),
            seqs, np.full((n, 1), ord("\n"), dtype=np.uint8)]
    if fmt == "fastq":
        rows.append(np.broadcast_to(np.frombuffer(b"+\n" + b"I" * 150 + b"\n", dtype=np.uint8), (n, 153)))
    np.concatenate(rows, axis=1).tofile(path)
    return n


@pytest.mark.parametrize("fmt", ["fasta", "fastq"])
def test_parse_of_an_open_file_holds_a_few_chunks_above_its_output(tmp_path, fmt):
    # the file, its lines and its joined sequence are never held whole: at
    # 2 and at 8 MB the traced peak above the collection stays under the
    # same multiple of the chunk
    for size in (2 << 20, 8 << 20):
        path = tmp_path / f"reads.{fmt}"
        n = _write_generated(path, fmt, size)
        with open(path, "rb") as fh:
            tracemalloc.start()
            try:
                c = parse_sequences(fh, IngestPolicy(format=detect_format(fh)))
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert c.m == n and c.max_length <= 150
        assert peak - len(c._bytes) - c._offsets.nbytes < 8 * collection._PARSE_CHUNK, (size, peak)


@pytest.mark.parametrize("codes, offsets, message", [
    # a code above T would bleed into its neighbours' bits when packed
    (np.array([0, 5, 1, 2], dtype=np.uint8), np.array([0, 4]), "code 5 at index 1 is not a base code"),
    # codes wider than a byte cannot be packed four to a byte
    (np.array([0, 1, 2, 3], dtype=np.int64), np.array([0, 4]), "codes must be uint8, got int64"),
    # offsets past the codes' end name codes that do not exist
    (np.array([0, 1, 2, 3], dtype=np.uint8), np.array([0, 2, 6]), "from 0 to the 4 codes, got 0 to 6"),
    # offsets that do not start at 0 leave codes outside every word
    (np.array([0, 1, 2, 3], dtype=np.uint8), np.array([1, 4]), "from 0 to the 4 codes, got 1 to 4"),
], ids=["code above T", "int64 codes", "offsets past the end", "offsets not from 0"])
def test_collection_refuses_codes_and_offsets_it_cannot_pack(codes, offsets, message):
    with pytest.raises(ParseError, match=message):
        WordCollection(codes, offsets)


def test_pack_round_trip():
    # every length up to 40 codes, so every partial tail quad, and one
    # length over several of _pack's pieces
    rng = np.random.default_rng(37)
    assert 40_003 > 4 * collection._PACK_PIECE
    for n in [*range(41), 40_003]:
        codes = rng.integers(0, 4, size=n, dtype=np.uint8)
        packed = _pack(codes)
        assert packed.dtype == np.uint8 and len(packed) == (n + 3) // 4
        assert _unpack(packed, n).tolist() == codes.tolist()
    assert _pack(np.array([1, 2, 3, 0, 3], dtype=np.uint8)).tolist() == [0b01101100, 0b11000000]


def test_pack_copies_no_codes_for_a_partial_quad():
    # a length that is not a multiple of four packs in the same peak memory,
    # and packing 20 M codes takes little more than its 5 MB result: the
    # parse-time peak must not grow with a faster pack
    codes = np.zeros(20_000_001, dtype=np.uint8)
    peaks = []
    for view in (codes[:-1], codes):
        tracemalloc.start()
        _pack(view)
        peaks.append(tracemalloc.get_traced_memory()[1])
        tracemalloc.stop()
    assert peaks[1] - peaks[0] < 1 << 20, peaks
    assert max(peaks) < 12 << 20, peaks


@st.composite
def _counted_collections(draw):
    """Words with duplicates, one-letter words and words shorter than the
    context, over one to four letters, and a count chunk of a few symbols
    or the build's own."""
    kappa = draw(st.integers(3, 19))
    letters = draw(st.sampled_from(["A", "C", "AC", "ACGT"]))
    word = st.text(alphabet=letters, min_size=1, max_size=draw(st.sampled_from([1, 2, 12])))
    words = draw(st.lists(word, min_size=1, max_size=8))
    words += draw(st.lists(st.sampled_from(words), max_size=4))
    return draw(st.permutations(words)), kappa, draw(st.sampled_from([4, 8, collection._COUNT_CHUNK]))


@settings(max_examples=300, deadline=None)
@given(case=_counted_collections())
def test_context_counts_match_bucket_offsets(case):
    words, kappa, chunk = case
    c = WordCollection.from_words(words)
    n_sym = context_symbols(kappa)
    expected = np.diff(np.append(bucket_offsets(c, kappa), c.total_length))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(collection, "_COUNT_CHUNK", chunk)
        assert c.context_counts(n_sym, 2 * n_sym - kappa).tolist() == expected.tolist()


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
