import os
import random

import pytest

import dnabwt.cli as cli
from dnabwt import WordCollection, Config, build, naive_bwt
from dnabwt.cli import first_mismatch, main, verify_collection


def _write_fasta(path, words):
    with open(path, "w") as fh:
        for i, w in enumerate(words):
            fh.write(f">s{i}\n{w}\n")


def test_cmd_build_writes_transform(tmp_path, capsys):
    words = ["GATTACA", "CCT", "AAAA"]
    inp, outp = tmp_path / "in.fasta", tmp_path / "out.bwt"
    _write_fasta(inp, words)
    rc = main(["build", "--input", str(inp), "--output", str(outp), "--backend", "memory"])
    assert rc == 0
    data = outp.read_bytes()
    c = WordCollection.from_words(words)
    assert len(data) == c.total_length
    assert data == naive_bwt(c)
    report = capsys.readouterr().out
    assert "wall_seconds" in report and "output_bytes" in report


def test_cmd_build_report_tsv(tmp_path, capsys):
    inp, outp = tmp_path / "in.fasta", tmp_path / "out.bwt"
    _write_fasta(inp, ["ACGT"])
    rc = main(["build", "--input", str(inp), "--output", str(outp), "--backend", "memory",
               "--report", "tsv"])
    assert rc == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 2
    assert len(lines[0].split("\t")) == len(lines[1].split("\t"))


def test_cmd_build_kappa_invariance(tmp_path):
    words = ["".join(random.Random(i).choice("ACGT") for _ in range(20)) for i in range(12)]
    inp = tmp_path / "in.fasta"
    _write_fasta(inp, words)
    outs = []
    for kappa in (5, 8):
        outp = tmp_path / f"out{kappa}.bwt"
        assert main(["build", "--input", str(inp), "--output", str(outp),
                     "--backend", "memory", "--kappa", str(kappa)]) == 0
        outs.append(outp.read_bytes())
    assert outs[0] == outs[1]


def test_cmd_build_thread_invariance(tmp_path):
    words = ["".join(random.Random(i + 50).choice("ACGT") for _ in range(25)) for i in range(8)]
    inp = tmp_path / "in.fasta"
    _write_fasta(inp, words)
    outs = []
    for threads in ("1", "4"):
        outp = tmp_path / f"out_t{threads}.bwt"
        assert main(["build", "--input", str(inp), "--output", str(outp),
                     "--threads", threads, "--tmp-dir", str(tmp_path)]) == 0
        outs.append(outp.read_bytes())
    assert outs[0] == outs[1]


def test_cmd_build_external_leaves_tmp_dir_empty(tmp_path):
    inp, outp, scratch = tmp_path / "in.fasta", tmp_path / "out.bwt", tmp_path / "scratch"
    _write_fasta(inp, ["GATTACA", "CCT", "AAAA"])
    scratch.mkdir()
    assert main(["build", "--input", str(inp), "--output", str(outp),
                 "--backend", "external", "--tmp-dir", str(scratch)]) == 0
    assert outp.read_bytes() == naive_bwt(WordCollection.from_words(["GATTACA", "CCT", "AAAA"]))
    assert list(scratch.iterdir()) == []


def test_cmd_build_unwritable_output_fails_before_building(tmp_path, capsys, monkeypatch):
    calls = []

    def run(self, inspect=None):
        calls.append(self)
        raise AssertionError("the build must not start")

    monkeypatch.setattr(cli.BwtBuilder, "run", run)
    inp = tmp_path / "in.fasta"
    _write_fasta(inp, ["GATTACA", "CCT"])
    rc = main(["build", "--input", str(inp), "--output", str(tmp_path / "no_such_dir" / "out.bwt"),
               "--backend", "memory"])
    assert rc == 2
    assert capsys.readouterr().err.startswith("error:")
    assert calls == []


def test_cmd_build_disk_error_is_reported_and_cleaned_up(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(os, "pwrite", lambda fd, data, offset: 0)
    inp, outp, scratch = tmp_path / "in.fasta", tmp_path / "out.bwt", tmp_path / "scratch"
    _write_fasta(inp, ["GATTACA", "CCT", "AAAA"])
    scratch.mkdir()
    rc = main(["build", "--input", str(inp), "--output", str(outp),
               "--backend", "external", "--tmp-dir", str(scratch)])
    assert rc == 2
    assert capsys.readouterr().err.startswith("error: bucket ")
    assert list(scratch.iterdir()) == []
    assert not outp.exists()


def test_cmd_verify_passes_on_small_corpus(tmp_path, capsys):
    inp = tmp_path / "in.fasta"
    _write_fasta(inp, ["GATTACA", "TTT"])
    rc = main(["verify", "--input", str(inp), "--backend", "memory"])
    assert rc == 0
    out = capsys.readouterr().out
    assert out.count("pass") == 2


def test_cmd_verify_guard_refuses_large_input(tmp_path, capsys):
    inp = tmp_path / "in.fasta"
    _write_fasta(inp, ["ACGT" * 100])
    rc = main(["verify", "--input", str(inp), "--max-oracle-symbols", "10"])
    assert rc == 2
    assert "raise --max-oracle-symbols" in capsys.readouterr().err


def test_verify_corruption_negative_control(monkeypatch):
    def corrupt_build(collection, config):
        built = bytearray(build(collection, config))
        built[3] ^= 1
        return bytes(built)

    monkeypatch.setattr(cli, "build", corrupt_build)
    c = WordCollection.from_words(["GATTACA", "TTT"])
    ok, lines = verify_collection(c, Config(kappa=4, backend="memory"))
    assert not ok
    assert any("mismatch at offset 3" in line for line in lines)


def test_first_mismatch():
    assert first_mismatch(b"ABC", b"ABC") is None
    assert first_mismatch(b"ABC", b"AXC") == 1
    assert first_mismatch(b"ABC", b"ABCD") == 3


def test_cmd_invert_round_trip(tmp_path, capsys):
    words = ["GATTACA", "CCT", "AAAA"]
    inp, bwt, rec = tmp_path / "in.fasta", tmp_path / "out.bwt", tmp_path / "rec.txt"
    _write_fasta(inp, words)
    assert main(["build", "--input", str(inp), "--output", str(bwt), "--backend", "memory"]) == 0
    assert main(["invert", "--input", str(bwt), "--output", str(rec)]) == 0
    assert rec.read_bytes() == ("\n".join(words) + "\n").encode()


def test_cmd_invert_unwritable_output_fails_before_inverting(tmp_path, capsys, monkeypatch):
    calls = []

    def invert(data, m):
        calls.append(m)
        raise AssertionError("the inversion must not start")

    monkeypatch.setattr(cli.oracle, "invert", invert)
    bwt = tmp_path / "in.bwt"
    bwt.write_bytes(build(WordCollection.from_words(["GATTACA", "CCT"]), Config(kappa=3, backend="memory")))
    rc = main(["invert", "--input", str(bwt), "--output", str(tmp_path / "no_such_dir" / "words.txt")])
    assert rc == 2
    assert capsys.readouterr().err.startswith("error:")
    assert calls == []


def test_cmd_invert_invalid_transform_leaves_no_output(tmp_path, capsys):
    bwt, rec = tmp_path / "bad.bwt", tmp_path / "words.txt"
    bwt.write_bytes(b"ACGN$A$")
    rc = main(["invert", "--input", str(bwt), "--output", str(rec)])
    assert rc == 1
    assert capsys.readouterr().err.startswith("error: transform contains bytes outside")
    assert not rec.exists()


@pytest.mark.parametrize("command", ["build", "invert"])
def test_output_over_the_input_is_refused(tmp_path, capsys, command):
    # opening the output first would truncate the input, and a failed
    # inversion would then remove it
    inp = tmp_path / "in"
    if command == "build":
        _write_fasta(inp, ["GATTACA", "CCT"])
    else:
        inp.write_bytes(b"ACGN$A$")
    before = inp.read_bytes()
    for output in (inp, tmp_path / "link"):
        if output != inp:
            output.symlink_to(inp)
        rc = main([command, "--input", str(inp), "--output", str(output)]
                  + (["--backend", "memory"] if command == "build" else []))
        assert rc == 2
        assert capsys.readouterr().err.startswith("error: --output ")
        assert inp.read_bytes() == before


def test_cmd_bench_row_contract(tmp_path, capsys):
    rng = random.Random(60)
    words = ["".join(rng.choice("ACGT") for _ in range(150)) for _ in range(300)]
    inp = tmp_path / "reads.txt"
    inp.write_text("\n".join(words) + "\n")
    rc = main(["bench", "--input", str(inp), "--backend", "memory", "--kappa-range", "3:8"])
    assert rc == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 7  # header + one row per kappa
    buckets = [int(row.split("\t")[1]) for row in lines[1:]]
    assert buckets == [2 ** k for k in range(3, 9)]


@pytest.mark.parametrize("kappa_range", ["8:3", "18:20", "2:5", "0", "20"])
def test_cmd_bench_rejects_bad_kappa_range(tmp_path, capsys, kappa_range):
    inp = tmp_path / "reads.txt"
    inp.write_text("ACGT\n")
    with pytest.raises(SystemExit) as exc:
        main(["bench", "--input", str(inp), "--backend", "memory", "--kappa-range", kappa_range])
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert "--kappa-range" in err and "lo <= hi" in err


def test_cmd_selftest(capsys):
    rc = main(["selftest", "--count", "5", "--seed", "1"])
    assert rc == 0
    assert "5/5 cases passed" in capsys.readouterr().out


def test_cli_reports_parse_errors_cleanly(tmp_path, capsys):
    inp = tmp_path / "bad.fasta"
    inp.write_text(">a\nAXC\n")
    rc = main(["verify", "--input", str(inp)])
    assert rc == 2
    assert "error:" in capsys.readouterr().err
