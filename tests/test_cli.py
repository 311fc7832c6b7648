import errno
import os
import random
import re

import pytest

import dnabwt.buckets as buckets
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
    assert "wall_seconds" in report and f"output_bytes: {c.total_length}" in report
    # the parse's time and peak come before the build's lines
    keys = [line.split(":")[0] for line in report.splitlines()]
    assert keys[:4] == ["words", "parse_seconds", "parse_peak_rss_mb", "output_bytes"]
    values = dict(line.split(": ") for line in report.splitlines())
    assert 0 < float(values["parse_peak_rss_mb"]) <= float(values["peak_rss_mb"])


def test_cmd_build_report_tsv(tmp_path, capsys):
    inp, outp = tmp_path / "in.fasta", tmp_path / "out.bwt"
    _write_fasta(inp, ["ACGT"])
    rc = main(["build", "--input", str(inp), "--output", str(outp), "--backend", "memory",
               "--report", "tsv"])
    assert rc == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 2
    assert len(lines[0].split("\t")) == len(lines[1].split("\t"))
    assert lines[0].split("\t")[:4] == ["words", "parse_seconds", "parse_peak_rss_mb", "output_bytes"]
    assert float(lines[1].split("\t")[1]) >= 0


@pytest.mark.parametrize("platform, maxrss", [("linux", 2048 * 1024), ("darwin", 2048 << 20)])
def test_peak_rss_reads_the_platform_unit(monkeypatch, platform, maxrss):
    # ru_maxrss is in KiB on Linux and in bytes on macOS
    import resource

    monkeypatch.setattr(resource, "getrusage", lambda who: resource.struct_rusage((0,) * 2 + (maxrss,) + (0,) * 13))
    monkeypatch.setattr(cli.sys, "platform", platform)
    assert cli._peak_rss_mb() == 2048.0


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


@pytest.mark.parametrize("command", ["build", "verify", "bench"])
def test_missing_tmp_dir_fails_before_the_parse(tmp_path, capsys, monkeypatch, command):
    # a --tmp-dir that is not a directory is refused before the input is
    # parsed: exit 2, one error line naming it, no output left and no
    # directory made
    parses = []
    monkeypatch.setattr(cli, "parse_sequences", lambda *a: parses.append(a))
    inp, outp, missing = tmp_path / "in.fasta", tmp_path / "out.bwt", tmp_path / "no_such_dir"
    _write_fasta(inp, ["GATTACA", "CCT"])
    argv = [command, "--input", str(inp), "--tmp-dir", str(missing)]
    rc = main(argv + (["--output", str(outp)] if command == "build" else []))
    assert rc == 2
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and err.startswith("error:") and str(missing) in err
    assert parses == []
    assert not outp.exists() and not missing.exists()


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
    # a write that fails in the compaction of the sparse rounds' content,
    # here at the terminator round, and one that fails in a dense round's
    # pass, after the compaction: exit 2, one error line, no bucket file
    # and no output left
    rng = random.Random(72)
    long_word = "".join(rng.choice("ACGT") for _ in range(60))
    shorts = ["".join(rng.choice("ACGT") for _ in range(8)) for _ in range(40)]
    real_compact = buckets.BucketStore._compact
    compacted = []
    monkeypatch.setattr(buckets.BucketStore, "_compact",
                        lambda self: real_compact(self) or compacted.append(self.sizes.sum()))
    for words, fails in ((["GATTACA", "CCT", "AAAA"], lambda: True), ([long_word, *shorts], lambda: bool(compacted))):
        real_pwrite = os.pwrite
        monkeypatch.setattr(os, "pwrite", lambda fd, data, offset: 0 if fails() else real_pwrite(fd, data, offset))
        inp, outp, scratch = tmp_path / "in.fasta", tmp_path / "out.bwt", tmp_path / "scratch"
        _write_fasta(inp, words)
        scratch.mkdir(exist_ok=True)
        rc = main(["build", "--input", str(inp), "--output", str(outp),
                   "--backend", "external", "--tmp-dir", str(scratch)])
        assert rc == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: bucket file ") and err[0].endswith("short write")
        assert list(scratch.iterdir()) == []
        assert not outp.exists()
        monkeypatch.setattr(os, "pwrite", real_pwrite)
    # the long word's 52 sparse rounds left content for the compaction to move
    assert compacted == [52]


def test_cmd_build_chunk_read_error_is_reported_and_cleaned_up(tmp_path, capsys, monkeypatch):
    # with more active words than a sparse round takes, every round is
    # dense and passes over the bucket file a window at a time: a failed
    # read there is one error line naming the file and the window's bytes,
    # and no bucket file is left
    def pread(fd, n, offset):
        raise OSError(errno.EIO, os.strerror(errno.EIO))

    monkeypatch.setattr(os, "pread", pread)
    rng = random.Random(71)
    inp, outp, scratch = tmp_path / "in.fasta", tmp_path / "out.bwt", tmp_path / "scratch"
    _write_fasta(inp, ["".join(rng.choice("ACGT") for _ in range(30)) for _ in range(40)])
    scratch.mkdir()
    rc = main(["build", "--input", str(inp), "--output", str(outp),
               "--backend", "external", "--tmp-dir", str(scratch)])
    assert rc == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and os.strerror(errno.EIO) in err[0]
    assert re.match(r"error: bucket file .*buckets\.bin, bytes \d+-\d+: ", err[0])
    assert list(scratch.iterdir()) == []
    assert not outp.exists()


@pytest.mark.skipif(not os.path.isdir("/proc/self/task"), reason="counts threads in Linux /proc")
def test_import_starts_no_blas_worker_thread():
    # no build makes a BLAS call, so importing dnabwt, and numpy with it,
    # leaves the process its one thread; an explicit setting is kept
    import subprocess
    import sys

    src = os.path.dirname(os.path.dirname(cli.__file__))
    code = "import os, dnabwt; print(len(os.listdir('/proc/self/task')), os.environ.get('OPENBLAS_NUM_THREADS'))"
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.split() == ["1", "1"]
    out = subprocess.run([sys.executable, "-c", code], env={**env, "OPENBLAS_NUM_THREADS": "2"},
                         capture_output=True, text=True, check=True)
    assert out.stdout.split()[1] == "2"


def test_import_lets_glibc_raise_its_malloc_thresholds():
    # importing dnabwt frees one large mapped block, which raises glibc's
    # mmap and trim thresholds by glibc's own rule, so that arrays of 1 MiB
    # made and dropped again and again reuse heap pages: 50 rounds of eight
    # fault about 100,000 pages when each is mapped afresh
    import subprocess
    import sys

    try:
        glibc = os.confstr("CS_GNU_LIBC_VERSION")
    except (AttributeError, ValueError, OSError):
        glibc = None
    if not glibc:
        pytest.skip("the threshold rule is glibc's")
    src = os.path.dirname(os.path.dirname(cli.__file__))
    code = ("import resource, dnabwt, numpy as np\n"
            "before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt\n"
            "for _ in range(50):\n"
            "    arrays = [np.ones(1 << 20, dtype=np.uint8) for _ in range(8)]\n"
            "    del arrays\n"
            "print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)\n")
    env = {k: v for k, v in os.environ.items() if not k.startswith("MALLOC_")}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert int(out.stdout) < 10_000


def test_cmd_build_full_disk_fails_before_round_0(tmp_path, capsys, monkeypatch):
    # the external store allocates its one file before round 0, so a disk
    # too small for the buckets fails there, naming the bytes asked for: one
    # error line, no round run, and no output or bucket file left
    def fallocate(fd, offset, length):
        raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

    rounds = []
    monkeypatch.setattr(os, "posix_fallocate", fallocate)
    monkeypatch.setattr(cli.BwtBuilder, "activate_new_words", lambda *a: rounds.append(a))
    inp, outp, scratch = tmp_path / "in.fasta", tmp_path / "out.bwt", tmp_path / "scratch"
    _write_fasta(inp, ["GATTACA", "CCT", "AAAA"])
    scratch.mkdir()
    rc = main(["build", "--input", str(inp), "--output", str(outp),
               "--backend", "external", "--tmp-dir", str(scratch)])
    assert rc == 2
    err = capsys.readouterr().err
    assert re.fullmatch(r"error: \S+: cannot allocate [\d,]+ bytes for the buckets: .*No space left on device\n",
                        err)
    assert rounds == []
    assert list(scratch.iterdir()) == []
    assert not outp.exists()


def test_cmd_build_external_without_posix_fallocate(tmp_path, capsys, monkeypatch):
    # where the C library lacks posix_fallocate, as on macOS, os has no such
    # name: the external store then sizes its file with os.ftruncate, the
    # build writes the memory backend's bytes, and --tmp-dir is left empty
    monkeypatch.delattr(os, "posix_fallocate")
    rng = random.Random(81)
    words = ["".join(rng.choice("ACGT") for _ in range(rng.randint(1, 60))) for _ in range(80)]
    inp, scratch = tmp_path / "in.fasta", tmp_path / "scratch"
    _write_fasta(inp, words)
    scratch.mkdir()
    outs = []
    for backend in ("external", "memory"):
        outp = tmp_path / f"{backend}.bwt"
        assert main(["build", "--input", str(inp), "--output", str(outp), "--backend", backend,
                     "--tmp-dir", str(scratch)]) == 0
        outs.append(outp.read_bytes())
    assert outs[0] == outs[1] == naive_bwt(WordCollection.from_words(words))
    assert list(scratch.iterdir()) == []


def test_cmd_build_slots_too_large_for_memory_fail_before_round_0(tmp_path, capsys, monkeypatch):
    # the memory store allocates its slots before round 0, so sizes too
    # large for RAM fail there, naming the bytes asked for: one error line,
    # no round run and no output left
    counts = WordCollection.context_counts

    def huge(self, n_sym, drop):
        out = counts(self, n_sym, drop)
        out[0] = 1 << 62
        return out

    rounds = []
    monkeypatch.setattr(WordCollection, "context_counts", huge)
    monkeypatch.setattr(cli.BwtBuilder, "activate_new_words", lambda *a: rounds.append(a))
    inp, outp = tmp_path / "in.fasta", tmp_path / "out.bwt"
    _write_fasta(inp, ["GATTACA", "CCT", "AAAA"])
    rc = main(["build", "--input", str(inp), "--output", str(outp), "--backend", "memory"])
    assert rc == 2
    err = capsys.readouterr().err
    assert re.fullmatch(r"error: cannot allocate 4,611,686,018,427,38\d,\d{3} bytes for the buckets in RAM\n",
                        err)
    assert rounds == []
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


def _write_records(path, fmt, words):
    if fmt == "fasta":
        records = [f">s{i}\n{w[:30]}\n{w[30:]}" if len(w) > 30 else f">s{i}\n{w}" for i, w in enumerate(words)]
    elif fmt == "fastq":
        records = [f"@r{i}\n{w}\n+\n{'I' * len(w)}" for i, w in enumerate(words)]
    else:
        records = words
    path.write_text("\n".join(records) + "\n")


@pytest.mark.parametrize("backend", ["memory", "external"])
@pytest.mark.parametrize("fmt", ["fasta", "fastq", "raw-lines"])
def test_cmd_invert_round_trip(tmp_path, capsys, fmt, backend):
    # build then invert through the CLI, on random files of each format and
    # on both backends, give back the parsed words. FASTQ reads hold N under
    # drop-char, as the external_mixed benchmark input does: the bases go,
    # and a read of N alone goes with them
    rng = random.Random(62)
    words = ["GATTACA", "CCT", "AAAA"]
    words += ["".join(rng.choice("ACGT") for _ in range(rng.randint(1, 70))) for _ in range(40)]
    if fmt == "fastq":
        words = ["".join("N" if rng.random() < 0.05 else ch for ch in w) for w in words] + ["NN"]
    expected = [w.replace("N", "") for w in words if w.replace("N", "")]
    inp, bwt, rec = tmp_path / f"in.{fmt}", tmp_path / "out.bwt", tmp_path / "rec.txt"
    tmp = tmp_path / "tmp"
    tmp.mkdir()
    _write_records(inp, fmt, words)
    assert main(["build", "--input", str(inp), "--output", str(bwt), "--backend", backend,
                 "--ambiguous", "drop-char", "--tmp-dir", str(tmp)]) == 0
    assert main(["invert", "--input", str(bwt), "--output", str(rec)]) == 0
    assert rec.read_bytes() == ("\n".join(expected) + "\n").encode()
    assert not list(tmp.iterdir())


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


def test_cmd_invert_refuses_input_without_terminators(tmp_path, capsys):
    bwt, rec = tmp_path / "plain.txt", tmp_path / "words.txt"
    bwt.write_bytes(b"ACGT\n")
    rc = main(["invert", "--input", str(bwt), "--output", str(rec)])
    assert rc == 1
    assert capsys.readouterr().err == (
        "error: the input holds no terminator byte '$', so it is not a transform\n")
    assert not rec.exists()


@pytest.mark.skipif(not os.path.isdir("/dev/fd"), reason="needs /dev/fd")
def test_cmd_build_reads_a_pipe(tmp_path):
    # a pipe cannot be rewound after format detection, so it is read whole
    words = ["GATTACA", "CCT", "AAAA"]
    r, w = os.pipe()
    os.write(w, b"\n" + "".join(f">s{i}\n{x}\n" for i, x in enumerate(words)).encode())
    os.close(w)
    outp = tmp_path / "out.bwt"
    try:
        rc = main(["build", "--input", f"/dev/fd/{r}", "--output", str(outp), "--backend", "memory"])
    finally:
        os.close(r)
    assert rc == 0
    assert outp.read_bytes() == naive_bwt(WordCollection.from_words(words))


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
    assert lines[0].split("\t") == ["kappa", "buckets", "wall_seconds", "io_read", "io_written",
                                    "output_bytes", "cpu_seconds"]
    rows = [row.split("\t") for row in lines[1:]]
    assert [int(row[1]) for row in rows] == [2 ** k for k in range(3, 9)]
    # the CPU seconds of run() alone, within the row's wall time
    assert all(0 < float(row[6]) <= float(row[2]) for row in rows)


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


@pytest.mark.parametrize("argv", [["verify", "--report", "tsv"], ["bench", "--kappa", "7"]])
def test_flags_a_command_would_ignore_are_refused(tmp_path, capsys, argv):
    # verify prints no report, and bench sweeps --kappa-range instead of --kappa
    inp = tmp_path / "reads.txt"
    inp.write_text("ACGT\n")
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--input", str(inp), "--backend", "memory"])
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_cmd_selftest(capsys, monkeypatch):
    # the cases alternate between the backends, external first
    backends = []
    real = cli.verify_collection
    monkeypatch.setattr(cli, "verify_collection",
                        lambda c, config: backends.append(config.backend) or real(c, config))
    rc = main(["selftest", "--count", "5", "--seed", "1"])
    assert rc == 0
    assert "5/5 cases passed" in capsys.readouterr().out
    assert backends == ["external", "memory"] * 2 + ["external"]


def test_cli_reports_parse_errors_cleanly(tmp_path, capsys):
    inp = tmp_path / "bad.fasta"
    inp.write_text(">a\nAXC\n")
    rc = main(["verify", "--input", str(inp)])
    assert rc == 2
    assert "error:" in capsys.readouterr().err
