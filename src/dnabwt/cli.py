"""Command-line front end: build, verify, invert, bench, selftest."""
from __future__ import annotations

import argparse
import contextlib
import ctypes
import os
import random
import sys
import time

from . import oracle
from .buckets import BucketIOError
from .collection import (AMBIGUOUS_POLICIES, IngestPolicy, ParseError, WordCollection,
                          detect_format, parse_sequences)
from .engine import BACKENDS, MAX_KAPPA, BwtBuilder, Config, ConfigError, build


# glibc's mallopt parameters
_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3


def _pin_malloc_thresholds() -> None:
    """Fix glibc's mmap threshold at 32 MiB, the most its dynamic rule
    reaches, and its trim threshold at twice that, as that rule would.
    The rule starts at 128 KiB and rises only when a larger mapped block
    is freed. A streamed parse frees none, so a build's per-round
    temporaries were mapped and unmapped each round: 4.7 times the page
    faults on `reads`. Pinned, the build reuses heap memory whatever
    came before it. Elsewhere than glibc this does nothing."""
    try:
        if not os.confstr("CS_GNU_LIBC_VERSION"):
            return
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, ValueError):
        return
    mallopt(_M_MMAP_THRESHOLD, 32 << 20)
    mallopt(_M_TRIM_THRESHOLD, 64 << 20)


def _peak_rss_mb() -> float | None:
    try:
        import resource

        peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    except Exception:
        return None
    # macOS reports ru_maxrss in bytes, other platforms in KiB
    return peak / (1 << 20) if sys.platform == "darwin" else peak / 1024.0


def _load_collection(path: str, ambiguous: str) -> WordCollection:
    with open(path, "rb") as fh:
        # detect_format rewinds what it reads, which a pipe cannot do, so a
        # pipe is read whole
        data = fh if fh.seekable() else fh.read()
        policy = IngestPolicy(ambiguous_handling=ambiguous, format=detect_format(data))
        return parse_sequences(data, policy)


def _config_from(args: argparse.Namespace, kappa: int | None = None) -> Config:
    return Config(
        kappa=args.kappa if kappa is None else kappa,
        threads=args.threads,
        tmp_dir=args.tmp_dir,
        backend=args.backend,
    )


def _report(pairs: list[tuple[str, object]], fmt: str) -> None:
    if fmt == "tsv":
        print("\t".join(str(k) for k, _ in pairs))
        print("\t".join(str(v) for _, v in pairs))
    else:
        for k, v in pairs:
            print(f"{k}: {v}")


@contextlib.contextmanager
def _output_file(path: str, input_path: str):
    """Open ``path`` before the work that fills it, so that an output that
    cannot be written fails the command first; if the work raises, leave no
    partial output, but never unlink a device or symlink. The input file is
    refused as the output, since opening it would truncate the input."""
    if os.path.exists(path) and os.path.samefile(path, input_path):
        raise OSError(f"--output {path} is the input file")
    with open(path, "wb") as fh:
        try:
            yield fh
        except BaseException:
            if os.path.isfile(path) and not os.path.islink(path):
                os.unlink(path)
            raise


def cmd_build(args: argparse.Namespace) -> int:
    t0 = time.perf_counter()
    collection = _load_collection(args.input, args.ambiguous)
    pairs: list[tuple[str, object]] = [
        ("words", collection.m),
        ("parse_seconds", round(time.perf_counter() - t0, 4)),
    ]
    rss = _peak_rss_mb()  # the parse's peak, apart from the build's
    if rss is not None:
        pairs.append(("parse_peak_rss_mb", round(rss, 2)))
    with _output_file(args.output, args.input) as fh:
        t0 = time.perf_counter()
        with BwtBuilder(collection, _config_from(args)) as builder:
            written = builder.run(out=fh)
            stats = builder.store.io_stats
        wall = time.perf_counter() - t0
    pairs += [
        ("output_bytes", written),
        ("wall_seconds", round(wall, 4)),
        ("bucket_bytes_read", stats["read"]),
        ("bucket_bytes_written", stats["written"]),
    ]
    rss = _peak_rss_mb()
    if rss is not None:
        pairs.append(("peak_rss_mb", round(rss, 2)))
    else:
        print("note: peak memory not available on this platform", file=sys.stderr)
    _report(pairs, args.report)
    return 0


def first_mismatch(a: bytes, b: bytes) -> int | None:
    """Offset of the first differing byte, or None if equal."""
    if a == b:
        return None
    n = min(len(a), len(b))
    for i in range(n):
        if a[i] != b[i]:
            return i
    return n


def verify_collection(collection: WordCollection, config: Config) -> tuple[bool, list[str]]:
    """Build, compare against the rotation-sort reference, and round-trip."""
    lines = []
    ok = True
    built = build(collection, config)
    expected = oracle.naive_bwt(collection)
    offset = first_mismatch(built, expected)
    if offset is None:
        lines.append("transform matches rotation-sort reference: pass")
    else:
        ok = False
        lines.append(f"transform mismatch at offset {offset}: fail")
    try:
        words = oracle.invert(built, collection.m)
        if words == collection.words():
            lines.append("inversion round trip: pass")
        else:
            ok = False
            lines.append("inversion round trip: fail (words differ)")
    except oracle.InvalidBwtError as exc:
        ok = False
        lines.append(f"inversion round trip: fail ({exc})")
    return ok, lines


def cmd_verify(args: argparse.Namespace) -> int:
    collection = _load_collection(args.input, args.ambiguous)
    if collection.total_length > args.max_oracle_symbols:
        print(
            f"error: input has {collection.total_length} symbols, above the reference "
            f"limit {args.max_oracle_symbols} (raise --max-oracle-symbols to override)",
            file=sys.stderr,
        )
        return 2
    ok, lines = verify_collection(collection, _config_from(args))
    for line in lines:
        print(line)
    return 0 if ok else 1


def cmd_invert(args: argparse.Namespace) -> int:
    with open(args.input, "rb") as fh:
        data = fh.read()
    try:
        with _output_file(args.output, args.input) as fh:
            words = oracle.invert(data, data.count(b"$"))
            fh.write(b"\n".join(words) + b"\n")
    except oracle.InvalidBwtError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(f"recovered {len(words)} words")
    return 0


def cmd_bench(args: argparse.Namespace) -> int:
    collection = _load_collection(args.input, args.ambiguous)
    lo, hi = args.kappa_range
    print("kappa\tbuckets\twall_seconds\tio_read\tio_written\toutput_bytes\tcpu_seconds")
    for kappa in range(lo, hi + 1):
        t0 = time.perf_counter()
        with BwtBuilder(collection, _config_from(args, kappa)) as builder:
            c0 = time.process_time()
            data = builder.run()
            cpu = time.process_time() - c0
            stats = builder.store.io_stats
        wall = time.perf_counter() - t0
        print(
            f"{kappa}\t{1 << kappa}\t{wall:.4f}\t{stats['read']}\t{stats['written']}\t{len(data)}\t{cpu:.4f}"
        )
    return 0


def cmd_selftest(args: argparse.Namespace) -> int:
    rng = random.Random(args.seed)
    failures = 0
    for i in range(args.count):
        words = [
            "".join(rng.choice("ACGT") for _ in range(rng.randint(1, 32)))
            for _ in range(rng.randint(1, 12))
        ]
        collection = WordCollection.from_words(words)
        # the backend alternates by case, so a seed draws the same cases
        config = Config(kappa=rng.choice([3, 4, 5, 6]), backend=BACKENDS[i % 2])
        ok, _ = verify_collection(collection, config)
        if not ok:
            failures += 1
            print(f"case {i}: fail ({words})", file=sys.stderr)
    print(f"selftest: {args.count - failures}/{args.count} cases passed")
    return 0 if failures == 0 else 1


def _kappa_range(text: str) -> tuple[int, int]:
    lo, _, hi = text.partition(":")
    lo, hi = int(lo), int(hi or lo)
    if not 3 <= lo <= hi <= MAX_KAPPA:
        raise argparse.ArgumentTypeError(
            f"{text!r} is not lo:hi with 3 <= lo <= hi <= {MAX_KAPPA}")
    return lo, hi


def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dnabwt",
        description="Burrows-Wheeler transform construction for DNA string collections",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser, kappa: bool = True) -> None:
        p.add_argument("--input", required=True, help="FASTA, FASTQ or one-sequence-per-line file")
        if kappa:
            p.add_argument("--kappa", type=int, default=5, help="navigation bits (default 5)")
        p.add_argument("--threads", type=int, default=None,
                       help="accepted and ignored: builds merge on one thread")
        p.add_argument("--tmp-dir", default=None)
        p.add_argument("--backend", choices=BACKENDS, default="external")
        p.add_argument("--ambiguous", choices=AMBIGUOUS_POLICIES, default="drop-char")

    p_build = sub.add_parser("build", help="construct the transform")
    common(p_build)
    p_build.add_argument("--output", required=True)
    p_build.add_argument("--report", choices=("text", "tsv"), default="text")
    p_build.set_defaults(func=cmd_build)

    p_verify = sub.add_parser("verify", help="cross-check against the brute-force reference")
    common(p_verify)
    p_verify.add_argument("--max-oracle-symbols", type=int, default=1_000_000)
    p_verify.set_defaults(func=cmd_verify)

    p_invert = sub.add_parser("invert", help="recover the words from a transform file")
    p_invert.add_argument("--input", required=True)
    p_invert.add_argument("--output", required=True)
    p_invert.set_defaults(func=cmd_invert)

    # no abbreviations: bench reads no --kappa, which would abbreviate --kappa-range
    p_bench = sub.add_parser("bench", help="sweep kappa and report timing as TSV",
                             allow_abbrev=False)
    common(p_bench, kappa=False)
    p_bench.add_argument(
        "--kappa-range", type=_kappa_range, default=(3, 8), help="inclusive lo:hi sweep"
    )
    p_bench.set_defaults(func=cmd_bench)

    p_self = sub.add_parser("selftest", help="randomized build/reference comparison")
    p_self.add_argument("--count", type=int, default=50)
    p_self.add_argument("--seed", type=int, default=0)
    p_self.set_defaults(func=cmd_selftest)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = make_parser()
    args = parser.parse_args(argv)
    _pin_malloc_thresholds()
    try:
        return args.func(args)
    except (ParseError, ConfigError, OSError, BucketIOError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
