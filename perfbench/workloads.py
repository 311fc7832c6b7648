"""Seeded input generators for the benchmark's workloads.

Each workload writes one FASTA or FASTQ file from ``--seed`` and returns
the words the program must recover from it (after the ambiguity policy the
workload's flags select). The program sees only the file.

Reads are sampled from a seeded random genome rather than drawn
independently, so the collection shares substrings the way sequencing
reads of one genome do.
"""
from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

ACGT = np.frombuffer(b"ACGT", dtype=np.uint8)
FASTA_WIDTH = 80
# kappa of the untimed reference build (memory backend); every timed build
# uses kappa 5, so the reference shares no bucket layout with what it checks
REF_KAPPA = 4


@dataclass(frozen=True)
class Workload:
    """One input shape and the CLI flags it is built with.

    Why each workload was chosen is recorded in ``BENCHMARK.json``.
    """

    name: str
    fmt: str
    # CLI flags of the timed build; ``{tmp}`` is replaced by the run's temp dir
    flags: tuple[str, ...]
    make: Callable[[np.random.Generator, float], list[bytes]]


def _genome(rng: np.random.Generator, length: int) -> np.ndarray:
    return ACGT[rng.integers(0, 4, size=length)]


def _sample(rng: np.random.Generator, genome: np.ndarray, lengths: np.ndarray) -> list[bytes]:
    starts = rng.integers(0, len(genome) - lengths + 1)
    return [genome[s : s + n].tobytes() for s, n in zip(starts.tolist(), lengths.tolist())]


def _scaled(n: int, scale: float, floor: int) -> int:
    return max(floor, round(n * scale))


def _reads(rng: np.random.Generator, scale: float) -> list[bytes]:
    n = _scaled(33_400, scale, 8)
    genome = _genome(rng, _scaled(1_000_000, scale, 1_000))
    return _sample(rng, genome, np.full(n, 150))


def _long_tail(rng: np.random.Generator, scale: float) -> list[bytes]:
    longs = [_scaled(n, scale, 400 - 100 * i) for i, n in enumerate((20_000, 12_000, 5_000))]
    genome = _genome(rng, max(_scaled(200_000, scale, 2_000), 2 * max(longs)))
    reads = _sample(rng, genome, rng.integers(100, 151, size=_scaled(10_000, scale, 8)))
    contigs = _sample(rng, genome, np.asarray(longs))
    # long words sit among the reads, not at either end of the file
    for word, at in zip(contigs, rng.integers(0, len(reads) + 1, size=len(contigs)).tolist()):
        reads.insert(at, word)
    return reads


def _external_mixed(rng: np.random.Generator, scale: float) -> list[bytes]:
    """Raw reads with 1% ``N``; the file gets these, the program must drop the ``N``s."""
    n = _scaled(8_000, scale, 8)
    genome = _genome(rng, _scaled(1_000_000, scale, 1_000))
    reads = _sample(rng, genome, rng.integers(1, 301, size=n))
    out = []
    for read in reads:
        codes = np.frombuffer(read, dtype=np.uint8).copy()
        codes[rng.random(len(codes)) < 0.01] = ord("N")
        out.append(codes.tobytes())
    return out


_EXTERNAL = ("--backend", "external", "--kappa", "5", "--threads", "2", "--ambiguous", "drop-char",
             "--tmp-dir", "{tmp}")

WORKLOADS = {
    w.name: w
    for w in (
        Workload("reads", "fasta", ("--backend", "memory", "--kappa", "5"), _reads),
        Workload("long_tail", "fasta", ("--backend", "memory", "--kappa", "5"), _long_tail),
        Workload("external_mixed", "fastq", _EXTERNAL, _external_mixed),
    )
}


def _fasta(records: list[bytes]) -> bytes:
    out = []
    for i, seq in enumerate(records):
        out.append(b">w%d" % i)
        out.extend(seq[k : k + FASTA_WIDTH] for k in range(0, len(seq), FASTA_WIDTH))
    return b"\n".join(out) + b"\n"


def _fastq(records: list[bytes], rng: np.random.Generator) -> bytes:
    out = []
    for i, seq in enumerate(records):
        qual = rng.integers(33, 74, size=len(seq), dtype=np.uint8).tobytes()
        out += [b"@r%d" % i, seq, b"+", qual]
    return b"\n".join(out) + b"\n"


def generate(workload: Workload, seed: int, path: Path, scale: float = 1.0) -> list[bytes]:
    """Write the workload's input file for ``seed``; return the expected words.

    The expected words are the file's records with ``N`` removed and
    records left empty by that dropped, which is what ``--ambiguous
    drop-char`` must produce.
    """
    rng = np.random.default_rng([seed, sorted(WORKLOADS).index(workload.name)])
    records = workload.make(rng, scale)
    data = _fasta(records) if workload.fmt == "fasta" else _fastq(records, rng)
    path.write_bytes(data)
    words = (r.replace(b"N", b"") for r in records)
    return [w for w in words if w]
