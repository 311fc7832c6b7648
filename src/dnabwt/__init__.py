"""BWT construction for DNA string collections of highly diverse lengths."""

import os

# no build makes a BLAS call, so numpy's OpenBLAS need start no worker
# threads when it is imported, which costs CPU time; an explicit setting wins
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import numpy as np

# glibc maps a malloc block above its mmap threshold, and unmaps it when it
# is freed. The threshold starts at 128 KiB and, by glibc's dynamic rule
# (mallopt(3), M_MMAP_THRESHOLD), rises to the size of a mapped block when
# that block is freed, and the trim threshold to twice that. This block,
# just under the rule's 32 MiB cap, sets both, so that a build's per-round
# temporaries reuse heap memory in every process that imports dnabwt, and
# are not mapped and unmapped each round. It stays untouched, so it never
# takes resident memory; elsewhere than glibc it is one allocation.
np.empty((32 << 20) - (1 << 16), dtype=np.uint8)

from .collection import IngestPolicy, ParseError, WordCollection, detect_format, parse_sequences
from .engine import BwtBuilder, Config, ConfigError, build
from .oracle import InvalidBwtError, invert, naive_bwt

__version__ = "0.1.0"

__all__ = [
    "BwtBuilder",
    "Config",
    "ConfigError",
    "IngestPolicy",
    "InvalidBwtError",
    "ParseError",
    "WordCollection",
    "build",
    "detect_format",
    "invert",
    "naive_bwt",
    "parse_sequences",
    "__version__",
]
