"""BWT construction for DNA string collections of highly diverse lengths."""

import os

# no build makes a BLAS call, so numpy's OpenBLAS need start no worker
# threads when it is imported, which costs CPU time; an explicit setting wins
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

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
