"""The repo's one benchmark: ``python3 -m bench`` (see bench/README.md).

Everything here measures the program from outside: it times calls into
``repro``'s public functions and reads its public counters, and never
edits anything under ``src/``.  The checkout's ``src/`` directory is put
on ``sys.path`` here so the command needs no ``PYTHONPATH``.
"""

import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
if SRC not in sys.path:
    sys.path.insert(0, SRC)
