"""The ``ci`` hypothesis profile, and the fixtures shared by the test
files that start a server."""

import pytest
from hypothesis import settings

from repro.sharding import ShardedTree

#: ``--hypothesis-profile=ci``: five times the default examples.  A file
#: scales its budgets by ``settings.default.max_examples / 100``.
settings.register_profile("ci", max_examples=500, deadline=None)


@pytest.fixture
def open_shards(tmp_path):
    """``open_shards(kind="sum", boundaries=None, **options)``: a
    :meth:`ShardedTree.open` tree -- journaled page files, the only
    stores a server accepts -- in a directory of its own under
    ``tmp_path``.  Every tree is closed at teardown, after the servers
    of the test's other fixtures stopped."""
    opened = []

    def open_(kind="sum", boundaries=None, **options):
        directory = tmp_path / f"shards-{len(opened)}"
        opened.append(ShardedTree.open(str(directory), kind, boundaries, **options))
        return opened[-1]

    yield open_
    for sharded in opened:
        sharded.close()
