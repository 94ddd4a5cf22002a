import csv

import pytest
from hypothesis import settings

# every property test replays the same examples and keeps no example database;
# a test's own settings(...) sets only how many examples it draws
settings.register_profile("dynwalks", derandomize=True, database=None, deadline=None)
settings.load_profile("dynwalks")


@pytest.fixture
def write_graph_text():
    """Writes a graph in the text format ``graphs.read_graph_text`` reads:
    first line "n m", then one "u v" line per edge."""
    def write(g, path):
        with open(path, "w") as fh:
            fh.write(f"{g.n} {g.m}\n")
            for u, v in g.edges:
                fh.write(f"{u} {v}\n")
    return write


@pytest.fixture
def edge_set():
    """The edges of a StaticGraph as a set of (u, v) pairs with u < v."""
    return lambda g: {(int(u), int(v)) for u, v in g.edges}


@pytest.fixture
def read_rows():
    """The rows of a report CSV as dicts keyed by its header, '#' lines skipped."""
    def read(path):
        with open(path) as fh:
            return list(csv.DictReader(ln for ln in fh if not ln.startswith("#")))
    return read
