import os

import pytest

from graceful_spiders.model import Labeling, Tree

# The user's default cache file, resolved before any test redirects HOME.
USER_CACHE_FILE = os.path.join(
    os.path.expanduser("~"), ".cache", "graceful-spiders", "paths.json"
)


@pytest.fixture(autouse=True)
def hermetic_home(tmp_path, monkeypatch):
    """Point HOME under tmp_path, so no test reads or writes the user's
    ~/.cache. Returns the temporary HOME."""
    home = tmp_path / "home"
    home.mkdir()
    monkeypatch.setenv("HOME", str(home))
    return home


def figure1_instance():
    """The 7-vertex tree G of Figure 1 with its graceful labeling f(u) = 3.

    Edges by vertex label: 0-6, 0-5, 5-1, 0-3, 3-4, 4-2. Vertex ids follow
    the label list order below; u is the vertex labeled 3.
    """
    labels = [0, 6, 5, 1, 3, 4, 2]
    vid = {lab: i for i, lab in enumerate(labels)}
    edges = [(vid[a], vid[b]) for a, b in [(0, 6), (0, 5), (5, 1), (0, 3), (3, 4), (4, 2)]]
    tree = Tree(7, edges)
    return tree, Labeling.from_sequence(labels), vid[3]
