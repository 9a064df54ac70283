import os
import sys

import pytest

sys.path.insert(0, os.path.dirname(__file__))


@pytest.fixture(params=[None, 1, 7], ids=["chunk_default", "chunk_1", "chunk_7"])
def read_chunk(request, monkeypatch):
    """The lines `read_dataset` parses at a time: its own constant, or 1 or
    7, so that a 40-line file crosses chunk boundaries."""
    if request.param is not None:
        monkeypatch.setattr("smoothtune.data._CHUNK", request.param)
    return request.param
