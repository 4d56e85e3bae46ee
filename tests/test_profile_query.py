"""``scripts/profile_query.py`` resolves ``--query`` or refuses it."""

import argparse
import importlib.util
from pathlib import Path

import pytest

from repro.bench import default_datasets
from repro.datasets import PAPER_QUERIES

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "profile_query.py"


@pytest.fixture(scope="module")
def profile_query():
    spec = importlib.util.spec_from_file_location("profile_query", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("label", ["QD3", "qd3", "Q12", "qx7"])
def test_unknown_label_is_an_argparse_error(profile_query, capsys, label):
    with pytest.raises(SystemExit) as raised:
        profile_query.main(["--dataset", "dblp", "--query", label])
    assert raised.value.code == 2
    error = capsys.readouterr().err
    assert repr(label) in error
    # The message lists the dataset's real labels.
    for valid in ("kc", "dl", "tna", "kpgqme"):
        assert valid in error


def test_labels_paper_queries_and_text_resolve(profile_query):
    parser = argparse.ArgumentParser()
    spec = default_datasets()["dblp"]
    dl = next(query for query in spec.workload if query.label == "dl")
    assert profile_query._resolve_query(parser, spec, "dl") == dl.text
    assert profile_query._resolve_query(parser, spec, "DL") == dl.text
    assert profile_query._resolve_query(parser, spec, "q3") == PAPER_QUERIES["Q3"]
    assert profile_query._resolve_query(parser, spec, "xml keyword") == \
        "xml keyword"
    assert profile_query._resolve_query(parser, spec, None) == \
        spec.workload[0].text
