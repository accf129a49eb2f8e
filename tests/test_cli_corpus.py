"""The CLI's exit codes and bytes against the corpus recorded by
``record_cli_corpus.py``, each command replayed in process."""

import json

import pytest

from record_cli_corpus import COMMANDS, CORPUS_PATH, run_entry, write_inputs

CORPUS = json.loads(CORPUS_PATH.read_text(encoding="utf-8"))


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    directory = str(tmp_path_factory.mktemp("corpus"))
    write_inputs(directory)
    return directory


def test_the_corpus_holds_the_recorder_s_commands():
    assert [entry["argv"] for entry in CORPUS] == COMMANDS


@pytest.mark.parametrize("entry", CORPUS, ids=[" ".join(e["argv"]) for e in CORPUS])
def test_replays_as_recorded(entry, inputs):
    assert run_entry(entry["argv"], inputs) == entry
