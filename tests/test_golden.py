"""The golden corpus (see golden_corpus.py): every pinned command still
exits, prints and writes exactly what tests/golden/ holds."""

import pytest

import golden_corpus


@pytest.mark.parametrize("group", golden_corpus.GROUPS)
def test_outputs_are_byte_identical_to_the_corpus(group):
    want = golden_corpus.read_group(group)
    argvs = golden_corpus.cases(group)
    assert want and set(want) <= set(argvs)
    # name every moved record, so one run lists them all
    moved = [
        name for name, record in want.items()
        if golden_corpus.run_case(argvs[name]) != record
    ]
    assert not moved, f"{group}: {len(moved)} moved: " + ", ".join(moved)
