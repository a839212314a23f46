"""The corpus generator is deterministic and keeps its shape fixed."""

import filecmp

from corpus import MAX_ACT_PATTERNS, MAX_HYPS, PATTERNS, CorpusShape, build, generate, inventory

SHAPE = CorpusShape(train_dialogues=6, test_dialogues=4)


def _files(tmp_path, name, seed):
    files = generate(SHAPE, seed, tmp_path / name)
    return [files.train, files.test, files.vectors]


def test_same_seed_gives_byte_identical_files(tmp_path):
    for first, second in zip(_files(tmp_path, "a", 7), _files(tmp_path, "b", 7)):
        assert filecmp.cmp(first, second, shallow=False), first.name


def test_different_seed_gives_different_files(tmp_path):
    for first, second in zip(_files(tmp_path, "a", 7), _files(tmp_path, "b", 8)):
        assert not filecmp.cmp(first, second, shallow=False), first.name


def test_shape_does_not_depend_on_the_seed():
    sizes = set()
    for seed in (1, 2, 3):
        train, test, _ = build(SHAPE, seed)
        sizes.add((len(train.turns), len(test.turns), train.dialogue_count, test.dialogue_count))
        for turn in train.turns + test.turns:
            assert 1 <= len(turn.nbest) <= MAX_HYPS
            assert 1 <= len(turn.system_history[-1]) <= 3
        assert {t.reference.act_pattern for t in train.turns + test.turns} <= set(PATTERNS)
    assert len(PATTERNS) <= MAX_ACT_PATTERNS
    assert len(sizes) == 1


def test_full_nbest_shape_and_oov_words():
    train, test, vectors = build(CorpusShape(3, 2, full_nbest=True), 5)
    assert all(len(t.nbest) == MAX_HYPS for t in train.turns + test.turns)
    words = {w for t in train.turns for h in t.nbest for w in h.text.split()}
    assert words - set(vectors), "some user words must be left out of the vector file"


def test_inventory_is_fixed_and_dstc2_sized():
    assert inventory() is inventory()
    assert len(inventory().foods) == 90
    assert len(set(inventory().foods)) == 90
