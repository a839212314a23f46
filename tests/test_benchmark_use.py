"""What the benchmark reads of the package, run as the benchmark runs it.

``perfbench/`` reaches the package through more than named calls: its
corpus description counts out-of-vocabulary words with ``w not in
vocabulary`` on a loaded ``EmbeddingTable``, which only syntax calls.
"""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT))

from nbestslu.context import ContextWindow  # noqa: E402
from nbestslu.data import read_canonical  # noqa: E402
from nbestslu.embeddings import load_vectors  # noqa: E402
from perfbench.corpus import CorpusShape, describe, generate  # noqa: E402


def test_describe_reads_a_generated_corpus_and_its_vectors(tmp_path):
    files = generate(CorpusShape(4, 1), 1, tmp_path)
    store = load_vectors(files.vectors)
    train, test = read_canonical(files.train), read_canonical(files.test)
    shape = describe(train, test, ContextWindow.from_name("last_4"), store)
    assert shape["turns"] == {"train": len(train.turns), "test": len(test.turns)}
    assert shape["context_tokens"]["window"] == "last_4"
    assert 0 < shape["oov_rate"] < 1
