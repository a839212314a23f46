"""How an n-best list becomes one sentence vector.

Each hypothesis runs through a bank of convolution filters (tanh, then
max pooling per feature map); the pooled vectors are combined by a
posterior-weighted sum.  Low-confidence recognition errors are therefore
soft-weighted rather than discarded.

Run:  python3 demos/02_sentence_representation.py
"""

import numpy as np

from nbestslu.embeddings import EmbeddingTable
from nbestslu.rng import Initializer
from nbestslu.sentence import ConvFilterBank, Hypothesis, NBestList, encode_hypothesis, encode_sentence

rng = np.random.default_rng(0)

vocabulary = ["i", "want", "a", "cheap", "chinese", "restaurant", "keep", "sheep"]
table = EmbeddingTable(vocabulary, rng.uniform(-0.5, 0.5, (len(vocabulary), 8)))
table.prepare_runtime_rows([], Initializer(rng))

bank = ConvFilterBank(dim=8, window_sizes=(2, 3), maps_per_window=4, init=Initializer(rng))
print(f"filter bank: windows {bank.window_sizes}, {bank.maps_per_window} maps each "
      f"-> {bank.feature_size}-d features")

print()
print("== per-hypothesis features ==")
correct = ("i", "want", "a", "cheap", "chinese", "restaurant")
confused = ("i", "want", "a", "sheep", "chinese", "restaurant")
for tokens in (correct, confused):
    features = encode_hypothesis(tokens, table, bank)
    print(f"{' '.join(tokens):42s} -> {np.round(features.data, 3)}")

print()
print("== the confidence-weighted sum ==")
nbest = NBestList((Hypothesis(correct, 0.7), Hypothesis(confused, 0.3)))
sentence = encode_sentence(nbest, table, bank)
e1 = encode_hypothesis(correct, table, bank).data
e2 = encode_hypothesis(confused, table, bank).data
print("weighted sum:        ", np.round(sentence.data, 3))
print("0.7*good + 0.3*bad:  ", np.round(0.7 * e1 + 0.3 * e2, 3))

print()
print("== the order of the n-best list does not matter ==")
swapped = NBestList((Hypothesis(confused, 0.3), Hypothesis(correct, 0.7)))
print("bit-identical under permutation:",
      np.array_equal(encode_sentence(swapped, table, bank).data, sentence.data))

print()
print("== raw score scale does not matter either ==")
rescaled = NBestList((Hypothesis(correct, 700.0), Hypothesis(confused, 300.0)))
delta = np.abs(encode_sentence(rescaled, table, bank).data - sentence.data).max()
print(f"max difference after multiplying every score by 1000: {delta:.2e}")

print()
print("== short and empty hypotheses are padded, never rejected ==")
for tokens in (("cheap",), ()):
    features = encode_hypothesis(tokens, table, bank)
    print(f"{str(tokens):42s} -> finite: {np.all(np.isfinite(features.data))}")
