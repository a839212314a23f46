"""Semantic decoding for spoken dialogue systems.

Maps an ASR n-best list plus the dialogue's system-act history to a
dialogue act and confidence-scored slot-value pairs.  Sentence meaning
comes from a convolutional encoder over word vectors pooled across
hypotheses; dialogue context comes from an LSTM over flattened system
acts; trained from scratch with exact analytic gradients and the
Adadelta rule.
"""

__version__ = "0.1.0"
