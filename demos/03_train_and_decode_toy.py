"""Train the two-step decoder on a toy corpus and read its frames.

Step one jointly predicts the dialogue act and which slots are present;
step two predicts a value for each detected slot with a separate model of
the same architecture.  Everything here is synthetic and runs in well
under a minute.

Run:  python3 demos/03_train_and_decode_toy.py
"""

import numpy as np

from nbestslu.config import RunConfig
from nbestslu.data import AsrHypothesis, Dataset, ReferenceFrame, SystemAct, Turn
from nbestslu.decoder import decode_turns
from nbestslu.embeddings import EmbeddingTable
from nbestslu.metrics import FULL, report_text, score_frames
from nbestslu.ontology import Ontology
from nbestslu.training import train_run

rng = np.random.default_rng(1)

AREAS = ("north", "south", "east")
PRICES = ("cheap", "moderate", "expensive")
REQUESTS = ("phone", "address")


def make_dialogue(session: str) -> list[Turn]:
    """Three-turn dialogue: constraints, a request, a goodbye."""
    price = PRICES[int(rng.integers(len(PRICES)))]
    area = AREAS[int(rng.integers(len(AREAS)))]
    wanted = REQUESTS[int(rng.integers(len(REQUESTS)))]
    history = [(SystemAct("welcomemsg"),)]
    turns = [
        Turn(session, 0,
             (AsrHypothesis(f"i want a {price} restaurant in the {area}", 0.8),
              AsrHypothesis(f"i want a {price} restaurant", 0.2)),
             tuple(history),
             ReferenceFrame("inform", (("pricerange", price), ("area", area)))),
    ]
    history.append((SystemAct("offer", (("name", "gardenia"),)),
                    SystemAct("inform", (("pricerange", price), ("area", area)))))
    turns.append(
        Turn(session, 1,
             (AsrHypothesis(f"can i get the {wanted}", 1.0),),
             tuple(history),
             ReferenceFrame("request", (("slot", wanted),)))
    )
    history.append((SystemAct("inform", (("phone", "01223 123456"),)),))
    turns.append(
        Turn(session, 2,
             (AsrHypothesis("thank you good bye", 1.0),),
             tuple(history),
             ReferenceFrame("bye", ()))
    )
    return turns


turns = [t for d in range(12) for t in make_dialogue(f"toy-{d:02d}")]
dataset = Dataset(tuple(turns), Ontology.derive(turns, 14), {"source": "demo"})
print(f"toy corpus: {dataset.dialogue_count} dialogues, {len(dataset.turns)} turns")
print(f"ontology: acts={dataset.ontology.acts}")
print(f"          slots={dataset.ontology.slots}")

vocabulary = sorted({tok for t in turns for h in t.nbest for tok in h.text.split()}
                    | {"gardenia", "01223", "123456"})
store = EmbeddingTable(vocabulary, rng.uniform(-0.5, 0.5, (len(vocabulary), 10)))

config = RunConfig(
    model="cnn_lstm_w4",
    embedding_dim=10,
    filter_windows=(2, 3),
    filters_per_window=6,
    hidden_size=10,
    batch_size=12,
    dropout=0.2,
    patience=0,
    max_epochs=80,
    seed=9,
)

print()
print("== training step one (joint act + slot presence) ==")
step1, slot_models, logs = train_run(dataset, config, store)
epochs = logs["step1"]["epochs"]
print(f"trained {len(epochs)} epochs; final loss {epochs[-1]['loss']:.4f}")

print()
print("== training step two (one value model per multi-valued slot) ==")
for slot, slot_log in logs["slots"].items():
    if slot in slot_models:
        print(f"  {slot}: {len(slot_models[slot].values)} values, {len(slot_log['epochs'])} epochs")
    else:
        print(f"  {slot}: skipped ({slot_log['notes'][-1]})")

print()
print("== decoded frames ==")
frames = decode_turns(dataset.turns, step1, slot_models)
for turn, frame in zip(dataset.turns[:6], frames):
    parts = ", ".join(f"{s.slot}={s.value} ({s.confidence:.2f})" for s in frame.slots)
    print(f"  {turn.nbest[0].text!r:48s} -> {frame.act}({parts}) [act {frame.act_confidence:.2f}]")

print()
print("== scoring against the references ==")
print(report_text(score_frames(frames, dataset.turns, dataset.ontology, FULL)))
