"""Act-pattern inventories: which label a pattern outside the inventory gets."""

from nbestslu.data import ReferenceFrame, Turn
from nbestslu.ontology import Ontology


def turns_with_patterns(*patterns: str) -> tuple[Turn, ...]:
    return tuple(Turn("s", k, (), (), ReferenceFrame(pattern, ())) for k, pattern in enumerate(patterns))


class TestActLabel:
    def test_extra_patterns_fall_back_to_a_member_act_or_the_first_label(self):
        ontology = Ontology.derive(turns_with_patterns("inform", "inform", "inform", "inform|request", "bye"),
                                   max_patterns=1)
        assert ontology.acts == ("inform",)
        assert ontology.act_label("inform") == "inform"
        assert ontology.act_label("inform|request") == "inform"  # its member act
        assert ontology.act_label("bye") == "inform"  # no member in the inventory: acts[0]

    def test_the_highest_priority_member_in_the_inventory_wins(self):
        # bye is the most frequent act name but no inventory label, so bye|inform maps to inform,
        # its next member by priority, even though request is the most frequent label.
        ontology = Ontology.derive(turns_with_patterns(
            *["request"] * 4, *["inform"] * 3, "bye|hello", "bye|hello", "bye|thankyou", "bye|thankyou",
            "bye|inform"), max_patterns=2)
        assert ontology.acts == ("request", "inform")
        assert ontology.act_priority[:3] == ("bye", "inform", "request")
        assert ontology.act_label("bye|inform") == "inform"
        assert ontology.act_label("bye|request") == "request"
        assert ontology.act_label("bye|hello") == "request"
        assert ontology.act_label("hello|thankyou") == "request"
