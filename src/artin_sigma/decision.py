"""The Sigma^1 membership verdict for a character on an Artin-group graph.

The decision runs a fixed cascade.  Writing L_F for the full subgraph on the
support of the character and L for L_F minus dead edges:

1. L_F disconnected or not dominant        -> Out (necessary criterion)
2. L connected                             -> In  (sufficient criterion)
3. all labels even and hypothesis holds    -> Out (proved for this class)
4. carrier cycle rank <= 2                 -> Out (proved small cases)
5. otherwise                               -> Out, conjecturally

Statuses "out" from steps 1-4 are unconditional theorems; step 5 reports the
conjectural completion, flagged by its own status value.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

from .characters import Character, lf_subgraph, living_subgraph
from .graphs import (
    SIMPLE_CYCLE,
    all_labels_even,
    check_hypothesis,
    cycle_rank,
    is_connected,
    is_dominant,
)

STATUS_IN = "in"
STATUS_OUT = "out"
STATUS_OUT_CONJECTURAL = "out_conjectural"

PROV_MMW_SUFFICIENT = "mmw_sufficient"
PROV_MMW_NECESSARY = "mmw_necessary"
PROV_THEOREM_A = "theorem_a"
PROV_LOW_CYCLE_RANK = "low_cycle_rank"
PROV_CONJECTURE_ONLY = "conjecture_only"


@dataclass(frozen=True)
class Diagnostics:
    lf_connected: bool
    lf_dominant: bool
    l_connected: bool
    even: bool
    hypothesis_holds: bool
    cycle_rank: int

    def to_json_dict(self) -> dict:
        return asdict(self)


@dataclass(frozen=True)
class Verdict:
    status: str
    provenance: str
    diagnostics: Diagnostics

    def to_json_dict(self) -> dict:
        return asdict(self)


def conjecture_predicate(chi: Character) -> bool:
    """The conjectural membership test: living subgraph connected and dominant."""
    living = living_subgraph(chi)
    return is_connected(living) and is_dominant(chi.graph, living.vertices)


def decide_sigma1(chi: Character, mode: str = SIMPLE_CYCLE) -> Verdict:
    g = chi.graph
    lf = lf_subgraph(chi)
    living = living_subgraph(chi)
    diags = Diagnostics(
        lf_connected=is_connected(lf),
        lf_dominant=is_dominant(g, lf.vertices),
        l_connected=is_connected(living),
        even=all_labels_even(g),
        hypothesis_holds=check_hypothesis(g, mode),
        cycle_rank=cycle_rank(g),
    )
    if not (diags.lf_connected and diags.lf_dominant):
        return Verdict(STATUS_OUT, PROV_MMW_NECESSARY, diags)
    if diags.l_connected:
        return Verdict(STATUS_IN, PROV_MMW_SUFFICIENT, diags)
    if diags.even and diags.hypothesis_holds:
        return Verdict(STATUS_OUT, PROV_THEOREM_A, diags)
    if diags.cycle_rank <= 2:
        return Verdict(STATUS_OUT, PROV_LOW_CYCLE_RANK, diags)
    return Verdict(STATUS_OUT_CONJECTURAL, PROV_CONJECTURE_ONLY, diags)
