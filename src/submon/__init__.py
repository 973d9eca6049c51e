"""Decision procedures for submonoid membership in one-relator groups."""

from submon.words import Alphabet, Word, Presentation, GroupHom, WordError
from submon.verdict import Verdict, MEMBER, NON_MEMBER, UNKNOWN
from submon.presentations import builtin, select_engine
from submon.deciders import (
    DeciderError, DgInstance, reduce_to_dg_instance,
    decide_surface_submonoid, decide_surface_magnus, decide_prefix_surface,
    decide_bs_magnus, decide_burns_magnus, decide_positivity_fbc,
    choose_signs, powers_decider, emit_positivity_gadget,
    eliminate_defined_generator,
)

__version__ = "0.1.0"

__all__ = [
    "Alphabet", "Word", "Presentation", "GroupHom", "WordError",
    "Verdict", "MEMBER", "NON_MEMBER", "UNKNOWN",
    "builtin", "select_engine",
    "DeciderError", "DgInstance", "reduce_to_dg_instance",
    "decide_surface_submonoid", "decide_surface_magnus",
    "decide_prefix_surface", "decide_bs_magnus", "decide_burns_magnus",
    "decide_positivity_fbc", "choose_signs", "powers_decider",
    "emit_positivity_gadget", "eliminate_defined_generator",
]
