"""Synthesis and mapping tools for the polymorphic fabric.

Truth tables, exact two-level minimisation (Quine-McCluskey/Petrick),
hazard-free asynchronous covers and the macro library (LUTs, latches,
flip-flops, C-elements, ECSEs, adder slices).
"""

from repro.synth.asyncfsm import (
    FlowTable,
    c_element_table,
    count_sic_hazards,
    d_latch_table,
    dff_master_table,
    dff_slave_table,
    ecse_table,
    has_shared_cover,
    hazard_free_cover,
)
from repro.synth.macros import (
    Macro,
    PlacedMacro,
    c_element_pair,
    complement_cell,
    d_latch_pair,
    dff_pair,
    ecse_pair,
    feedthrough_cell,
    full_adder_slice,
    full_adder_testbench,
    lut_pair,
    lut_pair_from_table,
    macro_netlist,
    place,
)
from repro.synth.qm import (
    Implicant,
    cover_is_correct,
    cover_to_table,
    minimise,
    prime_implicants,
)
from repro.synth.truthtable import TruthTable

__all__ = [
    "FlowTable",
    "c_element_table",
    "count_sic_hazards",
    "d_latch_table",
    "dff_master_table",
    "dff_slave_table",
    "ecse_table",
    "has_shared_cover",
    "hazard_free_cover",
    "Macro",
    "PlacedMacro",
    "c_element_pair",
    "complement_cell",
    "d_latch_pair",
    "dff_pair",
    "ecse_pair",
    "feedthrough_cell",
    "full_adder_slice",
    "full_adder_testbench",
    "lut_pair",
    "lut_pair_from_table",
    "macro_netlist",
    "place",
    "Implicant",
    "cover_is_correct",
    "cover_to_table",
    "minimise",
    "prime_implicants",
    "TruthTable",
]
