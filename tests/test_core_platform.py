"""Tests for the high-level platform API and experiment reports."""

import pytest

from repro.core.platform import PolymorphicPlatform
from repro.core.report import ExperimentReport
from repro.sim.values import ONE
from repro.synth.macros import complement_cell, lut_pair_from_table
from repro.synth.truthtable import TruthTable


class TestPlatform:
    def test_place_compile_and_run(self):
        p = PolymorphicPlatform(1, 2)
        placed = p.place(complement_cell(1), 0, 0)
        p.drive_bit(placed.inputs["x0"], 1)
        p.settle()
        assert p.bit(placed.outputs["x0"]) == 1
        assert p.bit(placed.outputs["x0_n"]) == 0

    def test_config_frozen_after_compile(self):
        p = PolymorphicPlatform(1, 2)
        p.place(complement_cell(1), 0, 0)
        p.compile()
        with pytest.raises(RuntimeError, match="frozen"):
            p.place(complement_cell(1), 0, 1)

    def test_connect_folded_route(self):
        p = PolymorphicPlatform(1, 2)
        placed = p.place(complement_cell(1), 0, 0)
        # Fold the complemented output back onto a free wire.
        p.connect(placed.outputs["x0_n"], "w[0][0][5]")
        p.drive_bit(placed.inputs["x0"], 0)
        p.settle()
        assert p.value("w[0][0][5]") == ONE
        assert p.stats().folded_routes == 1

    def test_bit_rejects_undefined(self):
        p = PolymorphicPlatform(1, 1)
        p.compile()
        p.settle()
        with pytest.raises(ValueError, match="not a clean bit"):
            p.bit("w[0][0][0]")

    def test_stats_accounting(self):
        p = PolymorphicPlatform(2, 4)
        p.place(complement_cell(2), 0, 0)
        stats = p.stats()
        assert stats.n_cells_used == 1
        assert stats.n_gates > 0
        assert stats.config_bits == 2 * 4 * 128

    def test_bitstream_round_trip_through_platform(self):
        p1 = PolymorphicPlatform(1, 3)
        t = TruthTable.from_function(2, lambda a, b: a ^ b)
        macro = lut_pair_from_table(t)
        p1.place(macro, 0, 0)
        bits = p1.array.to_bitstream()

        p2 = PolymorphicPlatform(1, 3)
        p2.load_bitstream(bits)
        # Drive x0=1, x1=0 with complements; expect XOR = 1.
        p2.drive_bit("w[0][0][0]", 1)
        p2.drive_bit("w[0][0][1]", 0)
        p2.drive_bit("w[0][0][2]", 0)
        p2.drive_bit("w[0][0][3]", 1)
        p2.settle()
        assert p2.bit("w[0][2][0]") == 1

    def test_bitstream_shape_mismatch_rejected(self):
        p1 = PolymorphicPlatform(1, 2)
        bits = p1.array.to_bitstream()
        p2 = PolymorphicPlatform(2, 2)
        with pytest.raises(ValueError, match="shape"):
            p2.load_bitstream(bits)

    def test_traces_capture(self):
        p = PolymorphicPlatform(1, 2)
        placed = p.place(complement_cell(1), 0, 0)
        p.trace(placed.outputs["x0"])
        p.drive_bit(placed.inputs["x0"], 0)
        p.settle()
        p.drive_bit(placed.inputs["x0"], 1)
        p.settle()
        wave = p.traces()[placed.outputs["x0"]]
        assert wave.rising_edges()


class TestExperimentReport:
    def test_add_and_render(self):
        rep = ExperimentReport("E0", "smoke")
        rep.add("x", "1", "1")
        rep.add("y", "2", "3", verdict="deviation")
        text = rep.render()
        assert "E0" in text and "deviation" in text
        assert not rep.all_match()

    def test_notes_rendered(self):
        rep = ExperimentReport("E0", "smoke")
        rep.note("caveat text")
        assert "caveat text" in rep.render()
