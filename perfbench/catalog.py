"""Designs, request specs and the correctness oracle of the benchmark.

A request is described by a small hashable *spec*; its netlist is built
from the spec, freshly, right before the request is timed, so the
service hashes a new object on every request as it would for a real
client.  Everything here is a pure function of its arguments: the same
workload seed always yields the same specs, netlists and edits.
"""

from __future__ import annotations

import random

import numpy as np

from repro.asynclogic.micropipeline import micropipeline_netlist
from repro.datapath.accumulator import accumulator_step_netlist
from repro.datapath.adder import ripple_carry_netlist
from repro.datapath.multiplier import array_multiplier_netlist
from repro.netlist import EventBackend, Netlist
from repro.pnr import assert_defect_clean
from repro.sim.values import ONE, ZERO
from repro.synth.macros import full_adder_testbench

_RANDOM_KINDS = ("nand", "and", "or", "nor", "xor", "not", "buf")
_VARIADIC = ("nand", "and", "or", "nor")


def random_netlist(seed: int, n_gates: int) -> Netlist:
    """A seeded random combinational netlist of ``n_gates`` gates."""
    rng = random.Random(seed)
    nl = Netlist(f"rand{seed}")
    nets = [nl.add_input(f"i{k}").name for k in range(rng.randint(4, 6))]
    for g in range(n_gates):
        kind = rng.choice(_RANDOM_KINDS)
        n_in = {"xor": 2, "not": 1, "buf": 1}.get(kind, rng.randint(2, 3))
        nl.add(kind, f"g{g}", [rng.choice(nets) for _ in range(n_in)], f"n{g}")
        nets.append(f"n{g}")
    for net in nets[-3:]:
        nl.add_output(net)
    return nl


def build(design: tuple) -> Netlist:
    """A fresh netlist for a design spec ``(family, *params)``."""
    family, *params = design
    if family == "rca":
        return ripple_carry_netlist(*params)
    if family == "mul":
        return array_multiplier_netlist(*params)
    if family == "acc":
        return accumulator_step_netlist(*params)
    if family == "fa":
        return full_adder_testbench()[0]
    if family == "mp":
        return micropipeline_netlist(1, data_width=params[0], auto_sink=False)[0]
    if family == "rand":
        return random_netlist(*params)
    raise ValueError(f"unknown design family {family!r}")


def copy_netlist(nl: Netlist, *, rename: int | None = None, kinds=None,
                 inputs=None) -> Netlist:
    """Rebuild ``nl``, optionally renamed and with cells rewritten.

    ``rename`` (a seed) renames every cell and every declared or
    internal net bijectively and shuffles the cell insertion order; the
    port declaration order is kept, so the copy is an isomorph with the
    same canonical hash.  Free nets that are read but not declared keep
    their names, because the canonical hash identifies them by name.
    ``kinds`` / ``inputs`` map cell names to a replacement kind / input
    tuple (the edits of ``edit_repair``).
    """
    kinds = kinds or {}
    inputs = inputs or {}
    cells = list(nl.cells)
    names = {}
    if rename is not None:
        rng = random.Random(rename)
        rng.shuffle(cells)
        keep = set(nl.free_inputs()) - set(nl.inputs)
        nets = [n for n in nl.net_names() if n not in keep]
        order = list(range(len(nets)))
        rng.shuffle(order)
        names = {n: f"w{rename % 997}_{i}" for n, i in zip(nets, order)}
        cell_order = list(range(len(cells)))
        rng.shuffle(cell_order)
        cell_names = {c.name: f"u{rename % 991}_{i}" for c, i in zip(cells, cell_order)}
    else:
        cell_names = {}
    net = lambda n: names.get(n, n)  # noqa: E731 - tiny local map
    out = Netlist(nl.name)
    for p in nl.inputs:
        out.add_input(net(p))
    for p in nl.outputs:
        out.add_output(net(p))
    for c in cells:
        out.add(
            kinds.get(c.name, c.kind),
            cell_names.get(c.name, c.name),
            [net(n) for n in inputs.get(c.name, c.inputs)],
            net(c.output),
            delay=c.delay,
            **dict(c.params),
        )
    return out


def edit_ops(nl: Netlist, rng: random.Random, n_gates: int) -> tuple:
    """``n_gates`` seeded single-gate edits: kind flips and input rewires.

    Two edits in three flip an AND/OR-family gate to another kind of
    that family; the rest rewire one pin of any gate to a net computed
    strictly earlier in topological order (or to a primary input), so
    the edited design stays acyclic and combinational.
    """
    order = nl.topo_order()
    rank = {c.output: i for i, c in enumerate(order)}
    flippable = [c for c in order if c.kind in _VARIADIC]
    ops, touched = [], set()
    while len(ops) < n_gates:
        if rng.random() < 2 / 3:
            cell = rng.choice(flippable)
            if cell.name in touched:
                continue
            new = rng.choice([k for k in _VARIADIC if k != cell.kind])
            ops.append(("kind", cell.name, new))
        else:
            cell = rng.choice(order)
            if cell.name in touched:
                continue
            pin = rng.randrange(len(cell.inputs))
            sources = [n for n in nl.inputs if n not in cell.inputs] + [
                c.output for c in order[:rank[cell.output]] if c.output not in cell.inputs
            ]
            new_inputs = list(cell.inputs)
            new_inputs[pin] = rng.choice(sources)
            ops.append(("wire", cell.name, tuple(new_inputs)))
        touched.add(cell.name)
    return tuple(ops)


def apply_ops(nl: Netlist, ops: tuple) -> Netlist:
    """A fresh copy of ``nl`` with the edit ops applied."""
    kinds = {name: arg for kind, name, arg in ops if kind == "kind"}
    inputs = {name: arg for kind, name, arg in ops if kind == "wire"}
    return copy_netlist(nl, kinds=kinds, inputs=inputs)


# ----------------------------------------------------------------------
# The correctness oracle
# ----------------------------------------------------------------------

def check_artifact(result, n_vectors: int = 256, event_vectors: int = 4) -> None:
    """Prove an artifact against the netlist it was compiled from.

    Combinational designs take the repo's random-vector sweep on both
    simulation backends (``result.verify``).  Stateful designs (the
    micropipeline stage) replay a seeded two-phase handshake on the
    event backend against the source netlist.  Raises on a mismatch.
    """
    if result.design.has_stateful_gates():
        check_handshake(result)
    else:
        result.verify(n_vectors=n_vectors, event_vectors=event_vectors)


def check_handshake(result, tokens: int = 3, seed: int = 0) -> None:
    """Push seeded tokens through a compiled micropipeline stage.

    The fabric is reset through its synthesised rail; the source starts
    from its cells' power-on values.  Every declared output must agree
    after each settled input change.
    """
    source = result.source
    src = EventBackend().elaborate(source)
    fab = EventBackend().elaborate(result.fabric_netlist().netlist)
    if result.reset_wire is not None:
        fab.drive(result.reset_wire, ZERO)
    for name in source.inputs:
        src.drive(name, ZERO)
        fab.drive(result.input_wires[name], ZERO)
    src.run_to_quiescence(max_time=10_000)
    fab.run_to_quiescence(max_time=10_000)
    if result.reset_wire is not None:
        fab.drive(result.reset_wire, ONE)
        fab.run_to_quiescence(max_time=fab.now + 10_000)

    def step(name: str, value: int) -> None:
        src.drive(name, value)
        fab.drive(result.input_wires[name], value)
        src.run_to_quiescence(max_time=src.now + 10_000)
        fab.run_to_quiescence(max_time=fab.now + 10_000)
        for out, wire in result.output_wires.items():
            if src.value(out) != fab.value(wire):
                raise AssertionError(
                    f"handshake mismatch on {out!r} after {name}={value}: "
                    f"source {src.value(out)}, fabric {fab.value(wire)}"
                )

    rng = np.random.default_rng(seed)
    data = [n for n in source.inputs if n.startswith("din")]
    req = ack = ZERO
    for _ in range(tokens):
        for name in data:
            step(name, ONE if rng.integers(2) else ZERO)
        req = ONE if req == ZERO else ZERO
        step("req_in", req)
        ack = ONE if ack == ZERO else ZERO
        step("ack_out", ack)


def check_die(result, defect_map) -> None:
    """A die artifact must avoid every defect and still be correct."""
    assert_defect_clean(result.array, defect_map)
    check_artifact(result)
