"""In-memory representation of generalized selection networks.

A Network is a DAG of gates over wires.  Wires are integer ids; each wire has
exactly one source: an input slot, a constant (0/1), or a gate output.  Gates
are either m-selectors of some order n (a full sorter is the m == n case) or
fused combine pairs, which compute one odd/even output pair of the two-layer
combine step of the four-way odd-even merger:

    y''_i = y_i | x_{i+2} | (y_{i-1} & x_{i+1})
    x''_i = (y_{i-1} & x_i) | (y_{i-2} & x_{i+1})

thresholds (a selector's outputs) and combine_masks (a combine pair's) are
the one definition of gate semantics, bit-parallel over lane masks: both
Network.eval_masks and the encoder's constant folding evaluate gates with
them, through each gate's masks method.

Networks are immutable once built (builders append gates, then freeze the
designated output list); evaluation and cost queries are pure.  Gates are
slotted records that nothing mutates after construction.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence


@dataclass(slots=True)
class Selector:
    """Outputs the m largest of its inputs in non-increasing order."""

    inputs: tuple[int, ...]
    outputs: tuple[int, ...]

    @property
    def order(self) -> int:
        return len(self.inputs)

    @property
    def m(self) -> int:
        return len(self.outputs)

    def masks(self, val: Sequence[int], full: int) -> Iterable[tuple[int, int]]:
        """(wire, mask) of each output, val holding each wire's lane mask."""
        return zip(self.outputs, thresholds([val[w] for w in self.inputs], self.m, full)[1:])


@dataclass(slots=True)
class CombinePair:
    """One fused output pair of a combine step.

    Input roles, in order: y_{i-2}, y_{i-1}, y_i, x_i, x_{i+1}, x_{i+2}.
    Out-of-range neighbours are constant wires (TRUE below the ys, FALSE past
    either end).  out_x is the odd output slot (x''_i, the larger of the
    pair), out_y the even slot (y''_i); boundary pairs may produce only one.
    """

    ym2: int
    ym1: int
    yy: int
    xx: int
    xp1: int
    xp2: int
    out_x: int | None
    out_y: int | None

    @property
    def inputs(self) -> tuple[int, ...]:
        return (self.ym2, self.ym1, self.yy, self.xx, self.xp1, self.xp2)

    @property
    def outputs(self) -> tuple[int, ...]:
        outs = []
        if self.out_x is not None:
            outs.append(self.out_x)
        if self.out_y is not None:
            outs.append(self.out_y)
        return tuple(outs)

    def masks(self, val: Sequence[int], full: int) -> Iterable[tuple[int, int]]:
        """(wire, mask) of each output, val holding each wire's lane mask."""
        x, y = combine_masks(val[self.ym2], val[self.ym1], val[self.yy],
                             val[self.xx], val[self.xp1], val[self.xp2])
        return [(w, v) for w, v in ((self.out_x, x), (self.out_y, y)) if w is not None]


Gate = Selector | CombinePair


def thresholds(xs: Sequence[int], m: int, full: int) -> list[int]:
    """Bit-parallel counting over lanes: th[p] (0 <= p <= m) has a lane set
    when at least p of the masks xs have it set; full sets every lane."""
    th = [full] + [0] * m
    for x in xs:
        for p in range(m, 0, -1):
            th[p] |= th[p - 1] & x
    return th


def combine_masks(ym2: int, ym1: int, yy: int, xx: int, xp1: int,
                  xp2: int) -> tuple[int, int]:
    """(x''_i, y''_i) of a combine pair over lane masks of its inputs."""
    return (ym1 & xx) | (ym2 & xp1), yy | xp2 | (ym1 & xp1)


class Network:
    """Wires, gates in topological order, and a designated output sequence."""

    def __init__(self, num_inputs: int):
        self.num_inputs = num_inputs
        # wires 0..num_inputs-1 are the inputs; later ids are constants and
        # gate outputs, numbered in the order they are made
        self.num_wires = num_inputs
        self.gates: list[Gate] = []
        self.first_outputs: list[int] = []  # each gate's first output wire
        self.outputs: list[int] = []
        self._const_wire: dict[int, int] = {}

    # -- construction -----------------------------------------------------

    def input_wires(self) -> list[int]:
        return list(range(self.num_inputs))

    def const_wire(self, bit: int) -> int:
        if bit not in (0, 1):
            raise ValueError("constant wires carry 0 or 1")
        if bit not in self._const_wire:
            self._const_wire[bit] = self.num_wires
            self.num_wires += 1
        return self._const_wire[bit]

    def const_sources(self) -> list[tuple[int, int]]:
        """(wire, bit) of each constant wire."""
        return [(w, bit) for bit, w in self._const_wire.items()]

    def _new_wires(self, count: int) -> tuple[int, ...]:
        base = self.num_wires
        self.num_wires += count
        return tuple(range(base, base + count))

    def _check_defined(self, wires: Sequence[int]) -> None:
        if wires and not (0 <= min(wires) and max(wires) < self.num_wires):
            bad = next(w for w in wires if not 0 <= w < self.num_wires)
            raise ValueError(f"undefined wire {bad}")

    def add_selector(self, inputs: Sequence[int], m: int) -> tuple[int, ...]:
        if not 1 <= m <= len(inputs):
            raise ValueError(f"selector needs 1 <= m <= n, got m={m}, n={len(inputs)}")
        self._check_defined(inputs)
        outs = self._new_wires(m)
        self.gates.append(Selector(tuple(inputs), outs))
        self.first_outputs.append(outs[0])
        return outs

    def add_combine(self, ym2: int, ym1: int, yy: int, xx: int, xp1: int, xp2: int,
                    want_x: bool, want_y: bool) -> tuple[int | None, int | None]:
        self._check_defined((ym2, ym1, yy, xx, xp1, xp2))
        if not (want_x or want_y):
            raise ValueError("combine pair must produce at least one output")
        out_x = out_y = None
        w = self.num_wires
        self.first_outputs.append(w)
        if want_x:
            out_x, w = w, w + 1
        if want_y:
            out_y, w = w, w + 1
        self.num_wires = w
        self.gates.append(CombinePair(ym2, ym1, yy, xx, xp1, xp2, out_x, out_y))
        return out_x, out_y

    def set_outputs(self, wires: Sequence[int]) -> None:
        self._check_defined(wires)
        self.outputs = list(wires)

    # -- queries -----------------------------------------------------------

    def eval(self, bits: Sequence[int]) -> list[int]:
        """Evaluate obliviously on a 0-1 input of length num_inputs."""
        if any(b not in (0, 1) for b in bits):
            raise ValueError("inputs must be 0/1")
        return self.eval_masks(bits, 1)

    def eval_masks(self, masks: Sequence[int], full: int) -> list[int]:
        """Evaluate many inputs at once: bit a of masks[i] is input i of lane
        a, and full sets every lane.  Returns one such mask per output."""
        if len(masks) != self.num_inputs:
            raise ValueError(f"expected {self.num_inputs} inputs, got {len(masks)}")
        val = [0] * self.num_wires
        val[:self.num_inputs] = masks  # input wires come first
        for w, bit in self.const_sources():
            val[w] = full if bit else 0
        for gate in self.gates:
            for w, v in gate.masks(val, full):
                val[w] = v
        return [val[w] for w in self.outputs]

    def gate_histogram(self) -> tuple[dict[tuple[int, int], int], int]:
        """Counts of selector gates keyed by (order, m), plus combine-pair count."""
        hist: dict[tuple[int, int], int] = {}
        combines = 0
        for gate in self.gates:
            if isinstance(gate, Selector):
                key = (gate.order, gate.m)
                hist[key] = hist.get(key, 0) + 1
            else:
                combines += 1
        return hist, combines

    @property
    def num_gates(self) -> int:
        return len(self.gates)

