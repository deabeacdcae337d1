"""Compile schedules plus the free-energy program into an executable
instruction program with a deterministic, human-readable source listing.

The IR is interpreted rather than transpiled: one instruction per schedule
entry or marginal/energy step, executed against a message array (slots are
reused across iterations), a marginal table, persistent EP site slots, and a
data table. Interpretation is observationally identical to direct schedule
execution because instructions mirror schedule steps one for one.
"""

from __future__ import annotations

import json
import re

import numpy as np

from .distributions import Distribution, PointMass, from_json, product
from .rules import RuleRegistry, default_registry
from .scheduler import (
    FreeEnergyProgram,
    MarginalStep,
    Schedule,
    eval_energy_term,
    slot_text,
)


class CompileError(ValueError):
    pass


class InterpretError(RuntimeError):
    pass


def _slot_json(slot):
    tag = slot[0]
    if tag == "const":
        return ["const", slot[1].to_json()]
    if tag == "data":
        return ["data", list(slot[1])]
    if tag == "void":
        return ["void"]
    return [tag, slot[1]]


def _slot_from_json(obj):
    tag = obj[0]
    if tag == "const":
        return ("const", from_json(obj[1]))
    if tag == "data":
        return ("data", tuple(obj[1]))
    if tag == "void":
        return ("void",)
    return (tag, obj[1])


def _canon_constants(constants: dict) -> dict:
    out = {}
    for key, value in (constants or {}).items():
        if isinstance(value, np.ndarray):
            out[key] = value.tolist()
        elif isinstance(value, tuple):
            out[key] = list(value)
        elif isinstance(value, (np.floating, np.integer)):
            out[key] = float(value)
        else:
            out[key] = value
    return out


class Instruction:
    """One pure step: a rule application, a marginal product, a two-slice
    joint, or a free-energy contribution."""

    def __init__(self, opcode, output, slots, rule_id=None, constants=None, extra=None,
                 writes_site=None, label=""):
        self.opcode = opcode  # rule | product | joint | average_energy | entropy
        self.output = output  # ("msg", i) | ("marginal", key) | ("F",)
        self.slots = list(slots)
        self.rule_id = rule_id
        self.constants = _canon_constants(constants or {})
        self.extra = extra
        self.writes_site = writes_site
        self.label = label

    def to_json(self):
        return {
            "opcode": self.opcode,
            "output": list(self.output),
            "slots": [_slot_json(s) for s in self.slots],
            "rule_id": self.rule_id,
            "constants": self.constants,
            "extra": _slot_json(self.extra) if self.extra else None,
            "writes_site": self.writes_site,
            "label": self.label,
        }

    @classmethod
    def from_json(cls, obj):
        return cls(
            obj["opcode"],
            tuple(obj["output"]),
            [_slot_from_json(s) for s in obj["slots"]],
            obj.get("rule_id"),
            obj.get("constants") or {},
            _slot_from_json(obj["extra"]) if obj.get("extra") else None,
            obj.get("writes_site"),
            obj.get("label", ""),
        )

    def __eq__(self, other):
        return isinstance(other, Instruction) and _canon_json(self.to_json()) == _canon_json(other.to_json())


def _canon_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


class AlgorithmIR:
    """Step programs (one per recognition factor) plus the free-energy
    program, with slot tables describing the run-time storage layout."""

    def __init__(self, steps, free_energy, site_inits, data_slots, marginal_keys):
        self.steps: list[tuple[str, list[Instruction]]] = steps
        self.free_energy: list[Instruction] = free_energy
        self.site_inits: dict[str, Distribution] = site_inits
        self.data_slots: list[tuple[str, int]] = data_slots
        self.marginal_keys: list[str] = marginal_keys

    def to_json(self):
        return {
            "steps": [
                {"factor": fid, "instructions": [ins.to_json() for ins in prog]}
                for fid, prog in self.steps
            ],
            "free_energy": [ins.to_json() for ins in self.free_energy],
            "site_inits": {k: v.to_json() for k, v in self.site_inits.items()},
            "data_slots": [list(d) for d in self.data_slots],
            "marginal_keys": list(self.marginal_keys),
        }

    @classmethod
    def from_json(cls, obj):
        return cls(
            [
                (blk["factor"], [Instruction.from_json(i) for i in blk["instructions"]])
                for blk in obj["steps"]
            ],
            [Instruction.from_json(i) for i in obj["free_energy"]],
            {k: from_json(v) for k, v in obj["site_inits"].items()},
            [tuple(d) for d in obj["data_slots"]],
            list(obj["marginal_keys"]),
        )

    def __eq__(self, other):
        return isinstance(other, AlgorithmIR) and _canon_json(self.to_json()) == _canon_json(other.to_json())


def compile_program(
    schedules: dict[str, Schedule],
    fe_program: FreeEnergyProgram | None,
    graph=None,
) -> AlgorithmIR:
    """Translate schedules and the free-energy program into an AlgorithmIR.

    The instruction count equals the schedule entry count plus marginal and
    energy steps; message arrays are sized exactly by entry count."""
    steps = []
    site_inits: dict[str, Distribution] = {}
    data_slots: list[tuple[str, int]] = []
    marginal_keys: list[str] = []

    def note_slots(slots):
        for slot in slots:
            if slot[0] == "data" and tuple(slot[1]) not in data_slots:
                data_slots.append(tuple(slot[1]))
            if slot[0] == "marginal" and slot[1] not in marginal_keys:
                marginal_keys.append(slot[1])

    for fid, schedule in schedules.items():
        program: list[Instruction] = []
        site_inits.update(schedule.site_inits)
        for i, entry in enumerate(schedule.entries):
            note_slots(entry.slots)
            program.append(
                Instruction(
                    "rule", ("msg", i), entry.slots, entry.rule_id, entry.constants,
                    entry.extra, entry.writes_site,
                    label=f"edge {entry.edge_label[0]} {entry.edge_label[1]}",
                )
            )
        for step in schedule.marginal_steps:
            if isinstance(step, MarginalStep):
                program.append(Instruction("product", ("marginal", step.key), step.inputs))
            else:
                note_slots(step.slots)
                program.append(
                    Instruction("joint", ("marginal", step.key), step.slots, step.rule_id, step.constants)
                )
            if step.key not in marginal_keys:
                marginal_keys.append(step.key)
        steps.append((fid, program))

    fe_instructions: list[Instruction] = []
    if fe_program is not None:
        for term in fe_program.energies:
            note_slots(term.slots)
            fe_instructions.append(
                Instruction("average_energy", ("F",), term.slots, None,
                            dict(term.constants, kind=term.kind), label=term.label)
            )
        for key, weight in fe_program.entropies:
            if key not in marginal_keys:
                marginal_keys.append(key)
            fe_instructions.append(
                Instruction("entropy", ("F",), [("marginal", key)], None, {"weight": weight})
            )
    return AlgorithmIR(steps, fe_instructions, site_inits, data_slots, marginal_keys)


# ---------------------------------------------------------------------------
# Rendering and parsing of the listing
# ---------------------------------------------------------------------------


def _slot_parse(text: str):
    text = text.strip()
    if text == "_":
        return ("void",)
    if text.startswith("msg["):
        return ("entry", int(text[4:-1]))
    if text.startswith("q["):
        return ("marginal", text[2:-1])
    if text.startswith("data["):
        m = re.match(r"data\[(.+)\]\[(\d+)\]$", text)
        return ("data", (m.group(1), int(m.group(2))))
    if text.startswith("const:"):
        return ("const", from_json(json.loads(text[6:])))
    if text.startswith("site["):
        return ("site", text[5:-1])
    raise CompileError(f"unparseable slot {text!r}")


def _split_args(text: str) -> list[str]:
    args, depth, start = [], 0, 0
    for i, ch in enumerate(text):
        if ch in "[{(":
            depth += 1
        elif ch in ")}]":
            depth -= 1
        elif ch == "," and depth == 0:
            args.append(text[start:i])
            start = i + 1
    tail = text[start:].strip()
    if tail:
        args.append(tail)
    return [a.strip() for a in args]


def render(ir: AlgorithmIR) -> str:
    """Deterministic source listing of the compiled program. Re-rendering an
    identical IR yields byte-identical text, and distinct IRs render
    differently (the listing is a lossless serialization)."""
    lines = []
    for site, init in sorted(ir.site_inits.items()):
        lines.append(f"declare site[{site}] = {_canon_json(init.to_json())}")
    for name, index in ir.data_slots:
        lines.append(f"declare data[{name}][{index}]")
    for fid, program in ir.steps:
        lines.append(f"step {fid}:")
        for ins in program:
            lines.append("  " + _render_instruction(ins))
        lines.append("end")
    if ir.free_energy:
        lines.append("free_energy:")
        for ins in ir.free_energy:
            lines.append("  " + _render_instruction(ins))
        lines.append("end")
    return "\n".join(lines) + "\n"


def _render_instruction(ins: Instruction) -> str:
    args = ", ".join(slot_text(s) for s in ins.slots)
    comment = f"  # {ins.label}" if ins.label else ""
    if ins.opcode == "rule":
        extra = f" @ {slot_text(ins.extra)}" if ins.extra else ""
        site = f" -> site[{ins.writes_site}]" if ins.writes_site else ""
        consts = _constants_text(ins.constants)
        return f"msg[{ins.output[1]}] <- {ins.rule_id}({args}){consts}{extra}{site}{comment}"
    if ins.opcode == "product":
        return f"q[{ins.output[1]}] <- {' * '.join(slot_text(s) for s in ins.slots)}"
    if ins.opcode == "joint":
        consts = _constants_text(ins.constants)
        return f"q[{ins.output[1]}] <- joint {ins.rule_id}({args}){consts}"
    if ins.opcode == "average_energy":
        consts = dict(ins.constants)
        kind = consts.pop("kind")
        return f"F += averageEnergy[{kind}]({args}){_constants_text(consts)}{comment}"
    if ins.opcode == "entropy":
        w = ins.constants.get("weight", 1.0)
        return f"F -= {w!r} * entropy({args})"
    raise CompileError(f"unknown opcode {ins.opcode!r}")


def _constants_text(constants: dict) -> str:
    if not constants:
        return ""
    return " with " + _canon_json(constants)


_RULE_RE = re.compile(
    r"msg\[(\d+)\] <- (\S+)\((.*?)\)(?: with (\{.*?\}))?(?: @ (\S+))?(?: -> site\[(\S+)\])?(?:  # (.*))?$"
)
_PRODUCT_RE = re.compile(r"q\[(.+?)\] <- (msg\[.+)$")
_JOINT_RE = re.compile(r"q\[(.+?)\] <- joint (\S+)\((.*?)\)(?: with (\{.*\}))?$")
_ENERGY_RE = re.compile(r"F \+= averageEnergy\[(\S+)\]\((.*?)\)(?: with (\{.*?\}))?(?:  # (.*))?$")
_ENTROPY_RE = re.compile(r"F -= (\S+) \* entropy\(q\[(.+)\]\)$")


def parse_listing(text: str) -> AlgorithmIR:
    """Inverse of ``render``; used to verify the listing is lossless."""
    steps: list[tuple[str, list[Instruction]]] = []
    fe: list[Instruction] = []
    site_inits: dict[str, Distribution] = {}
    data_slots: list[tuple[str, int]] = []
    current: list[Instruction] | None = None
    for raw in text.splitlines():
        line = raw.strip()
        if not line:
            continue
        if line.startswith("declare site["):
            name, payload = line[len("declare site["):].split("] = ", 1)
            site_inits[name] = from_json(json.loads(payload))
            continue
        if line.startswith("declare data["):
            m = re.match(r"declare data\[(.+)\]\[(\d+)\]$", line)
            data_slots.append((m.group(1), int(m.group(2))))
            continue
        if line.startswith("step "):
            steps.append((line[5:-1], []))
            current = steps[-1][1]
            continue
        if line == "free_energy:":
            current = fe
            continue
        if line == "end":
            current = None
            continue
        m = _JOINT_RE.match(line)
        if m:
            current.append(Instruction(
                "joint", ("marginal", m.group(1)),
                [_slot_parse(a) for a in _split_args(m.group(3))],
                m.group(2), json.loads(m.group(4)) if m.group(4) else {},
            ))
            continue
        m = _RULE_RE.match(line)
        if m:
            current.append(Instruction(
                "rule", ("msg", int(m.group(1))),
                [_slot_parse(a) for a in _split_args(m.group(3))],
                m.group(2), json.loads(m.group(4)) if m.group(4) else {},
                _slot_parse(m.group(5)) if m.group(5) else None,
                m.group(6), label=m.group(7) or "",
            ))
            continue
        m = _PRODUCT_RE.match(line)
        if m:
            current.append(Instruction(
                "product", ("marginal", m.group(1)),
                [_slot_parse(a) for a in m.group(2).split(" * ")],
            ))
            continue
        m = _ENERGY_RE.match(line)
        if m:
            constants = json.loads(m.group(3)) if m.group(3) else {}
            constants["kind"] = m.group(1)
            fe.append(Instruction(
                "average_energy", ("F",),
                [_slot_parse(a) for a in _split_args(m.group(2))],
                None, constants, label=m.group(4) or "",
            ))
            continue
        m = _ENTROPY_RE.match(line)
        if m:
            fe.append(Instruction(
                "entropy", ("F",), [("marginal", m.group(2))], None,
                {"weight": float(m.group(1))},
            ))
            continue
        raise CompileError(f"unparseable listing line: {line!r}")
    marginal_keys: list[str] = []
    for _, prog in steps:
        for ins in prog:
            for slot in ins.slots:
                if slot[0] == "marginal" and slot[1] not in marginal_keys:
                    marginal_keys.append(slot[1])
            if ins.output[0] == "marginal" and ins.output[1] not in marginal_keys:
                marginal_keys.append(ins.output[1])
    for ins in fe:
        for slot in ins.slots:
            if slot[0] == "marginal" and slot[1] not in marginal_keys:
                marginal_keys.append(slot[1])
    return AlgorithmIR(steps, fe, site_inits, data_slots, marginal_keys)


# ---------------------------------------------------------------------------
# Interpretation
# ---------------------------------------------------------------------------


class Interpreter:
    """Executes an AlgorithmIR against its own mutable storage. Identical
    inputs produce bit-identical outputs; concurrent runs must not share an
    Interpreter."""

    def __init__(self, ir: AlgorithmIR, registry: RuleRegistry | None = None):
        self.ir = ir
        self.registry = registry or default_registry()
        self.sites = {k: v for k, v in ir.site_inits.items()}
        self._programs = dict(ir.steps)
        self._rules = {}
        for _, prog in ir.steps:
            for ins in prog:
                if ins.rule_id and ins.rule_id not in self._rules:
                    self._rules[ins.rule_id] = self.registry.by_id(ins.rule_id)
        self.messages: dict[str, list] = {
            fid: [None] * sum(1 for ins in prog if ins.opcode == "rule")
            for fid, prog in ir.steps
        }

    def _resolve(self, slot, fid, data, marginals):
        tag = slot[0]
        if tag == "entry":
            msg = self.messages[fid][slot[1]]
            return msg.dist
        if tag == "marginal":
            try:
                return marginals[slot[1]]
            except KeyError:
                raise InterpretError(f"marginal {slot[1]!r} missing from the table") from None
        if tag == "data":
            name, index = slot[1]
            try:
                series = data[name]
                value = series[index - 1]
            except (KeyError, IndexError):
                raise InterpretError(f"missing data slot {name}[{index}]") from None
            return PointMass(value)
        if tag == "const":
            return slot[1]
        if tag == "site":
            held = self.sites[slot[1]]
            return held.dist if hasattr(held, "dist") else held
        return None

    def _resolve_extra(self, slot, fid):
        if slot[0] == "entry":
            return self.messages[fid][slot[1]]
        if slot[0] == "site":
            return self.sites[slot[1]]
        return None

    def run_step(self, fid: str, data, marginals):
        program = self._programs[fid]
        msgs = self.messages[fid]
        for pos, ins in enumerate(program):
            try:
                self._execute(ins, fid, msgs, data, marginals)
            except Exception as exc:
                raise InterpretError(
                    f"step {fid}, instruction {pos} ({ins.opcode} -> {ins.output}): {exc}"
                ) from exc
        return marginals

    def _execute(self, ins: Instruction, fid, msgs, data, marginals):
        if ins.opcode == "rule":
            rule = self._rules[ins.rule_id]
            inbound = [self._resolve(s, fid, data, marginals) for s in ins.slots]
            previous = self._resolve_extra(ins.extra, fid) if ins.extra else None
            msg = rule.apply(inbound, ins.constants, previous)
            msgs[ins.output[1]] = msg
            if ins.writes_site:
                self.sites[ins.writes_site] = msg
        elif ins.opcode == "product":
            dists = [self._resolve(s, fid, data, marginals) for s in ins.slots]
            out = dists[0]
            for d in dists[1:]:
                out = product(out, d)
            marginals[ins.output[1]] = out
        elif ins.opcode == "joint":
            rule = self._rules[ins.rule_id]
            inbound = [self._resolve(s, fid, data, marginals) for s in ins.slots]
            marginals[ins.output[1]] = rule.apply(inbound, ins.constants).dist
        else:
            raise InterpretError(f"opcode {ins.opcode!r} is not executable in a step")

    def run_iteration(self, data, marginals):
        for fid, _ in self.ir.steps:
            self.run_step(fid, data, marginals)
        return marginals

    def free_energy(self, data, marginals) -> float:
        total = 0.0
        for pos, ins in enumerate(self.ir.free_energy):
            try:
                if ins.opcode == "average_energy":
                    qs = [self._resolve(s, None, data, marginals) for s in ins.slots]
                    constants = dict(ins.constants)
                    kind = constants.pop("kind")
                    total += eval_energy_term(kind, qs, constants)
                else:
                    q = self._resolve(ins.slots[0], None, data, marginals)
                    from .distributions import differential_entropy

                    total -= ins.constants.get("weight", 1.0) * differential_entropy(q)
            except Exception as exc:
                raise InterpretError(
                    f"free-energy term {pos} ({ins.label or ins.opcode}): {exc}"
                ) from exc
        return total


def interpret(ir: AlgorithmIR, data, marginals, registry=None, iterations: int = 1):
    """Run ``iterations`` full passes over all step programs, updating the
    marginal table in place. Returns (marginals, interpreter)."""
    interp = Interpreter(ir, registry)
    for _ in range(iterations):
        interp.run_iteration(data, marginals)
    return marginals, interp
