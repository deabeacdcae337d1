"""Compile schedules plus the free-energy program into an executable
instruction program with a deterministic, human-readable source listing.

The listing is the IR's one serialization, and this module holds its whole
grammar: each writer sits beside its reader (``slot_text`` and its slot
parser, ``call_text`` and its one call pattern, ``render`` and
``parse_listing``), and ``render_schedule(s)`` write schedules in the same
line forms. ``parse_listing(render(ir)) == ir`` holds field by field (the
``out_variant`` annotation aside).

The IR is interpreted rather than transpiled. A schedule step is the IR's
instruction (``scheduler.Instruction``), so ``compile_program`` assembles the
schedules' steps and the free-energy terms into programs and builds only the
entropy terms. Instructions run against a message array (slots are reused
across iterations), a marginal table, persistent EP site slots, and a data
table. That storage, the one slot resolver and the one executor loop
(``run_items``) live in ``Executor``, which ``Interpreter`` and
``engine.DirectExecutor`` share; the two walk the same instructions and
differ only in that ``DirectExecutor`` runs every instruction alone and
folds each marginal pairwise. The loop runs a lone instruction in its own
frame, reading message and marginal slots itself and calling the rule's
``Rule.apply``. ``Interpreter`` runs each step
program and the free-energy program in the order one planner gives
(``plan_step``): a program's independent instructions of one batched rule or
energy (``distributions.Batch``) run as one call, and a group that raises
falls back to one instruction at a time. Each message and each term has the
bits it gets alone, and a marginal multiplied in one pass
(``distributions.product_all``) has the bits of the pairwise fold
``DirectExecutor`` runs, so interpretation is bit-identical to direct
schedule execution.
"""

from __future__ import annotations

import itertools
import json
import re

import numpy as np

from .distributions import (
    Batch,
    Distribution,
    DistributionError,
    PointMass,
    from_json,
    negative_entropy,
    product,
    product_all,
)
from .graph import energy_function
from .rules import RuleRegistry, default_registry
from .scheduler import FreeEnergyProgram, Instruction, Schedule


class CompileError(ValueError):
    pass


class InterpretError(RuntimeError):
    pass


class AlgorithmIR:
    """Step programs (one per recognition factor) plus the free-energy
    program, with slot tables describing the run-time storage layout."""

    def __init__(self, steps, free_energy, site_inits, data_slots):
        self.steps: list[tuple[str, list[Instruction]]] = steps
        self.free_energy: list[Instruction] = free_energy
        self.site_inits: dict[str, Distribution] = site_inits
        self.data_slots: list[tuple[str, int]] = data_slots

    def __eq__(self, other):
        return isinstance(other, AlgorithmIR) and (
            (self.steps, self.free_energy, self.site_inits, self.data_slots)
            == (other.steps, other.free_energy, other.site_inits, other.data_slots)
        )


def compile_program(schedules: dict[str, Schedule], fe_program: FreeEnergyProgram | None) -> AlgorithmIR:
    """Assemble schedules and the free-energy program into an AlgorithmIR.

    A schedule's steps are the IR's instructions, the same objects: a
    factor's program is its entries, then its marginal steps. Only the
    entropy terms are built here; message arrays are sized exactly by entry
    count."""
    steps = []
    site_inits: dict[str, Distribution] = {}
    for fid, schedule in schedules.items():
        steps.append((fid, [*schedule.entries, *schedule.marginal_steps]))
        site_inits.update(schedule.site_inits)
    free_energy = [] if fe_program is None else fe_program.instructions()
    data_slots: dict[tuple[str, int], None] = {}  # insertion-ordered set
    for program in [*(program for _, program in steps), free_energy]:
        for ins in program:
            for slot in ins.slots:
                if slot[0] == "data":
                    data_slots[slot[1]] = None
    return AlgorithmIR(steps, free_energy, site_inits, list(data_slots))


# ---------------------------------------------------------------------------
# Rendering and parsing of the listing
# ---------------------------------------------------------------------------


def canonical_json(obj) -> str:
    """The one JSON spelling used in listings."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def slot_text(slot) -> str:
    tag = slot[0]
    if tag == "entry":
        return f"msg[{slot[1]}]"
    if tag == "marginal":
        return f"q[{slot[1]}]"
    if tag == "data":
        name, index = slot[1]
        return f"data[{name}][{index}]"
    if tag == "const":
        return "const:" + canonical_json(slot[1].to_json())
    if tag == "site":
        return f"site[{slot[1]}]"
    return "_"


def _slot_parse(text: str):
    """Inverse of ``slot_text``."""
    text = text.strip()
    if text == "_":
        return ("void",)
    if text.startswith("msg["):
        return ("entry", int(text[4:-1]))
    if text.startswith("q["):
        return ("marginal", text[2:-1])
    if text.startswith("data["):
        name, _, index = text[5:-1].rpartition("][")
        return ("data", (name, int(index)))
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


def call_text(head: str, slots, constants=None, extra=None, writes_site=None, label="",
              encode=canonical_json) -> str:
    """One call line of a listing:
    ``head(slots) [with constants] [@ extra] [-> site[...]] [# label]``;
    ``encode`` writes the constants (``canonical_json`` or a memo of it)."""
    text = f"{head}({', '.join(slot_text(s) for s in slots)})"
    if constants:
        text += " with " + encode(constants)
    if extra:
        text += f" @ {slot_text(extra)}"
    if writes_site:
        text += f" -> site[{writes_site}]"
    if label:
        text += f"  # {label}"
    return text


# The inverse of ``call_text``: one pattern for every call line.
_CALL_RE = re.compile(
    r"(?P<head>[^(]+)\((?P<slots>.*?)\)(?: with (?P<constants>\{.*?\}))?(?: @ (?P<extra>\S+))?"
    r"(?: -> site\[(?P<site>\S+)\])?(?:  # (?P<label>.*))?$"
)


def render_schedule(schedule: Schedule) -> str:
    """Deterministic text listing; the contract consumed by golden tests.
    Its steps are written as ``render`` writes them, without constants."""
    lines = [f"site[{site}] <- init:{canonical_json(init.to_json())}" for site, init in schedule.site_inits.items()]
    lines.extend(_render_instruction(step, None) for step in (*schedule.entries, *schedule.marginal_steps))
    return "\n".join(lines) + "\n"


def render_schedules(schedules: dict[str, Schedule]) -> str:
    parts = []
    for fid, schedule in schedules.items():
        parts.append(f"schedule {fid}:")
        body = render_schedule(schedule).rstrip("\n")
        parts.extend("  " + line for line in body.split("\n") if line)
        parts.append("end")
    return "\n".join(parts) + "\n"


def render(ir: AlgorithmIR) -> str:
    """Deterministic source listing of the compiled program, and the IR's
    one serialization: re-rendering an identical IR yields byte-identical
    text, and ``parse_listing`` reads it back to an equal IR. Equal
    constants are encoded once per call."""
    encoded: dict[str, str] = {}  # repr of a constants dict -> its canonical JSON

    def encode(constants: dict) -> str:
        key = repr(constants)
        text = encoded.get(key)
        if text is None:
            text = encoded[key] = canonical_json(constants)
        return text

    lines = []
    for site, init in sorted(ir.site_inits.items()):
        lines.append(f"declare site[{site}] = {canonical_json(init.to_json())}")
    for name, index in ir.data_slots:
        lines.append(f"declare data[{name}][{index}]")
    for fid, program in ir.steps:
        lines.append(f"step {fid}:")
        for ins in program:
            lines.append("  " + _render_instruction(ins, encode))
        lines.append("end")
    if ir.free_energy:
        lines.append("free_energy:")
        for ins in ir.free_energy:
            lines.append("  " + _render_instruction(ins, encode))
        lines.append("end")
    return "\n".join(lines) + "\n"


def _render_instruction(ins: Instruction, encode) -> str:
    """One instruction's line; ``encode`` None leaves its constants out."""
    constants = ins.constants if encode else None
    if ins.opcode == "rule":
        return call_text(f"msg[{ins.output[1]}] <- {ins.rule_id}", ins.slots, constants,
                         ins.extra, ins.writes_site, ins.label, encode)
    if ins.opcode == "product":
        return f"q[{ins.output[1]}] <- {' * '.join(slot_text(s) for s in ins.slots)}"
    if ins.opcode == "joint":
        return call_text(f"q[{ins.output[1]}] <- joint {ins.rule_id}", ins.slots, constants, encode=encode)
    if ins.opcode == "average_energy":
        return call_text(f"F += averageEnergy[{ins.rule_id}]", ins.slots, constants, label=ins.label,
                         encode=encode)
    if ins.opcode == "entropy":
        return call_text(f"F -= {ins.constants.get('weight', 1.0)!r} * entropy", ins.slots)
    raise CompileError(f"unknown opcode {ins.opcode!r}")


def _parse_instruction(line: str) -> Instruction:
    """Inverse of ``_render_instruction``."""
    call = _CALL_RE.match(line)
    if call is None:
        target, arrow, rhs = line.partition(" <- ")
        if not (arrow and target.startswith("q[")):
            raise CompileError(f"unparseable listing line: {line!r}")
        return Instruction("product", ("marginal", target[2:-1]), [_slot_parse(s) for s in rhs.split(" * ")])
    head, label = call["head"], call["label"] or ""
    slots = [_slot_parse(a) for a in _split_args(call["slots"])]
    constants = json.loads(call["constants"]) if call["constants"] else {}
    if head.startswith("F += averageEnergy["):
        return Instruction("average_energy", ("F",), slots, head[len("F += averageEnergy["):-1], constants,
                           label=label)
    if head.startswith("F -= ") and head.endswith(" * entropy"):
        return Instruction("entropy", ("F",), slots, None, {"weight": float(head[5:-len(" * entropy")])})
    target, _, rule_id = head.partition(" <- ")
    if rule_id.startswith("joint "):
        return Instruction("joint", ("marginal", target[2:-1]), slots, rule_id[len("joint "):], constants)
    extra = _slot_parse(call["extra"]) if call["extra"] else None
    return Instruction("rule", ("msg", int(target[4:-1])), slots, rule_id, constants, extra, call["site"], label)


def parse_listing(text: str) -> AlgorithmIR:
    """Inverse of ``render``."""
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
        elif line.startswith("declare data["):
            data_slots.append(_slot_parse(line[len("declare "):])[1])
        elif line.startswith("step "):
            steps.append((line[5:-1], []))
            current = steps[-1][1]
        elif line == "free_energy:":
            current = fe
        elif line == "end":
            current = None
        elif current is None:
            raise CompileError(f"listing line outside a block: {line!r}")
        else:
            current.append(_parse_instruction(line))
    return AlgorithmIR(steps, fe, site_inits, data_slots)


# ---------------------------------------------------------------------------
# Interpretation
# ---------------------------------------------------------------------------


def _energy(kind: str):
    """The average energy of a free-energy term kind (``entropy``: the
    negative entropy); for an unknown kind, one that fails when evaluated,
    as the lookup does."""
    if kind == "entropy":
        return negative_entropy
    try:
        return energy_function(kind)
    except DistributionError:
        return lambda qs, constants: energy_function(kind)(qs, constants)


class Executor:
    """Run-time storage and the executor loop, shared by ``Interpreter`` and
    ``engine.DirectExecutor``: per-step message arrays (each message's
    distribution), the EP site store (distributions), the one slot resolver
    and the one loop that runs a program's instructions (``run_items``:
    ``Rule.apply`` or ``belief`` in a step, ``term`` in F). The programs are
    the step programs, by factor id, and the free-energy program under the
    key None.

    Here each program runs one instruction at a time in program order (its
    plan is every position), as ``engine.DirectExecutor`` runs them;
    ``Interpreter`` plans its programs in groups. F is the terms' values
    summed in program order either way. A datum's value is read from the
    table on its first read in an iteration, and its point mass is shared
    by the rules and F; each ``run_iteration`` reads the table afresh, and
    so does a read of another table. The point mass is kept across
    iterations while the value read has the shape and bits it was built
    from. Concurrent runs must not share an executor."""

    def __init__(self, registry, programs: dict[str, list[Instruction]], free_energy: list[Instruction],
                 site_inits: dict[str, Distribution]):
        self.registry = registry or default_registry()
        self.sites: dict[str, Distribution] = dict(site_inits)
        self._programs = {**programs, None: free_energy}
        self.messages: dict[str, list] = {fid: [None] * sum(1 for ins in program if ins.opcode == "rule")
                                          for fid, program in programs.items()}
        rule_ids = dict.fromkeys(ins.rule_id for program in programs.values() for ins in program if ins.rule_id)
        self._rules = {rule_id: self.registry.by_id(rule_id) for rule_id in rule_ids}
        # (label, kind, slots, constants) per free-energy term
        self.energy_terms = [
            (ins.label or ins.rule_id, ins.rule_id, ins.slots, ins.constants) if ins.opcode == "average_energy"
            else (ins.label or ins.opcode, "entropy", ins.slots, ins.constants)
            for ins in free_energy
        ]
        self._energies = {kind: _energy(kind) for kind in dict.fromkeys(term[1] for term in self.energy_terms)}
        # the order each program runs in: every position alone
        self._plans: dict = {key: range(len(program)) for key, program in self._programs.items()}
        self.values: list = []  # the free-energy terms' values in the evaluation under way
        self._data = None  # the data table read in this iteration
        self._fresh: dict = {}  # data slot -> its point mass, read in this iteration
        self._points: dict = {}  # data slot -> (its value's shape and bytes, its point mass)

    def resolve(self, slot, fid, data, marginals):
        """The value a slot reads: a message, marginal, datum, constant or
        site; None for a void slot."""
        tag = slot[0]
        if tag == "entry":
            return self.messages[fid][slot[1]]
        if tag == "marginal":
            try:
                return marginals[slot[1]]
            except KeyError:
                raise InterpretError(f"marginal {slot[1]!r} missing from the table") from None
        if tag == "data":
            if data is not self._data:
                self._data, self._fresh = data, {}
            point = self._fresh.get(slot[1])
            if point is None:
                name, index = slot[1]
                try:
                    if index < 1:  # data series are 1-based; index 0 would read the last entry
                        raise IndexError
                    value = data[name][index - 1]
                except (KeyError, IndexError):
                    raise InterpretError(f"missing data slot {name}[{index}]") from None
                value = np.asarray(value, dtype=float)
                bits = value.shape, value.tobytes()
                kept = self._points.get(slot[1])
                if kept is None or kept[0] != bits:
                    kept = self._points[slot[1]] = bits, PointMass(value)
                point = self._fresh[slot[1]] = kept[1]
            return point
        if tag == "const":
            return slot[1]
        if tag == "site":
            return self.sites[slot[1]]
        return None

    def belief(self, beliefs) -> Distribution:
        """The product of ``beliefs``, ``product`` folded left to right."""
        out = beliefs[0]
        for q in beliefs[1:]:
            out = product(out, q)
        return out

    def run_items(self, key, items, data, marginals):
        """The executor loop: run the ``items`` of program ``key`` (a factor
        id, or None for the free-energy program) in order.

        A position runs its instruction alone, in this one frame: a step's
        rule or joint instruction reads its slots (a message as
        ``messages[i]``, a marginal as ``marginals[key]``, every other tag
        and ``extra`` through ``resolve``) and calls its rule's
        ``Rule.apply``, a ``product`` calls ``belief``, and a free-energy
        term is ``term``. A failed step instruction raises naming it. Any
        other item is a group of ``Interpreter``'s plan, run as one call
        (``Interpreter.run_group``); if it raises, the rest of the program
        runs alone (``Interpreter.fall_back``)."""
        if key is None:
            values = self.values
        else:
            program, messages = self._programs[key], self.messages[key]
        rules, resolve = self._rules, self.resolve
        for item in items:
            if item.__class__ is not int:
                try:
                    self.run_group(key, item, data, marginals)
                except Exception:
                    self.fall_back(key, item, data, marginals)
                    return
                continue
            if key is None:
                values[item] = self.term(item, data, marginals)
                continue
            ins = program[item]
            try:
                inbound = []
                for slot in ins.slots:
                    tag = slot[0]
                    if tag == "entry":
                        inbound.append(messages[slot[1]])
                    elif tag == "marginal":
                        try:
                            inbound.append(marginals[slot[1]])
                        except KeyError:  # resolve raises naming the marginal
                            inbound.append(resolve(slot, key, data, marginals))
                    else:
                        inbound.append(resolve(slot, key, data, marginals))
                opcode = ins.opcode
                if opcode == "rule":
                    extra = ins.extra
                    dist = rules[ins.rule_id].apply(
                        inbound, ins.constants, resolve(extra, key, data, marginals) if extra else None).dist
                    messages[ins.output[1]] = dist
                    if ins.writes_site:
                        self.sites[ins.writes_site] = dist
                elif opcode == "product":
                    marginals[ins.output[1]] = self.belief(inbound)
                elif opcode == "joint":
                    marginals[ins.output[1]] = rules[ins.rule_id].apply(inbound, ins.constants).dist
                else:
                    raise InterpretError(f"opcode {opcode!r} is not executable in a step")
            except Exception as exc:
                raise InterpretError(f"step {key}, instruction {item} ({ins.opcode} -> {ins.output}): {exc}") from exc

    def run_step(self, fid: str, data, marginals):
        self.run_items(fid, self._plans[fid], data, marginals)
        return marginals

    def run_iteration(self, data, marginals):
        self._data = None
        for fid in self.messages:
            self.run_step(fid, data, marginals)
        return marginals

    def term(self, pos, data, marginals) -> float:
        """Free-energy term ``pos``'s signed contribution to F; a failure
        raises, naming the term's position and label."""
        label, kind, slots, constants = self.energy_terms[pos]
        try:
            return float(self._energies[kind]([self.resolve(s, None, data, marginals) for s in slots], constants))
        except Exception as exc:
            raise InterpretError(f"free-energy term {pos} ({label}): {exc}") from exc

    def term_values(self, data, marginals):
        """The free-energy program run; then each term's value in program
        order, or, after a failure, the values before the failing term and
        its error."""
        self.values = values = [None] * len(self.energy_terms)
        try:
            self.run_items(None, self._plans[None], data, marginals)
        except InterpretError:
            # every term before the failing one has its value
            yield from itertools.takewhile(lambda value: value is not None, values)
            raise
        yield from values

    def free_energy_terms(self, data, marginals):
        """Yield ``(label, signed contribution to F)`` per free-energy term,
        in program order; a term that fails raises, naming its position and
        label, after the values before it."""
        for (label, *_), value in zip(self.energy_terms, self.term_values(data, marginals)):
            yield label, value

    def free_energy(self, data, marginals) -> float:
        """F: the terms' values summed in program order."""
        total = 0.0
        for value in self.term_values(data, marginals):
            total += value
        return total


class _Group:
    """Instructions of one program that apply one batched rule or energy
    (``distributions.Batch``) with equal constants, run as one call at
    ``position``, the first one's: what they apply (``rule_id``: a rule id
    or a term kind), their program positions, outputs and slots, and the
    slots by column."""

    __slots__ = ("position", "opcode", "rule_id", "constants", "positions", "outputs", "slots", "columns")

    def __init__(self, position, ins, applies):
        self.position = position
        self.opcode = ins.opcode
        self.rule_id = applies
        self.constants = ins.constants
        self.positions: list[int] = []
        self.outputs: list = []
        self.slots: list[tuple] = []
        self.columns: list[tuple] = []

    def add(self, position, ins, out):
        self.positions.append(position)
        self.outputs.append(out[1])
        self.slots.append(ins.slots)


def _constants_key(value):
    """A hashable stand-in for a constants value that compares as it does."""
    if isinstance(value, dict):
        return tuple(sorted((key, _constants_key(v)) for key, v in value.items()))
    if isinstance(value, (list, tuple, np.ndarray)):
        return tuple(_constants_key(v) for v in value)
    return value


def _location(slot):
    """What a slot reads that an instruction may write: a message of the
    step, a marginal or a site; None for data, constants and void."""
    tag = slot[0]
    if tag == "entry":
        return ("msg", slot[1])
    if tag in ("marginal", "site"):
        return slot
    return None


def plan_step(program, batched) -> tuple[list, int]:
    """The order ``Interpreter`` runs a program in (a factor step or the
    free-energy program), and the number of readiness checks planning made
    (at most one per slot and output of each instruction).

    The plan lists program positions (one instruction each) and ``_Group``
    objects. A rule, joint or free-energy instruction of a rule id or term
    kind that ``batched`` names (``entropy`` for an entropy term) joins the
    latest group of its bucket (what it applies, constants and slot tags
    equal) when hoisting it to that group's position changes nothing any
    instruction reads: every input it reads is written by nothing that runs
    at or after the group's position and before it, and nothing that runs
    after the group's position and before it reads or writes its output.
    Otherwise it starts the bucket's next group. Each free-energy term has
    an output of its own (its place in the sum), so the terms of one bucket
    form one group. Writers of a site and readers of ``extra`` run alone.
    One pass: each instruction is checked against one group, through the
    latest position that writes and that reads each location."""
    wrote: dict = {}  # location -> latest run position of a write
    read: dict = {}  # location -> latest run position of a read
    latest: dict = {}  # bucket -> its latest group
    keys: dict[int, object] = {}  # id of a constants dict -> its key
    plan: list = []
    checks = 0
    for pos, ins in enumerate(program):
        slots = (*ins.slots, ins.extra) if ins.extra else ins.slots
        inputs = [loc for loc in map(_location, slots) if loc is not None]
        out = ins.output if ins.output[0] != "F" else ("F", pos)
        applies = ins.rule_id or ins.opcode
        at = pos
        if ins.opcode != "product" and not ins.extra and not ins.writes_site and batched(applies):
            key = keys.get(id(ins.constants))
            if key is None:
                key = keys[id(ins.constants)] = _constants_key(ins.constants)
            bucket = (ins.opcode, applies, key, tuple(slot[0] for slot in ins.slots))
            group = latest.get(bucket)
            if group is not None:
                start = group.position
                checks += 2 + len(inputs)
                if (wrote.get(out, -1) < start and read.get(out, -1) <= start
                        and all(wrote.get(loc, -1) < start for loc in inputs)):
                    at = start
                else:
                    group = None
            if group is None:
                group = latest[bucket] = _Group(pos, ins, applies)
                plan.append(group)
            group.add(pos, ins, out)
        else:
            plan.append(pos)
        for loc in inputs:
            if read.get(loc, -1) < at:
                read[loc] = at
        if wrote.get(out, -1) < at:
            wrote[out] = at
        if ins.writes_site:
            wrote[("site", ins.writes_site)] = pos
    for i, item in enumerate(plan):
        if isinstance(item, _Group):
            if len(item.positions) == 1:
                plan[i] = item.position
            else:
                item.columns = list(zip(*item.slots))
    return plan, checks


class Interpreter(Executor):
    """Executes an AlgorithmIR against its own mutable storage. Identical
    inputs produce bit-identical outputs, the outputs ``DirectExecutor``
    gives on the schedules the IR was compiled from.

    Each step program and the free-energy program run in the order
    ``plan_step`` gives, planned once here: the independent instructions of
    a program that apply one batched rule or energy (``distributions.Batch``)
    with equal constants, such as the per-slice messages toward a precision,
    the two-slice joints or the Gaussian energy terms of a chain, run as one
    call, which computes every result of the group before storing any. A
    rule or energy without a batch body, a site writer and an EP update run
    one instruction at a time. If a group raises, the program goes on one
    instruction at a time from the group's position, so a failure names the
    instruction or term ``DirectExecutor`` names, the first in program order;
    if a group failed although its instructions run alone (beliefs that do
    not stack), its rule or term kind runs one instruction at a time in
    that program from then on, and the program's other groups stay as they
    are."""

    def __init__(self, ir: AlgorithmIR, registry: RuleRegistry | None = None):
        self.ir = ir
        super().__init__(registry, dict(ir.steps), ir.free_energy, ir.site_inits)
        self._batches = {rule_id: rule.batch for rule_id, rule in self._rules.items()
                         if getattr(rule, "batch", None)}
        self._batches.update((kind, energy.batch) for kind, energy in self._energies.items()
                             if isinstance(energy, Batch))
        self._unstacked: set[tuple] = set()  # (program, rule id or kind) whose beliefs did not stack
        self._plans = {key: self._plan(key) for key in self._programs}

    def _plan(self, key):
        return plan_step(self._programs[key],
                         lambda applies: applies in self._batches and (key, applies) not in self._unstacked)[0]

    def belief(self, beliefs) -> Distribution:
        """``Executor.belief`` in one pass over the messages (``product_all``);
        two messages are one ``product``, as in the fold."""
        if len(beliefs) == 2:
            return product(beliefs[0], beliefs[1])
        return product_all(beliefs)

    def _column(self, column, fid, data, marginals) -> list:
        """The values of one slot column of a group. The slots of a column
        share a tag; a message or marginal that is missing raises, and the
        program then runs alone, where ``resolve`` names it."""
        tag = column[0][0]
        if tag == "marginal":
            return [marginals[slot[1]] for slot in column]
        if tag == "entry":
            messages = self.messages[fid]
            return [messages[slot[1]] for slot in column]
        return [self.resolve(slot, fid, data, marginals) for slot in column]

    def run_group(self, fid, group: _Group, data, marginals):
        """Apply a group's rule or energy to all its instructions at once,
        then store the outputs."""
        columns = [self._column(column, fid, data, marginals) for column in group.columns]
        results = self._batches[group.rule_id](columns, group.constants)
        if group.opcode == "rule":
            messages = self.messages[fid]
            for index, dist in zip(group.outputs, results):
                messages[index] = dist
        elif group.opcode == "joint":
            for key, dist in zip(group.outputs, results):
                marginals[key] = dist
        elif fid is None:
            values = self.values
            for pos, value in zip(group.outputs, np.broadcast_to(results, (len(group.outputs),)).tolist()):
                values[pos] = value
        else:  # the instructions then run alone, where the step error names the first
            raise InterpretError(f"opcode {group.opcode!r} is not executable in a step")

    def fall_back(self, key, group: _Group, data, marginals):
        """After ``group`` raised: run program ``key`` alone from the group's
        position, skipping what earlier groups ran, then plan it again
        without the group's rule or term kind."""
        plan, program = self._plans[key], self._programs[key]
        done = {pos for earlier in plan[:plan.index(group)] if earlier.__class__ is not int
                for pos in earlier.positions}
        self.run_items(key, [pos for pos in range(group.position, len(program)) if pos not in done],
                       data, marginals)
        self._unstacked.add((key, group.rule_id))
        self._plans[key] = self._plan(key)
