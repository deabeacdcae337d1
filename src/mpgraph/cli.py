"""Command-line front end.

Subcommands: ``compile`` (model -> schedule + algorithm listings), ``infer``
(model + data -> posterior JSON + free-energy CSV), ``stream`` (mini-batch
streaming inference), and ``demo`` (built-in experiments on synthetic data).

Exit codes: 1 for parse errors, 2 for scheduling or rule-selection errors,
3 for numerical failures; the diagnostic goes to standard error.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys
from pathlib import Path

import numpy as np

from .codegen import CompileError, InterpretError, render, render_schedules
from .distributions import DistributionError, from_json as dist_from_json
from .dsl import ModelParseError, parse_model
from .engine import (
    NumericalError,
    compile_model,
    init_marginals,
    predictive_score,
    run_inference,
    streaming_update,
)
from .graph import FactorGraph, GraphError
from .models import (
    Co2Model,
    HmgmModel,
    LgssmModel,
    ProbitSsmModel,
    RandomWalkModel,
    apply_priors,
    sample_generative,
    sample_random_walk_continuations,
)
from .rules import RuleUnavailable
from .scheduler import RecognitionFactorization, SchedulingError, default_factorization

PARSE_ERRORS = (ModelParseError, CompileError, json.JSONDecodeError, OSError, ValueError)
SCHEDULE_ERRORS = (SchedulingError, RuleUnavailable, GraphError)
NUMERIC_ERRORS = (NumericalError, InterpretError, DistributionError, FloatingPointError, np.linalg.LinAlgError)

DATA_DIR = Path(__file__).parent / "data"


class CliError(Exception):
    def __init__(self, message, code):
        super().__init__(message)
        self.code = code


def _json_dump(obj, path: Path):
    path.write_text(json.dumps(obj, indent=2, sort_keys=True) + "\n")


def _write_trace_csv(trace, path: Path):
    lines = ["iteration,free_energy_nats"]
    lines += [f"{i + 1},{f!r}" for i, f in enumerate(trace)]
    path.write_text("\n".join(lines) + "\n")


def _write_data_csv(ys: np.ndarray, path: Path, name: str = "y"):
    ys = np.asarray(ys)
    if ys.ndim == 1:
        header = [name]
        rows = [[repr(float(v))] for v in ys]
    else:
        header = [f"{name}{j + 1}" for j in range(ys.shape[1])]
        rows = [[repr(float(v)) for v in row] for row in ys]
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def _read_text(path: str) -> str:
    """An input file's UTF-8 text; an unreadable file exits 1 naming it."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except (OSError, ValueError) as exc:
        raise CliError(f"{path}: {exc}", 1) from None


def _json_object(path: str) -> dict:
    """The JSON object an input file holds; anything else, nesting too deep
    to decode included, exits 1 naming the file."""
    try:
        obj = json.loads(_read_text(path))
    except (ValueError, RecursionError) as exc:
        raise CliError(f"{path}: {exc}", 1) from None
    if not isinstance(obj, dict):
        raise CliError(f"{path}: expected a JSON object, got {type(obj).__name__}", 1)
    return obj


def _parse_entry(path: str, parse, obj, key=None):
    """``parse(obj)`` on part of an input file; malformed content exits 1
    naming the file and, if given, the JSON key."""
    try:
        return parse(obj)
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        where = f"{path}, key {key!r}" if key is not None else path
        detail = f"missing key {exc}" if isinstance(exc, KeyError) else str(exc)
        raise CliError(f"{where}: {detail}", 1) from None


def _series(values) -> np.ndarray:
    arr = np.asarray(values, dtype=float)
    if arr.ndim == 0:
        raise ValueError(f"expected a list of values, got {values!r}")
    bad = np.flatnonzero(~np.isfinite(arr))
    if bad.size:
        at = np.unravel_index(bad[0], arr.shape)
        raise ValueError(f"non-finite value {float(arr[at])!r} at index {', '.join(map(str, at))}")
    return arr


def ingest(path: str, placeholder: str = "y") -> dict:
    """Load an observation table from CSV (header row, one row per step) or
    JSON ({"name": [...]}) keyed by placeholder name."""
    p = Path(path)
    if not p.exists():
        raise CliError(f"data file not found: {path}", 1)
    if p.suffix.lower() == ".json":
        table = {k: _parse_entry(path, _series, v, k) for k, v in _json_object(path).items()}
        if not table:
            raise CliError(f"{path}: no data series", 1)
        return table
    try:
        with p.open(encoding="utf-8") as fh:
            rows = list(csv.reader(fh))
    except (OSError, ValueError, csv.Error) as exc:
        raise CliError(f"{path}: {exc}", 1) from None
    if len(rows) < 2:
        raise CliError(f"{path}: no CSV data rows after the header", 1)
    header, body = rows[0], rows[1:]
    width = len(header)
    values = []
    for r, row in enumerate(body, start=2):
        if len(row) != width:
            raise CliError(f"{path}: ragged CSV row {r}: expected {width} cells, got {len(row)}", 1)
        parsed = []
        for c, cell in enumerate(row, start=1):
            try:
                value = float(cell)
            except ValueError:
                raise CliError(f"{path}: non-numeric cell at row {r}, column {c}: {cell!r}", 1) from None
            if not math.isfinite(value):
                raise CliError(f"{path}: non-finite cell at row {r}, column {c}: {cell!r}", 1)
            parsed.append(value)
        values.append(parsed)
    arr = np.asarray(values, dtype=float)
    if arr.shape[1] == 1:
        arr = arr[:, 0]
    return {placeholder: arr}


def _check_data(graph: FactorGraph, data: dict, path: str):
    """A data table that does not fit the model's placeholders exits 1 naming its file."""
    for ph in graph.placeholders:
        if ph.name not in data:
            raise CliError(f"{path}: data table is missing placeholder {ph.name!r}", 1)
        series = np.asarray(data[ph.name])
        if ph.index < 1:
            raise CliError(f"{path}: the model references {ph.name}[{ph.index}], but data series are 1-based", 1)
        if ph.index > len(series):
            raise CliError(
                f"{path}: data for {ph.name!r} has {len(series)} entries but the model "
                f"references index {ph.index}", 1,
            )
        row = np.atleast_1d(series[ph.index - 1])
        want = int(np.prod(ph.dims)) if ph.dims else 1
        if row.size != want:
            raise CliError(
                f"{path}: datum {ph.name}[{ph.index}] has {row.size} values, expected {want}", 1,
            )
        if row.ndim > max(len(ph.dims), 1):
            raise CliError(f"{path}: datum {ph.name}[{ph.index}] has shape {row.shape}, expected {ph.dims}", 1)
    binary = {graph.edges[node.interfaces[0]].variable for node in graph.nodes if node.kind == "probit"}
    for node in graph.nodes:
        if "placeholder" in node.constants and graph.edges[node.interfaces[0]].variable in binary:
            name, index = node.constants["placeholder"], node.constants["index"]
            row = np.atleast_1d(np.asarray(data[name])[index - 1])
            bad = row[(row != 1.0) & (row != -1.0)]
            if bad.size:
                raise CliError(f"{path}: datum {name}[{index}] is {float(bad[0])!r}, but a Probit observation "
                               "is +1 or -1", 1)


def _constants(args) -> dict:
    """The ``--const NAME=VALUE`` items as a table of model constants."""
    constants = {}
    for item in args.const or []:
        key, sep, value = item.partition("=")
        try:
            if not (key and sep):
                raise ValueError
            constants[key] = float(value)
        except ValueError:
            raise CliError(f"--const expects NAME=VALUE with a numeric VALUE, got {item!r}", 1) from None
    return constants


def _load_model(args) -> tuple[FactorGraph, RecognitionFactorization]:
    graph = parse_model(_read_text(args.model), _constants(args))
    problems = graph.validate()
    if problems:
        raise SchedulingError("; ".join(problems))
    return graph, _load_factorization(args, graph)


def _load_factorization(args, graph) -> RecognitionFactorization:
    path = getattr(args, "factorization", None)
    if path:
        return _parse_entry(path, RecognitionFactorization.from_json, _json_object(path))
    return default_factorization(graph)


def _seed_of(args) -> int:
    if getattr(args, "seed", None) is not None:
        return args.seed
    env = os.environ.get("MPGRAPH_SEED")
    return int(env) if env else 0


def _outdir(args) -> Path:
    out = Path(getattr(args, "output", None) or ".")
    out.mkdir(parents=True, exist_ok=True)
    return out


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def cmd_compile(args) -> int:
    program = compile_model(*_load_model(args))
    out = _outdir(args)
    (out / "schedule.txt").write_text(render_schedules(program.schedules))
    (out / "algorithm.txt").write_text(render(program.ir))
    print(f"wrote {out / 'schedule.txt'} and {out / 'algorithm.txt'}")
    return 0


def _load_init(path: str) -> dict:
    """The ``--init`` file's marginals; a malformed entry exits 1 naming the
    file and the key."""
    return {k: _parse_entry(path, dist_from_json, v, k) for k, v in _json_object(path).items()}


def _check_init(path: str, graph, rf, overrides: dict):
    # the library's override check, so a bad key or family names the file
    _parse_entry(path, lambda table: init_marginals(graph, rf, table), overrides)


def cmd_infer(args) -> int:
    graph, rf = _load_model(args)
    data = ingest(args.data, _placeholder_name(graph))
    _check_data(graph, data, args.data)
    overrides = _load_init(args.init) if args.init else None
    program = compile_model(graph, rf)
    if overrides is not None:
        _check_init(args.init, program.factorization, rf, overrides)
    result = program.run(data, overrides, max_iters=args.iters, tol=args.tol, seed=_seed_of(args))
    out = _outdir(args)
    _json_dump(result.to_json(), out / "result.json")
    _write_trace_csv(result.free_energy_trace, out / "free_energy.csv")
    print(f"converged={result.converged} iterations={result.iterations} "
          f"F={result.free_energy_trace[-1]!r}" if result.free_energy_trace else "no iterations run")
    return 0


def _placeholder_name(graph: FactorGraph) -> str:
    names = {ph.name for ph in graph.placeholders}
    return sorted(names)[0] if names else "y"


class DslStreamingTemplate:
    """Re-parses the model text per batch with the loop length bound to the
    batch size, writing previous posteriors into the prior nodes."""

    def __init__(self, text: str, constants: dict, length_constant: str = "T"):
        self.text = text
        self.constants = dict(constants)
        self.length_constant = length_constant

    def build(self, batch_len: int, priors: dict):
        constants = dict(self.constants)
        constants[self.length_constant] = batch_len
        graph = parse_model(self.text, constants)
        apply_priors(graph, priors)
        return graph, default_factorization(graph)


def cmd_stream(args) -> int:
    size = args.batch_size
    if size < 1:
        raise CliError(f"--batch-size must be at least 1, got {size}", 1)
    template = DslStreamingTemplate(_read_text(args.model), _constants(args))
    models: dict[int, tuple] = {}  # batch length -> the model its data and --init are checked against

    def model(batch_len: int) -> tuple:
        if batch_len not in models:
            models[batch_len] = template.build(batch_len, {})
        return models[batch_len]

    data = ingest(args.data, _placeholder_name(model(size)[0]))
    length = max(len(series) for series in data.values())
    batches = [{k: v[i: i + size] for k, v in data.items()} for i in range(0, length, size)]
    for batch in batches:
        # the graph streaming_update builds for a batch has its first series' length
        _check_data(model(len(next(iter(batch.values()))))[0], batch, args.data)
    overrides = None
    if args.init:  # initial marginals of the first batch, as ``infer --init``
        overrides = _load_init(args.init)
        _check_init(args.init, *model(len(next(iter(batches[0].values())))), overrides)
    results = streaming_update(template, batches, iters_per_batch=args.iters, tol=args.tol,
                               overrides_fn=lambda batch, priors: overrides if batch is batches[0] else None)
    seed = _seed_of(args)
    out = _outdir(args)
    for i, result in enumerate(results):
        result.seed = seed
        _json_dump(result.to_json(), out / f"batch_{i:03d}.json")
    print(f"streamed {len(results)} batches of size {size} -> {out}")
    return 0


# ---------------------------------------------------------------------------
# Demos
# ---------------------------------------------------------------------------


def _finish_demo(out: Path, name: str, data, result, extra=None):
    _write_data_csv(data["y"], out / f"{name}_data.csv")
    _json_dump(result.to_json(), out / f"{name}_posterior.json")
    _write_trace_csv(result.free_energy_trace, out / f"{name}_free_energy.csv")
    if extra:
        _json_dump(extra, out / f"{name}_report.json")
    print(f"{name}: F={result.free_energy_trace[-1]!r} iterations={result.iterations} "
          f"converged={result.converged}")


def demo_hmgm(seed: int, out: Path):
    data, truth = sample_generative("hmgm", seed)
    model = HmgmModel()
    graph, rf = model.build(len(data["y"]))
    result = run_inference(graph, rf, data, overrides=model.initial_marginals(len(data["y"]), data),
                           max_iters=20, tol=1e-6, seed=seed)
    _finish_demo(out, "hmgm", data, result)


def demo_lgssm(seed: int, out: Path, nonlinear: bool = False):
    data, truth = sample_generative("lgssm-softplus", seed)
    model = LgssmModel(nonlinear=nonlinear)
    T = len(data["y"])
    graph, rf = model.build(T)
    result = run_inference(graph, rf, data, overrides=model.initial_marginals(T),
                           max_iters=100, tol=1e-8, seed=seed)
    name = "nlssm" if nonlinear else "lgssm"
    qu = result.marginals["u"]
    extra = {"q_u": qu.to_json(), "q_W": result.marginals["W"].to_json()}
    _finish_demo(out, name, data, result, extra)


def demo_probit(seed: int, out: Path):
    data, truth = sample_generative("probit-ssm", seed)
    model = ProbitSsmModel()
    T = len(data["y"])
    graph, rf = model.build(T)
    result = run_inference(graph, rf, data, overrides=model.initial_marginals(T),
                           max_iters=50, tol=1e-8, seed=seed, ep_damping=0.5)
    _finish_demo(out, "probit", data, result)


def demo_randomwalk(seed: int, out: Path, samples: int = 1000, trajectories: int = 1000):
    data, truth = sample_generative("random-walk", seed)
    model = RandomWalkModel()
    T = len(data["y"])
    graph, rf = model.build(T)
    init = model.initial_marginals(T)
    result = run_inference(graph, rf, data, overrides=init,
                           max_iters=50, tol=1e-8, seed=seed)
    held = sample_random_walk_continuations(
        seed + 7777, truth["x"][-1], trajectories, 20,
        drift=truth["d"], w=truth["w"], u=truth["u"],
    )
    anchor = (result.marginals[f"x[{T}]"].mean_vector(),
              result.marginals[f"x[{T}]"].covariance_matrix())
    post = {k: result.marginals[k] for k in ("d", "w", "u")}
    q_post = predictive_score(post, lambda p: RandomWalkModel.predictive_pieces(p, anchor),
                              held, samples=samples, seed=seed + 1)
    vague_anchor = (np.zeros(1), np.array([[1e6]]))
    q_init = predictive_score(init, lambda p: RandomWalkModel.predictive_pieces(p, vague_anchor),
                              held, samples=samples, seed=seed + 1)
    extra = {
        "predictive_Q_posterior": q_post,
        "predictive_Q_initial": q_init,
        "samples": samples,
        "trajectories": trajectories,
        "horizon": 20,
    }
    _finish_demo(out, "randomwalk", data, result, extra)


def bundled_co2_series() -> np.ndarray:
    """Synthetic monthly concentration-style series shipped with the package
    (trend plus annual cycle; documented as illustrative, not measurements)."""
    path = DATA_DIR / "co2_synthetic.csv"
    with path.open() as fh:
        rows = list(csv.reader(fh))
    return np.asarray([float(r[0]) for r in rows[1:]], dtype=float)


def demo_co2(seed: int, out: Path, batch_size: int = 24):
    series = bundled_co2_series()
    model = Co2Model()
    batches = [
        {"y": series[i: i + batch_size]} for i in range(0, len(series), batch_size)
    ]
    learn, test = batches[:6], batches[6:]

    def overrides_fn(batch, priors):
        if not priors:
            return model.initial_marginals(batch_size)
        return {k: v for k, v in priors.items() if k in ("d", "gamma", "W", "u")}

    results = streaming_update(model, learn, iters_per_batch=25, tol=1e-7,
                               overrides_fn=overrides_fn)
    last = results[-1]
    tail = f"z[{batch_size}]", f"x[{batch_size}]"
    anchors = ((last.marginals[tail[0]].mean_vector(), last.marginals[tail[0]].covariance_matrix()),
               (last.marginals[tail[1]].mean_vector(), last.marginals[tail[1]].covariance_matrix()))
    held = np.concatenate([b["y"] for b in test]).reshape(1, -1)
    post = {k: last.marginals[k] for k in ("d", "gamma", "W", "u")}
    q_post = predictive_score(post, lambda p: Co2Model.predictive_pieces(p, anchors),
                              held, samples=100, seed=seed + 1)
    init = model.initial_marginals(batch_size)
    vague_anchors = ((np.array([series[0]]), np.array([[1e6]])), (np.zeros(2), 1e6 * np.eye(2)))
    q_init = predictive_score(init, lambda p: Co2Model.predictive_pieces(p, vague_anchors),
                              held, samples=100, seed=seed + 1)
    out.mkdir(parents=True, exist_ok=True)
    _write_data_csv(series, out / "co2_data.csv")
    for i, result in enumerate(results):
        _json_dump(result.to_json(), out / f"co2_batch_{i:03d}.json")
    _json_dump({
        "held_out_avg_loglik_posterior": q_post,
        "held_out_avg_loglik_initial": q_init,
        "learning_batches": len(learn),
        "batch_size": batch_size,
    }, out / "co2_report.json")
    print(f"co2: streamed {len(results)} learning batches; held-out loglik "
          f"{q_post!r} (trained) vs {q_init!r} (initial)")


DEMOS = {
    "hmgm": demo_hmgm,
    "lgssm": demo_lgssm,
    "nlssm": lambda seed, out: demo_lgssm(seed, out, nonlinear=True),
    "probit": demo_probit,
    "randomwalk": demo_randomwalk,
    "co2": demo_co2,
}


def cmd_demo(args) -> int:
    seed = _seed_of(args)
    out = _outdir(args)
    DEMOS[args.name](seed, out)
    return 0


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        raise CliError(message, 1)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="mpgraph",
        description="Message-passing inference compiler for Forney-style factor graphs",
    )
    sub = parser.add_subparsers(dest="command")

    p = sub.add_parser("compile", help="emit schedule and algorithm listings")
    p.add_argument("model")
    p.add_argument("--factorization")
    p.add_argument("--const", action="append", metavar="NAME=VALUE")
    p.add_argument("-o", "--output")
    p.set_defaults(fn=cmd_compile)

    p = sub.add_parser("infer", help="run inference on a model and data set")
    p.add_argument("model")
    p.add_argument("data")
    p.add_argument("--iters", type=int, default=100)
    p.add_argument("--tol", type=float, default=1e-6)
    p.add_argument("--init")
    p.add_argument("--factorization")
    p.add_argument("--const", action="append", metavar="NAME=VALUE")
    p.add_argument("--seed", type=int)
    p.add_argument("-o", "--output")
    p.set_defaults(fn=cmd_infer)

    p = sub.add_parser("stream", help="streaming mini-batch inference")
    p.add_argument("model")
    p.add_argument("data")
    p.add_argument("--batch-size", type=int, default=24)
    p.add_argument("--iters", type=int, default=25)
    p.add_argument("--tol", type=float, default=1e-6)
    p.add_argument("--init")
    p.add_argument("--const", action="append", metavar="NAME=VALUE")
    p.add_argument("--seed", type=int)
    p.add_argument("-o", "--output")
    p.set_defaults(fn=cmd_stream)

    p = sub.add_parser("demo", help="run a built-in experiment")
    p.add_argument("name", choices=sorted(DEMOS))
    p.add_argument("--seed", type=int)
    p.add_argument("-o", "--output")
    p.set_defaults(fn=cmd_demo)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if not getattr(args, "fn", None):
            parser.print_usage(sys.stderr)
            return 1
        return args.fn(args)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.code
    except SCHEDULE_ERRORS as exc:
        print(f"scheduling error: {exc}", file=sys.stderr)
        return 2
    except NUMERIC_ERRORS as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return 3
    except PARSE_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
