import contextlib
import io
import json
import re
import signal
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mpgraph import cli
from mpgraph.cli import CliError, _check_data, ingest, main
from mpgraph.distributions import from_json
from mpgraph.dsl import MAX_LOOP_DEPTH, ModelParseError, parse_model
from mpgraph.graph import NODE_KINDS, FactorGraph

ONE_NODE_MODEL = """
x ~ GaussianMeanVariance(0.0, 1.0)
y ~ GaussianMeanPrecision(x, 1.0)
observe y :: ()
"""

RW_MODEL = """
x[0] ~ GaussianMeanVariance(0.0, 1e12)
d ~ GaussianMeanVariance(0.0, 1e12)
w ~ Gamma(1.0, 1e-12)
u ~ Gamma(1.0, 1e-12)
for t in 1:T {
  m[t] ~ Addition(x[t-1], d)
  x[t] ~ GaussianMeanPrecision(m[t], w)
  y[t] ~ GaussianMeanPrecision(x[t], u)
  observe y[t] :: ()
}
"""

HMM_MODEL = """
A ~ Dirichlet([[1.0, 1.0], [1.0, 1.0]])
m1 ~ GaussianMeanVariance([0.0, 0.0], [[1e12, 0.0], [0.0, 1e12]])
W1 ~ Wishart([[1e12, 0.0], [0.0, 1e12]], 2.0)
m2 ~ GaussianMeanVariance([0.0, 0.0], [[1e12, 0.0], [0.0, 1e12]])
W2 ~ Wishart([[1e12, 0.0], [0.0, 1e12]], 2.0)
x[0] ~ Categorical([0.5, 0.5])
for t in 1:T {
  x[t] ~ Transition(x[t-1], A)
  y[t] ~ GaussianMixture(x[t], m1, W1, m2, W2)
  observe y[t] :: (2,)
}
"""


@pytest.fixture
def rw_files(tmp_path):
    model = tmp_path / "rw.mp"
    model.write_text(RW_MODEL)
    rng = np.random.default_rng(0)
    x, rows = 0.0, []
    for _ in range(20):
        x += -0.1 + rng.normal(0, 0.1)
        rows.append(x + rng.normal(0, 0.3))
    data = tmp_path / "data.csv"
    data.write_text("y\n" + "\n".join(repr(v) for v in rows) + "\n")
    return model, data


class TestIngest:
    def test_csv_matrix(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("y1,y2\n" + "\n".join(f"{i},{i+0.5}" for i in range(50)) + "\n")
        table = ingest(str(p))
        assert table["y"].shape == (50, 2)

    def test_json_scalar_series(self, tmp_path):
        p = tmp_path / "d.json"
        p.write_text(json.dumps({"y": list(np.linspace(0, 1, 48))}))
        table = ingest(str(p))
        assert table["y"].shape == (48,)

    def test_ragged_rows_report_row(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("y1,y2\n1,2\n3\n")
        with pytest.raises(Exception, match="row 3"):
            ingest(str(p))

    def test_non_numeric_cell_reported(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("y\n1.0\nbanana\n")
        with pytest.raises(Exception, match="row 3, column 1"):
            ingest(str(p))

    @pytest.mark.parametrize("cell", ["nan", "inf", "-Infinity", "NaN"])
    def test_non_finite_csv_cell_reported(self, tmp_path, cell):
        p = tmp_path / "d.csv"
        p.write_text(f"y1,y2\n1.0,2.0\n3.0,{cell}\n")
        with pytest.raises(CliError, match=re.escape(f"{p}: non-finite cell at row 3, column 2: {cell!r}")) as info:
            ingest(str(p))
        assert info.value.code == 1

    @pytest.mark.parametrize("content, where", [
        ('{"y": [1.0, NaN, 2.0]}', "key 'y': non-finite value nan at index 1"),
        ('{"y": [[1.0, 2.0], [Infinity, 0.0]]}', "key 'y': non-finite value inf at index 1, 0"),
        ('{"y": [-Infinity]}', "key 'y': non-finite value -inf at index 0"),
    ], ids=["nan", "inf-matrix", "-inf"])
    def test_non_finite_json_value_reported(self, tmp_path, content, where):
        p = tmp_path / "d.json"
        p.write_text(content)
        with pytest.raises(CliError, match=re.escape(f"{p}, {where}")) as info:
            ingest(str(p))
        assert info.value.code == 1


# A JSON object nested past the interpreter's recursion limit.
DEEP_JSON = '{"y": ' + "[" * 5000 + "]" * 5000 + "}"


class TestExitCodes:
    def test_unknown_subcommand_is_parse_error(self, capsys):
        assert main(["frobnicate"]) == 1
        assert "usage" in capsys.readouterr().err

    def test_model_syntax_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.mp"
        bad.write_text("x ~ ~\n")
        data = tmp_path / "d.csv"
        data.write_text("y\n1.0\n")
        assert main(["infer", str(bad), str(data)]) == 1

    @pytest.mark.parametrize("command", ["compile", "infer", "stream"])
    def test_model_file_not_utf8_names_it(self, rw_files, tmp_path, command, capsys):
        _, data = rw_files
        model = tmp_path / "bad.mp"
        model.write_bytes(RW_MODEL.encode() + b"\xff\n")
        args = [str(model)] if command == "compile" else [str(model), str(data)]
        assert main([command, *args, "--const", "T=3", "-o", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {model}: ") and "can't decode byte 0xff" in err

    def test_deep_loop_nesting_is_a_parse_error(self, tmp_path, capsys):
        model = tmp_path / "deep.mp"
        model.write_text("for i in 1:1 {\n" * 3000 + "x ~ Gamma(1.0, 1.0)\n" + "}\n" * 3000)
        assert main(["compile", str(model), "-o", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err
        assert err == f"error: line {MAX_LOOP_DEPTH + 1}, token 7: loops nested more than {MAX_LOOP_DEPTH} deep\n"
        shallow = "for i in 1:1 {\n" * MAX_LOOP_DEPTH + "x ~ Gamma(1.0, 1.0)\n" + "}\n" * MAX_LOOP_DEPTH
        assert parse_model(shallow).variables() == ["x", "_gamma0_shape", "_gamma0_rate"]

    def test_rule_unavailable_is_scheduling_error(self, tmp_path, capsys):
        model = tmp_path / "m.mp"
        # latent variance on a variance-parameterized node has no update rule
        model.write_text(
            "w ~ Gamma(1.0, 1.0)\nx ~ GaussianMeanVariance(0.0, w)\n"
            "y ~ GaussianMeanPrecision(x, 1.0)\nobserve y :: ()\n"
        )
        data = tmp_path / "d.csv"
        data.write_text("y\n1.0\n")
        assert main(["infer", str(model), str(data)]) == 2
        assert "no rule" in capsys.readouterr().err

    def test_latent_variance_is_a_scheduling_error(self, tmp_path, capsys):
        # a variance node's variance is fixed: no rule updates it
        model = tmp_path / "m.mp"
        model.write_text("v ~ Gamma(1.0, 1.0)\ny ~ GaussianMeanVariance(0.0, v)\nobserve y :: ()\n")
        data = tmp_path / "d.csv"
        data.write_text("y\n0.5\n")
        assert main(["infer", str(model), str(data), "-o", str(tmp_path / "out")]) == 2
        assert "no rule for node kind 'gaussian_mean_variance', interface 'variance'" in capsys.readouterr().err

    def test_nonlinear_mean_of_a_variance_node_names_the_node(self, tmp_path, capsys):
        text = ("x ~ GaussianMeanPrecision(0.0, 1.0)\ns ~ Nonlinear(x, softplus)\n"
                "y ~ GaussianMeanVariance(s, 0.5)\nobserve y :: ()\n")
        node = next(n for n in parse_model(text).nodes if n.kind == "gaussian_mean_variance")
        model = tmp_path / "m.mp"
        model.write_text(text)
        data = tmp_path / "d.csv"
        data.write_text("y\n0.5\n")
        assert main(["infer", str(model), str(data), "-o", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err == f"scheduling error: unsupported nonlinear composition at node {node.id}\n"

    @pytest.mark.parametrize("text, factors, interface", [
        # each would read a neighbour as a marginal that no message toward
        # that neighbour can serve: the message toward it has no rule
        ("p ~ Dirichlet([1.0, 1.0])\nz ~ Categorical(p)\ny ~ GaussianMixture(z, 0.0, 1.0, 3.0, 1.0)\n",
         None, "'categorical', interface 'p'"),
        ("A ~ Dirichlet([[1.0, 1.0], [1.0, 1.0]])\nx0 ~ Categorical([0.5, 0.5])\nx1 ~ Transition(x0, A)\n"
         "y ~ GaussianMixture(x1, 0.0, 1.0, 3.0, 1.0)\n", ["x0", "x1", "A"], "'transition', interface 'in'"),
        ("z ~ Categorical([0.5, 0.5])\nm1 ~ GaussianMeanPrecision(0.0, 0.01)\nm2 ~ GaussianMeanPrecision(3.0, 0.01)\n"
         "x ~ GaussianMixture(z, m1, 1.0, m2, 1.0)\ny ~ GaussianMeanPrecision(x, 1.0)\n",
         None, "'gaussian_mixture', interface 'selector'"),
    ], ids=["categorical p", "transition in as a marginal", "mixture selector with a latent out"])
    def test_a_marginal_no_message_serves_is_a_scheduling_error(self, tmp_path, text, factors, interface, capsys):
        model = tmp_path / "m.mp"
        model.write_text(text + "observe y :: ()\n")
        data = tmp_path / "d.csv"
        data.write_text("y\n0.5\n")
        args = ["infer", str(model), str(data), "-o", str(tmp_path / "out")]
        if factors:
            rf = tmp_path / "rf.json"
            rf.write_text(json.dumps({"factors": [{"id": v, "variables": [v]} for v in factors]}))
            args += ["--factorization", str(rf)]
        assert main(args) == 2
        assert f"no rule for node kind {interface}" in capsys.readouterr().err

    def test_numerical_failure(self, tmp_path, capsys):
        model = tmp_path / "m.mp"
        model.write_text(ONE_NODE_MODEL)
        data = tmp_path / "d.csv"
        data.write_text("y\n1e200\n")  # finite, but its square overflows
        assert main(["infer", str(model), str(data), "-o", str(tmp_path / "out")]) == 3
        assert "not finite" in capsys.readouterr().err

    @pytest.mark.parametrize("name, content, where", [
        ("d.csv", "y\n1.0\nnan\n", "row 3, column 1: 'nan'"),
        ("d.json", '{"y": [1.0, Infinity, 2.0]}', "key 'y': non-finite value inf at index 1"),
    ], ids=["csv", "json"])
    def test_non_finite_data_is_a_parse_error(self, rw_files, tmp_path, name, content, where, capsys):
        model, _ = rw_files
        data = tmp_path / name
        data.write_text(content)
        assert main(["infer", str(model), str(data), "--const", "T=3", "-o", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {data}") and where in err and "Traceback" not in err

    @pytest.mark.parametrize("value", ["NaN", "Infinity"])
    def test_non_finite_init_parameter_names_the_file(self, tmp_path, value, capsys):
        # a NaN Dirichlet entry used to construct and exit 3 deep in the run
        model = tmp_path / "hmm.mp"
        model.write_text(HMM_MODEL)
        rng = np.random.default_rng(1)
        data = tmp_path / "d.csv"
        data.write_text("y1,y2\n" + "\n".join(f"{a!r},{b!r}" for a, b in rng.normal(size=(4, 2)).tolist()) + "\n")
        init = tmp_path / "init.json"
        init.write_text('{"A": {"type": "Dirichlet", "params": {"concentration": [[%s, 1.0], [1.0, 1.0]]}}}'
                        % value)
        assert main(["infer", str(model), str(data), "--const", "T=4", "--init", str(init),
                     "-o", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {init}, key 'A': ") and "must be finite" in err

    @pytest.mark.parametrize("params, key", [
        ('"shape": Infinity, "rate": 1.0', "shape"),
        ('"shape": 1.0, "rate": NaN', "rate"),
    ])
    def test_non_finite_gamma_init_names_the_file_and_key(self, rw_files, tmp_path, params, key, capsys):
        # an infinite shape used to construct and exit 3 deep in the run
        model, data = rw_files
        init = tmp_path / "init.json"
        init.write_text('{"w": {"type": "Gamma", "params": {%s}}}' % params)
        assert main(["infer", str(model), str(data), "--const", "T=3", "--init", str(init),
                     "-o", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {init}, key 'w': ") and f"'{key}' must be finite" in err

    @pytest.mark.parametrize("command", ["compile", "infer", "stream"])
    @pytest.mark.parametrize("item", ["T", "T=", "T=four", "=4"])
    def test_malformed_const_names_the_item(self, rw_files, command, item, capsys):
        model, data = rw_files
        args = [str(model)] if command == "compile" else [str(model), str(data)]
        assert main([command, *args, "--const", "T=4", "--const", item]) == 1
        err = capsys.readouterr().err
        assert "--const" in err and repr(item) in err and "Traceback" not in err

    @pytest.mark.parametrize("option, name, content, where", [
        ("data", "d.csv", "y\n", "d.csv"),
        ("data", "d.json", "[0.5, 1.0]", "d.json"),
        ("data", "d.json", '{"y": 3}', "key 'y'"),
        ("--init", "init.json", '{"w": {"type": "Gamma"}}', "key 'w'"),
        ("--init", "init.json", '{"w": {"type": "Gamma", "params": {"alpha": 1.0, "rate": 1.0}}}', "key 'w'"),
        ("--factorization", "rf.json", '{"factors": [{"id": "X"}]}', "'variables'"),
        ("--init", "init.json", '{"w": {"type": "Beta", "params": {}}}', "key 'w'"),
        ("data", "d.json", DEEP_JSON, "maximum recursion depth"),
        ("--init", "init.json", DEEP_JSON, "maximum recursion depth"),
        ("--factorization", "rf.json", DEEP_JSON, "maximum recursion depth"),
        ("data", "d.csv", b"y\n1.0\xff\n", "can't decode byte 0xff"),
        ("data", "d.json", b'{"y": [1.0]}\xff', "can't decode byte 0xff"),
        ("data", "d.json", '{"z": [1.0, 2.0, 3.0]}', "missing placeholder 'y'"),
        ("data", "d.json", '{"y": [[[1.0]], [[2.0]], [[3.0]]]}', "has shape (1, 1), expected ()"),
        ("data", "d.csv", "y\n" + "1" * 200_000 + "\n", "field larger than field limit"),
    ], ids=["header-only-csv", "json-list", "json-scalar-series", "init-without-params",
            "init-wrong-parameter", "factor-without-variables", "init-unknown-type", "deep-json-data",
            "deep-json-init", "deep-json-factorization", "csv-not-utf8", "json-not-utf8",
            "json-without-placeholder", "json-datum-nested-too-deep", "csv-field-too-large"])
    def test_malformed_input_file_names_it(self, rw_files, tmp_path, option, name, content, where, capsys):
        model, data = rw_files
        path = tmp_path / name
        path.write_bytes(content if isinstance(content, bytes) else content.encode())
        if option == "data":
            args = [str(model), str(path)]
        else:
            args = [str(model), str(data), option, str(path)]
        assert main(["infer", *args, "--const", "T=3", "-o", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err
        assert "Traceback" not in err and str(path) in err and where in err

    @pytest.mark.parametrize("entry, key", [
        ('{"zz": {"type": "Gamma", "params": {"shape": 1.0, "rate": 1.0}}}', "'zz'"),
        ('{"w": {"type": "GaussianMeanVariance", "params": {"mean": [0.0], "covariance": [[1.0]]}}}', "'w'"),
    ], ids=["unknown-variable", "wrong-family"])
    def test_init_entry_the_model_rejects_names_the_file(self, rw_files, tmp_path, entry, key, capsys):
        model, data = rw_files
        init = tmp_path / "init.json"
        init.write_text(entry)
        assert main(["infer", str(model), str(data), "--const", "T=3", "--init", str(init),
                     "-o", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {init}: override for ") and key in err


# The model language's tokens, numbers small or out of float range.
TOKENS = ["let", "for", "in", "observe", "x", "y", "t", "T", "A", "softplus",
          *(kind.dsl for kind in NODE_KINDS.values() if kind.dsl),
          "0", "1", "3", "0.5", "-1", "1e400", "-1e400",
          "::", "~", "=", "(", ")", "[", "]", "{", "}", ",", ":"]
# Statements of the forms RW_MODEL lacks, spaced so that words are tokens.
MODEL_LINES = """
let A = [ [ 0.5 , 1 ] , [ 0 , 1 ] ]
let T = 3
m [ t ] ~ Gain ( x [ t - 1 ] , A )
s [ t ] ~ Nonlinear ( x [ t ] , softplus )
z ~ Dirichlet ( [ 1 , 1 ] )
observe y [ t ] :: ( 2 )
"""



@st.composite
def edited_model_lines(draw):
    """A line of a valid model with one token replaced, dropped or added, or
    cut short: streams that get past the first few tokens."""
    line = draw(st.sampled_from([ln for ln in (RW_MODEL + MODEL_LINES).splitlines() if ln])).split()
    at = draw(st.integers(0, len(line)))
    edit = draw(st.sampled_from(["replace", "drop", "add", "cut"]))
    if edit == "cut":
        return line[:at]
    tail = line[at + 1:] if edit != "add" else line[at:]
    return line[:at] + ([draw(st.sampled_from(TOKENS))] if edit != "drop" else []) + tail


class TestParseErrorContract:
    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.one_of(st.lists(st.sampled_from(TOKENS), max_size=12), edited_model_lines()),
                    min_size=1, max_size=6))
    def test_token_streams_parse_or_exit_1_without_traceback(self, lines):
        text = "\n".join(" ".join(line) for line in lines)
        try:
            parse_model(text, {"T": 2})
            return
        except ModelParseError:
            pass
        with tempfile.TemporaryDirectory() as tmp:
            model = Path(tmp) / "m.mp"
            model.write_text(text)
            err = io.StringIO()
            with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
                code = main(["compile", str(model), "--const", "T=2", "-o", str(Path(tmp) / "out")])
        assert code == 1
        assert err.getvalue().startswith("error: ") and "Traceback" not in err.getvalue()

    @pytest.mark.parametrize("text, where", [
        ("let Addition =", "line 1, token 3: unexpected end of input"),
        ("x ~ GaussianMeanVariance(0.0,", "line 1, token 6: unexpected end of input"),
        ("x[1e400] ~ Gamma(1.0, 1.0)", "line 1, token 3: '1e400' is not a finite integer"),
        ("x ~ Gamma(1.0, 1.0)\nobserve x :: (1e400)", "line 2, token 5: '1e400' is not a finite integer"),
        ("let T = 1e400\nfor t in 1:T {\n}", "line 2, token 6: 'T' is not a finite integer"),
    ])
    def test_end_of_input_and_huge_integers_name_line_and_token(self, text, where):
        with pytest.raises(ModelParseError) as err:
            parse_model(text)
        assert str(err.value) == where


# Valid data files for ONE_NODE_MODEL's placeholder y, and near misses.
DATA_FILES = [b"y\n0.5\n", b"y\n0.5\n-1.5\n", b"y1,y2\n1,2\n", b'{"y": [0.5]}', b'{"y": [[0.5], [2]]}',
              b'{"y": [0.5], "z": [[1, 2]]}', b'{"y": [[[0.5]]]}']


@st.composite
def data_file_bytes(draw):
    """Arbitrary bytes, or a data file with bytes replaced, dropped or added."""
    if draw(st.booleans()):
        return draw(st.binary(max_size=40))
    content = bytearray(draw(st.sampled_from(DATA_FILES)))
    for _ in range(draw(st.integers(1, 3))):
        at = draw(st.integers(0, len(content)))
        edit = draw(st.sampled_from(["replace", "drop", "add"]))
        byte = draw(st.sampled_from(list(b"[]{},.:-\"\n0123456789eyz") + [0, 0xff, 0xc3]))
        if edit == "add":
            content.insert(at, byte)
        elif at < len(content):
            if edit == "drop":
                del content[at]
            else:
                content[at] = byte
    return bytes(content)


def test_check_data_exits_1_for_an_observed_index_below_1():
    # a graph built in Python may observe y[0]; the model language rejects it
    g = FactorGraph()
    g.add_node("gaussian_mean_variance", {"out": "x", "mean": 0.0, "variance": 1.0})
    g.add_node("gaussian_mean_precision", {"out": "y", "mean": "x", "precision": 1.0})
    g.observe("y", "y", 0, ())
    with pytest.raises(CliError) as err:
        _check_data(g, {"y": [3.0, 30.0]}, "d.csv")
    assert err.value.code == 1
    assert str(err.value) == "d.csv: the model references y[0], but data series are 1-based"


class TestDataFileContract:
    @settings(max_examples=300, deadline=None)
    @given(st.sampled_from([".csv", ".json"]), data_file_bytes())
    def test_data_file_bytes_infer_or_exit_1_naming_the_file(self, suffix, content):
        with tempfile.TemporaryDirectory() as tmp:
            model = Path(tmp) / "m.mp"
            model.write_text(ONE_NODE_MODEL)
            data = Path(tmp) / f"d{suffix}"
            data.write_bytes(content)
            err = io.StringIO()
            with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
                code = main(["infer", str(model), str(data), "--iters", "2", "-o", str(Path(tmp) / "out")])
            err = err.getvalue()
            assert code in (0, 1, 3) and "Traceback" not in err
            if code == 1:  # a malformed JSON series is named by its key, as in the README
                assert re.match(rf"error: {re.escape(str(data))}(, key '[^']*')?: ", err), err
            if code == 3:  # only a finite datum whose square overflows fails the run
                assert err.startswith("numerical error: ") and np.max(np.abs(ingest(str(data))["y"])) > 1e150


# Constants of the mixed-kind models below: ordinary, degenerate (zero,
# negative, indefinite) and extreme values, scalar or 2-D.
SCALARS = ["1.0", "0.5", "100.0", "1e12", "0.0", "-1.0", "1e-300", "1e300"]
MATRICES = ["[[1.0, 0.0], [0.0, 1.0]]", "[[2.0, 0.5], [0.5, 1.0]]", "[[1.0, 2.0], [2.0, 1.0]]"]
VECTORS = ["[0.0, 0.0]", "[1.0, -1.0]"]
GAUSSIAN_KINDS = ["GaussianMeanVariance", "GaussianMeanPrecision"]


@st.composite
def mixed_kind_models(draw):
    """A small model mixing node kinds: Gaussian, Gamma or Wishart and
    Dirichlet priors, a Gaussian state chain and an HMM chain, Addition, Gain
    and Nonlinear mean sides, and a Gaussian, Probit or mixture observation;
    with its data table and T."""
    two = draw(st.booleans())
    chance = lambda p: draw(st.integers(0, 99)) < 100 * p
    const_g = lambda: draw(st.sampled_from(VECTORS if two else SCALARS))
    const_p = lambda: draw(st.sampled_from(MATRICES if two else SCALARS))
    pick = lambda pool, const: draw(st.sampled_from(pool)) if pool and chance(0.75) else const()
    lines, loop, gaussians, precisions = [], [], [], []
    for name in ("a", "b"):
        if chance(0.6):
            lines.append(f"{name} ~ {draw(st.sampled_from(GAUSSIAN_KINDS))}({const_g()}, {const_p()})")
            gaussians.append(name)
    if chance(0.6):
        if two or chance(0.3):
            scale = draw(st.sampled_from(MATRICES)) if two else "[[1.0]]"
            lines.append(f"W ~ Wishart({scale}, {draw(st.sampled_from(['3.0', '2.0', '1.0', '0.5']))})")
            precisions.append("W")
        else:
            lines.append(f"w ~ Gamma({draw(st.sampled_from(SCALARS))}, {draw(st.sampled_from(SCALARS))})")
            precisions.append("w")
    chain, hmm, categorical = chance(0.6), chance(0.3), False
    if chain:
        lines.append(f"x[0] ~ GaussianMeanVariance({const_g()}, {const_p()})")
    if hmm:
        lines += [f"A ~ Dirichlet([[1.0, 1.0], [1.0, {draw(st.sampled_from(SCALARS))}]])",
                  "k[0] ~ Categorical([0.5, 0.5])"]
    elif chance(0.3):
        lines.append(f"D ~ Dirichlet([1.0, {draw(st.sampled_from(SCALARS))}])")
        categorical = True
    means, previous = list(gaussians), ["x[t-1]"] if chain else []
    gains = ["2.0"] + (MATRICES if two else ["[[1.0, 0.5]]"]) + ["0.0", "1e300"]
    for step in range(draw(st.integers(0, 3))):
        # a source may be the node's own output: a self-loop the model must reject
        node = draw(st.sampled_from(["Addition", "Gain", "Nonlinear"]))
        source = pick(means + previous + [f"h{step}[t]"], const_g)
        other = {"Addition": lambda: pick(means + previous, const_g), "Gain": lambda: draw(st.sampled_from(gains)),
                 "Nonlinear": lambda: draw(st.sampled_from(["softplus", "exp", "tanh", "identity"]))}[node]()
        loop.append(f"h{step}[t] ~ {node}({source}, {other})")
        means.append(f"h{step}[t]")
    if chain:
        kind = draw(st.sampled_from(GAUSSIAN_KINDS))
        precision = pick(precisions, const_p) if kind == "GaussianMeanPrecision" else const_p()
        loop.append(f"x[t] ~ {kind}({pick(means + previous + ['x[t]'], const_g)}, {precision})")
        means.append("x[t]")
    if hmm:
        loop.append("k[t] ~ Transition(k[t-1], A)")
    elif categorical:
        loop.append("k[t] ~ Categorical(D)")
    observation = draw(st.sampled_from(["GaussianMeanPrecision", "GaussianMeanVariance", "Probit"]
                                       + (["GaussianMixture"] if hmm or categorical else [])))
    mean = pick(means, const_g)
    if observation == "GaussianMeanPrecision":
        loop.append(f"y[t] ~ GaussianMeanPrecision({mean}, {pick(precisions, const_p)})")
    elif observation == "GaussianMeanVariance":
        loop.append(f"y[t] ~ GaussianMeanVariance({mean}, {const_p()})")
    elif observation == "Probit":
        loop.append(f"y[t] ~ Probit({mean})")
    else:
        components = ", ".join(f"{pick(gaussians, const_g)}, {pick(precisions, const_p)}" for _ in range(2))
        loop.append(f"y[t] ~ GaussianMixture(k[t], {components})")
    vector = two and observation != "Probit"
    loop.append(f"observe y[t] :: {'(2,)' if vector else '()'}")
    text = "\n".join(lines + ["for t in 1:T {", *("  " + line for line in loop), "}"]) + "\n"
    T = draw(st.integers(2, 3))
    values = [1.0, -1.0] if observation == "Probit" and chance(0.8) else [1.0, -1.0, 0.5, 3.0, 1e200]
    datum = lambda: draw(st.sampled_from(values))
    return text, {"y": [[datum(), datum()] if vector else datum() for _ in range(T)]}, T


# Constants a distribution rejects, and a Probit datum other than +1 or -1:
# each exits 1 naming the model line or the data file.
BAD_INPUTS = {
    "gamma-shape": ("w ~ Gamma(-1.0, 0.5)\nfor t in 1:T {\n  y[t] ~ GaussianMeanPrecision(0.5, w)\n"
                    "  observe y[t] :: ()\n}\n", [0.3, 1.0], "line 1"),
    "wishart-dof-vector": ("W ~ Wishart([[1.0]], [3.0, 4.0])\nfor t in 1:T {\n  y[t] ~ GaussianMeanPrecision(0.5, W)\n"
                           "  observe y[t] :: ()\n}\n", [0.3, 1.0], "line 1"),
    "variance": ("a ~ GaussianMeanVariance(0.5, -1.0)\nfor t in 1:T {\n  y[t] ~ GaussianMeanPrecision(a, 1.0)\n"
                 "  observe y[t] :: ()\n}\n", [0.3, 1.0], "line 1"),
    "indefinite-precision": ("a ~ GaussianMeanPrecision([0.0, 0.0], [[1.0, 2.0], [2.0, 1.0]])\n"
                             "for t in 1:T {\n  y[t] ~ GaussianMeanPrecision(a, [[1.0, 0.0], [0.0, 1.0]])\n"
                             "  observe y[t] :: (2,)\n}\n", [[0.3, 1.0], [1.0, -1.0]], "line 1"),
    "transition-dirichlet": ("a ~ GaussianMeanVariance(0.0, 1.0)\nb ~ GaussianMeanVariance(1.0, 1.0)\n"
                             "w ~ Gamma(1.0, 1.0)\nv ~ Gamma(1.0, 1.0)\nA ~ Dirichlet([[1.0, 1.0], [1.0, 0.0]])\n"
                             "k[0] ~ Categorical([0.5, 0.5])\nfor t in 1:T {\n  k[t] ~ Transition(k[t-1], A)\n"
                             "  y[t] ~ GaussianMixture(k[t], a, w, b, v)\n  observe y[t] :: ()\n}\n",
                             [0.3, 1.0], "line 5"),
    "probit-datum": ("a ~ GaussianMeanVariance(0.0, 1.0)\nfor t in 1:T {\n  y[t] ~ Probit(a)\n"
                     "  observe y[t] :: ()\n}\n", [1.0, 0.5], "d.json: datum y[2] is 0.5"),
}


class _Hang(BaseException):
    """Raised by the alarm: no exit-code handler catches it."""


class TestExitCodeContract:
    @settings(max_examples=150, deadline=None)
    @given(mixed_kind_models())
    def test_mixed_kind_models_exit_by_the_contract(self, case):
        text, data, T = case
        with tempfile.TemporaryDirectory() as tmp:
            model, table = Path(tmp) / "m.mp", Path(tmp) / "d.json"
            model.write_text(text)
            table.write_text(json.dumps(data))
            err = io.StringIO()

            def hang(signum, frame):
                raise _Hang(f"no exit within 30 s:\n{text}")

            previous = signal.signal(signal.SIGALRM, hang)
            signal.alarm(30)
            try:
                with warnings.catch_warnings(), contextlib.redirect_stderr(err), \
                        contextlib.redirect_stdout(io.StringIO()):
                    warnings.simplefilter("ignore", RuntimeWarning)  # overflow on extreme constants
                    code = main(["infer", str(model), str(table), "--const", f"T={T}", "--iters", "3",
                                 "-o", str(Path(tmp) / "out")])
            finally:
                signal.alarm(0)
                signal.signal(signal.SIGALRM, previous)
        err = err.getvalue()
        assert "Traceback" not in err
        prefix = {0: "", 1: "error: ", 2: "scheduling error: ", 3: "numerical error: "}[code]
        assert err.startswith(prefix), (code, err, text)
        if code == 3:  # names the step and instruction, or the free-energy term
            assert re.search(r"step .+, instruction \d+|\(term \d+: ", err), (err, text)


    @pytest.mark.parametrize("name", sorted(BAD_INPUTS))
    def test_bad_constants_and_probit_data_exit_1(self, name, tmp_path, capsys):
        text, values, where = BAD_INPUTS[name]
        model, table = tmp_path / "m.mp", tmp_path / "d.json"
        model.write_text(text)
        table.write_text(json.dumps({"y": values}))
        code = main(["infer", str(model), str(table), "--const", "T=2", "-o", str(tmp_path / "out")])
        err = capsys.readouterr().err
        assert code == 1 and err.startswith("error: ") and where in err, err


class TestInfer:
    def test_one_node_conjugate_posterior(self, tmp_path):
        model = tmp_path / "m.mp"
        model.write_text(ONE_NODE_MODEL)
        data = tmp_path / "d.json"
        data.write_text(json.dumps({"y": [0.8]}))
        out = tmp_path / "out"
        assert main(["infer", str(model), str(data), "--iters", "1", "-o", str(out)]) == 0
        result = json.loads((out / "result.json").read_text())
        post = result["marginals"]["x"]
        # conjugate oracle: precisions 1 + 1, mean = y/2
        assert post["type"] == "GaussianCanonical"
        assert post["params"]["precision"][0][0] == pytest.approx(2.0, abs=1e-12)
        assert post["params"]["weighted_mean"][0] == pytest.approx(0.8, abs=1e-12)
        trace = (out / "free_energy.csv").read_text().splitlines()
        assert trace[0] == "iteration,free_energy_nats"
        assert len(trace) == 2

    def test_artifacts_are_reproducible(self, rw_files, tmp_path):
        model, data = rw_files
        outs = []
        for sub in ("a", "b"):
            out = tmp_path / sub
            code = main(["infer", str(model), str(data), "--const", "T=20",
                         "--iters", "10", "--seed", "7", "-o", str(out)])
            assert code == 0
            outs.append((out / "result.json").read_bytes() + (out / "free_energy.csv").read_bytes())
        assert outs[0] == outs[1]


class TestCompileCommand:
    def test_writes_listings(self, rw_files, tmp_path):
        model, _ = rw_files
        out = tmp_path / "compiled"
        assert main(["compile", str(model), "--const", "T=4", "-o", str(out)]) == 0
        schedule = (out / "schedule.txt").read_text()
        algorithm = (out / "algorithm.txt").read_text()
        assert "schedule X:" in schedule and "q[x[1]] <- msg[" in schedule
        assert "step X:" in algorithm and "free_energy:" in algorithm

    def test_factorization_override(self, rw_files, tmp_path):
        model, data = rw_files
        spec = tmp_path / "rf.json"
        spec.write_text(json.dumps({"factors": [
            {"id": "X", "variables": [f"x[{t}]" for t in range(5)]},
            {"id": "P", "variables": ["d"]},
            {"id": "W", "variables": ["w"]},
            {"id": "U", "variables": ["u"]},
        ]}))
        out = tmp_path / "c2"
        assert main(["compile", str(model), "--const", "T=4",
                     "--factorization", str(spec), "-o", str(out)]) == 0
        assert "schedule P:" in (out / "schedule.txt").read_text()


class TestStreamCommand:
    def test_stream_writes_batches(self, rw_files, tmp_path):
        model, data = rw_files
        out = tmp_path / "stream"
        assert main(["stream", str(model), str(data), "--batch-size", "5",
                     "--iters", "5", "-o", str(out)]) == 0
        files = sorted(out.glob("batch_*.json"))
        assert len(files) == 4
        first = json.loads(files[0].read_text())
        assert "free_energy" in first and "marginals" in first

    def test_stream_records_the_seed(self, rw_files, tmp_path, monkeypatch):
        model, data = rw_files
        for seed, args in (("5", ["--seed", "5"]), ("9", [])):
            monkeypatch.setenv("MPGRAPH_SEED", "9")
            out = tmp_path / f"stream{seed}"
            assert main(["stream", str(model), str(data), "--batch-size", "10", "--iters", "2",
                         *args, "-o", str(out)]) == 0
            batches = [json.loads(f.read_text()) for f in sorted(out.glob("batch_*.json"))]
            assert len(batches) == 2 and all(b["seed"] == int(seed) for b in batches)

    def test_stream_hmm_reanchors_the_chain(self, tmp_path):
        model = tmp_path / "hmm.mp"
        model.write_text(HMM_MODEL)
        rng = np.random.default_rng(3)
        rows = [rng.normal([4.0 * (t % 2), 0.0], 0.5) for t in range(12)]
        data = tmp_path / "hmm.csv"
        data.write_text("y1,y2\n" + "\n".join(f"{a},{b}" for a, b in rows) + "\n")
        out = tmp_path / "stream"
        assert main(["stream", str(model), str(data), "--batch-size", "6",
                     "--iters", "5", "-o", str(out)]) == 0
        batches = [json.loads(f.read_text()) for f in sorted(out.glob("batch_*.json"))]
        assert len(batches) == 2
        assert all(np.all(np.isfinite(b["free_energy"])) for b in batches)

    def test_stream_init_breaks_mixture_symmetry(self, tmp_path):
        model = tmp_path / "hmm.mp"
        model.write_text(HMM_MODEL)
        rng = np.random.default_rng(5)
        rows = [rng.normal([4.0 * (t % 2), 0.0], 0.5) for t in range(40)]
        data = tmp_path / "hmm.csv"
        data.write_text("y1,y2\n" + "\n".join(f"{a},{b}" for a, b in rows) + "\n")
        means = {"m1": [0.0, 0.0], "m2": [4.0, 0.0]}
        init = tmp_path / "init.json"
        init.write_text(json.dumps({k: {"type": "GaussianMeanVariance",
                                        "params": {"mean": m, "covariance": [[1.0, 0.0], [0.0, 1.0]]}}
                                    for k, m in means.items()}))
        for args, separated in (([], False), (["--init", str(init)], True)):
            out = tmp_path / f"stream{len(args)}"
            assert main(["stream", str(model), str(data), "--batch-size", "20", "--iters", "20",
                         *args, "-o", str(out)]) == 0
            batches = [json.loads(f.read_text()) for f in sorted(out.glob("batch_*.json"))]
            assert len(batches) == 2
            for b in batches:
                m1, m2 = (from_json(b["marginals"][k]).mean_vector() for k in ("m1", "m2"))
                assert (m1.tolist() != m2.tolist()) == separated
                if separated:
                    assert abs(m1[0]) < 1.0 and abs(m2[0] - 4.0) < 1.0

    @pytest.mark.parametrize("entry, where", [
        ('{"zz": {"type": "Gamma", "params": {"shape": 1.0, "rate": 1.0}}}', "unknown variable 'zz'"),
        ('{"w": {"type": "Gamma"}}', "key 'w'"),
        ("[1.0]", "expected a JSON object"),
    ], ids=["unknown-variable", "init-without-params", "json-list"])
    def test_stream_init_is_checked_as_infer_checks_it(self, rw_files, tmp_path, entry, where, capsys):
        model, data = rw_files
        init = tmp_path / "init.json"
        init.write_text(entry)
        for command, extra in (("infer", ["--const", "T=20"]), ("stream", ["--batch-size", "5"])):
            assert main([command, str(model), str(data), *extra, "--init", str(init),
                         "-o", str(tmp_path / command)]) == 1
            err = capsys.readouterr().err
            assert err.startswith(f"error: {init}") and where in err and "Traceback" not in err

    def test_stream_reads_the_models_placeholder(self, rw_files, tmp_path):
        model, data = rw_files
        z_model = tmp_path / "rw_z.mp"
        z_model.write_text(RW_MODEL.replace("y[t]", "z[t]"))
        z_data = tmp_path / "z.csv"
        z_data.write_text(data.read_text().replace("y", "z", 1))
        assert main(["infer", str(z_model), str(z_data), "--const", "T=20", "--iters", "3",
                     "-o", str(tmp_path / "infer")]) == 0
        out = tmp_path / "stream"
        assert main(["stream", str(z_model), str(z_data), "--batch-size", "6", "--iters", "3",
                     "-o", str(out)]) == 0
        assert len(list(out.glob("batch_*.json"))) == 4

    def test_each_batch_length_is_parsed_once_for_the_checks(self, tmp_path, monkeypatch):
        # 110 rows in batches of 24: four of 24 and one of 14
        model = tmp_path / "rw.mp"
        model.write_text(RW_MODEL)
        data = tmp_path / "data.csv"
        data.write_text("y\n" + "\n".join(repr(0.1 * t) for t in range(110)) + "\n")
        init = tmp_path / "init.json"
        init.write_text('{"w": {"type": "Gamma", "params": {"shape": 1.0, "rate": 1.0}}}')
        parsed = []
        monkeypatch.setattr(cli, "parse_model", lambda text, constants: parsed.append(constants["T"])
                            or parse_model(text, constants))
        assert main(["stream", str(model), str(data), "--batch-size", "24", "--iters", "2",
                     "--init", str(init), "-o", str(tmp_path / "stream")]) == 0
        # one parse per distinct length for the checks, one per batch for its inference
        assert sorted(parsed) == sorted([24, 14] + [24, 24, 24, 24, 14])

    @pytest.mark.parametrize("size", ["0", "-3"])
    def test_batch_size_below_one_is_rejected(self, rw_files, size, capsys):
        model, data = rw_files
        assert main(["stream", str(model), str(data), "--batch-size", size]) == 1
        err = capsys.readouterr().err
        assert "--batch-size" in err and "Traceback" not in err

    def test_each_batch_is_checked_against_the_model(self, tmp_path, capsys):
        model = tmp_path / "hmm.mp"
        model.write_text(HMM_MODEL)
        data = tmp_path / "flat.csv"
        data.write_text("y\n" + "\n".join(["0.5"] * 8) + "\n")
        assert main(["stream", str(model), str(data), "--batch-size", "4"]) == 1
        assert f"{data}: datum y[1] has 1 values, expected 2" in capsys.readouterr().err


class TestSeedEnv:
    def test_env_seed_used_and_flag_overrides(self, tmp_path, monkeypatch):
        import numpy as np

        model = tmp_path / "m.mp"
        model.write_text(ONE_NODE_MODEL)
        data = tmp_path / "d.json"
        data.write_text(json.dumps({"y": [0.4]}))
        out1, out2, out3 = tmp_path / "o1", tmp_path / "o2", tmp_path / "o3"
        monkeypatch.setenv("MPGRAPH_SEED", "55")
        assert main(["infer", str(model), str(data), "--iters", "1", "-o", str(out1)]) == 0
        assert json.loads((out1 / "result.json").read_text())["seed"] == 55
        assert main(["infer", str(model), str(data), "--iters", "1",
                     "--seed", "7", "-o", str(out2)]) == 0
        assert json.loads((out2 / "result.json").read_text())["seed"] == 7


class TestDemo:
    def test_hmgm_demo_trace_non_increasing_and_converged(self, tmp_path):
        out = tmp_path / "demo"
        assert main(["demo", "hmgm", "--seed", "1", "-o", str(out)]) == 0
        lines = (out / "hmgm_free_energy.csv").read_text().splitlines()[1:]
        trace = [float(line.split(",")[1]) for line in lines]
        assert all(b <= a + 1e-9 for a, b in zip(trace, trace[1:]))
        posterior = json.loads((out / "hmgm_posterior.json").read_text())
        assert posterior["converged"] is True
        assert set(posterior["marginals"]) >= {"T", "m1", "W1", "x[0]"}
