"""Command-line interface: output schemas, determinism, exit codes."""

import contextlib
import io
import json
import math
import os
import subprocess
import sys
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qtremble.cli import main

pytestmark = pytest.mark.usefixtures("tmp_path")


def run_main(*argv) -> int:
    return main(list(argv))


class TestSurfaceCommand:
    def test_csv_row_count_and_header(self, tmp_path):
        out = tmp_path / "surface.csv"
        rc = run_main("surface", "--game", "PD", "--vary", "A", "--dims", "2",
                      "--opponent", "pure:Q", "--nodes", "65", "--out", str(out))
        assert rc == 0
        lines = out.read_text().splitlines()
        header = lines[0].split(",")
        assert header == ["theta", "alpha", "payoff_A", "payoff_B"]
        assert len(lines) == 1 + 65 * 65
        assert all(len(line.split(",")) == len(header) for line in lines[1:])

    def test_csv_values_round_trip_losslessly(self, tmp_path):
        out = tmp_path / "surface.csv"
        run_main("surface", "--game", "PD", "--vary", "A", "--dims", "1",
                 "--opponent", "pure:C", "--nodes", "9", "--out", str(out))
        rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
        thetas = [float(r[0]) for r in rows]
        assert thetas[0] == -math.pi and thetas[-1] == math.pi

    def test_json_schema(self, tmp_path):
        out = tmp_path / "surface.json"
        rc = run_main("surface", "--game", "SH", "--vary", "B", "--dims", "2",
                      "--opponent", "tremble:C,kappa=1.75", "--nodes", "33",
                      "--format", "json", "--out", str(out))
        assert rc == 0
        doc = json.loads(out.read_text())
        assert doc["columns"] == ["theta", "alpha", "payoff_A", "payoff_B"]
        assert len(doc["rows"]) == 33 * 33
        assert doc["metadata"]["seed"] == 0

    def test_sh_above_threshold_peaks_at_c(self, tmp_path):
        out = tmp_path / "sh.json"
        run_main("surface", "--game", "SH", "--vary", "B", "--dims", "2",
                 "--opponent", "tremble:C,kappa=1.75", "--nodes", "65",
                 "--format", "json", "--out", str(out))
        rows = json.loads(out.read_text())["rows"]
        top = max(rows, key=lambda r: r[3])
        assert abs(top[0]) <= 1e-9  # theta = 0: Bob stays with C

    def test_deterministic_bytes(self, tmp_path):
        first = tmp_path / "a.csv"
        second = tmp_path / "b.csv"
        for path in (first, second):
            rc = run_main("surface", "--game", "PD", "--vary", "B", "--dims", "2",
                          "--opponent", "tremble:Q,kappa=5", "--nodes", "17",
                          "--out", str(path))
            assert rc == 0
        assert first.read_bytes() == second.read_bytes()

    def test_no_temp_files_left_behind(self, tmp_path):
        out = tmp_path / "clean.csv"
        run_main("surface", "--game", "PD", "--vary", "A", "--dims", "1",
                 "--opponent", "pure:C", "--nodes", "9", "--out", str(out))
        assert os.listdir(tmp_path) == ["clean.csv"]

    def test_self_check_failure_exit_code(self, tmp_path):
        rc = run_main("surface", "--game", "PD", "--vary", "A", "--dims", "2",
                      "--opponent", "tremble:Q,kappa=25", "--quad-nodes", "8",
                      "--nodes", "9", "--self-check", "--out", str(tmp_path / "x.csv"))
        assert rc == 4

    def test_custom_game_file(self, tmp_path):
        game_file = tmp_path / "game.json"
        game_file.write_text(json.dumps({
            "name": "custom", "a": [[1, 0], [0, 1]], "b": [[1, 0], [0, 1]],
        }))
        out = tmp_path / "out.csv"
        rc = run_main("surface", "--game", str(game_file), "--vary", "A",
                      "--dims", "1", "--opponent", "pure:C", "--nodes", "9",
                      "--out", str(out))
        assert rc == 0
        assert len(out.read_text().splitlines()) == 10


class TestThpCommand:
    def test_eg_two_parameter_failures(self, tmp_path):
        out = tmp_path / "eg.json"
        rc = run_main("thp", "--game", "EG", "--profile", "D:D", "--tremble-dims", "2",
                      "--kappa", "1,5", "--format", "json", "--out", str(out))
        assert rc == 0
        doc = json.loads(out.read_text())
        assert [v["holds"] for v in doc["verdicts"]] == [False, False]

    def test_eg_three_parameter_survival(self, tmp_path):
        out = tmp_path / "eg3.json"
        rc = run_main("thp", "--game", "EG", "--profile", "D:D", "--tremble-dims", "3",
                      "--response-dims", "2", "--kappa", "1", "--format", "json",
                      "--out", str(out))
        assert rc == 0
        doc = json.loads(out.read_text())
        assert doc["verdicts"][0]["holds"] is True

    def test_pd_quantum_profile_holds(self, tmp_path):
        out = tmp_path / "pd.csv"
        rc = run_main("thp", "--game", "PD", "--profile", "Q:Q", "--tremble-dims", "2",
                      "--kappa", "5", "--out", str(out))
        assert rc == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "kappa,holds,distance,margin"
        assert lines[1].startswith("5,true,")

    def test_triple_literal_profile(self, tmp_path):
        out = tmp_path / "triple.json"
        rc = run_main("thp", "--game", "PD", "--profile", "0,3.141592653589793,0:Q",
                      "--tremble-dims", "2", "--kappa", "1", "--format", "json",
                      "--out", str(out))
        assert rc == 0
        assert json.loads(out.read_text())["verdicts"][0]["holds"] is True


class TestThresholdCommand:
    def test_sh_bracket(self, tmp_path):
        out = tmp_path / "sh.json"
        rc = run_main("threshold", "--game", "SH", "--profile", "C:C",
                      "--tremble-dims", "2", "--lo", "1", "--hi", "5",
                      "--format", "json", "--out", str(out))
        assert rc == 0
        doc = json.loads(out.read_text())
        assert 1.5 < doc["kappa_star"] <= 1.75
        assert doc["bracket"][1] - doc["bracket"][0] <= doc["tol"]

    def test_no_bracket_exit_code(self, tmp_path):
        rc = run_main("threshold", "--game", "PD", "--profile", "Q:Q",
                      "--tremble-dims", "2", "--lo", "0.5", "--hi", "5",
                      "--out", str(tmp_path / "x.json"))
        assert rc == 3


class TestClassicalCommand:
    def test_json_verdicts(self, tmp_path):
        out = tmp_path / "eg.json"
        rc = run_main("classical", "--game", "EG", "--format", "json", "--out", str(out))
        assert rc == 0
        doc = json.loads(out.read_text())
        assert doc["thp"]["C,C"] is True
        assert doc["thp"]["D,D"] is False
        kinds = {tuple(e["profile"]): e["kind"] for e in doc["equilibria"]}
        assert kinds == {("C", "C"): "strict", ("D", "D"): "weak"}
        assert len(doc["surface"]) == 65 * 65

    def test_pd_equilibria(self, tmp_path):
        out = tmp_path / "pd.json"
        run_main("classical", "--game", "PD", "--format", "json", "--out", str(out))
        doc = json.loads(out.read_text())
        assert [e["profile"] for e in doc["equilibria"]] == [["D", "D"]]
        assert doc["thp"]["D,D"] is True

    def test_sh_both_perfect(self, tmp_path):
        out = tmp_path / "sh.json"
        run_main("classical", "--game", "SH", "--format", "json", "--out", str(out))
        doc = json.loads(out.read_text())
        assert doc["thp"]["C,C"] is True and doc["thp"]["D,D"] is True

    def test_csv_surface(self, tmp_path):
        out = tmp_path / "sh.csv"
        rc = run_main("classical", "--game", "SH", "--nodes", "11", "--out", str(out))
        assert rc == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "p_A,p_B,payoff_A,payoff_B"
        assert len(lines) == 1 + 11 * 11


class TestErrorHandling:
    def test_unknown_game_exit_code(self, tmp_path):
        rc = run_main("surface", "--game", "NOPE", "--vary", "A", "--dims", "1",
                      "--opponent", "pure:C", "--out", str(tmp_path / "x.csv"))
        assert rc == 2

    def test_bad_opponent_literal(self, tmp_path):
        rc = run_main("surface", "--game", "PD", "--vary", "A", "--dims", "2",
                      "--opponent", "garbage", "--out", str(tmp_path / "x.csv"))
        assert rc == 2

    def test_bad_profile(self, tmp_path):
        rc = run_main("thp", "--game", "PD", "--profile", "Q", "--tremble-dims", "2",
                      "--kappa", "1", "--out", str(tmp_path / "x.csv"))
        assert rc == 2

    @pytest.mark.parametrize("angle", ["nan", "inf", "-inf"])
    def test_non_finite_profile_angle(self, tmp_path, capsys, angle):
        out = tmp_path / "x.csv"
        rc = run_main("thp", "--game", "SH", f"--profile={angle},0,0:C",
                      "--kappa", "1", "--out", str(out))
        assert rc == 2
        assert "finite" in capsys.readouterr().err
        assert not out.exists()

    def test_oversized_quad_nodes(self, tmp_path, capsys):
        rc = run_main("thp", "--game", "SH", "--profile", "C:C", "--kappa", "1",
                      "--quad-nodes", str(2**40), "--out", str(tmp_path / "x.csv"))
        assert rc == 2
        assert "quadrature nodes" in capsys.readouterr().err

    def test_oversized_default_grid(self, tmp_path, capsys):
        # The closed form answers at any kappa; only the self-check needs the
        # quadrature default, which would take about 3.9e7 nodes per axis here.
        out = tmp_path / "x.csv"
        rc = run_main("thp", "--game", "SH", "--profile", "C:C", "--kappa", "1e13",
                      "--out", str(out))
        assert rc == 0
        assert out.read_text().splitlines()[1].startswith("10000000000000,true,")
        rc = run_main("surface", "--game", "SH", "--vary", "B", "--dims", "2",
                      "--opponent", "tremble:C,kappa=1e13", "--nodes", "9", "--self-check",
                      "--out", str(tmp_path / "y.csv"))
        assert rc == 2
        assert "quadrature nodes" in capsys.readouterr().err
        assert not (tmp_path / "y.csv").exists()

    def test_largest_payoffs_answer_finite(self, tmp_path):
        game = tmp_path / "big.json"
        game.write_text(json.dumps({"name": "big", "a": [[1e300, -1e300], [1e300, 1e300]],
                                    "b": [[1e300, 0], [-1e300, 1e300]]}))
        out = tmp_path / "x.json"
        rc = run_main("thp", "--game", str(game), "--profile", "C:C", "--kappa", "1,5",
                      "--both-sides", "--format", "json", "--out", str(out))
        assert rc == 0
        json.loads(out.read_text(), parse_constant=_reject_constant)

    def test_bad_mixture_weights(self, tmp_path):
        rc = run_main("surface", "--game", "EG", "--vary", "B", "--dims", "1",
                      "--opponent", "mix:C=0.7,D=0.7", "--out", str(tmp_path / "x.csv"))
        assert rc == 2


    def test_non_finite_mixture_weight(self, tmp_path, capsys):
        out = tmp_path / "x.csv"
        rc = run_main("surface", "--game", "PD", "--vary", "B",
                      "--opponent", "mix:C=nan,D=0.5", "--out", str(out))
        assert rc == 2
        assert "finite" in capsys.readouterr().err
        assert not out.exists()

    def test_game_file_must_hold_an_object(self, tmp_path, capsys):
        game = tmp_path / "list.json"
        game.write_text("[1, 2]")
        rc = run_main("thp", "--game", str(game), "--profile", "C:C", "--kappa", "1",
                      "--out", str(tmp_path / "x.csv"))
        assert rc == 2
        assert "object" in capsys.readouterr().err

    def test_sharp_kappa_without_a_grid(self, tmp_path):
        # The largest finite kappa answers through the moments' large-kappa series.
        out = tmp_path / "x.json"
        rc = run_main("thp", "--game", "SH", "--profile", "C:C", "--kappa", "1.7e308",
                      "--format", "json", "--out", str(out))
        assert rc == 0
        verdict = json.loads(out.read_text(), parse_constant=_reject_constant)["verdicts"][0]
        assert verdict["holds"] is True and verdict["distance"] == 0.0

    def test_wrapped_literal_keeps_its_gate(self, tmp_path):
        # U(0.5, -1, 0) = -U(-0.5, 2*pi - 1, 0), so trembles around the two
        # literals are one distribution of gates and give one surface.
        outs = []
        for literal in ("0.5,-1,0", f"-0.5,{2 * math.pi - 1!r},0"):
            out = tmp_path / f"{len(outs)}.csv"
            rc = run_main("surface", "--game", "SH", "--vary", "B", "--dims", "2",
                          "--opponent", f"tremble:{literal},kappa=2", "--nodes", "9",
                          "--out", str(out))
            assert rc == 0
            outs.append([float(x) for line in out.read_text().splitlines()[1:]
                         for x in line.split(",")])
        assert outs[0] == pytest.approx(outs[1], abs=1e-12)


def _reject_constant(name):
    raise ValueError(f"non-finite JSON constant {name}")


class TestClassicalValidation:
    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_nan_epsilon(self, tmp_path, capsys, fmt):
        out = tmp_path / "x.out"
        rc = run_main("classical", "--game", "EG", "--epsilon", "nan", "--format", fmt,
                      "--out", str(out))
        assert rc == 2
        assert "epsilon" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("nodes", ["0", "1", "-5"])
    def test_too_few_nodes(self, tmp_path, capsys, nodes):
        out = tmp_path / "x.csv"
        rc = run_main("classical", "--game", "EG", "--nodes", nodes, "--out", str(out))
        assert rc == 2
        assert "at least 2 nodes" in capsys.readouterr().err
        assert not out.exists()

    def test_oversized_mesh_is_refused_before_allocation(self, tmp_path, capsys):
        out = tmp_path / "x.csv"
        rc = run_main("classical", "--game", "EG", "--nodes", "100000000", "--out", str(out))
        assert rc == 2
        assert "classical nodes exceed" in capsys.readouterr().err
        assert not out.exists()

    def test_largest_mesh_bound(self, tmp_path):
        rc = run_main("classical", "--game", "EG", "--nodes", "2", "--out", str(tmp_path / "x"))
        assert rc == 0
        assert run_main("classical", "--game", "EG", "--nodes", "1025",
                        "--out", str(tmp_path / "y")) == 2


class TestSubprocessEntryPoint:
    def test_module_invocation_is_deterministic(self, tmp_path):
        cmd = [sys.executable, "-m", "qtremble", "thp", "--game", "EG",
               "--profile", "D:D", "--tremble-dims", "2", "--kappa", "1,5",
               "--format", "json"]
        first = subprocess.run(cmd, capture_output=True, check=True)
        second = subprocess.run(cmd, capture_output=True, check=True)
        assert first.stdout == second.stdout
        assert json.loads(first.stdout)["verdicts"][0]["holds"] is False

    def test_tiny_tol_bisection_ends(self):
        # Bisection cannot narrow below the float spacing near kappa = 1.6;
        # it must stop there instead of looping on a fixed midpoint.
        cmd = [sys.executable, "-m", "qtremble", "threshold", "--game", "SH",
               "--profile", "C:C", "--lo", "1", "--hi", "5", "--tol", "1e-300",
               "--format", "json"]
        start = time.monotonic()
        proc = subprocess.run(cmd, capture_output=True, timeout=60)
        assert time.monotonic() - start < 60
        assert proc.returncode == 0, proc.stderr
        doc = json.loads(proc.stdout)
        lo, hi = doc["bracket"]
        assert 0 < hi - lo <= 4 * math.ulp(lo)
        assert doc["holds_at_lo"] is False and doc["holds_at_hi"] is True

    def test_missing_subcommand_exits_2(self):
        proc = subprocess.run([sys.executable, "-m", "qtremble"], capture_output=True)
        assert proc.returncode == 2


class TestGridValidation:
    @pytest.mark.parametrize("nodes", ["0", "-3", "1", "7", "10000000"])
    @pytest.mark.parametrize("command", [
        ["thp", "--kappa", "1"],
        ["threshold", "--lo", "1", "--hi", "5"],
    ], ids=["thp", "threshold"])
    def test_search_nodes_out_of_range(self, tmp_path, capsys, command, nodes):
        out = tmp_path / "x.csv"
        rc = run_main(*command, "--game", "SH", "--profile", "C:C",
                      "--search-nodes", nodes, "--out", str(out))
        assert rc == 2
        assert "search nodes" in capsys.readouterr().err
        assert not out.exists()

    def test_smallest_search_grid_is_accepted(self, tmp_path):
        rc = run_main("thp", "--game", "SH", "--profile", "C:C", "--kappa", "5",
                      "--search-nodes", "8", "--out", str(tmp_path / "x.csv"))
        assert rc == 0

    def test_oversized_surface_mesh(self, tmp_path, capsys):
        out = tmp_path / "x.csv"
        rc = run_main("surface", "--game", "PD", "--vary", "A", "--dims", "2",
                      "--opponent", "pure:Q", "--nodes", "100000000", "--out", str(out))
        assert rc == 2
        assert "plot nodes" in capsys.readouterr().err
        assert not out.exists()

    def test_nan_tol(self, tmp_path, capsys):
        out = tmp_path / "x.csv"
        rc = run_main("threshold", "--game", "SH", "--profile", "C:C", "--lo", "1",
                      "--hi", "5", "--tol", "nan", "--out", str(out))
        assert rc == 2
        assert "tol" in capsys.readouterr().err
        assert not out.exists()

    def test_inf_tol(self, tmp_path, capsys):
        # An infinite tol would end at once and write the invalid JSON token Infinity.
        out = tmp_path / "x.json"
        rc = run_main("threshold", "--game", "SH", "--profile", "C:C", "--lo", "1",
                      "--hi", "5", "--tol", "inf", "--format", "json", "--out", str(out))
        assert rc == 2
        assert "tol" in capsys.readouterr().err
        assert not out.exists()


# (valid, hostile) values of each option.
_NON_FINITE = ["nan", "inf", "-inf", "abc"]
_COUNT = ["-3", "0", "1", "7", "2000000", "100000000", "1e3"]
_VALUES = {
    "kappa": (["0.3", "1", "2.5", "40", "1e9", "1e308", "1.7e308"], _NON_FINITE + ["0", "-1"]),
    "bracket": (["0.3", "1", "2.5", "5", "40"], _NON_FINITE + ["0", "-1", "-0", "1e308"]),
    "tol": (["0.01", "0.3", "1e-300"], _NON_FINITE + ["0", "-1", "1e308"]),
    "epsilon": (["0.01", "0.1", "0.49"], _NON_FINITE + ["0", "0.5", "-1", "1e308"]),
    "search_nodes": (["8", "9", "16"], _COUNT),
    "quad_nodes": (["8", "16", "64", "1048576"], _COUNT),
    "plot_nodes": (["2", "5", "9"], ["-1", "0", "100000000", "x"]),
    "classical_nodes": (["2", "9", "65"], ["-5", "0", "1", "1025", "abc"]),
    "strategy": (["C", "D", "Q", "q", "2.5,0,0", "1e300,0,0", "0.5,-1,0", "7,-20,100",
                  "-40,13,-7"], ["X", "nan,0,0", "0,inf,0", "1,2", "0,1e300,1e-300"]),
}
_GAME_DOCS = {
    "list": [[1, 2], [3, 4]],
    "missing": {"a": [[1, 0], [0, 1]]},
    "words": {"a": [["x", 0], [0, 1]], "b": [[1, 0], [0, 1]]},
    "shape": {"a": [[1, 0, 2], [0, 1, 2]], "b": [[1, 0], [0, 1]]},
    "huge": {"name": "huge", "a": [[1e308, -1e308], [1e308, 1e308]],
             "b": [[1e308, 0], [-1e308, 1e308]]},
    "largest": {"name": "largest", "a": [[1e300, -1e300], [1e300, 1e300]],
                "b": [[1e300, 0], [-1e300, 1e300]]},
    "zero": {"name": "zero", "a": [[0, 0], [0, 0]], "b": [[0, 0], [0, 0]]},
}


@pytest.fixture(scope="module")
def game_files(tmp_path_factory):
    folder = tmp_path_factory.mktemp("games")
    texts = {name: json.dumps(doc) for name, doc in _GAME_DOCS.items()}
    texts["broken"] = '{"name": "broken", "a": [[1, 0], [0, 1]], "b": '
    texts["nan"] = '{"name": "nan", "a": [[NaN, 0], [0, 1]], "b": [[1, 0], [0, 1]]}'
    for name, text in texts.items():
        (folder / f"{name}.json").write_text(text)
    return {name: str(folder / f"{name}.json") for name in [*texts, "missing-file"]}


def _options(**values):
    """``--name=value`` tokens, so that values such as -inf are not read as options."""
    return [f"--{name.replace('_', '-')}={value}" for name, value in values.items()]


@st.composite
def _argv(draw, game_files):
    # At most two option kinds take hostile values, so that many draws answer.
    hostile = draw(st.sets(st.sampled_from([*_VALUES, "game"]), max_size=2))

    def value(kind, least=1, most=1):
        values = st.lists(st.sampled_from(_VALUES[kind][kind in hostile]),
                          min_size=least, max_size=most, unique=True)
        return sorted(draw(values), key=_as_float) if most > 1 else draw(values)[0]

    valid_games = ["PD", "EG", "SH", "sh", game_files["largest"], game_files["zero"]]
    bad_games = ["XX"] + [path for path in game_files.values() if path not in valid_games]
    game = draw(st.sampled_from(bad_games if "game" in hostile else valid_games))
    command = draw(st.sampled_from(["surface", "thp", "threshold", "classical"]))
    argv = [command] + _options(game=game, format=draw(st.sampled_from(["csv", "json"])))
    dims = st.sampled_from(["1", "2", "3"])
    if command == "surface":
        strategy, kappa = value("strategy"), value("kappa")
        opponent = draw(st.sampled_from([
            f"pure:{strategy}", f"tremble:{strategy},kappa={kappa}",
            f"tremble:{strategy},kappa={kappa},dims=3", f"tremble:C,kappa={kappa},dims=x",
            f"mix:Q=0.5,D=0.5", f"mix:C={value('epsilon')},D=0.5",
        ]))
        argv += _options(vary=draw(st.sampled_from(["A", "B"])), opponent=opponent,
                         dims=draw(dims), nodes=value("plot_nodes"))
        if draw(st.booleans()):
            argv.append("--self-check")
    elif command in ("thp", "threshold"):
        argv += _options(profile=f"{value('strategy')}:{value('strategy')}",
                         tremble_dims=draw(dims), response_dims=draw(dims))
        if command == "thp":
            argv += _options(kappa=",".join(value("kappa", 1, 3)))
        else:
            lo, hi = value("bracket", 2, 2)
            argv += _options(lo=lo, hi=hi, tol=value("tol"))
        if draw(st.booleans()):
            argv += _options(search_nodes=value("search_nodes"))
        if draw(st.booleans()):
            argv.append("--both-sides")
    else:
        argv += _options(epsilon=value("epsilon"), nodes=value("classical_nodes"))
    if command != "classical" and draw(st.booleans()):
        argv += _options(quad_nodes=value("quad_nodes"))
    return argv


def _as_float(token):
    try:
        return float(token)
    except ValueError:
        return math.nan


def _assert_finite_output(text, fmt):
    if fmt == "json":
        json.loads(text, parse_constant=_reject_constant)
        return
    for line in text.splitlines()[1:]:
        for cell in line.split(","):
            assert cell in ("true", "false") or math.isfinite(float(cell)), line


class TestHostileArgv:
    @given(data=st.data())
    @settings(max_examples=150, deadline=None)
    def test_every_exit_is_clean(self, game_files, data):
        argv = data.draw(_argv(game_files), label="argv")
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                rc = main(argv)
            except SystemExit as exc:  # argparse refuses malformed options this way
                rc = exc.code
        assert rc in (0, 2, 3, 4), err.getvalue()
        if rc == 0:
            _assert_finite_output(out.getvalue(), argv[2].split("=", 1)[1])
        else:
            assert err.getvalue()
