import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import poscol
from poscol.cli import main
from poscol.graph6 import graph6_encode
from poscol.families import generate, parse_family


@pytest.fixture
def petersen_g6():
    return graph6_encode(generate(parse_family("petersen")))


def run(capsys, argv, stdin=None, monkeypatch=None):
    if stdin is not None:
        import io
        import sys

        monkeypatch.setattr(sys, "stdin", io.StringIO(stdin))
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


class TestCompute:
    def test_petersen_gp_exact(self, capsys, monkeypatch, petersen_g6):
        code, out, _ = run(capsys, ["compute", "--kind", "gp"], petersen_g6, monkeypatch)
        assert code == 0
        obj = json.loads(out)
        assert obj["k"] == 2 and obj["optimality"] == "exact"

    def test_bounds_mode(self, capsys, monkeypatch):
        c9 = graph6_encode(generate(parse_family("cycle:9")))
        code, out, _ = run(
            capsys, ["compute", "--kind", "mono", "--bounds"], c9, monkeypatch
        )
        assert code == 0
        obj = json.loads(out)
        assert obj["lower"] >= 5

    def test_gpi_on_clique(self, capsys, monkeypatch):
        k4 = graph6_encode(generate(parse_family("complete:4")))
        code, out, _ = run(capsys, ["compute", "--kind", "gpi"], k4, monkeypatch)
        assert code == 0 and json.loads(out)["k"] == 4

    def test_json_graph_input(self, capsys, monkeypatch):
        code, out, _ = run(
            capsys,
            ["compute", "--kind", "gp"],
            '{"n": 4, "edges": [[0,1],[1,2],[2,3]]}',
            monkeypatch,
        )
        assert code == 0 and json.loads(out)["k"] == 2

    def test_malformed_input_exits_2(self, capsys, monkeypatch):
        code, _, err = run(capsys, ["compute", "--kind", "gp"], "!!!", monkeypatch)
        assert code == 2 and "input error" in err

    def test_budget_exhaustion_exits_3(self, capsys, monkeypatch, petersen_g6):
        code, _, err = run(
            capsys,
            ["compute", "--kind", "mono", "--node-limit", "1"],
            petersen_g6,
            monkeypatch,
        )
        assert code == 3

    def test_zero_time_limit_is_no_time(self, capsys, monkeypatch, petersen_g6):
        code, out, _ = run(
            capsys, ["compute", "--kind", "mono", "--time-limit", "0"], petersen_g6, monkeypatch
        )
        assert code == 3 and json.loads(out)["optimality"] == "upper_bound_only"

    @pytest.mark.parametrize("flag, value", [("--node-limit", "-3"), ("--time-limit", "-1")])
    def test_negative_budget_exits_2(self, capsys, monkeypatch, petersen_g6, flag, value):
        argv = ["compute", "--kind", "gp", flag, value]
        code, _, err = run(capsys, argv, petersen_g6, monkeypatch)
        assert code == 2 and err.startswith("input error")

    @pytest.mark.parametrize("name, value", [("POS_NODE_LIMIT", "abc"), ("POS_TIME_LIMIT", "1s")])
    def test_malformed_budget_env_exits_2(self, petersen_g6, name, value):
        # a fresh interpreter: the variable must not break `import poscol` either
        src = str(Path(poscol.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=src, **{name: value})
        proc = subprocess.run(
            [sys.executable, "-m", "poscol.cli", "compute", "--kind", "gp"],
            input=petersen_g6, capture_output=True, text=True, env=env, timeout=120,
        )
        assert proc.returncode == 2
        assert len(proc.stderr.splitlines()) == 1
        assert proc.stderr.startswith("input error") and name in proc.stderr


class TestMalformedInputExits2:
    """Each case prints one ``input error:`` line and exits 2, never a traceback."""

    @staticmethod
    def assert_input_error(result):
        code, _, err = result
        assert code == 2
        assert len(err.splitlines()) == 1 and err.startswith("input error:")

    @pytest.mark.parametrize("cnf", ["p nae3 three 1\n1 2 3\n", "p nae3 3 1\n1 x 3\n"])
    def test_non_integer_cnf_token(self, capsys, monkeypatch, cnf):
        self.assert_input_error(run(capsys, ["reduce", "-"], cnf, monkeypatch))

    @pytest.mark.filterwarnings("error")
    def test_non_integer_seeded_family_count(self, capsys):
        self.assert_input_error(run(capsys, ["family", "block_random:3.5,1"]))

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize(
        "spec",
        ["petersen:3", "split_random:6.5,1", "random:5,0.5,2.5",
         "block_random:4,1.5", "cartesian(path:3,path:2.5)"],
    )
    def test_family_argument_rule(self, capsys, spec):
        """Arguments are integers, bar the edge probability of random; petersen takes none."""
        self.assert_input_error(run(capsys, ["family", spec]))

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("spec", ["petersen:3", "turan:3", "h:5", "turan:0,5", "kneser2:3"])
    def test_construct_rejects_a_bad_spec(self, capsys, spec):
        self.assert_input_error(run(capsys, ["construct", spec, "gp"]))

    @pytest.mark.parametrize("n", ["1e300", "Infinity"])
    def test_colouring_size_not_an_integer(self, capsys, tmp_path, petersen_g6, n):
        gfile = tmp_path / "g.g6"
        gfile.write_text(petersen_g6 + "\n")
        cfile = tmp_path / "c.json"
        cfile.write_text(f'{{"n": {n}, "k": 1, "classes": [[0, 1]]}}')
        argv = ["verify", str(gfile), str(cfile), "--kind", "gp"]
        self.assert_input_error(run(capsys, argv))

    @pytest.mark.parametrize("max_n", ["1", "0"])
    def test_inequalities_suite_needs_order_two(self, capsys, max_n):
        argv = ["suite", "inequalities", "--count", "2", "--max-n", max_n]
        self.assert_input_error(run(capsys, argv))


class TestVerify:
    def test_verified_and_rejected(self, capsys, tmp_path, petersen_g6):
        from conftest import PETERSEN_GP_CLASSES, PETERSEN_EDGES
        from poscol.graphs import build_graph

        gfile = tmp_path / "g.g6"
        gfile.write_text(graph6_encode(build_graph(10, PETERSEN_EDGES)) + "\n")
        cfile = tmp_path / "c.json"
        cfile.write_text(
            json.dumps({"n": 10, "k": 2, "classes": PETERSEN_GP_CLASSES})
        )
        code, out, _ = run(capsys, ["verify", str(gfile), str(cfile), "--kind", "gp"])
        assert code == 0 and "verified" in out
        # the same two classes cannot be monophonic position sets
        code, out, _ = run(capsys, ["verify", str(gfile), str(cfile), "--kind", "mono"])
        assert code == 1

    def test_parse_failure_exits_2(self, capsys, tmp_path, petersen_g6):
        gfile = tmp_path / "g.g6"
        gfile.write_text(petersen_g6 + "\n")
        cfile = tmp_path / "c.json"
        cfile.write_text(json.dumps({"n": 10, "k": 1, "classes": [[0, 1]]}))
        code, _, err = run(capsys, ["verify", str(gfile), str(cfile), "--kind", "gp"])
        assert code == 2


class TestFamilyConstructReduce:
    def test_family_kneser(self, capsys):
        code, out, _ = run(capsys, ["family", "kneser2:6"])
        assert code == 0
        from poscol.graph6 import graph6_decode

        assert graph6_decode(out.strip()).n == 15

    def test_family_bad_spec(self, capsys):
        code, _, err = run(capsys, ["family", "cycle:one"])
        assert code == 2

    def test_construct_cycle(self, capsys):
        code, out, _ = run(capsys, ["construct", "cycle:12", "gp"])
        assert code == 0
        obj = json.loads(out)
        assert obj["k"] == 4 and obj["prediction"]["low"] == 4

    def test_reduce_fig6_with_check(self, capsys, tmp_path):
        from poscol.catalogue import fig6_cnf_text

        cnf = tmp_path / "fig6.cnf"
        cnf.write_text(fig6_cnf_text())
        code, out, _ = run(capsys, ["reduce", str(cnf), "--check"])
        assert code == 0
        obj = json.loads(out)
        assert obj["n"] == 26 and obj["check"]["agree"] is True

    def test_reduce_trivially_no(self, capsys, tmp_path):
        cnf = tmp_path / "no.cnf"
        cnf.write_text("p nae3 1 1\n1 1 1\n")
        code, out, _ = run(capsys, ["reduce", str(cnf)])
        assert code == 0 and json.loads(out)["trivially_no"] is True


class TestSuites:
    def test_cycles_suite_passes(self, capsys):
        code, out, err = run(capsys, ["suite", "cycles"])
        assert code == 0
        report = json.loads(out)
        assert report["summary"]["failed"] == 0

    def test_reduction_suite(self, capsys):
        code, out, _ = run(capsys, ["suite", "reduction", "--count", "8", "--seed", "7"])
        assert code == 0
        assert json.loads(out)["summary"]["total"] == 8

    def test_inequalities_suite(self, capsys):
        code, out, _ = run(
            capsys, ["suite", "inequalities", "--count", "6", "--max-n", "6"]
        )
        assert code == 0

    def test_ng_check_small(self, capsys):
        code, out, _ = run(capsys, ["suite", "ng-check", "--max-n", "4"])
        assert code == 0
        report = json.loads(out)
        assert report["summary"]["total"] == 1 + 2 + 4 + 11

    def test_unknown_suite(self, capsys):
        code, _, err = run(capsys, ["suite", "nope"])
        assert code == 2

    def test_deterministic_stdout(self, capsys):
        code1, out1, _ = run(capsys, ["suite", "reduction", "--count", "5", "--seed", "3"])
        code2, out2, _ = run(capsys, ["suite", "reduction", "--count", "5", "--seed", "3"])
        assert code1 == code2 == 0 and out1 == out2

    def test_family_deterministic(self, capsys):
        _, out1, _ = run(capsys, ["family", "random:8,0.5,7"])
        _, out2, _ = run(capsys, ["family", "random:8,0.5,7"])
        assert out1 == out2


class TestClosedStdout:
    """A reader that has gone away leaves the command's own exit code."""

    @staticmethod
    def run_into_closed_pipe(argv):
        src = str(Path(poscol.__file__).resolve().parents[1])
        read_end, write_end = os.pipe()
        os.close(read_end)  # closed before the child starts: every write fails
        try:
            return subprocess.run(
                [sys.executable, "-m", "poscol.cli", *argv],
                stdout=write_end, stderr=subprocess.PIPE, text=True, timeout=120,
                env=dict(os.environ, PYTHONPATH=src),
            )
        finally:
            os.close(write_end)

    def test_family_exits_0(self):
        proc = self.run_into_closed_pipe(["family", "petersen"])
        assert (proc.returncode, proc.stderr) == (0, "")

    def test_verify_of_a_bad_colouring_exits_1(self, tmp_path, petersen_g6):
        from conftest import PETERSEN_GP_CLASSES

        gfile = tmp_path / "g.g6"
        gfile.write_text(petersen_g6 + "\n")
        cfile = tmp_path / "c.json"
        cfile.write_text(json.dumps({"n": 10, "k": 2, "classes": PETERSEN_GP_CLASSES}))
        proc = self.run_into_closed_pipe(["verify", str(gfile), str(cfile), "--kind", "mono"])
        assert (proc.returncode, proc.stderr) == (1, "")
