"""Command-line surface: outputs, determinism, and exit codes."""

import ast
import json
import os
import random
import resource
import subprocess
import sys
from pathlib import Path

import pytest

import webfoam
from webfoam import cli, homology, operators, webs
from webfoam.cli import main
from webfoam.errors import InternalConsistencyError
from webfoam.homology import cone_of_p, complex_to_dict
from webfoam.laurent import LaurentPoly
from webfoam.linalg import rank_frac_randomized
from webfoam.webs import corpus_web, web_to_dict

DATA = Path(__file__).resolve().parent / "data"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_process(*argv, limit_s=10, preexec_fn=None):
    """The CLI in a fresh interpreter, killed after ``limit_s`` seconds.

    ``preexec_fn`` runs in the child before the interpreter starts.
    """
    src = str(Path(webfoam.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    return subprocess.run(
        [sys.executable, "-m", "webfoam.cli", *argv],
        capture_output=True, text=True, env=env, timeout=limit_s,
        preexec_fn=preexec_fn,
    )


def fail_first_projection(monkeypatch):
    """Make the first projection identity read false at every vertex."""
    real = operators._check_projections

    def corrupted(module, vertex_edges):
        (label, _), *rest = real(module, vertex_edges)
        return ((label, False), *rest)

    monkeypatch.setattr(operators, "_check_projections", corrupted)


def fail_direction_110(monkeypatch):
    """Make ``bockstein`` raise along (1,1,0) only."""
    real = homology.DifferentialModule.bockstein

    def fail_on_110(module, direction, seed=0):
        if direction == (1, 1, 0):
            raise InternalConsistencyError("torsion routes disagree")
        return real(module, direction, seed)

    monkeypatch.setattr(homology.DifferentialModule, "bockstein", fail_on_110)


def miscount_cubic4_1(monkeypatch):
    """Make the matching-formula count of ``cubic4-1`` one too large."""
    count = webs.count_tait_matching_formula
    monkeypatch.setattr(
        webs,
        "count_tait_matching_formula",
        lambda web: count(web) + (web.name == "cubic4-1"),
    )


class TestFoam:
    def test_theta_value(self, capsys):
        code, out, _ = run(capsys, "foam", "theta", "0", "1", "2")
        assert code == 0
        assert out.strip() == "1"

    def test_sphere_value(self, capsys):
        code, out, _ = run(capsys, "foam", "sphere", "4")
        assert code == 0
        assert out.strip() == (
            "T1*T2*T3 + T1*T2^-1*T3^-1 + T1^-1*T2*T3^-1 + T1^-1*T2^-1*T3"
        )

    def test_json_mode(self, capsys):
        code, out, _ = run(capsys, "foam", "theta", "0", "3", "4", "--json")
        assert code == 0
        data = json.loads(out)
        assert data["foam"] == "theta(0, 3, 4)"
        assert data["value"].startswith("T1^2")

    def test_dot_cap(self, capsys):
        with pytest.raises(SystemExit) as err:
            run(capsys, "foam", "sphere", "65")
        assert err.value.code == 2


class TestWeb:
    def test_tait_corpus_name(self, capsys):
        code, out, _ = run(capsys, "web", "tait", "dodecahedron")
        assert (code, out.strip()) == (0, "60")

    def test_tait_path(self, capsys, tmp_path):
        path = tmp_path / "theta.json"
        path.write_text(json.dumps(web_to_dict(corpus_web("theta"))))
        code, out, _ = run(capsys, "web", "tait", str(path))
        assert (code, out.strip()) == (0, "6")

    def test_info(self, capsys):
        code, out, _ = run(capsys, "web", "info", "handcuffs", "--json")
        data = json.loads(out)
        assert code == 0
        assert data["loops"] == 2
        assert data["one_sets"] == 1
        assert data["even_one_sets"] == 0

    def test_predict_rank_warns_on_nonplanar(self, capsys):
        code, out, err = run(capsys, "web", "predict-rank", "petersen")
        assert code == 0
        assert out.strip() == "0"
        assert "no planar backing" in err

    def test_predict_rank_planar_quiet(self, capsys):
        code, out, err = run(capsys, "web", "predict-rank", "theta")
        assert (code, out.strip(), err) == (0, "6", "")

    def test_missing_file_exit_code(self, capsys):
        code, _, err = run(capsys, "web", "tait", "/definitely/not/here.json")
        assert code == 3
        assert "no such file" in err

    def test_malformed_json_exit_code(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        code, _, err = run(capsys, "web", "tait", str(path))
        assert code == 3
        assert "line 1" in err

    def test_trivalence_violation_exit_code(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(
            json.dumps(
                {
                    "name": "bad",
                    "vertices": ["v"],
                    "edges": [{"id": "l", "loop": "v"}],
                }
            )
        )
        code, _, err = run(capsys, "web", "info", str(path))
        assert code == 4
        assert "'v' has valence 2" in err

    def test_duplicate_vertex_names_exit_code(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        data = web_to_dict(corpus_web("theta"))
        data["vertices"] = ["b", "b"]
        path.write_text(json.dumps(data))
        code, out, err = run(capsys, "web", "info", str(path))
        assert (code, out) == (3, "")
        assert "duplicate vertex names: b" in err

    def test_counter_disagreement_names_the_web(self, capsys, monkeypatch):
        monkeypatch.setattr(webs, "count_tait_matching_formula", lambda web: 7)
        code, out, err = run(capsys, "web", "tait", "theta")
        assert (code, out) == (5, "")
        assert err == (
            "internal consistency failure: web 'theta': "
            "backtracking count 6 != matching-formula count 7\n"
        )

    def test_unknown_corpus_name(self, capsys):
        code, _, err = run(capsys, "web", "tait", "moebius")
        assert code == 3
        assert "available" in err


class TestOps:
    def test_unknot_check(self, capsys):
        code, out, _ = run(capsys, "ops", "unknot", "--check")
        assert code == 0
        assert "PASS" in out

    def test_theta_full(self, capsys):
        code, out, _ = run(
            capsys, "ops", "theta", "--show", "--check", "--decompose", "--json"
        )
        assert code == 0
        data = json.loads(out)
        assert data["rank"] == 6
        assert all(data["checks"].values())
        assert data["summand_ranks"]["{e1}"] == 2
        assert data["summand_ranks"]["{}"] == 0
        assert all(data["projections"].values())

    def test_failed_projection_identity_is_internal(self, capsys, monkeypatch):
        # edge_decomposition raises on the identity itself, so nothing prints
        fail_first_projection(monkeypatch)
        code, out, err = run(capsys, "ops", "theta", "--decompose")
        assert (code, out) == (5, "")
        assert err == (
            "internal consistency failure: projection identity failed: pi1^2 = pi1\n"
        )

    @pytest.mark.parametrize(
        "argv, golden",
        [
            (
                ("ops", "theta", "--show", "--check", "--decompose", "--json"),
                "ops_theta_show_check_decompose.json",
            ),
            (
                ("ops", "unknot", "--show", "--check", "--decompose"),
                "ops_unknot_show_check_decompose.txt",
            ),
        ],
    )
    def test_full_report_is_pinned(self, capsys, monkeypatch, argv, golden):
        # the operator solves, null spaces and projection identities all
        # reach this output, which no other test pins byte for byte
        from webfoam import operators

        runs = []
        real = operators.check_vertex_relations
        monkeypatch.setattr(
            operators, "check_vertex_relations", lambda m: runs.append(m) or real(m)
        )
        operators.unknot_module.cache_clear()
        operators.theta_module.cache_clear()
        code, out, _ = run(capsys, *argv)
        assert code == 0
        assert out == (DATA / golden).read_text()
        # --check prints the outcomes of the run the model's constructor made
        assert len(runs) == 1


class TestComplex:
    def test_analyze_file(self, capsys, tmp_path):
        path = tmp_path / "cone.json"
        path.write_text(json.dumps(complex_to_dict(cone_of_p())))
        code, out, _ = run(capsys, "complex", "analyze", str(path), "--json")
        assert code == 0
        data = json.loads(out)
        assert data["frac_rank"] == 0
        assert data["f2_dim"] == 4
        assert [d["torsion_exponents"] for d in data["directions"]] == [[4, 4], [4, 4]]

    def test_handcuffs_linked_single_direction(self, capsys):
        code, out, _ = run(
            capsys, "complex", "handcuffs-linked", "--direction", "1,1,1"
        )
        assert code == 0
        assert "r=4 l=0 torsion={}" in out

    def test_cone_p_text(self, capsys):
        code, out, _ = run(capsys, "complex", "cone-p")
        assert code == 0
        assert "direction 1,1,1: r=0 l=2 torsion={4,4}" in out

    def test_certify_order4(self, capsys):
        code, out, _ = run(capsys, "complex", "certify-order4")
        assert code == 0
        assert out.count("PASS") == 4

    @pytest.mark.parametrize(
        "argv, golden",
        [
            ((), "complex_certify_order4.txt"),
            (("--json",), "complex_certify_order4.json"),
        ],
    )
    def test_certify_order4_is_pinned(self, capsys, argv, golden):
        code, out, _ = run(capsys, "complex", "certify-order4", *argv)
        assert code == 0
        assert out == (DATA / golden).read_text()

    @pytest.mark.parametrize("command", ["analyze", "cone-p", "handcuffs-linked"])
    def test_repeated_direction_runs_once(self, capsys, tmp_path, command):
        argv = ["complex", command]
        if command == "analyze":
            path = tmp_path / "cone.json"
            path.write_text(json.dumps(complex_to_dict(cone_of_p())))
            argv.append(str(path))
        cases = [
            (("1,1,1", "1,1,1"), ("1,1,1",)),
            (("1,1,0", "1,1,1", "1,1,0"), ("1,1,0", "1,1,1")),
        ]
        for given, once in cases:
            for as_json in ((), ("--json",)):
                outputs = [
                    run(capsys, *argv, *as_json, *(f"--direction={d}" for d in ds))
                    for ds in (given, once)
                ]
                assert outputs[0] == outputs[1]
                assert outputs[0][0] == 0

    @pytest.mark.parametrize("as_json", [False, True], ids=["text", "json"])
    def test_failing_direction_hides_no_other(self, capsys, monkeypatch, as_json):
        flags = ("--json",) if as_json else ()
        _, good, _ = run(capsys, "complex", "cone-p", *flags)
        fail_direction_110(monkeypatch)
        code, out, err = run(capsys, "complex", "cone-p", *flags)
        assert code == 5
        assert err == (
            "internal consistency failure: direction 1,1,0: torsion routes disagree\n"
        )
        if as_json:
            expected = json.loads(good)
            expected["directions"][1] = {
                "direction": "1,1,0",
                "error": "torsion routes disagree",
            }
            assert json.loads(out) == expected
        else:
            lines = good.splitlines()
            lines[-1] = "FAIL  direction 1,1,0: torsion routes disagree"
            assert out.splitlines() == lines

    def test_direction_validation(self, capsys):
        with pytest.raises(SystemExit) as err:
            run(capsys, "complex", "cone-p", "--direction", "2,1,1")
        assert err.value.code == 2

    def test_bare_name_is_no_corpus_complex(self, capsys, tmp_path, monkeypatch):
        # unlike web arguments, a complex argument never names a corpus entry
        monkeypatch.chdir(tmp_path)
        code, out, err = run(capsys, "complex", "analyze", "cube")
        assert (code, out) == (3, "")
        assert err == "error: cube: no such file\n"

    def test_non_square_zero_complex_exit_code(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"rank": 1, "differential": [["1"]]}))
        code, _, err = run(capsys, "complex", "analyze", str(path))
        assert code == 4
        assert "square to zero" in err

    def test_boolean_rank_exit_code(self, capsys, tmp_path):
        path = tmp_path / "bool.json"
        path.write_text('{"rank": true, "differential": [["0"]]}')
        code, out, err = run(capsys, "complex", "analyze", str(path))
        assert (code, out) == (3, "")
        assert "rank: expected a nonnegative integer" in err

    @pytest.mark.parametrize(
        "rank, differential, r",
        [(0, [], 0), (1, [["0"]], 1)],
        ids=["rank-0", "rank-1-zero"],
    )
    def test_zero_complex_is_pinned(self, capsys, tmp_path, rank, differential, r):
        # the rank-0 file reaches the randomized rank's empty-matrix guard
        path = tmp_path / "zero.json"
        path.write_text(json.dumps({"rank": rank, "differential": differential}))
        code, out, err = run(capsys, "complex", "analyze", str(path))
        assert (code, err) == (0, "")
        assert out == (
            f"complex: zero.json\nrank: {rank}\nfrac_rank: {rank}\nf2_dim: {rank}\n"
            f"direction 1,1,1: r={r} l=0 torsion={{}}\n"
            f"direction 1,1,0: r={r} l=0 torsion={{}}\n"
        )

    def test_huge_exponent_is_rejected_quickly(self, tmp_path):
        # line substitution of T1^(2^30 - 1) would run for minutes, so the
        # parser rejects the entry; the time limit catches a regression
        path = tmp_path / "huge.json"
        path.write_text(
            '{"rank":2,"differential":[["0","T1^1073741823"],["0","0"]]}'
        )
        proc = run_process("complex", "analyze", str(path), "--direction", "1,1,1")
        assert proc.returncode == 3
        assert proc.stdout == ""
        assert "differential[0][1]" in proc.stderr
        assert "limit of 4096" in proc.stderr


class TestAdversarialInputs:
    """Small hostile files run in a fresh CLI process under a time limit."""

    #: Address space, in bytes, of a child run under a memory limit.
    MEMORY_LIMIT = 400 * 2**20

    @staticmethod
    def prism_file(tmp_path) -> Path:
        """The prism C_400 x K2: 800 vertices and 1,200 edges, a 55 KB file."""
        n = 400
        edges = [
            {"id": f"{kind}{i}", "ends": ends}
            for i in range(n)
            for kind, ends in (
                ("x", [f"a{i}", f"a{(i + 1) % n}"]),
                ("y", [f"b{i}", f"b{(i + 1) % n}"]),
                ("z", [f"a{i}", f"b{i}"]),
            )
        ]
        vertices = [f"{side}{i}" for side in "ab" for i in range(n)]
        path = tmp_path / "prism.json"
        path.write_text(json.dumps({"name": "prism", "vertices": vertices, "edges": edges}))
        return path

    @staticmethod
    def web_file(tmp_path, circles: int, base: str | None = None) -> str:
        data = web_to_dict(corpus_web(base)) if base else {"vertices": [], "edges": []}
        data["name"] = "hostile"
        data["edges"] += [{"id": f"c{i}", "circle": True} for i in range(circles)]
        path = tmp_path / "web.json"
        path.write_text(json.dumps(data))
        return str(path)

    @pytest.mark.parametrize("command", ["tait", "predict-rank"])
    def test_forty_circles_count_exactly(self, tmp_path, command):
        proc = run_process("web", command, self.web_file(tmp_path, 40))
        assert (proc.returncode, proc.stdout) == (0, f"{3**40}\n")

    def test_forty_circles_info(self, tmp_path):
        proc = run_process("web", "info", self.web_file(tmp_path, 40), "--json")
        assert proc.returncode == 0
        data = json.loads(proc.stdout)
        assert (data["circles"], data["one_sets"], data["even_one_sets"]) == (
            40, 2**40, 2**40
        )

    def test_circles_beside_a_theta(self, tmp_path):
        path = self.web_file(tmp_path, 30, base="theta")
        proc = run_process("web", "tait", path)
        assert (proc.returncode, proc.stdout) == (0, f"{6 * 3**30}\n")
        proc = run_process("web", "info", path, "--json")
        assert json.loads(proc.stdout)["even_one_sets"] == 3 * 2**30

    def test_nine_thousand_circles_print_exactly(self, tmp_path):
        # 3^9100 has more digits than the default int-to-string limit
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(0)
        try:
            expected = f"{3**9100}\n"
        finally:
            sys.set_int_max_str_digits(limit)
        proc = run_process("web", "tait", self.web_file(tmp_path, 9100))
        assert (proc.returncode, proc.stdout) == (0, expected)

    def test_twelve_thetas_count_per_component(self, tmp_path):
        theta = web_to_dict(corpus_web("theta"))
        data = {"name": "thetas", "vertices": [], "edges": []}
        for k in range(12):
            data["vertices"] += [f"{v}{k}" for v in theta["vertices"]]
            data["edges"] += [
                {"id": f"{e['id']}_{k}", "ends": [f"{v}{k}" for v in e["ends"]]}
                for e in theta["edges"]
            ]
        path = tmp_path / "thetas.json"
        path.write_text(json.dumps(data))
        proc = run_process("web", "tait", str(path))
        assert (proc.returncode, proc.stdout) == (0, f"{6**12}\n")
        proc = run_process("web", "info", str(path), "--json")
        data = json.loads(proc.stdout)
        assert (data["one_sets"], data["even_one_sets"]) == (3**12, 3**12)

    @pytest.mark.parametrize(
        "text, message",
        [("[" * 6000, "JSON nested too deeply"),
         ('{"rank": ' + "9" * 5000 + "}", "integer literal longer than 4300 digits")],
        ids=["deep-nesting", "long-integer"],
    )
    @pytest.mark.parametrize(
        "command", [("web", "info"), ("complex", "analyze")], ids=" ".join
    )
    def test_hostile_json_exit_code(self, tmp_path, text, message, command):
        path = tmp_path / "hostile.json"
        path.write_text(text)
        proc = run_process(*command, str(path))
        assert (proc.returncode, proc.stdout) == (3, "")
        assert proc.stderr == f"error: {path}: {message}\n"

    def test_extreme_exponents_analyze_exactly(self, tmp_path):
        # m + 1/m with m = (T1*T2*T3)^4096 maps to ((1+t)^24576 + 1) / (1+t)^12288
        # along 1,1,1, of valuation 8192, and to t^16384 / (1+t)^8192 along 1,1,0
        entry = "T1^4096*T2^4096*T3^4096 + T1^-4096*T2^-4096*T3^-4096"
        path = tmp_path / "extreme.json"
        path.write_text(json.dumps({"rank": 2, "differential": [["0", entry], ["0", "0"]]}))
        proc = run_process("complex", "analyze", str(path))
        assert proc.returncode == 0
        assert proc.stdout == (
            "complex: extreme.json\nrank: 2\nfrac_rank: 0\nf2_dim: 2\n"
            "direction 1,1,1: r=0 l=1 torsion={8192}\n"
            "direction 1,1,0: r=0 l=1 torsion={16384}\n"
        )

    def test_two_term_entries_analyze_quickly(self, tmp_path):
        # a 2x3 map of two-term entries with exponents up to 4096 in magnitude:
        # the cleared line images have degree in the tens of thousands
        a = [
            ["T1^-382*T2^1972*T3^2054 + T1^-2027*T2^-932*T3^-3379",
             "T1^-666*T2^2469*T3^-3600 + T1^-2701*T2^-1854*T3^-42",
             "T1^3426*T2^3889*T3^3328 + T1^2301*T2^4013*T3^-947"],
            ["T1^2501*T2^-2629*T3^3851 + T1^-260*T2^-3769*T3^274",
             "T1^2583*T2^3675*T3^2114 + T1^-2233*T2^136*T3^-2505",
             "T1^-2331*T2^-3145*T3^1448 + T1^-3063*T2^2234*T3^2084"],
        ]
        rows = [["0", "0", *row] for row in a] + [["0"] * 5 for _ in range(3)]
        path = tmp_path / "cone.json"
        path.write_text(json.dumps({"rank": 5, "differential": rows}))
        proc = run_process("complex", "analyze", str(path))
        assert proc.returncode == 0
        assert proc.stdout == (
            "complex: cone.json\nrank: 5\nfrac_rank: 1\nf2_dim: 5\n"
            "direction 1,1,1: r=1 l=2 torsion={1,2}\n"
            "direction 1,1,0: r=1 l=2 torsion={1,1}\n"
        )

    @staticmethod
    def cone_file(tmp_path, seed: int, n: int, terms: int, spread: int):
        """The cone of a seeded n x n map with entries of ``terms`` random terms."""
        rng = random.Random(seed)
        a = [
            [
                LaurentPoly(
                    {tuple(rng.randint(-spread, spread) for _ in range(3)) for _ in range(terms)}
                )
                for _ in range(n)
            ]
            for _ in range(n)
        ]
        rows = [["0"] * n + [str(x) for x in row] for row in a]
        rows += [["0"] * (2 * n) for _ in range(n)]
        path = tmp_path / "cone.json"
        path.write_text(json.dumps({"rank": 2 * n, "differential": rows}))
        return a, path

    def test_two_term_six_by_six_block(self, tmp_path):
        # every entry of the Bareiss elimination is a minor of degree up to
        # 48 in each variable: past 30 s on exponent triples
        a, path = self.cone_file(tmp_path, seed=6, n=6, terms=2, spread=4)
        rank = rank_frac_randomized(a, random.Random(0))
        proc = run_process("complex", "analyze", str(path))
        assert proc.returncode == 0
        assert f"frac_rank: {12 - 2 * rank}\n" in proc.stdout
        assert proc.stdout == (
            "complex: cone.json\nrank: 12\nfrac_rank: 0\nf2_dim: 12\n"
            "direction 1,1,1: r=0 l=6 torsion={1,1,1,1,1,1}\n"
            "direction 1,1,0: r=0 l=6 torsion={1,1,1,1,1,2}\n"
        )

    def test_three_term_entries_at_magnitude_256(self, tmp_path):
        # a 1.4 KB rank-8 file: the packed box is too large for dense
        # entries, so the kernel runs on sparse exponent sets
        a, path = self.cone_file(tmp_path, seed=8, n=4, terms=3, spread=256)
        assert path.stat().st_size < 1500
        rank = rank_frac_randomized(a, random.Random(0))
        proc = run_process("complex", "analyze", str(path))
        assert proc.returncode == 0
        assert f"frac_rank: {8 - 2 * rank}\n" in proc.stdout
        assert proc.stdout == (
            "complex: cone.json\nrank: 8\nfrac_rank: 0\nf2_dim: 6\n"
            "direction 1,1,1: r=0 l=3 torsion={1,3,4}\n"
            "direction 1,1,0: r=0 l=3 torsion={1,1,2}\n"
        )

    def test_deep_web_exit_code(self, tmp_path):
        # the prism C_400 x K2: the exact counters recurse once per edge
        path = self.prism_file(tmp_path)
        proc = run_process("web", "tait", str(path))
        assert (proc.returncode, proc.stdout) == (3, "")
        assert proc.stderr == f"error: {path}: too large for the exact counters\n"

    def test_out_of_memory_exit_code(self, tmp_path):
        # the census lists every 1-set of the prism C_400 x K2 (L_400 + 2 of
        # them, L_n the Lucas numbers), so the child runs out within seconds
        def limit_memory():
            resource.setrlimit(resource.RLIMIT_AS, (self.MEMORY_LIMIT,) * 2)

        path = self.prism_file(tmp_path)
        proc = run_process("web", "info", str(path), preexec_fn=limit_memory)
        assert (proc.returncode, proc.stdout) == (3, "")
        assert proc.stderr == "error: out of memory\n"

    def test_huge_declared_rank_exit_code(self, tmp_path):
        path = tmp_path / "rank.json"
        path.write_text('{"rank": 1000000000, "differential": []}')
        proc = run_process("complex", "analyze", str(path))
        assert (proc.returncode, proc.stdout) == (3, "")
        assert "expected a list of 1000000000 rows" in proc.stderr


class TestVerifyAll:
    FAST = "cone-p,order4-certificate,unknot-model,foam-table"

    def test_fast_subset_passes(self, capsys):
        code, out, _ = run(capsys, "verify-all", "--only", self.FAST)
        assert code == 0
        assert out.count("PASS") == 4
        assert "all checks passed" in out

    def test_json_report(self, capsys):
        code, out, _ = run(capsys, "verify-all", "--only", "cone-p", "--json")
        assert code == 0
        data = json.loads(out)
        assert data["passed"] is True
        assert data["checks"][0]["key"] == "cone-p"

    def test_unknown_key(self, capsys):
        code, _, err = run(capsys, "verify-all", "--only", "bogus")
        assert code == 3
        assert "unknown check keys" in err

    @pytest.mark.parametrize("as_json", [(), ("--json",)])
    def test_empty_selection(self, capsys, as_json):
        code, out, err = run(capsys, "verify-all", "--only", ",", *as_json)
        assert (code, out) == (3, "")
        assert err.startswith("error: no check keys selected")

    def test_corpus_override(self, capsys, tmp_path):
        for name in ("theta", "unknot"):
            path = tmp_path / f"{name}.json"
            path.write_text(json.dumps(web_to_dict(corpus_web(name))))
        code, out, _ = run(
            capsys,
            "verify-all",
            "--only",
            "tait-formula",
            "--corpus",
            str(tmp_path),
        )
        assert code == 0
        assert "corpus of 2 webs" in out

    def test_repeated_key_runs_once(self, capsys):
        code, out, _ = run(capsys, "verify-all", "--only", "cone-p,cone-p")
        assert code == 0
        assert out.count("cone-p") == 1
        code, out, _ = run(capsys, "verify-all", "--only", "cone-p,cone-p", "--json")
        assert code == 0
        assert [c["key"] for c in json.loads(out)["checks"]] == ["cone-p"]

    @pytest.mark.parametrize(
        "text, detail",
        [
            (
                json.dumps({"name": "bad", "vertices": ["a"], "edges": []}),
                "bad.json: vertex 'a' has valence 0",
            ),
            ("{not json", "bad.json: invalid JSON at line 1"),
        ],
    )
    def test_invalid_corpus_web_fails_only_its_check(self, capsys, tmp_path, text, detail):
        path = tmp_path / "bad.json"
        path.write_text(text)
        only = "cone-p,tait-formula,unknot-model"
        code, out, err = run(
            capsys, "verify-all", "--only", only, "--corpus", str(tmp_path), "--json"
        )
        assert (code, err) == (1, "")
        checks = {c["key"]: c for c in json.loads(out)["checks"]}
        assert sorted(checks) == only.split(",")
        assert checks["cone-p"]["passed"] and checks["unknot-model"]["passed"]
        assert not checks["tait-formula"]["passed"]
        assert checks["tait-formula"]["detail"].startswith(detail)

    def test_each_bad_corpus_web_is_named_once(self, capsys, tmp_path):
        # a bad web neither stops the check nor hides the next one
        (tmp_path / "broken.json").write_text("{not json")
        (tmp_path / "theta.json").write_text(json.dumps(web_to_dict(corpus_web("theta"))))
        (tmp_path / "zero.json").write_text(
            json.dumps({"name": "zero", "vertices": ["a"], "edges": []})
        )
        argv = ("verify-all", "--only", "tait-formula", "--corpus", str(tmp_path))
        code, out, err = run(capsys, *argv)
        assert (code, err) == (1, "")
        row, verdict = out.splitlines()
        assert verdict == "FAILURES"
        assert row.startswith("FAIL  tait-formula  broken.json: invalid JSON at line 1")
        assert row.endswith("; zero.json: vertex 'a' has valence 0")
        assert row.count("broken.json") == row.count("zero.json") == 1
        assert str(tmp_path) not in row

    def test_stray_exception_fails_only_its_check(self, capsys, monkeypatch):
        def broken():
            raise ValueError("inexact division in F2[t]")

        monkeypatch.setattr(homology, "cone_of_p", broken)
        only = "cone-p,unknot-model,order4-certificate"
        code, out, err = run(capsys, "verify-all", "--only", only)
        assert code == 5
        detail = "internal error: ValueError: inexact division in F2[t]"
        rows = out.splitlines()
        assert rows[0] == f"FAIL  cone-p              {detail}"
        assert rows[1].startswith("PASS  order4-certificate  ")
        assert rows[2].startswith("PASS  unknot-model        ")
        assert rows[3:] == ["FAILURES"]
        assert err == f"cone-p: {detail}\n"

    def test_counter_disagreement_fails_only_its_check(self, capsys, monkeypatch):
        miscount_cubic4_1(monkeypatch)
        code, out, err = run(capsys, "verify-all", "--only", "cone-p,tait-formula")
        assert code == 5
        detail = (
            "internal consistency failure: web 'cubic4-1': "
            "backtracking count 12 != matching-formula count 13"
        )
        rows = out.splitlines()
        assert rows[0].startswith("PASS  cone-p        cone of P*I")
        assert rows[1:] == [f"FAIL  tait-formula  {detail}", "FAILURES"]
        assert err == f"tait-formula: {detail}\n"

    def test_failed_projection_identity_is_internal(self, capsys, monkeypatch):
        fail_first_projection(monkeypatch)
        code, out, err = run(capsys, "verify-all", "--only", "theta-model")
        assert code == 5
        detail = "internal consistency failure: projection identity failed: pi1^2 = pi1"
        assert out.splitlines() == [f"FAIL  theta-model  {detail}", "FAILURES"]
        assert err == f"theta-model: {detail}\n"

    def test_deep_corpus_web_fails_only_its_check(self, capsys, tmp_path):
        # the prism C_400 x K2 is too deep for the counters, as in web tait;
        # it sorts first, and the webs after it are still counted
        TestAdversarialInputs.prism_file(tmp_path).rename(tmp_path / "deep.json")
        for name in ("dodecahedron", "petersen"):
            path = tmp_path / f"{name}.json"
            path.write_text(json.dumps(web_to_dict(corpus_web(name))))
        only = "cone-p,tait-formula"
        argv = ("verify-all", "--only", only, "--corpus", str(tmp_path))
        code, out, err = run(capsys, *argv)
        assert (code, err) == (1, "")
        rows = out.splitlines()
        assert rows[0].startswith("PASS  cone-p        cone of P*I")
        assert rows[1:] == [
            "FAIL  tait-formula  deep.json: too large for the exact counters",
            "FAILURES",
        ]
        (tmp_path / "dodecahedron.json").write_text(
            json.dumps(web_to_dict(corpus_web("cube")))
        )
        _, out, _ = run(capsys, *argv, "--json")
        assert json.loads(out)["checks"][1]["detail"] == (
            "deep.json: too large for the exact counters; dodecahedron: 24 != 60"
        )

    def test_bad_corpus_dir(self, capsys):
        code, _, err = run(
            capsys, "verify-all", "--only", "cone-p", "--corpus", "/no/such/dir"
        )
        assert code == 3


WEB_INFO, ANALYZE = ("web", "info"), ("complex", "analyze")

MALFORMED = [
    # (argv, file text or None, exit code, stderr line; for a file the
    # line follows "error: <path>: ")
    (WEB_INFO, "[]", 3, "$: expected a JSON object"),
    (WEB_INFO, '{"name": 1}', 3, "name: expected a string"),
    (WEB_INFO, '{"edges": {}}', 3, "edges: expected a list"),
    (WEB_INFO, '{"edges": [1]}', 3, "edges[0]: expected an object"),
    (WEB_INFO, '{"edges": [{"id": 2}]}', 3, "edges[0]: missing or non-string 'id'"),
    (
        WEB_INFO,
        '{"vertices": ["a"], "edges": [{"id": "l", "loop": 1}]}',
        3,
        "edges[0]: 'loop' must be a vertex name",
    ),
    (ANALYZE, "[]", 3, "$: expected a JSON object"),
    (
        ANALYZE,
        '{"rank": 1, "differential": [["0", "0"]]}',
        3,
        "differential[0]: expected a list of 1 entries",
    ),
    (ANALYZE, '{"rank": 1, "differential": [[0]]}', 3, "differential[0][0]: expected a string"),
    (
        ("complex", "cone-p", "--direction", "a,b"),
        None,
        2,
        "webfoam complex cone-p: error: argument --direction: "
        "direction must be 1,1,1 or 1,1,0, got 'a,b'",
    ),
    (
        ("foam", "sphere", "-1"),
        None,
        2,
        "webfoam foam sphere: error: argument dots: dot counts must be nonnegative",
    ),
]


@pytest.mark.parametrize("argv, text, code, line", MALFORMED)
def test_malformed_input_exit_code(capsys, tmp_path, argv, text, code, line):
    # the exit code and the exact stderr line (after argparse's usage)
    if text is None:
        with pytest.raises(SystemExit) as exc:
            main(list(argv))
        got, (out, err) = exc.value.code, capsys.readouterr()
        assert err.endswith(f"\n{line}\n")
    else:
        path = tmp_path / "bad.json"
        path.write_text(text)
        got, out, err = run(capsys, *argv, str(path))
        assert err == f"error: {path}: {line}\n"
    assert (got, out) == (code, "")


CLI_OUTPUTS = json.loads((DATA / "cli_outputs.json").read_text())


@pytest.mark.parametrize("command", sorted(CLI_OUTPUTS))
def test_output_is_pinned(capsys, command):
    # stdout, stderr and exit code of each command, byte for byte
    code, out, err = run(capsys, *command.split())
    assert {"exit": code, "stdout": out, "stderr": err} == CLI_OUTPUTS[command]


class TestHandlersOnlyCompute:
    """Handlers return their stderr notes; only ``main`` writes."""

    @staticmethod
    def handle(capsys, handler, *argv):
        args = cli.build_parser().parse_args(list(argv))
        digit_limit = sys.get_int_max_str_digits()
        try:
            result = handler(args)
        finally:
            sys.set_int_max_str_digits(digit_limit)
        assert capsys.readouterr() == ("", "")
        return result

    def test_web_caveat_is_a_note(self, capsys):
        code, report, lines, notes = self.handle(
            capsys, cli._cmd_web, "web", "predict-rank", "petersen"
        )
        assert (code, lines, report["planar_backed"]) == (0, ["0"], False)
        assert notes == [
            "warning: web 'petersen' has no planar backing; "
            "the predicted rank is heuristic only"
        ]

    def test_failing_direction_is_a_note(self, capsys, monkeypatch):
        fail_direction_110(monkeypatch)
        code, _, lines, notes = self.handle(capsys, cli._cmd_complex, "complex", "cone-p")
        assert code == 5
        assert lines[-1] == "FAIL  direction 1,1,0: torsion routes disagree"
        assert notes == [
            "internal consistency failure: direction 1,1,0: torsion routes disagree"
        ]

    def test_internal_check_failure_is_a_note(self, capsys, monkeypatch):
        miscount_cubic4_1(monkeypatch)
        code, _, _, notes = self.handle(
            capsys, cli._cmd_verify_all, "verify-all", "--only", "cone-p,tait-formula"
        )
        assert code == 5
        assert notes == [
            "tait-formula: internal consistency failure: web 'cubic4-1': "
            "backtracking count 12 != matching-formula count 13"
        ]

    def test_only_main_writes(self):
        # every call that writes to stdout or stderr, by enclosing function
        writers = {"print", "sys.stdout.write", "sys.stderr.write"}
        callers = []

        def visit(node, owner):
            for child in ast.iter_child_nodes(node):
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    visit(child, child.name)
                    continue
                if isinstance(child, ast.Call) and ast.unparse(child.func) in writers:
                    callers.append(owner)
                visit(child, owner)

        visit(ast.parse(Path(cli.__file__).read_text()), "<module>")
        assert callers and set(callers) == {"main"}


class TestDeterminism:
    def test_byte_identical_reruns(self, capsys):
        outputs = []
        for _ in range(2):
            _, out, _ = run(capsys, "ops", "theta", "--show", "--decompose", "--json")
            outputs.append(out)
        assert outputs[0] == outputs[1]

    def test_verify_all_output_is_byte_stable(self, capsys):
        outputs = []
        for _ in range(2):
            _, out, _ = run(
                capsys, "verify-all", "--only", "cone-p,unknot-model", "--json"
            )
            outputs.append(out)
        assert outputs[0] == outputs[1]
        assert "seconds" not in outputs[0]

    def test_usage_error_exit_code(self, capsys):
        with pytest.raises(SystemExit) as err:
            run(capsys, "no-such-command")
        assert err.value.code == 2


class TestImports:
    """Each command loads only the layers it uses."""

    @staticmethod
    def loaded_after(code: str) -> set[str]:
        src = str(Path(webfoam.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=src)
        proc = subprocess.run(
            [sys.executable, "-c", f"{code}\nimport sys; print(*sorted(sys.modules))"],
            capture_output=True, text=True, env=env, timeout=60, check=True,
        )
        return set(proc.stdout.split("\n")[-2].split())

    def test_cli_import_loads_no_layer(self):
        loaded = self.loaded_after("import webfoam.cli")
        heavy = {"networkx", "webfoam.linalg", "webfoam.homology", "webfoam.acceptance"}
        assert not loaded & heavy
        assert "webfoam.webs" not in loaded

    @pytest.mark.parametrize("name", ["cube", "petersen"])
    def test_web_commands_load_only_webs(self, name):
        loaded = self.loaded_after(
            "from webfoam.cli import main\n"
            f"main(['web', 'info', {name!r}]); main(['web', 'predict-rank', {name!r}])"
        )
        assert "webfoam.webs" in loaded
        assert not {m for m in loaded if m.split(".")[0] == "networkx"}
        assert not loaded & {"webfoam.laurent", "webfoam.linalg", "webfoam.homology"}

    def test_every_public_name_resolves(self):
        names = {}
        exec("from webfoam import *", names)
        assert set(webfoam.__all__) <= set(names)
        for name in webfoam.__all__:
            assert getattr(webfoam, name) is names[name]
        assert set(webfoam.__all__) <= set(dir(webfoam))
        with pytest.raises(AttributeError):
            webfoam.no_such_name
        # a deletion that leaves a stale export fails here
        for module in webfoam._SUBMODULES:
            sub = getattr(webfoam, module)
            for name in vars(sub).get("__all__", ()):
                assert hasattr(sub, name), f"{module}.{name}"
        for module, exported in webfoam._EXPORTS.items():
            assert set(exported) <= set(getattr(webfoam, module).__all__), module

    def test_tracer_hooks_stay_module_attributes(self):
        from webfoam import cli, foams

        assert cli.eval_theta is foams.eval_theta
        assert cli.eval_sphere is foams.eval_sphere
        assert callable(cli.main)

    def test_verify_all_help_is_unchanged(self, capsys, monkeypatch):
        from webfoam import acceptance, cli

        assert cli.CHECK_KEYS == tuple(sorted(acceptance.CHECKS))
        monkeypatch.setenv("COLUMNS", "80")
        with pytest.raises(SystemExit) as err:
            main(["verify-all", "--help"])
        assert err.value.code == 0
        out = capsys.readouterr().out
        assert out == (DATA / "verify_all_help.txt").read_text()
        assert " ".join(out.split()).count(", ".join(sorted(acceptance.CHECKS))) == 1
