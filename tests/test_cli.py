import json

import numpy as np
import pytest

import dataclasses

from posmap.algebra import FiniteCStar
from posmap.certificates import identity_certificate, orderzero_certificate, save_certificate
from posmap.certificates import save_map
from posmap.cli import build_parser, main
from posmap.maps import PMap
from posmap.positivity import tomiyama_map

from test_maps import transpose_map

M2 = FiniteCStar((2,))
M3 = FiniteCStar((3,))


@pytest.fixture
def psi14_file(tmp_path):
    path = tmp_path / "psi14.json"
    save_map(tomiyama_map(3, 1.4), path)
    return str(path)


@pytest.fixture
def transpose_file(tmp_path):
    path = tmp_path / "transpose.json"
    save_map(transpose_map(2), path)
    return str(path)


def run_json(capsys, argv):
    code = main(argv + ["--json"])
    out = capsys.readouterr().out
    return code, json.loads(out)


class TestTomiyama:
    def test_json_golden_bytes(self, capsys):
        # the exact stdout, so a change of the canonical writer shows here
        assert main(["tomiyama", "--n", "2", "--k", "1", "--json"]) == 0
        assert capsys.readouterr().out == (
            '{\n  "command": "tomiyama",\n  "k": 1,\n  "n": 2,\n  "threshold": 2.0\n}\n'
        )

    def test_threshold_output(self, capsys):
        code = main(["tomiyama", "--n", "3", "--k", "2"])
        out = capsys.readouterr().out
        assert code == 0
        assert "1.2" in out

    def test_lambda_above_threshold_exit_1(self, capsys):
        code, payload = run_json(
            capsys, ["tomiyama", "--n", "3", "--k", "2", "--lambda", "1.4"]
        )
        assert code == 1
        assert payload["k_positive_closed_form"] is False
        assert payload["falsifier"]["status"] == "VIOLATED"

    def test_lambda_below_threshold_exit_0(self, capsys):
        code, payload = run_json(
            capsys, ["tomiyama", "--n", "3", "--k", "1", "--lambda", "1.4"]
        )
        assert code == 0
        assert payload["k_positive_closed_form"] is True

    def test_writes_map_file(self, capsys, tmp_path):
        out = tmp_path / "map.json"
        code = main(
            ["tomiyama", "--n", "2", "--k", "1", "--lambda", "0.5", "-o", str(out)]
        )
        assert code == 0
        assert out.exists()


class TestCheckCp:
    def test_transpose_fails(self, capsys, transpose_file):
        code, payload = run_json(capsys, ["check-cp", transpose_file])
        assert code == 1
        assert payload["completely_positive"] is False

    def test_cp_passes(self, capsys, tmp_path):
        path = tmp_path / "cp.json"
        save_map(tomiyama_map(2, 0.5), path)
        code, payload = run_json(capsys, ["check-cp", str(path)])
        assert code == 0
        assert payload["completely_positive"] is True


class TestCheckKpos:
    def test_violated_exit_1(self, capsys, psi14_file):
        code, payload = run_json(capsys, ["check-kpos", psi14_file, "--k", "2"])
        assert code == 1
        assert payload["verdict"]["status"] == "VIOLATED"
        assert payload["verdict"]["witness"] is not None

    def test_unfalsified_exit_0(self, capsys, psi14_file):
        code, payload = run_json(capsys, ["check-kpos", psi14_file, "--k", "1"])
        assert code == 0
        assert payload["verdict"]["status"] in ("UNFALSIFIED", "CERTIFIED_POSITIVE")

    def test_reports_capped_restarts(self, capsys, psi14_file):
        _, payload = run_json(capsys, ["check-kpos", psi14_file, "--k", "2"])
        assert payload["verdict"]["restarts_capped"] == 0

    def test_json_deterministic(self, capsys, psi14_file):
        argv = ["check-kpos", psi14_file, "--k", "2", "--seed", "5"]
        _, first = run_json(capsys, argv)
        _, second = run_json(capsys, argv)
        assert json.dumps(first, sort_keys=True) == json.dumps(second, sort_keys=True)


class TestDefectDecomposeRepair:
    def test_defect_diagnostic(self, capsys, psi14_file):
        code, payload = run_json(capsys, ["defect", psi14_file, "--samples", "10"])
        assert code == 0
        assert payload["one_var_sup"] > 0

    def test_decompose(self, capsys, psi14_file):
        code, payload = run_json(capsys, ["decompose", psi14_file])
        assert code == 0
        assert payload["mult_defect"] > 0.1

    def test_repair_transpose(self, capsys, transpose_file, tmp_path):
        out = tmp_path / "repaired.json"
        code, payload = run_json(capsys, ["repair", transpose_file, "-o", str(out)])
        assert code == 0
        assert payload["eps_meas"] == pytest.approx(1.0)
        assert payload["repaired_is_cp"] is True
        assert out.exists()


class TestExample4:
    def test_small_m(self, capsys):
        code, payload = run_json(
            capsys,
            [
                "example4",
                "--n", "3", "--m", "1", "--k", "1",
                "--lambda", "1.4", "--eps", "0.05", "--samples", "20",
            ],
        )
        assert code == 0
        assert payload["mixing_parameter"] == pytest.approx(0.07)
        assert payload["exceeds_next_threshold"] is False


class TestCertCommands:
    def test_gen_and_verify(self, capsys, tmp_path):
        cert = tmp_path / "cert.json"
        code, _ = run_json(
            capsys,
            ["gen-cert", "--algebra", "2", "--weights", "0.5,0.5", "-o", str(cert)],
        )
        assert code == 0
        code, payload = run_json(capsys, ["verify-cert", str(cert)])
        assert code == 0
        assert payload["overall"] is True

    def test_verify_cert_human_output(self, capsys, tmp_path):
        cert = tmp_path / "cert.json"
        main(["gen-cert", "--algebra", "2", "--weights", "1.0", "-o", str(cert)])
        capsys.readouterr()
        code = main(["verify-cert", str(cert)])
        out = capsys.readouterr().out
        assert code == 0
        assert "overall: True" in out

    def test_verify_cert_samples(self, capsys, tmp_path):
        # --samples reaches the order-zero defects and is reported; none is a usage error
        cert = tmp_path / "cert.json"
        main(["gen-cert", "--algebra", "2", "--weights", "0.5,0.5", "-o", str(cert)])
        capsys.readouterr()
        code, payload = run_json(capsys, ["verify-cert", str(cert), "--samples", "3"])
        assert code == 0
        assert payload["samples"] == 3
        assert run_json(capsys, ["verify-cert", str(cert)])[1]["samples"] == 100
        assert main(["verify-cert", str(cert), "--samples", "0", "--json"]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == "error: need samples >= 1, got 0\n"


class TestErrorPaths:
    def test_missing_file_exit_2(self, capsys):
        assert main(["check-cp", "/nonexistent/map.json"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_parse_error_exit_2(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert main(["check-cp", str(bad)]) == 2

    def test_usage_error_exit_2(self, capsys):
        assert main(["check-kpos"]) == 2

    def test_bad_weights_exit_2(self, capsys, tmp_path):
        code = main(
            [
                "gen-cert",
                "--algebra", "2",
                "--weights", "0.9,0.9",
                "-o", str(tmp_path / "c.json"),
            ]
        )
        assert code == 2

    @pytest.mark.parametrize("tol", ["nan", "inf", "-1", "abc"])
    def test_bad_tol_exit_2(self, capsys, psi14_file, tol):
        assert main(["check-cp", psi14_file, "--tol", tol]) == 2
        assert main(["check-kpos", psi14_file, "--k", "2", "--tol", tol]) == 2

    @pytest.mark.parametrize("eps", ["nan", "-0.05"])
    def test_bad_eps_exit_2(self, capsys, eps):
        argv = ["example4", "--n", "3", "--m", "1", "--k", "1", "--lambda", "1.4"]
        assert main(argv + ["--eps", eps]) == 2

    @pytest.mark.parametrize("lam", ["nan", "inf"])
    def test_non_finite_lambda_exit_2(self, capsys, lam):
        argv = ["example4", "--n", "3", "--m", "2", "--k", "1", "--eps", "0.05"]
        assert main(argv + ["--lambda", lam]) == 2
        assert "lambda" in capsys.readouterr().err

    @pytest.mark.parametrize("epsilon", ["inf", "-1e-6", "0", "nan"])
    def test_bad_epsilon_exit_2(self, capsys, tmp_path, epsilon):
        argv = ["gen-cert", "--algebra", "2", "--weights", "1.0", "-o", str(tmp_path / "c.json")]
        assert main(argv + ["--epsilon", epsilon]) == 2
        assert not (tmp_path / "c.json").exists()

    @pytest.mark.parametrize(
        "argv, flag",
        [
            (["check-cp", "MAP"], ["--seed", "3"]),
            (["decompose", "MAP"], ["--seed", "3"]),
            (["repair", "MAP", "-o", "OUT"], ["--seed", "3"]),
            (["defect", "MAP"], ["--tol", "1e-6"]),
            (["example4", "--n", "3", "--m", "1", "--k", "1", "--lambda", "1.4", "--eps", "0.05"],
             ["--tol", "1e-6"]),
            (["gen-cert", "--algebra", "2", "--weights", "1", "-o", "OUT"], ["--tol", "1e-6"]),
        ],
    )
    def test_unread_flag_exit_2(self, capsys, tmp_path, psi14_file, argv, flag):
        # each subcommand declares only the flags its handler reads
        out = tmp_path / "out.json"
        argv = [{"MAP": psi14_file, "OUT": str(out)}.get(a, a) for a in argv]
        assert main(argv + flag) == 2
        assert "unrecognized arguments" in capsys.readouterr().err
        assert not out.exists()

    def test_out_without_lambda_exit_2(self, capsys, tmp_path):
        out = tmp_path / "map.json"
        assert main(["tomiyama", "--n", "3", "--k", "2", "-o", str(out)]) == 2
        assert "--lambda" in capsys.readouterr().err
        assert not out.exists()

    def test_restarts_above_cap_exit_2(self, capsys, psi14_file):
        # 1025 is MAX_RESTARTS + 1; a huge count ended in numpy's "array is too big", exit 1
        assert main(["check-kpos", psi14_file, "--k", "2", "--restarts", "1025"]) == 2
        assert "restarts" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [
            # no falsifier runs at m = 20, so only m = 120 refused restarts = 0
            ["example4", "--n", "3", "--m", "20", "--k", "1", "--lambda", "1.4", "--eps", "0.05",
             "--samples", "1"],
            ["tomiyama", "--n", "3", "--k", "2"],
            ["verify-cert", "CERT"],
        ],
    )
    @pytest.mark.parametrize("restarts", ["0", "100000"])
    def test_restarts_outside_range_exit_2(self, capsys, tmp_path, argv, restarts):
        # the certificate is CP, so the falsifier never saw --restarts
        cert = tmp_path / "cert.json"
        save_certificate(orderzero_certificate(M2, [0.5, 0.5]), cert)
        argv = [str(cert) if a == "CERT" else a for a in argv]
        assert main(argv + ["--restarts", restarts, "--json"]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error: --restarts: need 1 <= restarts <= 1024, got ")

    @pytest.mark.parametrize("tol", ["0", "1e-300"])
    def test_tol_below_floor_exit_2(self, capsys, tmp_path, tol):
        # on the identity's rank-one Choi matrix, tol = 0 made the verdict a rounding error's sign
        path = tmp_path / "id3.json"
        save_map(PMap.identity(M3), path)
        assert main(["check-cp", str(path), "--tol", tol, "--json"]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == f"error: --tol: need a finite tolerance >= 1e-12, got {float(tol)!r}\n"
        assert main(["check-cp", str(path), "--tol", "1e-12"]) == 0

    def test_zero_samples_exit_2(self, capsys, psi14_file):
        argv = ["example4", "--n", "3", "--m", "1", "--k", "1", "--lambda", "1.4", "--eps", "0.05"]
        assert main(argv + ["--samples", "0"]) == 2
        assert main(["defect", psi14_file, "--samples", "0"]) == 2

    @pytest.mark.parametrize(
        "flag, value, expected",
        [
            ("--algebra", "2,x", "--algebra: expected comma-separated integers, got '2,x'"),
            ("--weights", "0.5,x", "--weights: expected comma-separated numbers, got '0.5,x'"),
        ],
    )
    def test_bad_list_exit_2(self, capsys, tmp_path, flag, value, expected):
        out = tmp_path / "c.json"
        lists = {"--algebra": "2", "--weights": "1.0", flag: value}
        argv = ["gen-cert", "--algebra", lists["--algebra"], "--weights", lists["--weights"]]
        assert main(argv + ["-o", str(out)]) == 2
        assert capsys.readouterr().err == f"error: {expected}\n"
        assert not out.exists()

    @pytest.mark.filterwarnings("error")  # an overflow warning would print ahead of the error
    @pytest.mark.parametrize(
        "argv",
        [
            ["check-kpos", "HUGE", "--k", "1"],
            ["check-kpos", "HUGE", "--k", "2"],
            ["defect", "HUGE"],
            ["defect", "BIG"],
            ["verify-cert", "CERT"],
        ],
    )
    def test_overflow_exit_2(self, capsys, tmp_path, argv):
        # each ended in numpy's LinAlgError traceback, exit 1
        files = {name: str(tmp_path / f"{name}.json") for name in ("HUGE", "BIG", "CERT")}
        save_map(1.5e308 * PMap.identity(M2), files["HUGE"])
        save_map(1e200 * PMap.identity(M2), files["BIG"])
        cert = orderzero_certificate(M2, [0.5, 0.5])
        cert = dataclasses.replace(cert, phis=(1e200 * cert.phis[0],) + cert.phis[1:])
        save_certificate(cert, files["CERT"])
        assert main([files.get(a, a) for a in argv] + ["--json"]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error:")
        assert "Traceback" not in err

    @pytest.mark.filterwarnings("error")
    def test_verify_cert_overflowed_psi_is_numerical_failure(self, capsys, tmp_path):
        # psi(1) = 3e308 * 1: the error blamed the algebra ("block contains non-finite entries")
        images = np.zeros((4, 2, 2))
        images[0] = images[3] = 1.5e308 * np.eye(2)  # the diagonal units e_11 and e_22
        cert = dataclasses.replace(identity_certificate(M2), psi=PMap(M2, M2, images))
        path = str(tmp_path / "cert.json")
        save_certificate(cert, path)
        assert main(["verify-cert", path, "--json"]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == "error: computed element contains non-finite entries\n"

    @pytest.mark.filterwarnings("error")
    def test_decompose_overflow_exit_2(self, capsys, tmp_path):
        # phi(1) is finite but its Hermitian part overflows; the error blamed the input matrix
        path = str(tmp_path / "huge.json")
        save_map(1.5e308 * PMap.identity(M2), path)
        assert main(["decompose", path, "--json"]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == "error: phi(1) or its Hermitian part is not finite\n"

    def test_example4_above_image_budget_exit_2(self, capsys):
        # n = 46 ran its samples, then ended in numpy's MemoryError (14.6 TiB), exit 1
        argv = ["example4", "--n", "46", "--m", "1", "--k", "1", "--lambda", "1.02", "--eps", "0.05"]
        assert main(argv + ["--samples", "1", "--json"]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error: need at most MAX_SIZE^2 = 4194304 unit-image entries")

    def test_size_above_bound_exit_2(self, capsys):
        # m n = 3 * 683 = 2049, one above family.MAX_SIZE
        argv = ["example4", "--n", "3", "--m", "683", "--k", "1", "--lambda", "1.4", "--eps", "0.05"]
        assert main(argv + ["--samples", "1", "--json"]) == 2
        assert capsys.readouterr().err == "error: need m * n <= 2048, got 2049\n"

    @pytest.mark.parametrize(
        "argv",
        [
            ["tomiyama", "--n", "46", "--k", "1", "--lambda", "1.4"],
            ["gen-cert", "--algebra", "1000000", "--weights", "1"],
        ],
    )
    def test_above_image_budget_exit_2(self, capsys, tmp_path, argv):
        # with no budget, --n 10**6 and --algebra 1000000 ended in numpy's MemoryError, exit 1
        out = tmp_path / "g.json"
        assert main(argv + ["-o", str(out), "--json"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: need at most MAX_SIZE^2 = 4194304 unit-image entries")
        assert not out.exists()

    @pytest.mark.parametrize("weights", ["nan", "0.5,nan"])
    def test_nan_weights_exit_2(self, capsys, tmp_path, weights):
        # a NaN weight passed the weights rule and failed as a non-finite Choi block
        out = tmp_path / "x.json"
        argv = ["gen-cert", "--algebra", "2", "--weights", weights, "-o", str(out)]
        assert main(argv) == 2
        assert capsys.readouterr().err.startswith("error: weights must be positive, got [")
        assert not out.exists()

    def test_negative_seed_exit_2(self, capsys, psi14_file):
        assert main(["check-kpos", psi14_file, "--k", "2", "--seed", "-1"]) == 2
        assert main(["defect", psi14_file, "--seed", "-1"]) == 2
        assert "--seed" in capsys.readouterr().err


def _key_paths(obj, prefix=""):
    """Dotted paths of every object key; "[]" marks a step into a list."""
    if isinstance(obj, dict):
        out = set()
        for key, val in obj.items():
            path = f"{prefix}.{key}" if prefix else key
            out |= {path} | _key_paths(val, path)
        return out
    if isinstance(obj, list):
        return set().union(*(_key_paths(v, prefix + "[]") for v in obj))
    return set()


VERDICT_KEYS = ["best_value", "restarts_capped", "restarts_used", "status", "witness"]
WITNESS_KEYS = ["block", "factors_left", "factors_right", "k", "value", "vector_norm"]


def _nest(prefix, keys):
    return [f"{prefix}.{k}" for k in keys]


JSON_SCHEMAS = {
    "tomiyama": ["command", "k", "n", "threshold"],
    "tomiyama-lambda": ["command", "falsifier", "k", "k_positive_closed_form", "lambda", "n",
                        "threshold", "written"]
    + _nest("falsifier", VERDICT_KEYS) + _nest("falsifier.witness", WITNESS_KEYS),
    "check-cp": ["command", "completely_positive", "mapfile", "tol"],
    "check-kpos": ["command", "k", "mapfile", "restarts", "seed", "tol", "verdict"]
    + _nest("verdict", VERDICT_KEYS) + _nest("verdict.witness", WITNESS_KEYS),
    "defect": ["command", "mapfile", "od_sup", "one_var_sup", "orth_pair_sup", "samples", "seed"],
    "decompose": ["command", "commute_defect", "h_norm", "mapfile", "mult_defect",
                  "reconstruct_defect", "tol", "within_tol"],
    "repair": ["command", "eps_meas", "mapfile", "repaired_is_cp", "written"],
    "example4": ["all_ok", "closed_form_dev", "closed_form_ok", "command", "defect_bound",
                 "defect_max", "defect_ok", "eps", "exceeds_next_threshold", "falsifier", "k",
                 "lambda", "m", "mixing_parameter", "n", "next_threshold", "samples", "seed"]
    + _nest("falsifier", VERDICT_KEYS) + _nest("falsifier.witness", WITNESS_KEYS),
    "gen-cert": ["algebra", "command", "epsilon", "seed", "weights", "written"],
    "verify-cert": ["approx_errors", "approx_failures", "caveat", "certfile", "command",
                    "epsilon", "legs", "overall", "psi_contraction_ok", "psi_norm",
                    "psi_two_positive", "psi_two_positive.status", "psi_two_positive.verdict",
                    "restarts", "samples", "seed", "sum_contractive_ok", "sum_norm", "tol"]
    + _nest("legs[]", ["commute_defect", "contraction_norm", "contraction_ok", "mult_defect",
                       "od_sup", "one_var_sup", "order_zero_ok", "orth_pair_sup",
                       "reconstruct_defect", "two_positive", "two_positive.status",
                       "two_positive.verdict"]),
}


def test_json_key_paths_are_pinned(capsys, tmp_path):
    """Every subcommand's --json payload has exactly the pinned nested keys."""
    psi, rep, cert = (str(tmp_path / f) for f in ("psi.json", "rep.json", "cert.json"))
    runs = {
        "tomiyama": ["tomiyama", "--n", "3", "--k", "2"],
        "tomiyama-lambda": ["tomiyama", "--n", "3", "--k", "2", "--lambda", "1.4", "-o", psi],
        "check-cp": ["check-cp", psi],
        "check-kpos": ["check-kpos", psi, "--k", "2"],
        "defect": ["defect", psi, "--samples", "5"],
        "decompose": ["decompose", psi],
        "repair": ["repair", psi, "-o", rep],
        "example4": ["example4", "--n", "3", "--m", "115", "--k", "1", "--lambda", "1.4",
                     "--eps", "0.05", "--samples", "1", "--restarts", "4"],
        "gen-cert": ["gen-cert", "--algebra", "2,3", "--weights", "0.5,0.5", "-o", cert],
        "verify-cert": ["verify-cert", cert, "--restarts", "4"],
    }
    assert {argv[0] for argv in runs.values()} == set(
        build_parser()._subparsers._group_actions[0].choices
    )
    for name, argv in runs.items():
        _, payload = run_json(capsys, argv)
        assert sorted(_key_paths(payload)) == sorted(JSON_SCHEMAS[name]), name
