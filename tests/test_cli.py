import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from zpure import cli
from zpure.cli import (
    BUNDLED_EXAMPLES,
    MAX_LEMMA_OBJECTS,
    MAX_MODULUS,
    main,
    parse_sequence_document,
    report_document,
    sequence_document,
)
from zpure.finmod import divisors
from zpure.purity import MAX_FP_PAIRS, check_fp_budget, fp_catalog_pairs, harness_workers, purity_report


@pytest.fixture()
def run_cli(capsys):
    def run(*argv):
        code = main(list(argv))
        captured = capsys.readouterr()
        return code, captured.out, captured.err
    return run


def test_example_z4_nonpure(run_cli, tmp_path):
    code, out, _ = run_cli("example", "--name", "z4-nonpure")
    assert code == 0
    doc = json.loads(out)
    assert doc == {"modulus": 4, "L": [2], "M": [4], "N": [2], "f": [[2]], "g": [[1]]}
    path = tmp_path / "ex.json"
    code, _, _ = run_cli("example", "--name", "z4-nonpure", "--out", str(path))
    assert code == 0
    assert json.loads(path.read_text()) == doc


def test_example_unknown_name(run_cli):
    code, _, err = run_cli("example", "--name", "nonsense")
    assert code == 2
    assert "unknown example" in err


def test_check_z4_nonpure_all_false(run_cli, tmp_path):
    path = tmp_path / "seq.json"
    path.write_text(json.dumps(BUNDLED_EXAMPLES["z4-nonpure"]))
    code, out, _ = run_cli("check", str(path), "--format", "json")
    assert code == 0  # consensus holds, so the run succeeds
    doc = json.loads(out)
    assert doc["consensus"] is True
    assert all(v is False for v in doc["verdicts"].values())
    assert doc["witnesses"]["tensor"] == {"kind": "tensor", "cyclic": 2}
    assert doc["witnesses"]["hom_lifting"]["target"] == [1]
    assert doc["witnesses"]["pp_pairs"]["psi"] == "E y1 : x1 + 2y1 = 0"


def test_check_split_demo_all_true(run_cli, tmp_path):
    path = tmp_path / "seq.json"
    path.write_text(json.dumps(BUNDLED_EXAMPLES["split-demo"]))
    code, out, _ = run_cli("check", str(path), "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert all(doc["verdicts"].values())


def test_check_rejects_non_surjective(run_cli, tmp_path):
    bad = {"modulus": 4, "L": [2], "M": [4], "N": [2], "f": [[2]], "g": [[2]]}
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(bad))
    code, _, err = run_cli("check", str(path))
    assert code == 2
    assert "surjective" in err


def test_check_large_non_surjective_exits_quickly(tmp_path):
    # five generators at N=72: integer Smith reduction of this system blows up,
    # so the order of the image must not depend on it
    doc = {"modulus": 72, "L": [], "M": [24, 72, 72, 72, 72], "N": [24, 72, 72, 72, 72],
           "f": [[], [], [], [], []],
           "g": [[7, 18, 17, 4, 11], [57, 60, 8, 1, 60], [24, 70, 29, 24, 60],
                 [51, 70, 60, 50, 19], [21, 19, 66, 49, 1]]}
    path = tmp_path / "n72.json"
    path.write_text(json.dumps(doc))
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-m", "zpure.cli", "check", str(path)],
                          capture_output=True, text=True, timeout=30, env=env)
    assert proc.returncode == 2
    assert "g is not surjective" in proc.stderr


GOLDEN_REPORTS = Path(__file__).resolve().parent / "data" / "golden_check_reports.json"


@pytest.mark.parametrize("index", [0, 1])
def test_check_matches_golden_report(run_cli, tmp_path, index):
    # the hom_lifting witness follows the generator order of ModuleMap.kernel
    # (kernel_mod), so a change of that order shows here
    case = json.loads(GOLDEN_REPORTS.read_text())[index]
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(case["document"]))
    code, out, _ = run_cli("check", str(path), "--format", "json")
    assert code == 0
    report = json.loads(out)
    assert report["witnesses"]["hom_lifting"]["target"] == [1, 0, 0]
    expected = dict(case["report"], version=report["version"])
    assert report == expected


def test_check_rejects_ill_defined_map(run_cli, tmp_path):
    bad = {"modulus": 4, "L": [2], "M": [4], "N": [2], "f": [[1]], "g": [[1]]}
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(bad))
    code, _, err = run_cli("check", str(path))
    assert code == 2
    assert "ill-defined" in err


def test_check_rejects_bad_chain(run_cli, tmp_path):
    bad = {"modulus": 8, "L": [], "M": [4, 2], "N": [4, 2], "f": [[], []], "g": [[1, 0], [0, 1]]}
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(bad))
    code, _, err = run_cli("check", str(path))
    assert code == 2
    assert "chain" in err


def test_check_malformed_document(run_cli, tmp_path):
    path = tmp_path / "junk.json"
    path.write_text("{not json")
    code, _, err = run_cli("check", str(path))
    assert code == 3
    path2 = tmp_path / "missing.json"
    code, _, _ = run_cli("check", str(path2))
    assert code == 3


INEXACT_FIELDS = [
    ("modulus", True), ("modulus", 4.0), ("modulus", "4"),
    ("L", [True]), ("M", [4.0]), ("N", ["2"]), ("L", "2"),
    ("f", [[2.5]]), ("f", [[True]]), ("g", [["1"]]), ("g", [1]), ("f", None),
]


@pytest.mark.parametrize("key,value", INEXACT_FIELDS,
                         ids=[f"{k}={json.dumps(v)}" for k, v in INEXACT_FIELDS])
def test_check_rejects_inexact_numbers(run_cli, tmp_path, key, value):
    # a float would be truncated, a bool read as 0 or 1, a string as digits
    doc = dict(BUNDLED_EXAMPLES["z4-nonpure"], **{key: value})
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    code, out, err = run_cli("check", str(path))
    assert code == 2
    assert out == ""
    assert "Traceback" not in err
    assert "malformed sequence document" in err


def _doc(**changes) -> bytes:
    return json.dumps(dict(BUNDLED_EXAMPLES["z4-nonpure"], **changes)).encode()


DOCUMENT_KEYS = ("modulus", "L", "M", "N", "f", "g")

# (id, file contents, exit code): malformed JSON and unreadable text exit 3,
# every parsed document the parser refuses exits 2
MALFORMED_DOCUMENTS = [
    ("top-list", json.dumps([BUNDLED_EXAMPLES["z4-nonpure"]]).encode(), 2),
    ("top-number", b"4", 2),
    ("top-null", b"null", 2),
    ("modulus-list", _doc(modulus=[4]), 2),
    ("modulus-nan", _doc(modulus=float("nan")), 2),
    ("modulus-zero", _doc(modulus=0), 2),
    ("modulus-negative", _doc(modulus=-4), 2),
    ("modulus-huge", _doc(modulus=2 ** 200), 2),
    ("modulus-huge-with-invariants",
     json.dumps({"modulus": 2 ** 64, "L": [], "M": [2 ** 64], "N": [2 ** 64],
                 "f": [[]], "g": [[1]]}).encode(), 2),
    ("L-nested-list", _doc(L=[[2]]), 2),
    ("M-number", _doc(M=4), 2),
    ("invariant-huge", _doc(M=[4 ** 100]), 2),
    ("invariant-negative", _doc(L=[-2]), 2),
    ("invariant-zero", _doc(L=[0]), 2),
    ("invariant-one", _doc(N=[1]), 2),
    ("f-ragged", _doc(M=[2, 4], N=[4], f=[[1], [0, 1]], g=[[0, 1]]), 2),
    ("f-oversized", _doc(f=[[2, 0], [0, 2]]), 2),
    ("f-extra-column", _doc(f=[[2, 0]]), 2),
    ("f-missing-row", _doc(f=[]), 2),
    ("f-flat", _doc(f=[2]), 2),
    ("f-three-levels", _doc(f=[[[2]]]), 2),
    ("g-null-entry", _doc(g=[[None]]), 2),
    ("missing-key", json.dumps({"modulus": 4}).encode(), 2),
    ("not-json", b"{not json", 3),
    ("empty-file", b"", 3),
    ("deeply-nested", b"[" * 100000 + b"]" * 100000, 3),
    ("not-utf8", b'{"modulus": \xff}', 3),
] + [(f"{key}-{name}", _doc(**{key: value}), 2)
     for key in DOCUMENT_KEYS for name, value in (("object", {"0": 2}), ("null", None))]


@pytest.mark.parametrize("contents,expected", [row[1:] for row in MALFORMED_DOCUMENTS],
                         ids=[row[0] for row in MALFORMED_DOCUMENTS])
def test_check_fuzzed_documents_fail_cleanly(run_cli, tmp_path, contents, expected):
    path = tmp_path / "doc.json"
    path.write_bytes(contents)
    code, out, err = run_cli("check", str(path))
    assert code == expected
    assert out == ""
    assert "Traceback" not in err
    assert err.startswith("error: ") and err.count("\n") == 1


def _lru_caches():
    """Every lru_cache in the zpure modules: module functions and the
    methods, class methods and static methods of their classes."""
    import importlib
    import inspect
    import pkgutil

    import zpure

    for info in pkgutil.iter_modules(zpure.__path__):
        module = importlib.import_module(f"zpure.{info.name}")
        for name, obj in vars(module).items():
            if getattr(obj, "__module__", None) != module.__name__:
                continue  # imported from elsewhere; found in its own module
            members = vars(obj).items() if inspect.isclass(obj) else [("", obj)]
            for attr, member in members:
                fn = getattr(member, "__func__", member)
                if hasattr(fn, "cache_parameters"):
                    yield ".".join(p for p in (module.__name__, name, attr) if p), fn


def test_every_cache_is_bounded():
    caches = dict(_lru_caches())
    assert {"zpure.ppdef.PpPair.of", "zpure.ppdef.eval_pp", "zpure.purity.fp_term",
            "zpure.finmod.hom_module"} <= set(caches)
    unbounded = [name for name, fn in caches.items()
                 if fn.cache_parameters()["maxsize"] is None]
    assert unbounded == []


def test_roundtrip_documents():
    for name, doc in BUNDLED_EXAMPLES.items():
        seq = parse_sequence_document(doc)
        assert sequence_document(seq) == doc
        report = purity_report(seq)
        rd = report_document(seq, report)
        again = json.loads(json.dumps(rd))
        assert again == rd


def test_random_exit_codes_and_determinism(run_cli):
    code, out1, _ = run_cli("random", "--modulus", "4", "--trials", "30",
                            "--seed", "7", "--format", "json")
    assert code == 0
    code, out2, _ = run_cli("random", "--modulus", "4", "--trials", "30",
                            "--seed", "7", "--format", "json")
    assert out1 == out2
    code, out3, _ = run_cli("random", "--modulus", "4", "--trials", "30",
                            "--seed", "7", "--jobs", "2", "--format", "json")
    assert out1 == out3
    doc = json.loads(out1)
    assert doc["disagreements"] == 0
    assert doc["trials"] == 30


def test_random_invalid_trials(run_cli):
    code, _, err = run_cli("random", "--modulus", "4", "--trials", "0")
    assert code == 2


def test_random_negative_max_gens(run_cli):
    code, out, err = run_cli("random", "--modulus", "4", "--trials", "2",
                             "--max-gens", "-1")
    assert code == 2
    assert out == ""
    assert err == "error: max_gens must be >= 0\n"


def test_harness_workers_clamped():
    cpus = os.cpu_count() or 1
    assert harness_workers(10 ** 9, 3) == min(3, cpus)
    assert harness_workers(10 ** 9, 10 ** 9) == cpus
    assert harness_workers(2, 100) == min(2, cpus)
    assert harness_workers(1, 100) == 1


def test_lemmas_small(run_cli):
    code, out, _ = run_cli("lemmas", "--modulus", "4", "--trials", "3",
                           "--seed", "1", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["all_passed"] is True
    names = {s["name"] for s in doc["suites"]}
    assert names == {"coend_evaluation", "restriction", "hom_tensor_duality",
                     "dual_of_hom", "fully_faithful"}


def test_lemmas_degenerate_modulus(run_cli):
    code, out, _ = run_cli("lemmas", "--modulus", "1", "--trials", "2",
                           "--seed", "0", "--format", "json")
    assert code == 0
    assert json.loads(out)["all_passed"] is True


def test_text_output_modes(run_cli, tmp_path):
    path = tmp_path / "seq.json"
    path.write_text(json.dumps(BUNDLED_EXAMPLES["split-demo"]))
    code, out, _ = run_cli("check", str(path), "--format", "text")
    assert code == 0
    assert "consensus: yes" in out
    code, out, _ = run_cli("random", "--modulus", "4", "--trials", "5",
                           "--seed", "1", "--format", "text")
    assert code == 0
    assert "disagreements: 0" in out
    code, out, _ = run_cli("random", "--modulus", "4", "--trials", "10",
                           "--seed", "3", "--format", "text")
    assert code == 0
    assert ("  not pure by checker: hom_lifting 3, split 3, fp_functors 3, "
            "pp_pairs 3, tensor 3, dual_split 3") in out.splitlines()
    code, out, _ = run_cli("lemmas", "--modulus", "4", "--trials", "2",
                           "--seed", "0", "--format", "text")
    assert code == 0
    assert "coend_evaluation" in out


# ---------------------------------------------------------------------------
# Work budgets, checked before anything is built


def _refuse_builds(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("built past the budget check")
    from zpure import purity

    monkeypatch.setattr(cli, "run_all_suites", refuse)
    monkeypatch.setattr(cli, "purity_report", refuse)
    monkeypatch.setattr(purity, "enumerate_pp", refuse)
    monkeypatch.setattr(purity, "fp_catalog", refuse)


def _one_error_line(out, err):
    return out == "" and err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("modulus", [5040, 720720, 10 ** 12])
def test_lemmas_refuses_modulus_over_object_budget(run_cli, monkeypatch, modulus):
    _refuse_builds(monkeypatch)
    code, out, err = run_cli("lemmas", "--modulus", str(modulus), "--trials", "1")
    assert len(divisors(modulus)) > MAX_LEMMA_OBJECTS
    assert code == 2
    assert _one_error_line(out, err)
    assert f"{MAX_LEMMA_OBJECTS} objects" in err


def test_lemmas_budget_admits_2520(run_cli, monkeypatch):
    calls = []
    monkeypatch.setattr(cli, "run_all_suites", lambda *args: calls.append(args) or [])
    code, _, _ = run_cli("lemmas", "--modulus", "2520", "--trials", "1", "--seed", "1")
    assert len(divisors(2520)) == 48 <= MAX_LEMMA_OBJECTS
    assert code == 0 and calls == [(2520, 1, 1)]


@pytest.mark.parametrize("command", ["lemmas", "random"])
def test_modulus_cap_applies_to_every_command(run_cli, monkeypatch, command):
    _refuse_builds(monkeypatch)
    code, out, err = run_cli(command, "--modulus", str(MAX_MODULUS + 1), "--trials", "1")
    assert code == 2
    assert _one_error_line(out, err)
    assert "exceeds the supported" in err


def test_fp_pair_count_matches_the_catalog_modules():
    from zpure.purity import _modules_with_bounded_gens

    for n in (1, 2, 7, 12, 24, 32, 72, 360):
        for depth in (0, 1, 2, 3):
            pairs = len(_modules_with_bounded_gens(n, depth)) ** 2
            if pairs <= MAX_FP_PAIRS:
                assert fp_catalog_pairs(n, depth) == pairs, (n, depth)
            else:
                assert fp_catalog_pairs(n, depth) > MAX_FP_PAIRS, (n, depth)


def test_fp_budget_admits_360_and_refuses_2_39():
    assert fp_catalog_pairs(360, 2) == 32400
    check_fp_budget(360, 2)
    assert fp_catalog_pairs(2 ** 39, 2) == 672400
    assert fp_catalog_pairs(1, 10 ** 9) == 1  # no divisor >= 2: one module at any depth


def test_fp_budget_refuses_check_and_random_quickly(run_cli, monkeypatch, tmp_path):
    import time

    _refuse_builds(monkeypatch)
    path = tmp_path / "p39.json"
    path.write_text(json.dumps({"modulus": 2 ** 39, "L": [], "M": [], "N": [],
                                "f": [], "g": []}))
    for argv in (("check", str(path)), ("random", "--modulus", str(2 ** 39), "--trials", "1")):
        t0 = time.perf_counter()
        code, out, err = run_cli(*argv)
        assert time.perf_counter() - t0 < 1.0, argv
        assert code == 2, argv
        assert _one_error_line(out, err), argv
        assert "fp catalog" in err and f"budget of {MAX_FP_PAIRS}" in err


@pytest.mark.parametrize("bounds,message", [
    (("--fp-depth", "0"), "fp_depth 0"),
    (("--pp-free", "2", "--pp-rows", "0"), "pp_rows 0"),
])
def test_bounds_that_decide_nothing_are_refused(run_cli, monkeypatch, tmp_path, bounds, message):
    # such a catalog holds only a trivial entry, so its checker calls every
    # sequence pure and z4-nonpure would read as a defect
    _refuse_builds(monkeypatch)
    path = tmp_path / "z4.json"
    path.write_text(json.dumps(BUNDLED_EXAMPLES["z4-nonpure"]))
    for argv in (("check", str(path)),
                 ("random", "--modulus", "8", "--trials", "100", "--seed", "3")):
        code, out, err = run_cli(*argv, *bounds)
        assert code == 2, argv
        assert _one_error_line(out, err), argv
        assert message in err, argv


@pytest.mark.parametrize("modulus", ["4", "8"])
def test_annihilators_decide_purity_without_pp_rows(run_cli, modulus):
    code, out, _ = run_cli("random", "--modulus", modulus, "--trials", "60", "--seed", "3",
                           "--pp-free", "1", "--pp-exists", "0", "--pp-rows", "0",
                           "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["disagreements"] == 0
    assert doc["checker_false_counts"]["pp_pairs"] == doc["trials"] - doc["pure_count"] > 0


def test_random_refuses_trials_over_budget_quickly(run_cli, monkeypatch):
    import time

    from zpure.purity import MAX_TRIALS

    assert MAX_TRIALS == 100_000
    _refuse_builds(monkeypatch)
    t0 = time.perf_counter()
    code, out, err = run_cli("random", "--modulus", "4", "--trials", "100001")
    assert time.perf_counter() - t0 < 2.0
    assert code == 2
    assert _one_error_line(out, err)
    assert f"over the budget of {MAX_TRIALS}" in err


@pytest.mark.parametrize("jobs", ["0", "-1"])
def test_random_refuses_jobs_below_one(run_cli, monkeypatch, jobs):
    _refuse_builds(monkeypatch)
    code, out, err = run_cli("random", "--modulus", "4", "--trials", "3", "--jobs", jobs)
    assert code == 2
    assert _one_error_line(out, err)
    assert "jobs must be >= 1" in err


def test_lemmas_refuses_trials_over_budget_quickly(run_cli, monkeypatch):
    import time

    from zpure.purity import MAX_TRIALS

    _refuse_builds(monkeypatch)
    t0 = time.perf_counter()
    code, out, err = run_cli("lemmas", "--modulus", "2", "--trials", str(MAX_TRIALS + 1))
    assert time.perf_counter() - t0 < 2.0
    assert code == 2
    assert _one_error_line(out, err)
    assert f"over the budget of {MAX_TRIALS}" in err
    calls = []
    monkeypatch.setattr(cli, "run_all_suites", lambda *args: calls.append(args) or [])
    code, _, _ = run_cli("lemmas", "--modulus", "2", "--trials", str(MAX_TRIALS), "--seed", "1")
    assert code == 0 and calls == [(2, MAX_TRIALS, 1)]


def test_fp_budget_guards_the_library():
    from zpure.errors import InputError
    from zpure.purity import Bounds, equivalence_harness, fp_catalog

    with pytest.raises(InputError, match="fp catalog"):
        fp_catalog(2 ** 39, 2)
    with pytest.raises(InputError, match="fp catalog"):
        equivalence_harness(72, 1, 0, bounds=Bounds(fp_depth=4))
    for jobs in (0, -1):
        with pytest.raises(InputError, match="jobs must be >= 1"):
            equivalence_harness(4, 3, 0, jobs=jobs)


def test_cli_import_leaves_out_the_process_pool():
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    # random neither loads funcat nor imports a process pool, even when it
    # forks; the star import still binds every public name, funcat's too
    code = ("import os, sys, zpure, zpure.cli\n"
            "os.cpu_count = lambda: 4\n"
            "assert zpure.cli.main(['random', '--modulus', '4', '--trials', '2']) == 0\n"
            "assert zpure.cli.main(['random', '--modulus', '8', '--trials', '4',"
            " '--jobs', '2']) == 0\n"
            "loaded = {'zpure.funcat', 'zpure.suites', 'concurrent.futures',"
            " 'multiprocessing'} & set(sys.modules)\n"
            "assert not loaded, loaded\n"
            "names = {}\n"
            "exec('from zpure import *', names)\n"
            "assert set(zpure.__all__) <= set(names), set(zpure.__all__) - set(names)\n")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=30, env=env)
    assert proc.returncode == 0, proc.stderr
