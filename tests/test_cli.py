"""Command-line interface: outputs, report files, exit codes."""

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import permax.verifier
from permax import CounterexampleError, d_matrix, format_matrix_text, p_matrix
from permax.cli import main


def write(tmp_path, name, matrix):
    path = tmp_path / name
    path.write_text(format_matrix_text(matrix))
    return str(path)


def test_per_methods(tmp_path, capsys):
    path = write(tmp_path, "p1.txt", p_matrix(1))
    for method in ("naive", "ryser", "rect"):
        assert main(["per", "--file", path, "--method", method]) == 0
        assert capsys.readouterr().out.strip() == "16"
    assert main(["per", "--file", path, "--method", "mper"]) == 0
    assert capsys.readouterr().out.strip() == "16"

    wide = write(tmp_path, "wide.txt", d_matrix(5, 4, 3))
    assert main(["per", "--file", wide, "--method", "mper"]) == 0
    assert capsys.readouterr().out.strip() == "32"


def test_rank_and_rankvec(tmp_path, capsys):
    path = write(tmp_path, "d.txt", d_matrix(5, 4, 3))
    assert main(["rank", "--file", path]) == 0
    assert capsys.readouterr().out.strip() == "4"
    assert main(["rankvec", "--file", path]) == 0
    assert capsys.readouterr().out.strip() == "2,3,0,0"


def test_dtable_formats(capsys):
    rows = [
        (1, 0, 1), (1, 1, -1),
        (2, 0, 2), (2, 1, 0), (2, 2, 2),
        (3, 0, 6), (3, 1, 2), (3, 2, 2), (3, 3, -2),
    ]
    for n_max, expected in ((0, []), (3, rows)):
        assert main(["dtable", "--n-max", str(n_max)]) == 0
        csv_lines = ["n,k,per"] + [f"{n},{k},{p}" for n, k, p in expected]
        assert capsys.readouterr().out == "\n".join(csv_lines) + "\n"

        assert main(["dtable", "--n-max", str(n_max), "--format", "json"]) == 0
        objects = [{"n": n, "k": k, "per": p} for n, k, p in expected]
        assert capsys.readouterr().out == json.dumps(objects, indent=2) + "\n"

    assert main(["dtable", "--n-max", "4"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[-1] == "4,4,8"
    # 2 + 3 + 4 + 5 value rows
    assert len(lines) == 15


def test_classify_output(tmp_path, capsys):
    path = write(tmp_path, "p1.txt", p_matrix(1))
    assert main(["classify", "--file", path]) == 0
    tag, seq = capsys.readouterr().out.splitlines()
    assert tag == "P1"
    assert seq == ""

    shuffled = write(tmp_path, "d65.txt", d_matrix(6, 6, 5))
    assert main(["classify", "--file", shuffled]) == 0
    assert capsys.readouterr().out.splitlines()[0] == "DnMinus1"


def test_verify_writes_report(tmp_path, capsys):
    out = tmp_path / "report.json"
    assert main(["verify", "--n", "3", "--out", str(out)]) == 0
    *lines, summary = capsys.readouterr().out.splitlines()
    assert lines == [
        "rank 1: bound 6, observed 6, orbits 1, D-only",
        "rank 2: bound 2, observed 2, orbits 1, D-only",
        "rank 3: bound 2, observed 2, orbits 1, D-only",
    ]
    assert re.fullmatch(r"scanned 16 matrices in \d+\.\d+s", summary)
    data = json.loads(out.read_text())
    assert [row["bound"] for row in data] == [6, 2, 2]


def test_verify_mper_csv_report(tmp_path, capsys):
    out = tmp_path / "report.csv"
    assert main(["verify-mper", "--k", "2", "--n", "4", "--out", str(out), "--format", "csv"]) == 0
    capsys.readouterr()
    lines = out.read_text().splitlines()
    assert lines[0].startswith("n,rank,bound")
    assert len(lines) == 2


def test_props_subcommand(capsys):
    assert main(["props", "--seed", "1", "--samples", "200"]) == 0
    *lines, summary = capsys.readouterr().out.splitlines()
    assert lines == [
        "ryser_vs_naive: 730 cases ok",
        "order4_divisibility: 512 cases ok",
        "total_bound: 66066 cases ok",
        "laplace_expansion: 2 cases ok",
        "transform_invariance: 20 cases ok",
        "rank_vector_laws: 2961 cases ok",
    ]
    assert re.fullmatch(r"all invariants held \(70291 cases, \d+\.\d+s\)", summary)


def test_props_report_lists_checks(tmp_path, capsys):
    jpath, cpath = tmp_path / "props.json", tmp_path / "props.csv"
    assert main(["props", "--seed", "1", "--samples", "200", "--out", str(jpath)]) == 0
    printed = [line for line in capsys.readouterr().out.splitlines() if line.endswith(" cases ok")]
    data = json.loads(jpath.read_text())
    assert [f"{row['check']}: {row['cases']} cases ok" for row in data] == printed
    assert all(list(row) == ["check", "cases", "scanned", "seconds"] for row in data)
    assert len({row["scanned"] for row in data}) == 1

    assert main(["props", "--seed", "1", "--samples", "200", "--out", str(cpath), "--format", "csv"]) == 0
    lines = cpath.read_text().splitlines()
    assert lines[0] == "check,cases,scanned,seconds"
    assert [line.split(",")[:3] for line in lines[1:]] == [
        [row["check"], str(row["cases"]), str(row["scanned"])] for row in data
    ]


def test_bad_inputs_exit_one(tmp_path, capsys):
    assert main(["per", "--file", str(tmp_path / "nope.txt")]) == 1
    assert "error:" in capsys.readouterr().err

    bad = tmp_path / "bad.txt"
    bad.write_text("2 2\n1 1\n1 2\n")
    assert main(["per", "--file", str(bad)]) == 1
    capsys.readouterr()

    assert main(["verify", "--n", "9"]) == 1
    capsys.readouterr()

    assert main(["verify-mper", "--k", "6", "--n", "7"]) == 1
    assert capsys.readouterr() == (
        "", "error: shape (6,7) needs 1456000 leaves x selections, over the 2^20 budget\n"
    )

    singular = write(tmp_path, "j6.txt", d_matrix(6, 6, 0))
    assert main(["classify", "--file", singular]) == 1
    capsys.readouterr()


def test_counterexample_exit_two(monkeypatch, capsys):
    def boom(n):
        raise CounterexampleError("fabricated for the exit-code path")

    monkeypatch.setattr("permax.cli.verify_square", boom)
    assert main(["verify", "--n", "4"]) == 2
    assert "FAIL:" in capsys.readouterr().err


def test_props_oracle_disagreement_exit_two(monkeypatch, capsys):
    real = permax.verifier.permanent_naive
    monkeypatch.setattr(
        permax.verifier, "permanent_naive", lambda a: real(a) + 2 * (a.rows == 8)
    )
    assert main(["props", "--seed", "4", "--samples", "400"]) == 2
    assert capsys.readouterr().err.startswith("FAIL: permanent oracle agreement violated\n8 8\n")


def test_kernel_fault_exit_three(monkeypatch, capsys):
    # reading the column sums backwards makes order 4 rank 3 beat its bound;
    # the recheck blames the kernel, which is no verdict and no bad input
    real = permax.verifier._last_row_values
    monkeypatch.setattr(permax.verifier, "_last_row_values", lambda b: real(b[:1] + b[:0:-1]))
    assert main(["verify", "--n", "4"]) == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("FAULT: sweep kernel fault:") and "Traceback" not in err


def test_sweep_check_failure_exit_three(monkeypatch, capsys):
    real = permax.verifier._polya_count
    monkeypatch.setattr(permax.verifier, "_polya_count", lambda r, m: real(r, m) + 1)
    assert main(["verify", "--n", "4"]) == 3
    assert capsys.readouterr() == ("", "FAULT: generated 13 prefix classes, the Polya count is 14\n")


def test_unknown_arguments_exit_two(capsys):
    # usage errors are bad input: exit 1 and one line, as for a bad file;
    # every sweep runs in one process, so ``verify`` takes no worker count
    for argv in (
        ["per", "--file", "x", "--method", "magic"],
        ["verify", "--n", "abc"],
        ["verify", "--n", "3", "--workers", "2"],
        [],
    ):
        with pytest.raises(SystemExit) as info:
            main(argv)
        assert info.value.code == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
    with pytest.raises(SystemExit) as info:
        main(["--help"])
    assert info.value.code == 0


def test_missing_report_directory_fails_before_the_run(tmp_path, monkeypatch, capsys):
    def refuse(*args):
        raise AssertionError("the sweep ran")

    monkeypatch.setattr("permax.cli.verify_square", refuse)
    monkeypatch.setattr("permax.cli.verify_properties", refuse)
    missing = tmp_path / "missing" / "x.json"
    for argv in (["verify", "--n", "3"], ["props", "--samples", "10"]):
        with pytest.raises(SystemExit) as info:
            main(argv + ["--out", str(missing)])
        assert info.value.code == 1
        err = capsys.readouterr().err
        assert err == f"error: argument --out: directory {missing.parent} does not exist\n"
    assert not missing.parent.exists()


def test_report_path_under_a_file_fails_before_the_run(tmp_path, capsys):
    afile = tmp_path / "afile"
    afile.write_text("")
    for argv in (["verify", "--n", "3"], ["props", "--samples", "10"]):
        with pytest.raises(SystemExit) as info:
            main(argv + ["--out", str(afile / "r.json")])
        assert info.value.code == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err == f"error: argument --out: {afile} is not a directory\n"


def test_directory_report_path_fails_before_the_run(tmp_path, capsys):
    for argv in (["verify", "--n", "4"], ["props", "--samples", "10"]):
        with pytest.raises(SystemExit) as info:
            main(argv + ["--out", str(tmp_path)])
        assert info.value.code == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err == f"error: argument --out: {tmp_path} is a directory\n"


def test_bad_numeric_arguments_exit_one(capsys):
    assert main(["dtable", "--n-max", "21"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert main(["props", "--samples", "-5"]) == 1
    err = capsys.readouterr().err
    assert err == "error: sample count must be positive, got -5\n"
    assert main(["verify", "--n", "1"]) == 1
    assert capsys.readouterr().err == "error: need order n >= 2, got n=1\n"


def test_cli_import_loads_no_pool_machinery():
    # neither the import nor a sweep asked for two workers loads a pool
    code = (
        "import sys; sys.path.insert(0, sys.argv[1]); import permax.cli; "
        "pools = lambda: [m for m in ('concurrent.futures', 'multiprocessing') if m in sys.modules]; "
        "print(pools()); permax.cli.verify_square(4, 2); print(pools())"
    )
    src = str(Path(permax.__file__).parent.parent)
    out = subprocess.run(
        [sys.executable, "-I", "-c", code, src], capture_output=True, text=True, timeout=60
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout == "[]\n[]\n"


@pytest.mark.parametrize("argv", [["dtable", "--n-max", "3"], ["verify", "--n", "3"]], ids=["dtable", "verify"])
def test_closed_stdout_exits_zero_after_writing_the_report(tmp_path, argv):
    out = tmp_path / "report.json"
    if argv[0] == "verify":
        argv = argv + ["--out", str(out)]
    read_end, write_end = os.pipe()
    os.close(read_end)  # the reader is gone before the run starts
    src = str(Path(permax.__file__).parent.parent)
    try:
        run = subprocess.run(
            [sys.executable, "-m", "permax.cli", *argv],
            stdout=write_end, stderr=subprocess.PIPE, text=True, timeout=60,
            env={**os.environ, "PYTHONPATH": src},
        )
    finally:
        os.close(write_end)
    assert (run.returncode, run.stderr) == (0, "")
    if argv[0] == "verify":
        assert json.loads(out.read_text())[0]["rank"] == 1
