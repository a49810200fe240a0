"""The timing script under tools/ behaves as a command-line tool."""

import shutil
import subprocess
import sys
from pathlib import Path

SCRIPT = Path(__file__).resolve().parent.parent / "tools" / "layer_us.py"


def test_layer_script_exits_quietly_when_its_reader_leaves():
    proc = subprocess.Popen(
        [sys.executable, str(SCRIPT)], stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True
    )
    try:
        assert proc.stdout.readline() == "# permanent: n ryser naive naive_first\n"
        proc.stdout.close()  # the reader leaves after the first section header
        err = proc.stderr.read()
        proc.wait(timeout=120)
    finally:
        proc.kill()
    assert "Traceback" not in err, err
    assert proc.returncode == 0


def test_layer_script_skips_a_section_whose_names_the_tree_lacks(tmp_path):
    # an older tree without props' private samplers: each props section
    # prints one skip line naming what it lacks, and the run goes on
    src = tmp_path / "src"
    shutil.copytree(
        SCRIPT.parent.parent / "src" / "permax", src / "permax",
        ignore=shutil.ignore_patterns("__pycache__"),
    )
    props = src / "permax" / "props.py"
    props.write_text(props.read_text() + "\ndel _first_disagreement, _first_transform_failure\n")
    proc = subprocess.Popen(
        [sys.executable, str(SCRIPT), "--src", str(src)],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
    )
    try:
        headers = []
        for line in proc.stdout:
            if line.startswith("#"):
                headers.append(line)
            if line.startswith("# rank:"):
                break
        proc.stdout.close()  # the reader leaves at the rank section's header
        err = proc.stderr.read()
        proc.wait(timeout=120)
    finally:
        proc.kill()
    assert "Traceback" not in err, err
    assert proc.returncode == 0
    assert headers == [
        "# permanent: n ryser naive naive_first\n",
        "# props_sample: skipped, props._first_disagreement missing\n",
        "# props_transform: skipped, props._first_transform_failure missing\n",
        "# rank: n uniform deficient\n",
    ]
