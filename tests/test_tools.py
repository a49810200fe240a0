"""The timing script under tools/ behaves as a command-line tool."""

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
