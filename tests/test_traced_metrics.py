import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_every_traced_span_keeps_a_live_source(tmp_path):
    # perfbench/spans.py reads each per-layer metric from the spans of its
    # TARGETS; deleting the last function behind a span marks the metric
    # absent, which changes the shape of the benchmark's result line
    code = ("import json, sys\n"
            f"sys.path.insert(0, {str(ROOT / 'perfbench')!r})\n"
            "import spans\n"
            f"tracer = spans.install({str(tmp_path)!r})\n"
            "names = dict.fromkeys(t[2] for t in spans.TARGETS)\n"
            "print(json.dumps({'absent': tracer.absent, 'gone': [n for n in names"
            " if all(s in tracer.absent for s in spans._sources(n))]}))\n")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(ROOT / "src"), env.get("PYTHONPATH"))
                                        if p)
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=60, env=env)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout)
    assert result["gone"] == [], result["absent"]
