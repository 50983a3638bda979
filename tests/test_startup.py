"""Which modules a CLI job loads: each command imports only the modules it
runs, and only ``project`` loads numpy.random, checked in a fresh interpreter
per command."""

import json
import subprocess
import sys

import numpy as np
import pytest

from qfpsim import io
from qfpsim.problems import eq_matrix
from tests.test_embeddings import eq_orthonormal_embedding
from tests.test_io_cli import child_env

CHILD = """
import json, sys
from qfpsim import cli
status = cli.main(json.loads(sys.argv[1]))
print(json.dumps({"status": status, "dataclasses": "dataclasses" in sys.modules,
                  "numpy_random": "numpy.random" in sys.modules,
                  "modules": sorted(n for n in sys.modules if n.partition(".")[0] == "qfpsim")}))
"""


@pytest.fixture
def inputs(tmp_path):
    """A directory holding m.json (EQ-3), e.json (states for it) and v.json."""
    vectors = np.random.default_rng(0).standard_normal((6, 8))
    documents = {
        "m.json": ("sign_matrix", io.sign_matrix_payload(eq_matrix(3))),
        "e.json": ("embedding", io.embedding_payload(eq_orthonormal_embedding(8))),
        "v.json": ("vectors", io.vectors_payload(vectors)),
    }
    for name, (kind, payload) in documents.items():
        io.dump(io.document(kind, payload), str(tmp_path / name))
    return tmp_path


def loaded(argv, cwd):
    """The qfpsim modules, without the package prefix, that running
    ``cli.main(argv)`` in a fresh interpreter loads, and whether it loaded
    ``dataclasses`` and ``numpy.random``."""
    out = subprocess.run([sys.executable, "-c", CHILD, json.dumps([*argv, "--out", "out.json"])],
                         cwd=cwd, env=child_env(), capture_output=True, text=True, check=True)
    result = json.loads(out.stdout)
    assert result["status"] == 0, out.stderr
    return ({n.removeprefix("qfpsim.") for n in result["modules"]}, result["dataclasses"],
            result["numpy_random"])


def test_margin_loads_only_the_bounds_path(inputs):
    modules, dataclasses, numpy_random = loaded(["margin", "--matrix", "m.json"], inputs)
    assert modules == {"qfpsim", "cli", "io", "embeddings", "linalg", "_kernels", "_record",
                       "bounds"}
    assert not dataclasses and not numpy_random


# Only project draws from numpy's PCG64 (``_rng.generator``); simulate's
# draws come from the standard library (``_rng.uniforms``).
@pytest.mark.parametrize("argv, runs, skipped, numpy_random", [
    (["project", "--vectors", "v.json", "--dim", "4"], "projections",
     {"compiler", "problems", "fingerprint"}, True),
    (["compile", "--builtin", "eq", "--n", "3"], "compiler", {"fingerprint"}, False),
    (["simulate", "--embedding", "e.json", "--matrix", "m.json"], "fingerprint",
     {"compiler", "problems"}, False),
    (["simulate", "--builtin", "eq", "--n", "3"], "fingerprint", set(), False),
    (["margin", "--builtin", "ip", "--k", "2"], "problems", {"compiler", "projections"}, False),
    (["verify", "--builtin", "eq", "--n", "3", "--embedding", "e.json"], "problems",
     {"compiler", "projections"}, False),
], ids=["project", "compile", "simulate-embedding", "simulate-builtin", "margin-builtin",
        "verify-builtin"])
def test_commands_load_no_module_they_do_not_run(inputs, argv, runs, skipped, numpy_random):
    modules, _, loaded_numpy_random = loaded(argv, inputs)
    assert runs in modules and not modules & skipped
    assert loaded_numpy_random == numpy_random
